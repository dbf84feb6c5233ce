"""Per-center certificates: the numerical tests that exclude a center as a
maximal center, or tag the birational involution / link that untwists it.

`POINT_RULES` states, for every catalog family and every point center of its
general member, which certificate applies under which condition; `dispatch`
evaluates the branch of one condition and returns certificate and verdict
together.  Conditions are machine-readable strings such as
"exists-wci(1,1,2)" or "monomial-absent(y^2 z)", mirroring the condition
marks of the catalog's link column; "" marks an unconditional branch.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .blowup import (BlowupLattice, DivisorClass, SectionLift, ambient_quadruple, b_cubed,
                     kawamata_numbers, nef_bound_check, triple, vanishing_order)
from .catalog import Catalog, Member
from .singularities import CAxPoint, QuotientSingularity, support_with_point_at_vertex, tangent_monomials
from .wps import MonomialSupport, max_pair_lcm, rat_str, record


class UncoveredCaseError(ValueError):
    """No certificate covers the requested center under the given condition."""


# ---------------------------------------------------------------------------
# Centers, certificates, verdicts
# ---------------------------------------------------------------------------

@record
class Center:
    kind: str  # "curve" | "smooth-point" | "quotient-point" | "cax-point"
    degree: Fraction | None = None
    quotient: QuotientSingularity | None = None
    cax: CAxPoint | None = None

    @classmethod
    def curve(cls, degree: Fraction) -> "Center":
        if degree <= 0:
            raise ValueError("curve degree must be positive")
        return cls(kind="curve", degree=degree)

    @classmethod
    def smooth_point(cls) -> "Center":
        return cls(kind="smooth-point")

    @classmethod
    def quotient_point(cls, q: QuotientSingularity) -> "Center":
        return cls(kind="quotient-point", quotient=q)

    @classmethod
    def cax_point(cls, p: CAxPoint) -> "Center":
        return cls(kind="cax-point", cax=p)

    @property
    def locus(self) -> str:
        """The point's locus: "p4" for the cAx point, else the quotient point's."""
        return "p4" if self.kind == "cax-point" else self.quotient.locus

    def describe(self) -> str:
        if self.kind == "curve":
            return f"curve of degree {rat_str(self.degree)}"
        if self.kind == "smooth-point":
            return "nonsingular point"
        if self.kind == "quotient-point":
            return f"{self.quotient.locus} = {self.quotient.type_str()}"
        return f"p4 = {self.cax.type_str()}"


@record
class Verdict:
    excluded: bool
    method: str
    witness: Fraction | None = None

    @property
    def resolved(self) -> bool:
        return self.excluded or self.method == "untwist"


@record
class CurveDegree:
    method = "curve-degree"
    deg: Fraction
    a_cube: Fraction


@record
class CurveGamma:
    method = "curve-gamma"
    a_cube: Fraction
    deg: Fraction
    gamma_sq: Fraction


@record
class CurveCycle:
    """A residual 1-cycle on the cutting surface meeting the curve at least as
    positively as the polarization does: (Gamma . Delta) >= (A . Delta) > 0."""
    method = "curve-cycle"
    gamma_dot_delta: Fraction
    a_dot_delta: Fraction


@record
class Isolation:
    method = "isolation"
    bound: int
    limit: Fraction
    dropped_vertex: int | None


@record
class SurfacePair:
    method = "surface-pair"
    a1: int
    b_cube: Fraction
    gamma_support: MonomialSupport
    irreducibility_flag: bool


@record
class NefDivisor:
    method = "nef-divisor"
    lifts: tuple[SectionLift, ...]
    q: QuotientSingularity
    m_b2: Fraction
    c: Fraction
    certified: bool


@record
class NegDefMatrix:
    """Intersection matrix [[alpha - m, m], [m, beta - m]] of a curve pair,
    negative-definite for every rational m >= parameter_floor."""
    method = "negdef-matrix"
    alpha: Fraction
    beta: Fraction
    parameter_floor: Fraction

    def entries_at(self, m: Fraction) -> list[list[Fraction]]:
        return [[self.alpha - m, m], [m, self.beta - m]]


@record
class InfiniteCurves:
    method = "infinite-curves"
    b_dot_c: Fraction
    e_dot_c: Fraction


@record
class Untwist:
    method = "untwist"
    tag: str  # "QI" | "EI" | "II" | "link"
    point: str
    condition: str = ""
    counterpart_id: int | None = None
    eligible: bool | None = None


Certificate = (CurveDegree | CurveGamma | CurveCycle | Isolation | SurfacePair
               | NefDivisor | NegDefMatrix | InfiniteCurves | Untwist)


def certificate_json(cert: Certificate) -> dict:
    """A certificate as a JSON object: its method as "paper_method" and one
    key per record field; a NegDefMatrix adds its entries at the parameter
    floor."""
    blob = {"paper_method": cert.method}
    for name in cert.__record_fields__:
        blob[name] = _json_value(getattr(cert, name))
    if isinstance(cert, NegDefMatrix):
        blob["entries"] = _json_value(cert.entries_at(cert.parameter_floor))
    return blob


def _json_value(value):
    """Fractions as "p/q", a support as its sorted exponent lists, a quotient
    point as its type, a section lift as [class_b, class_e], sequences
    element-wise; ints, flags, strings and None as they are."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, MonomialSupport):
        return [list(m) for m in value.sorted()]
    if isinstance(value, QuotientSingularity):
        return value.type_str()
    if isinstance(value, SectionLift):
        return [value.class_b, rat_str(value.class_e)]
    return value


# ---------------------------------------------------------------------------
# Elementary tests
# ---------------------------------------------------------------------------

def curve_degree_test(deg: Fraction, a_cube: Fraction) -> Verdict:
    """A curve of degree at least (-K)^3 is not a maximal center."""
    if deg <= 0 or a_cube <= 0:
        raise ValueError("degree and (-K)^3 must be positive")
    return Verdict(excluded=deg >= a_cube, method="curve-degree", witness=deg - a_cube)


def curve_gamma_test(a_cube: Fraction, deg: Fraction, gamma_sq: Fraction) -> Verdict:
    """Low-degree curve with negative self-intersection on the cutting surface:
    excluded when 3 (-K)^3 - 2 deg + Gamma^2 <= 0."""
    if gamma_sq >= 0:
        raise ValueError("the self-intersection bound must be negative")
    witness = 3 * a_cube - 2 * deg + gamma_sq
    return Verdict(excluded=witness <= 0, method="curve-gamma", witness=witness)


def curve_cycle_test(gamma_dot_delta: Fraction, a_dot_delta: Fraction) -> Verdict:
    witness = gamma_dot_delta - a_dot_delta
    return Verdict(excluded=witness >= 0 and a_dot_delta > 0, method="curve-cycle", witness=witness)


def isolation_test(weights, dropped_vertex: int | None, a_cube: Fraction) -> tuple[int, Verdict]:
    """Nonsingular points are isolated by multiples of the polarization up to
    the max pairwise lcm of the surviving weights; excluded when that bound
    stays within 4 / (-K)^3."""
    keep = tuple(i for i in range(len(weights)) if i != dropped_vertex)
    bound = max_pair_lcm(weights, keep)
    limit = Fraction(4) / a_cube
    return bound, Verdict(excluded=Fraction(bound) <= limit, method="isolation", witness=Fraction(bound))


def surface_pair_test(a1: int, b_cube: Fraction, gamma_support: MonomialSupport,
                      irreducibility_flag: bool) -> Verdict:
    """(T . Gamma) = a1^2 (-K_Y)^3 <= 0 on the pair of coordinate surfaces,
    provided the restriction curve is irreducible."""
    if not irreducibility_flag:
        raise UncoveredCaseError(
            "surface-pair certificate needs the irreducibility condition; "
            "fall back to the family-specific certificate")
    if not gamma_support.monomials:
        raise ValueError("empty restriction support")
    witness = a1 * a1 * b_cube
    return Verdict(excluded=witness <= 0, method="surface-pair", witness=witness)


def negdef2(m: list[list[Fraction]]) -> bool:
    """Negative definiteness of a symmetric 2x2 rational matrix."""
    if m[0][1] != m[1][0]:
        raise ValueError("matrix is not symmetric")
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return m[0][0] < 0 and det > 0


def negdef_for_all(cert: NegDefMatrix) -> bool:
    """Negative definiteness of [[alpha - m, m], [m, beta - m]] for every
    rational m >= floor: the determinant is affine in m and the leading entry
    decreases, so it suffices to check the floor and the determinant slope."""
    at_floor = negdef2(cert.entries_at(cert.parameter_floor))
    slope_ok = -(cert.alpha + cert.beta) >= 0
    return at_floor and slope_ok


def infinite_curves_test(b_dot_c: Fraction, e_dot_c: Fraction) -> Verdict:
    """An infinite family of curves meeting -K non-positively and E positively."""
    return Verdict(excluded=b_dot_c <= 0 and e_dot_c > 0, method="infinite-curves", witness=b_dot_c)


def gamma_polynomial(member: Member) -> MonomialSupport:
    """Support of the defining polynomial restricted to the two heaviest
    x-coordinates and w (the curve cut by the two lightest coordinate
    hyperplanes), as exponent triples (e2, e3, e_w).

    Family 23 is stated in the normalized coordinates that put its edge point
    at the x2 vertex, which strikes the pure x2 power from the restriction.
    """
    record = member.gprime
    support = member.support
    if record.id in GAMMA_NORMALIZED:
        support = support_with_point_at_vertex(support, vertex=2, weight=record.weights[2])
    restricted = frozenset(
        (m[2], m[3], m[4]) for m in support.monomials if m[0] == 0 and m[1] == 0
    )
    return MonomialSupport(degree=support.degree, monomials=restricted)


GAMMA_NORMALIZED = frozenset({23})


def point_vertex(weights: tuple[int, ...], locus: str) -> int:
    """The vertex at which the local data of the quotient point at `locus`
    (a quadratic involution, a nef divisor's sections) are read: a vertex
    point's own vertex; for an edge point pIpJ, the end whose weight is the
    edge's stabilizer order gcd(w_I, w_J), to which the point moves."""
    if locus.count("p") == 1:
        return int(locus[1:])
    i, j = int(locus[1]), int(locus[3])
    r = math.gcd(weights[i], weights[j])
    vertex = i if weights[i] == r else j
    if weights[vertex] != r:
        raise UncoveredCaseError(f"edge {locus} point cannot be moved to a vertex")
    return vertex


def qi_eligible(member: Member, locus: str) -> bool:
    """Structural eligibility for a quadratic involution at the quotient
    point at `locus`: at its vertex v (`point_vertex`) the defining polynomial
    contains x_v^2 x_j for some other coordinate j, a tangent monomial with
    k = 2."""
    w = member.gprime.weights
    return any(k == 2 for k, _ in tangent_monomials(member.support, w, point_vertex(w, locus)))


# ---------------------------------------------------------------------------
# Per-family dispatch data
# ---------------------------------------------------------------------------

@record
class RuleBranch:
    condition: str  # "" = unconditional
    method: str
    tag: str  # golden link tag for point centers; "" for curve/smooth rows


# which vertex is dropped in the smooth-point isolation bound
ISOLATION_DROP = {17: 3, 19: 2, 23: 4, 29: 3, 30: 3, 41: 3, 42: 2,
                  49: 3, 50: 1, 55: 3, 69: 3, 74: 3, 77: 3, 82: 3}

# degree of the exceptional low-degree curve through the cAx point, where one exists
SPECIAL_CURVE_DEG = {17: Fraction(1, 2), 19: Fraction(1, 2), 23: Fraction(1, 4)}

# self-intersection bounds of the exceptional curves on their cutting surfaces
CURVE_GAMMA_SQ = {19: Fraction(-3, 2), 23: Fraction(-1)}

# worst-case (Gamma . Delta) and deg Delta of the residual curve pair, family 17
CURVE_CYCLE_DATA = {17: (Fraction(1), Fraction(1, 2))}

# coordinates whose sections lift to the nef divisor certificate's classes
NEF_SECTIONS = (0, 2, 4)

POINT_RULES: dict[int, dict[str, tuple[RuleBranch, ...]]] = {
    17: {},
    19: {"p2p4": (RuleBranch("not-exists-wci(1,1,2)", "untwist", "EI"),
                  RuleBranch("exists-wci(1,1,2)", "untwist", "II")),
         "p3": (RuleBranch("", "untwist", "QI"),)},
    23: {"p2p4": (RuleBranch("not-exists-wci(1,1,4)", "surface-pair", "none"),
                  RuleBranch("exists-wci(1,1,4)", "infinite-curves", "none")),
         "p3": (RuleBranch("", "untwist", "QI"),)},
    29: {"p2p4": (RuleBranch("", "surface-pair", "none"),)},
    30: {"p2": (RuleBranch("monomial-present(y^2 z)", "untwist", "QI"),
                RuleBranch("monomial-absent(y^2 z)", "infinite-curves", "none")),
         "p3": (RuleBranch("", "untwist", "QI"),)},
    41: {"p2p3": (RuleBranch("", "untwist", "QI"),)},
    42: {"p2p4": (RuleBranch("", "surface-pair", "none"),),
         "p3": (RuleBranch("", "untwist", "QI"),)},
    49: {"p2p4": (RuleBranch("", "surface-pair", "none"),)},
    50: {"p1p4": (RuleBranch("not-exists-wci(1,3,4)", "nef-divisor", "none"),
                  RuleBranch("exists-wci(1,3,4)", "negdef-matrix", "none")),
         "p2": (RuleBranch("monomial-present(z^3 t)", "surface-pair", "none"),
                RuleBranch("monomial-absent(z^3 t)", "negdef-matrix", "none")),
         "p3": (RuleBranch("", "untwist", "QI"),)},
    55: {"p2": (RuleBranch("", "infinite-curves", "none"),),
         "p2p4": (RuleBranch("", "surface-pair", "none"),)},
    69: {"p2": (RuleBranch("", "infinite-curves", "none"),)},
    74: {"p1p4": (RuleBranch("", "nef-divisor", "none"),),
         "p2p3": (RuleBranch("", "surface-pair", "none"),)},
    77: {"p2p3": (RuleBranch("", "surface-pair", "none"),),
         "p2p4": (RuleBranch("", "surface-pair", "none"),)},
    82: {"p1p4": (RuleBranch("", "nef-divisor", "none"),),
         "p2": (RuleBranch("", "surface-pair", "none"),)},
}
# every family's cAx point p4 is untwisted by the link to its G model
for _rules in POINT_RULES.values():
    _rules["p4"] = (RuleBranch("", "untwist", "link"),)


def minimal_curve_degree(member: Member) -> Fraction:
    """Smallest curve degree not handled by a special certificate: curves
    through the cAx point have degree in (1/modulus) Z."""
    step = Fraction(1, member.cax.modulus)
    deg = step
    while deg == SPECIAL_CURVE_DEG.get(member.g.id):
        deg += step
    return deg


# ---------------------------------------------------------------------------
# Certificate builders
# ---------------------------------------------------------------------------

def _surface_pair(member: Member, q: QuotientSingularity, flag: bool) -> tuple[SurfacePair, Verdict]:
    record = member.gprime
    cert = SurfacePair(
        a1=record.weights[1],
        b_cube=b_cubed(member.a_cube, q),
        gamma_support=gamma_polynomial(member),
        irreducibility_flag=flag,
    )
    return cert, surface_pair_test(cert.a1, cert.b_cube, cert.gamma_support, cert.irreducibility_flag)


def _nef_divisor(member: Member, q: QuotientSingularity) -> tuple[NefDivisor, Verdict]:
    w = member.gprime.weights
    vertex = point_vertex(w, q.locus)
    support = support_with_point_at_vertex(member.support, vertex, w[vertex])
    local = tuple(
        Fraction(0) if i == vertex else Fraction(w[i] % q.r, q.r) for i in range(5)
    )
    lifts = []
    for i in NEF_SECTIONS:
        if i == 4:
            order = vanishing_order(support, local, eliminated=4)
        else:
            order = local[i]
        lifts.append(SectionLift.of(w[i], order, q.r))
    c, certified = nef_bound_check(lifts, q)
    lattice = BlowupLattice.over(member.a_cube, [q])
    b_class = lattice.anticanonical()
    m_lift = max(lifts, key=lambda l: Fraction(l.class_e, l.class_b))
    m_class = m_lift.class_b * b_class + m_lift.class_e * lattice.exceptional_class()
    m_b2 = triple(lattice, m_class, b_class, b_class)
    cert = NefDivisor(lifts=tuple(lifts), q=q, m_b2=m_b2, c=c, certified=certified)
    verdict = Verdict(excluded=certified and m_b2 <= 0, method="nef-divisor", witness=m_b2)
    return cert, verdict


def _negdef_matrix(member: Member, q: QuotientSingularity,
                   earlier: tuple[Certificate, ...]) -> tuple[NegDefMatrix, Verdict]:
    record = member.gprime
    w = record.weights
    if record.id != 50:
        raise UncoveredCaseError(f"no curve-pair matrix data for family {record.id} at {q.locus}")
    if q.locus == "p1p4":
        # half point: the residual curve misses the exceptional divisor and is
        # cut on the coordinate plane (x = z = 0) by the degree-(d - b) slot,
        # so it pairs with -K by bare degree; the pair sums to (M . B^2)
        nef = next((c for c in earlier if isinstance(c, NefDivisor)), None)
        if nef is None:
            nef, _ = _nef_divisor(member, q)
        alpha = Fraction(record.degrees[0] - w[4], w[1] * w[3] * w[4])
        beta = nef.m_b2 - alpha
        cert = NegDefMatrix(alpha=alpha, beta=beta, parameter_floor=Fraction(1))
    else:
        # third point: (B . Gamma) via the ambient weighted blowup of the
        # 4-space; the companion entry is pinned golden data
        alpha = ambient_quadruple(
            record.weights, 3, (1, 2, 2, 1),
            [(Fraction(1), Fraction(-1, 3)), (Fraction(1), Fraction(-1, 3)),
             (Fraction(2), Fraction(-2, 3)), (Fraction(4), Fraction(-1, 3))])
        cert = NegDefMatrix(alpha=alpha, beta=Fraction(1, 60), parameter_floor=Fraction(1, 2))
    ok = negdef_for_all(cert)
    det = cert.entries_at(cert.parameter_floor)
    witness = det[0][0] * det[1][1] - det[0][1] * det[1][0]
    return cert, Verdict(excluded=ok, method="negdef-matrix", witness=witness)


def _infinite_curves(member: Member, q: QuotientSingularity) -> tuple[InfiniteCurves, Verdict]:
    record = member.gprime
    disc, _ = kawamata_numbers(q)
    lattice = BlowupLattice.over(member.a_cube, [q])
    b = lattice.anticanonical()
    e = lattice.exceptional_class()
    fid = record.id
    if fid == 23:
        # S . T splits off the WCI curve through the point; the residual pencil
        # meets -K trivially
        s, t = b, 4 * b
        gamma_b = Fraction(1, 6) - disc
        b_dot = triple(lattice, b, s, t) - gamma_b
        e_dot = triple(lattice, e, s, t) - 1
    elif fid == 30:
        b_dot = Fraction(2, 3) - disc * 2
        e_dot = Fraction(2)
    elif fid == 55:
        s, t = b, DivisorClass((Fraction(2), Fraction(-3, 2)))
        b_dot = triple(lattice, b, s, t)
        e_dot = triple(lattice, e, s, t)
    elif fid == 69:
        s, t = b, DivisorClass((Fraction(2), Fraction(-12, 5)))
        b_dot = triple(lattice, b, s, t)
        e_dot = triple(lattice, e, s, t)
    else:
        raise UncoveredCaseError(f"no infinite-curves data for family {fid} at {q.locus}")
    cert = InfiniteCurves(b_dot_c=b_dot, e_dot_c=e_dot)
    return cert, infinite_curves_test(b_dot, e_dot)


def _untwist(member: Member, locus: str, tag: str, condition: str) -> tuple[Untwist, Verdict]:
    record = member.gprime
    eligible = None
    if tag == "QI":
        eligible = qi_eligible(member, locus)
        if not eligible:
            raise UncoveredCaseError(f"family {record.id} {locus}: no x^2 y tangent monomial, "
                                     f"quadratic involution not available")
    cert = Untwist(tag=tag, point=locus, condition=condition,
                   counterpart_id=record.id if tag == "link" else None,
                   eligible=eligible)
    return cert, Verdict(excluded=False, method="untwist", witness=None)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def dispatch(family_id: int, center: Center, condition: str = "", *, catalog: Catalog,
             earlier: tuple[Certificate, ...] = ()) -> tuple[Certificate, Verdict]:
    """Select and evaluate the certificate assigned to a center of the general
    member of a catalog family; `catalog` holds the family's Member.  At a
    point center it is the `POINT_RULES` branch whose condition is
    `condition` ("" for an unconditional branch).

    `earlier` holds the certificates already built for other branches of the
    same center; a branch that rests on one of them reuses it."""
    member = catalog.member(family_id)
    record = member.gprime
    a_cube = member.a_cube

    if center.kind == "curve":
        deg = center.degree
        if deg == SPECIAL_CURVE_DEG.get(family_id):
            if family_id in CURVE_GAMMA_SQ:
                cert = CurveGamma(a_cube=a_cube, deg=deg, gamma_sq=CURVE_GAMMA_SQ[family_id])
                return cert, curve_gamma_test(cert.a_cube, cert.deg, cert.gamma_sq)
            gd, ad = CURVE_CYCLE_DATA[family_id]
            cert = CurveCycle(gamma_dot_delta=gd, a_dot_delta=ad)
            return cert, curve_cycle_test(gd, ad)
        cert = CurveDegree(deg=deg, a_cube=a_cube)
        verdict = curve_degree_test(deg, a_cube)
        if not verdict.excluded:
            raise UncoveredCaseError(
                f"family {family_id}: curve of degree {rat_str(deg)} is below (-K)^3 "
                f"and matches no special certificate")
        return cert, verdict

    if center.kind == "smooth-point":
        drop = ISOLATION_DROP[family_id]
        bound, verdict = isolation_test(record.weights, drop, a_cube)
        cert = Isolation(bound=bound, limit=Fraction(4) / a_cube, dropped_vertex=drop)
        return cert, verdict

    if center.kind in ("quotient-point", "cax-point"):
        locus = center.locus
        rules = POINT_RULES[family_id].get(locus)
        if rules is None:
            raise UncoveredCaseError(f"family {family_id} has no center at {locus}")
        branch = next((br for br in rules if br.condition == condition), None)
        if branch is None:
            wanted = ", ".join(repr(br.condition) for br in rules)
            raise UncoveredCaseError(
                f"family {family_id} {locus}: no branch under condition {condition!r}; expected one of: {wanted}")
        if branch.method == "untwist":
            return _untwist(member, locus, branch.tag, branch.condition)
        if branch.method == "surface-pair":
            return _surface_pair(member, center.quotient, flag=True)
        if branch.method == "nef-divisor":
            return _nef_divisor(member, center.quotient)
        if branch.method == "negdef-matrix":
            return _negdef_matrix(member, center.quotient, earlier)
        if branch.method == "infinite-curves":
            return _infinite_curves(member, center.quotient)
        raise UncoveredCaseError(f"family {family_id} {locus}: unknown method {branch.method}")

    raise UncoveredCaseError(f"unknown center kind {center.kind}")
