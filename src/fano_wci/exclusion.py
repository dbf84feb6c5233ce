"""Per-center certificates: the numerical tests that exclude a center as a
maximal center, or tag the birational involution / link that untwists it.

A point center's branches are the member's link rows at its locus
(`GoldenRow.link_column`: point, tag, condition, method), the paper's table
stated once in the catalog; a curve and the nonsingular point have one
branch each (`SINGLE_BRANCH`).  `dispatch` runs the one branch it is handed
at a center of a `Member`: it builds the certificate with the method's
builder in `BUILDERS`, and the certificate judges itself (`verdict()`) by
the sign of its witness's numerator, or by one integer cross-product, never
by a `Fraction` comparison.  Conditions are strings such as
"exists-wci(1,1,2)" or "monomial-absent(y^2 z)"; "" marks an unconditional
branch.  The loader ties each row's tag to its point and method
(`catalog._check_links`); the one tag rule that needs the member, QI exactly
where `qi_eligible` holds, is checked here by the untwist builder.

A quotient point's Kawamata blowup, as the builders read it, is its
`LocalModel`: member algebra, which each `Member` derives once
(`Member.local`) with its plan and restriction support (`Member.gamma`).
A model also keeps, once first asked for, its nef divisor's numbers
(`LocalModel.nef`) and its infinite family's pairings
(`LocalModel.pairings`), so the nef-divisor and infinite-curves builders
do no blowup arithmetic after a point's first use; every certificate and
verdict is still built anew by each `dispatch`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .blowup import (BlowupRing, SectionLift, ambient_quadruple, b_cubed, nef_bound_check, triple,
                     vanishing_order)
from .catalog import LinkRow, Member
from .singularities import (CAxPoint, QuotientSingularity, misses_vertex, support_with_point_at_vertex,
                            tangent_monomials)
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
        if degree.numerator <= 0:
            raise ValueError("curve degree must be positive")
        return cls("curve", degree)

    @classmethod
    def smooth_point(cls) -> "Center":
        return cls("smooth-point")

    @classmethod
    def quotient_point(cls, q: QuotientSingularity) -> "Center":
        return cls("quotient-point", None, q)

    @classmethod
    def cax_point(cls, p: CAxPoint) -> "Center":
        return cls("cax-point", None, None, p)

    @property
    def is_point(self) -> bool:
        return self.kind in ("quotient-point", "cax-point")

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
    """A curve of degree at least (-K)^3 is not a maximal center."""
    method = "curve-degree"
    deg: Fraction
    a_cube: Fraction

    def verdict(self) -> Verdict:
        (d, dd), (a, ad) = self.deg.as_integer_ratio(), self.a_cube.as_integer_ratio()
        if d <= 0 or a <= 0:
            raise ValueError("degree and (-K)^3 must be positive")
        num = d * ad - a * dd  # the witness deg - (-K)^3 over the common denominator
        return Verdict(num >= 0, self.method, Fraction(num, dd * ad))


@record
class CurveGamma:
    """A low-degree curve with negative self-intersection on the cutting
    surface: excluded when 3 (-K)^3 - 2 deg + Gamma^2 <= 0."""
    method = "curve-gamma"
    a_cube: Fraction
    deg: Fraction
    gamma_sq: Fraction

    def verdict(self) -> Verdict:
        (a, ad), (d, dd), (g, gd) = (self.a_cube.as_integer_ratio(), self.deg.as_integer_ratio(),
                                     self.gamma_sq.as_integer_ratio())
        if g >= 0:
            raise ValueError("the self-intersection bound must be negative")
        num = 3 * a * dd * gd - 2 * d * ad * gd + g * ad * dd  # the witness over the common denominator
        return Verdict(num <= 0, self.method, Fraction(num, ad * dd * gd))


@record
class CurveCycle:
    """A residual 1-cycle on the cutting surface meeting the curve at least as
    positively as the polarization does: (Gamma . Delta) >= (A . Delta) > 0."""
    method = "curve-cycle"
    gamma_dot_delta: Fraction
    a_dot_delta: Fraction

    def verdict(self) -> Verdict:
        witness = self.gamma_dot_delta - self.a_dot_delta
        return Verdict(witness.numerator >= 0 and self.a_dot_delta.numerator > 0, self.method, witness)


@record
class Isolation:
    """Nonsingular points are isolated by multiples of the polarization up to
    `bound`, the max pairwise lcm of the weights left when `dropped_vertex` is
    dropped; excluded when the bound stays within `limit` = 4 / (-K)^3."""
    method = "isolation"
    bound: int
    limit: Fraction
    dropped_vertex: int

    def verdict(self) -> Verdict:
        limit = self.limit  # bound <= p/q as bound q <= p, q > 0
        return Verdict(self.bound * limit.denominator <= limit.numerator, self.method, Fraction(self.bound))


@record
class SurfacePair:
    """(T . Gamma) = a1^2 (-K_Y)^3 <= 0 on the pair of coordinate surfaces,
    provided the restriction curve is irreducible."""
    method = "surface-pair"
    a1: int
    b_cube: Fraction
    gamma_support: MonomialSupport
    irreducibility_flag: bool

    def verdict(self) -> Verdict:
        if not self.irreducibility_flag:
            raise UncoveredCaseError(
                "surface-pair certificate needs the irreducibility condition; "
                "fall back to the family-specific certificate")
        if not self.gamma_support.monomials:
            raise ValueError("empty restriction support")
        b, bd = self.b_cube.as_integer_ratio()
        num = self.a1 * self.a1 * b
        return Verdict(num <= 0, self.method, Fraction(num, bd))


@record
class NefDivisor:
    method = "nef-divisor"
    lifts: tuple[SectionLift, ...]
    q: QuotientSingularity
    m_b2: Fraction
    c: Fraction
    certified: bool

    def verdict(self) -> Verdict:
        return Verdict(self.certified and self.m_b2.numerator <= 0, self.method, self.m_b2)


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

    def verdict(self) -> Verdict:
        """Negative definite for every rational m >= floor, witnessed by the
        determinant at the floor: the determinant alpha beta - m (alpha +
        beta) is affine in m with slope -(alpha + beta) and the leading entry
        decreases, so it suffices to check the floor and the slope, each as
        an integer over a positive common denominator."""
        a, ad = self.alpha.as_integer_ratio()
        b, bd = self.beta.as_integer_ratio()
        m, md = self.parameter_floor.as_integer_ratio()
        total = a * bd + b * ad  # (alpha + beta) ad bd
        det = a * b * md - m * total  # the determinant at the floor, times ad bd md
        leading = a * md - m * ad  # alpha - m at the floor, times ad md
        return Verdict(leading < 0 and det > 0 and total <= 0, self.method, Fraction(det, ad * bd * md))


@record
class InfiniteCurves:
    """An infinite family of curves meeting -K non-positively and E positively."""
    method = "infinite-curves"
    b_dot_c: Fraction
    e_dot_c: Fraction

    def verdict(self) -> Verdict:
        return Verdict(self.b_dot_c.numerator <= 0 and self.e_dot_c.numerator > 0, self.method, self.b_dot_c)


@record
class Untwist:
    method = "untwist"
    tag: str  # "QI" | "EI" | "II" | "link": the branch's link tag
    point: str
    condition: str = ""
    counterpart_id: int | None = None
    eligible: bool | None = None

    def verdict(self) -> Verdict:
        return Verdict(False, self.method, None)


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
# Shared computations
# ---------------------------------------------------------------------------

def gamma_polynomial(member: Member) -> MonomialSupport:
    """Support of the defining polynomial restricted to the two heaviest
    x-coordinates and w (the curve cut by the two lightest coordinate
    hyperplanes), as exponent triples (e2, e3, e_w).

    Family 23 is stated in the normalized coordinates that put its edge point
    at the x2 vertex, which strikes the pure x2 power from the restriction.
    """
    support = member.support
    if member.g.id in GAMMA_NORMALIZED:
        support = support_with_point_at_vertex(support, vertex=2, weight=member.gprime.weights[2])
    restricted = frozenset([(m[2], m[3], m[4]) for m in support.monomials if not m[0] and not m[1]])
    return MonomialSupport(degree=support.degree, monomials=restricted)


# cited from the paper; ROADMAP item 8 derives it
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


def _kawamata_weights(weights: tuple[int, ...], vertex: int, r: int) -> tuple[int, ...]:
    """r times the Kawamata blowup's weight of each coordinate at a 1/r point
    moved to `vertex` (`point_vertex`): w_i mod r, and 0 at the vertex.  The
    weights are (u w_i mod r)/r for the unit u that `normalize_quotient`
    picks, and u is 1 at every catalog point that reaches a vertex."""
    return tuple([0 if i == vertex else x % r for i, x in enumerate(weights)])


def qi_eligible(member: Member, locus: str) -> bool:
    """Structural eligibility for a quadratic involution at the quotient
    point at `locus`: at its vertex v (`point_vertex`) the defining polynomial
    contains x_v^2 x_j for some other coordinate j, a tangent monomial with
    k = 2."""
    w = member.gprime.weights
    return any(k == 2 for k, _ in tangent_monomials(member.support, w, point_vertex(w, locus)))


class NefNumbers(NamedTuple):
    """A nef divisor's numbers at a quotient point (`LocalModel.nef`)."""
    lifts: tuple[SectionLift, ...]  # the lifts of the `NEF_SECTIONS`
    c: Fraction  # -K + cE is the divisor, c = max(class_e / class_b)
    certified: bool  # c <= 1/r, so -K + cE is nef (`nef_bound_check`)
    m_b2: Fraction  # (M . B^2) for the lift M that attains c


@record
class LocalModel:
    """The Kawamata blowup of a quotient point `q` of the member of family
    `family` with weights `ambient`, as the certificates read it: its ring
    and B^3 (`b_cubed`) and, where `point_vertex` moves the point to a
    vertex, that vertex, the support with the point there, r times the
    Kawamata weights (`_kawamata_weights`), whether an involution there is
    quadratic (`qi_eligible`) and the order of w on the exceptional divisor
    (`vanishing_order` with w eliminated).  At a point that moves to no
    vertex those are None, and `unreached` is `point_vertex`'s reason.

    The nef divisor's numbers (`nef`) and the infinite family's pairings
    (`pairings`) are derived on first use and kept on the object, not as
    fields; a derivation that raises keeps nothing, so it raises the same
    error on every use."""
    q: QuotientSingularity
    family: int
    ambient: tuple[int, ...]
    ring: BlowupRing
    b_cube: Fraction
    unreached: str = ""
    vertex: int | None = None
    support: MonomialSupport | None = None
    weights: tuple[int, ...] | None = None
    quadratic: bool | None = None
    w_order: Fraction | None = None

    def at_vertex(self) -> "LocalModel":
        """This model, for a builder that reads the point at its vertex;
        UncoveredCaseError where the point moves to no vertex."""
        if self.unreached:
            raise UncoveredCaseError(self.unreached)
        return self

    @cached_property
    def nef(self) -> NefNumbers:
        """The nef divisor's numbers at the point's vertex (`nef_numbers`)."""
        return nef_numbers(self)

    @cached_property
    def pairings(self) -> tuple[Fraction, Fraction]:
        """(B . C) and (E . C) of the point's infinite family of curves C (`curve_pairings`)."""
        return curve_pairings(self)


def local_models(member: Member) -> dict[str, LocalModel]:
    """The local model of each quotient point of `member`, by locus, which
    `Member.local` keeps."""
    w, a_cube, fid = member.gprime.weights, member.a_cube, member.g.id
    models = {}
    for q in member.quotients:
        ring, b_cube = BlowupRing.kawamata_tower(a_cube, [q]), b_cubed(a_cube, q)
        try:
            vertex = point_vertex(w, q.locus)
        except UncoveredCaseError as exc:
            models[q.locus] = LocalModel(q, fid, w, ring, b_cube, unreached=str(exc))
            continue
        support = support_with_point_at_vertex(member.support, vertex, w[vertex])
        k = _kawamata_weights(w, vertex, q.r)
        order = vanishing_order(support, tuple([Fraction(x, q.r) for x in k]), eliminated=4)
        models[q.locus] = LocalModel(q, fid, w, ring, b_cube, vertex=vertex, support=support, weights=k,
                                     quadratic=qi_eligible(member, q.locus), w_order=order)
    return models


# ---------------------------------------------------------------------------
# Per-family dispatch data
# ---------------------------------------------------------------------------

# the isolation vertex of families 23 and 30, where each vertex off the
# member leaves the bound 12 > 48/5: this p_k lies on X, where f = x_k^2 g +
# x_k h + j, and the paper treats the points on the fibres over g = h = j = 0
# apart; cited from the paper; ROADMAP item 19 states why
ISOLATION_DROP = {23: 4, 30: 3}

# self-intersection bounds of the exceptional curves on their cutting surfaces
# cited from the paper; ROADMAP item 8 derives it
CURVE_GAMMA_SQ = {19: Fraction(-3, 2), 23: Fraction(-1)}

# worst-case (Gamma . Delta) and deg Delta of the residual curve pair, family 17
# cited from the paper; ROADMAP item 8 derives it
CURVE_CYCLE_DATA = {17: (Fraction(1), Fraction(1, 2))}

# coordinates whose sections lift to the nef divisor certificate's classes
# cited from the paper; ROADMAP item 8 derives it
NEF_SECTIONS = (0, 2, 4)

# the one branch of a curve and of the nonsingular point, unconditional and untagged
SINGLE_BRANCH = {"curve": (LinkRow("", "", "", "curve"),), "smooth-point": (LinkRow("", "", "", "isolation"),)}


def isolating_vertex(member: Member) -> tuple[int, int] | None:
    """The vertex p_k whose projection isolates the nonsingular points
    (Corti, Pukhlikov and Reid (2000), section 5) and its bound, the max
    pairwise lcm of the other weights: the `ISOLATION_DROP` vertex, else of
    the x-vertices the member misses (`misses_vertex`) the one of least
    bound, heaviest weight, lowest index; None where there is none."""
    w = member.gprime.weights
    cited = ISOLATION_DROP.get(member.g.id)
    vertices = [cited] if cited is not None else [k for k in range(4) if misses_vertex(member.support, w, k)]
    if not vertices:
        return None
    bound, _, vertex = min([(max_pair_lcm(w, [i for i in range(5) if i != k]), -w[k], k) for k in vertices])
    return vertex, bound


@record
class Plan:
    """A member's plan, which `Member.plan` keeps (`centers`)."""
    centers: tuple[tuple[Center, tuple[LinkRow, ...]], ...]  # each center with the branches it runs
    unplaced: tuple[str, ...]  # each locus of link rows where the member has no point
    special_curve: Fraction | None  # 1/b where a curve of that degree through the cAx/b point is below (-K)^3
    isolation: tuple[int, int, Fraction] | None  # the nonsingular point's `isolating_vertex`, bound and limit 4/(-K)^3


def centers(member: Member) -> Plan:
    """The member's plan: every center (the least curve, the special curve
    where one exists, the nonsingular point, the quotient points, p4) with
    its branches.  A curve through the cAx/b point has degree in (1/b) Z,
    and one of degree 1/b below (-K)^3 is special and leaves 2/b to the
    least curve.  A point center's branches are the member's link rows at
    its locus in row order; a point without rows has none, and is a center
    the family lacks.  A curve's or the nonsingular point's is its
    `SINGLE_BRANCH`.  The nonsingular point's isolation keeps the limit
    4/(-K)^3 that its bound must not exceed."""
    rows: dict[str, list[LinkRow]] = {}
    for row in member.golden.link_column:
        rows.setdefault(row.point, []).append(row)
    step = Fraction(1, member.cax.modulus)
    special = step if step < member.a_cube else None
    found = [Center.curve(step)] if special is None else [Center.curve(2 * step), Center.curve(special)]
    found += [Center.smooth_point(), *map(Center.quotient_point, member.quotients), Center.cax_point(member.cax)]
    planned = tuple([(center, tuple(rows.pop(center.locus, ())) if center.is_point else SINGLE_BRANCH[center.kind])
                     for center in found])
    isolation = isolating_vertex(member)
    if isolation is not None:
        a_cube = member.a_cube
        isolation += (Fraction(4 * a_cube.denominator, a_cube.numerator),)
    return Plan(planned, tuple(rows), special, isolation)


# ---------------------------------------------------------------------------
# Certificate builders: (member, center, branch) -> certificate
# ---------------------------------------------------------------------------

def _curve(member: Member, center: Center, branch: LinkRow) -> Certificate:
    # the degree's certificate, uncovered below (-K)^3, where no cited table holds a special curve's data
    fid, deg, special = member.g.id, center.degree, member.plan.special_curve
    if special is not None and deg == special:
        if fid in CURVE_GAMMA_SQ:
            return CurveGamma(a_cube=member.a_cube, deg=deg, gamma_sq=CURVE_GAMMA_SQ[fid])
        if fid in CURVE_CYCLE_DATA:
            return CurveCycle(*CURVE_CYCLE_DATA[fid])
    return CurveDegree(deg=deg, a_cube=member.a_cube)


def _isolation(member: Member, center: Center, branch: LinkRow) -> Isolation:
    isolation = member.plan.isolation
    if isolation is None:
        raise UncoveredCaseError(f"family {member.g.id}: no x-vertex off the member to drop for isolation")
    vertex, bound, limit = isolation
    return Isolation(bound=bound, limit=limit, dropped_vertex=vertex)


def _surface_pair(member: Member, center: Center, branch: LinkRow) -> SurfacePair:
    return SurfacePair(a1=member.gprime.weights[1], b_cube=member.local[center.locus].b_cube,
                       gamma_support=member.gamma, irreducibility_flag=True)


def nef_numbers(model: LocalModel) -> NefNumbers:
    """The nef divisor's numbers at `model`'s point, which `LocalModel.nef`
    keeps: the lifts of the `NEF_SECTIONS` at the point's vertex, c and
    whether it is certified (`nef_bound_check`), and (M . B^2).
    UncoveredCaseError where the point moves to no vertex, ValueError for an
    invalid lift."""
    model = model.at_vertex()
    q, w = model.q, model.ambient
    orders = [model.w_order if i == 4 else Fraction(model.weights[i], q.r) for i in NEF_SECTIONS]
    lifts = tuple([SectionLift.of(w[i], order, q.r) for i, order in zip(NEF_SECTIONS, orders)])
    c, certified = nef_bound_check(lifts, q)
    # M is the lift that attains c = max(class_e / class_b), the first on a tie
    # (class_e = c class_b, compared as one integer cross-product): its
    # class class_b B + class_e E = class_b (B + cE) is a positive multiple of the
    # divisor that nef_bound_check certifies nef, so (M . B^2) has that divisor's sign;
    # in the (A, E) basis, where B = A - E/r, d B + (d/r - order) E is (d, -order)
    m = next((l.class_b, -order) for l, order in zip(lifts, orders)
             if l.class_e.numerator * c.denominator == c.numerator * l.class_e.denominator * l.class_b)
    b = (1, Fraction(-1, q.r))
    return NefNumbers(lifts, c, certified, triple(model.ring, m, b, b))


def _nef_divisor(member: Member, center: Center, branch: LinkRow) -> NefDivisor:
    q = center.quotient
    lifts, c, certified, m_b2 = member.local[q.locus].nef
    return NefDivisor(lifts=lifts, q=q, m_b2=m_b2, c=c, certified=certified)


def _negdef_matrix(member: Member, center: Center, branch: LinkRow) -> NegDefMatrix:
    w, q = member.gprime.weights, center.quotient
    if member.g.id != 50:
        raise UncoveredCaseError(f"no curve-pair matrix data for family {member.g.id} at {q.locus}")
    if q.locus == "p1p4":
        # half point: the residual curve misses the exceptional divisor and is
        # cut on the coordinate plane (x = z = 0) by the degree-(d - b) slot,
        # so it pairs with -K by bare degree; the pair sums to (M . B^2)
        alpha = Fraction(member.gprime.degrees[0] - w[4], w[1] * w[3] * w[4])
        return NegDefMatrix(alpha=alpha, beta=member.local[q.locus].nef.m_b2 - alpha, parameter_floor=Fraction(1))
    # third point: (B . Gamma) via the ambient Kawamata blowup of the
    # 4-space at the point's vertex, where B = (1, -1/r) and a section x_i
    # lifts to (w_i, -(w_i mod r)/r); the companion entry is pinned golden data
    model = member.local[q.locus].at_vertex()
    vertex, k = model.vertex, model.weights
    # the sections x0, x1 and w that cut Gamma: cited from the paper; ROADMAP item 9 derives them
    sections = [(w[i], Fraction(-k[i], q.r)) for i in (0, 1, 4)]
    alpha = ambient_quadruple(w, q.r, k[:vertex] + k[vertex + 1:], [(1, Fraction(-1, q.r)), *sections])
    # beta = 1/60: cited from the paper; ROADMAP item 3 derives it
    return NegDefMatrix(alpha=alpha, beta=Fraction(1, 60), parameter_floor=Fraction(1, 2))


def curve_pairings(model: LocalModel) -> tuple[Fraction, Fraction]:
    """(B . C) and (E . C) of the infinite family of curves C through
    `model`'s point, which `LocalModel.pairings` keeps: read from the cited
    class of T on the point's ring, or cited outright.  UncoveredCaseError
    for a family with no cited data."""
    q, ring, fid = model.q, model.ring, model.family
    r = q.r  # the blowup's discrepancy is 1/r
    b, e = (1, Fraction(-1, r)), (0, 1)
    if fid == 23:
        # S . T splits off the WCI curve through the point, which meets -K in
        # 1/6 - 1/r; the residual pencil meets -K trivially
        # the curve's 1/6: cited from the paper; ROADMAP item 2 derives it
        s, t = b, (4, Fraction(-4, r))  # T = 4B
        return triple(ring, b, s, t) - Fraction(r - 6, 6 * r), triple(ring, e, s, t) - 1
    if fid == 30:
        # both pairings: cited from the paper; ROADMAP item 2 derives them
        return Fraction(2 * r - 6, 3 * r), Fraction(2)  # 2/3 - 2/r
    if fid in (55, 69):
        # T's class, a coordinate section's (degree, -order): cited from the paper; ROADMAP item 9 derives it
        s, t = b, {55: (2, Fraction(-3, 2)), 69: (2, Fraction(-12, 5))}[fid]
        return triple(ring, b, s, t), triple(ring, e, s, t)
    raise UncoveredCaseError(f"no infinite-curves data for family {fid} at {q.locus}")


def _infinite_curves(member: Member, center: Center, branch: LinkRow) -> InfiniteCurves:
    b_dot, e_dot = member.local[center.quotient.locus].pairings
    return InfiniteCurves(b_dot_c=b_dot, e_dot_c=e_dot)


def _untwist(member: Member, center: Center, branch: LinkRow) -> Untwist:
    fid, locus, tag = member.g.id, center.locus, branch.tag
    if tag != "link":  # an involution is quadratic exactly where the point has its x^2 y monomial
        quadratic = member.local[locus].at_vertex().quadratic
        if tag == "QI" and not quadratic:
            raise UncoveredCaseError(f"family {fid} {locus}: no x^2 y tangent monomial, "
                                     f"quadratic involution not available")
        if tag != "QI" and quadratic:
            raise UncoveredCaseError(f"family {fid} {locus}: an x^2 y tangent monomial makes the "
                                     f"involution quadratic, not {tag!r}")
    return Untwist(tag=tag, point=locus, condition=branch.condition,
                   counterpart_id=fid if tag == "link" else None, eligible=True if tag == "QI" else None)


# the builder of each branch method, private so that no call through the table bypasses a public binding
BUILDERS = {"curve": _curve, "isolation": _isolation, "surface-pair": _surface_pair,
            "nef-divisor": _nef_divisor, "negdef-matrix": _negdef_matrix,
            "infinite-curves": _infinite_curves, "untwist": _untwist}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def dispatch(member: Member, center: Center, row: LinkRow) -> tuple[Certificate, Verdict]:
    """Build and judge the certificate of one branch of a center of `member`,
    a family's general member (`Catalog.member`) or a stratum of it.  `row`
    is the branch, run as given: a curve's or the nonsingular point's
    `SINGLE_BRANCH` row, or one of the member's link rows at a point center's
    locus, whose tag the loader has checked against its point and method.
    An involution whose tag disagrees with `qi_eligible` (QI exactly where
    it holds) is uncovered."""
    cert = BUILDERS[row.method](member, center, row)
    verdict = cert.verdict()
    if cert.method == "curve-degree" and not verdict.excluded:
        raise UncoveredCaseError(
            f"family {member.g.id}: curve of degree {rat_str(center.degree)} is below (-K)^3 "
            f"and matches no special certificate")
    return cert, verdict
