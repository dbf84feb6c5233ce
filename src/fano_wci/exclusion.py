"""Per-center certificates: the numerical tests that exclude a center as a
maximal center, or tag the birational involution / link that untwists it.

A point center's branches are the member's link rows at its locus, the
paper's table stated once in the catalog; a curve and the nonsingular point
have one branch each (`SINGLE_BRANCH`).  `dispatch` builds a branch's
certificate with its method's builder (`BUILDERS`), and the certificate
judges itself (`verdict()`) by the sign of an integer numerator or
cross-product, never by a `Fraction` comparison.  The loader ties each row's
tag to its point and method (`catalog._link_rows`); the untwist builder
checks the one tag rule that needs the member, QI exactly where
`qi_eligible` holds.  No builder reads the family id: the constants the
paper cites are the catalog's `cited` objects (`catalog.CITED`), and a
member without them is uncovered where a builder reads them.

A quotient point's Kawamata blowup, as the builders read it, is its
`LocalModel`, which each `Member` derives once (`Member.local`) and which
keeps what the builders derive from it on first use; every certificate and
verdict is built anew by each `dispatch`.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

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
    """M = B + cE on the Kawamata blowup of `q`, from the lifts of three
    coordinate sections x_S (`nef_numbers`; Corti, Pukhlikov and Reid (2000),
    section 5): excluded when M is nef and (M . B^2) <= 0.  M is nef if M . C
    >= 0 for each curve C in E, which is c <= 1/r (`certified`), and no curve
    off E lies on every lift, as `nef_numbers` takes only a finite {x_S = 0}."""
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


def gamma_polynomial(member: Member) -> MonomialSupport:
    """Support of the defining polynomial restricted to the two heaviest
    x-coordinates and w (the curve cut by the two lightest coordinate
    hyperplanes), as exponent triples (e2, e3, e_w); where the member cites
    `gamma_normalized` (family 23), with its edge point moved to the x2
    vertex, which strikes the pure x2 power."""
    support = member.support
    if dict(member.gprime.cited or ()).get("gamma_normalized"):
        support = support_with_point_at_vertex(support, vertex=2, weight=member.gprime.weights[2])
    restricted = frozenset([(m[2], m[3], m[4]) for m in support.monomials if not m[0] and not m[1]])
    return MonomialSupport(degree=support.degree, monomials=restricted)


def point_vertex(weights: tuple[int, ...], locus: str) -> int:
    """The vertex at which the local data of the quotient point at `locus`
    are read: a vertex point's own; for an edge point pIpJ, the end whose
    weight is the edge's stabilizer order gcd(w_I, w_J), where it moves."""
    if locus.count("p") == 1:
        return int(locus[1:])
    i, j = int(locus[1]), int(locus[3])
    r = math.gcd(weights[i], weights[j])
    vertex = i if weights[i] == r else j
    if weights[vertex] != r:
        raise UncoveredCaseError(f"edge {locus} point cannot be moved to a vertex")
    return vertex


def _kawamata_weights(weights: tuple[int, ...], vertex: int, r: int) -> tuple[int, ...]:
    """r times the Kawamata weight of each coordinate at a 1/r point moved to
    `vertex`: w_i mod r, 0 at the vertex.  The weights are (u w_i mod r)/r for
    the unit u of `normalize_quotient`, 1 at every catalog point at a vertex."""
    return tuple([0 if i == vertex else x % r for i, x in enumerate(weights)])


def qi_eligible(member: Member, locus: str) -> bool:
    """Structural eligibility for a quadratic involution at the quotient
    point at `locus`: at its vertex v (`point_vertex`) the defining
    polynomial contains a tangent monomial x_v^2 x_j, j != v."""
    w = member.gprime.weights
    return any(k == 2 for k, _ in tangent_monomials(member.support, w, point_vertex(w, locus)))


NefNumbers = namedtuple("NefNumbers", "lifts c certified m_b2")
NefNumbers.__doc__ = """A nef divisor's numbers at a quotient point (`LocalModel.nef`): the
lifts of the chosen sections x_S; c = max(class_e / class_b), where -K + cE is
the divisor; `certified`, c <= 1/r, the nef hypothesis on curves in E
(`nef_bound_check`); and (M . B^2) for the lift M that attains c."""


@record
class LocalModel:
    """The Kawamata blowup of a quotient point `q` of the member of family
    `family` with weights `ambient`: its ring and B^3 (`b_cubed`) and, where
    `point_vertex` moves the point to a vertex, that vertex, the support with
    the point there, r times the Kawamata weights (`_kawamata_weights`),
    whether an involution there is quadratic (`qi_eligible`) and w's order on
    E (`vanishing_order` with w eliminated); elsewhere those are None and
    `unreached` is `point_vertex`'s reason.  Its nef numbers (`nef`), curve-
    pair sums (`pair_sum`) and pairings (`pairings`) are derived on first use
    and kept, not as fields; a derivation that raises keeps nothing."""
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
        """This model, or UncoveredCaseError where the point moves to no vertex."""
        if self.unreached:
            raise UncoveredCaseError(self.unreached)
        return self

    @cached_property
    def nef(self) -> NefNumbers:
        """The nef divisor's numbers at the point's vertex (`nef_numbers`)."""
        return nef_numbers(self)

    def pair_sum(self, sections: tuple[int, int]) -> Fraction:
        """(B . x_i . x_j), the sum of the curve pair that two sections cut (`_pair_sum`)."""
        return self._kept("pair_sum", _pair_sum, sections)

    def pairings(self, row: LinkRow) -> tuple[Fraction, Fraction]:
        """(B . C) and (E . C) of the curves C that `row` cites (`curve_pairings`)."""
        return self._kept("pairings", curve_pairings, row)

    def _kept(self, name: str, derive, key):
        kept = self.__dict__.setdefault("_derived", {})  # derive(self, key) by (name, key)
        if (name, key) not in kept:
            kept[name, key] = derive(self, key)
        return kept[name, key]


def local_models(member: Member) -> dict[str, LocalModel]:
    """The local model of each quotient point of `member`, by locus (`Member.local`)."""
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


# the one branch of a curve and of the nonsingular point, unconditional and untagged
SINGLE_BRANCH = {"curve": (LinkRow("", "", "", "curve"),), "smooth-point": (LinkRow("", "", "", "isolation"),)}


def isolating_vertex(member: Member) -> tuple[int, int] | None:
    """The vertex p_k whose projection isolates the nonsingular points
    (Corti, Pukhlikov and Reid (2000), section 5) and its bound, the max
    pairwise lcm of the other weights: the cited `isolation_vertex` (23 and
    30, where every vertex off X leaves 12 > 48/5: p_k lies on X, f = x_k^2 g
    + x_k h + j, and the paper treats the fibres over g = h = j = 0 apart),
    else the x-vertex off X (`misses_vertex`) of least bound, heaviest
    weight, lowest index; None where there is none."""
    w = member.gprime.weights
    stated = dict(member.gprime.cited or ()).get("isolation_vertex")
    vertices = [stated] if stated is not None else [k for k in range(4) if misses_vertex(member.support, w, k)]
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
    its branches: a point's link rows at its locus in row order (none at a
    center the family lacks), a curve's or the nonsingular point's
    `SINGLE_BRANCH`.  A curve through the cAx/b point has degree in (1/b) Z,
    and one of degree 1/b below (-K)^3 is special and leaves 2/b to the
    least curve.  The isolation keeps the limit 4/(-K)^3 of its bound."""
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
    # the degree's certificate, uncovered below (-K)^3, where the member cites no special curve's data
    deg, special = center.degree, member.plan.special_curve
    if special is not None and deg == special:
        cited = dict(member.gprime.cited or ())
        if "gamma_sq" in cited:
            return CurveGamma(a_cube=member.a_cube, deg=deg, gamma_sq=cited["gamma_sq"])
        if "cycle" in cited:
            return CurveCycle(*cited["cycle"])
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
    """The nef divisor's numbers at `model`'s point (`LocalModel.nef`): of
    the 3-subsets S of the coordinates but the vertex with {x_S = 0} finite
    on X, the first in `combinations` order of least c, with the lifts of x_S
    (x_i at its Kawamata weight, w at `w_order`), c, `certified`
    (`nef_bound_check`) and (M . B^2).
    UncoveredCaseError where the point moves to no vertex or no S is finite,
    ValueError for an invalid lift of a finite S."""
    model = model.at_vertex()
    q, w, others = model.q, model.ambient, [i for i in range(5) if i != model.vertex]
    # {x_S = 0} lies on the line of the vertex and the coordinate S leaves
    # out, so it is finite where some monomial of the support is free of S
    absent = {frozenset([i for i in others if not m[i]]) for m in model.support.monomials}
    finite = [s for s in itertools.combinations(others, 3) if any(a.issuperset(s) for a in absent)]
    if not finite:
        raise UncoveredCaseError(f"family {model.family} {q.locus}: no three sections with a finite locus on X")
    order = {i: model.w_order if i == 4 else Fraction(model.weights[i], q.r) for i in others}
    lift = {i: SectionLift.of(w[i], o, q.r) for i, o in order.items()}
    found = [(nef_bound_check([lift[i] for i in s], q), s) for s in finite]
    (c, certified), s = min(found, key=lambda f: f[0][0])
    # M, the first lift that attains c (class_e = c class_b as one integer
    # cross-product), is class_b (B + cE), a positive multiple of the divisor
    # nef_bound_check certifies, so (M . B^2) has its sign; in the (A, E)
    # basis, where B = A - E/r, d B + (d/r - order) E is (d, -order)
    m = next(i for i in s
             if lift[i].class_e.numerator * c.denominator == c.numerator * lift[i].class_e.denominator * w[i])
    b = (1, Fraction(-1, q.r))
    return NefNumbers(tuple([lift[i] for i in s]), c, certified, triple(model.ring, (w[m], -order[m]), b, b))


def _nef_divisor(member: Member, center: Center, branch: LinkRow) -> NefDivisor:
    q = center.quotient
    lifts, c, certified, m_b2 = member.local[q.locus].nef
    return NefDivisor(lifts=lifts, q=q, m_b2=m_b2, c=c, certified=certified)


def _negdef_matrix(member: Member, center: Center, branch: LinkRow) -> NegDefMatrix:
    # two cited sections x_i, x_j cut a curve pair summing to (B . x_i . x_j),
    # whose residual curve misses E and is cut on {x_i = x_j = 0} by the
    # degree-(d - b) slot, so pairs with -K by bare degree.  Three cut its
    # curve Gamma: (B . Gamma) on the ambient Kawamata blowup of the 4-space
    # at the vertex, x_i lifted to (w_i, -(w_i mod r)/r), and beta is cited
    w, q = member.gprime.weights, center.quotient
    sections, beta, floor = map(dict(branch.cited or ()).get, ("sections", "beta", "floor"))
    if sections is None or floor is None or (len(sections) == 3) != (beta is not None):
        raise UncoveredCaseError(f"no curve-pair matrix data for family {member.g.id} at {q.locus}")
    model = member.local[q.locus].at_vertex()
    if beta is None:
        alpha = Fraction(member.gprime.degrees[0] - w[4], math.prod([w[i] for i in range(5) if i not in sections]))
        return NegDefMatrix(alpha=alpha, beta=model.pair_sum(sections) - alpha, parameter_floor=floor)
    vertex, k = model.vertex, model.weights
    alpha = ambient_quadruple(w, q.r, k[:vertex] + k[vertex + 1:],
                              [(1, Fraction(-1, q.r)), *[(w[i], Fraction(-k[i], q.r)) for i in sections]])
    return NegDefMatrix(alpha=alpha, beta=beta, parameter_floor=floor)


def _pair_sum(model: LocalModel, sections: tuple[int, int]) -> Fraction:
    """(B . x_i . x_j) at `model`'s point, which `LocalModel.pair_sum` keeps."""
    k, b = model.at_vertex().weights, (1, Fraction(-1, model.q.r))
    return triple(model.ring, b, *[(model.ambient[i], Fraction(-k[i], model.q.r)) for i in sections])


def wci_degrees(condition: str) -> tuple[int, ...]:
    """The degrees (a, b, c) of the WCI curve that "exists-wci(a,b,c)" or
    its negation names; UncoveredCaseError for any other condition."""
    head, _, rest = condition.partition("(")
    degrees = rest.removesuffix(")").split(",")
    if head not in ("exists-wci", "not-exists-wci") or len(degrees) != 3 or not all(map(str.isdigit, degrees)):
        raise UncoveredCaseError(f"condition {condition!r} names no WCI curve")
    return tuple(map(int, degrees))


def curve_pairings(model: LocalModel, row: LinkRow) -> tuple[Fraction, Fraction]:
    """(B . C) and (E . C) of the curves C through `model`'s point that `row`
    cites (`LocalModel.pairings`): those of S . T, S = B and T of the cited
    class, less where `residual` is cited those of the row's WCI curve, which
    meets E once; or of the cited (A . C) and (E . C); else UncoveredCaseError."""
    r = model.q.r  # the blowup's discrepancy is 1/r
    b, e = (1, Fraction(-1, r)), (0, 1)
    cited = dict(row.cited or ())
    if "T" in cited:
        pairings = triple(model.ring, b, b, cited["T"]), triple(model.ring, e, b, cited["T"])
        if not cited.get("residual"):
            return pairings
        degree = Fraction(math.prod(wci_degrees(row.condition)), math.prod(model.ambient))
        return pairings[0] - degree + Fraction(1, r), pairings[1] - 1
    if "curve" in cited:
        a_dot, e_dot = cited["curve"]
        return a_dot - e_dot / r, e_dot
    raise UncoveredCaseError(f"no infinite-curves data for family {model.family} at {model.q.locus}")


def _infinite_curves(member: Member, center: Center, branch: LinkRow) -> InfiniteCurves:
    b_dot, e_dot = member.local[center.quotient.locus].pairings(branch)
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

def dispatch(member: Member, center: Center, row: LinkRow) -> tuple[Certificate, Verdict]:
    """Build and judge the certificate of one branch of a center of `member`,
    a family's general member (`Catalog.member`) or a stratum of it: `row`,
    run as given, is a `SINGLE_BRANCH` row or one of the member's link rows
    at the point center's locus.  An involution whose tag disagrees with
    `qi_eligible` (QI exactly where it holds) is uncovered."""
    cert = BUILDERS[row.method](member, center, row)
    verdict = cert.verdict()
    if cert.method == "curve-degree" and not verdict.excluded:
        raise UncoveredCaseError(
            f"family {member.g.id}: curve of degree {rat_str(center.degree)} is below (-K)^3 "
            f"and matches no special certificate")
    return cert, verdict
