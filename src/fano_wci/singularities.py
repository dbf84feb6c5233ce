"""Singular locus of a general hypersurface-family member: terminal quotient
points on coordinate vertices and edges, the distinguished non-quotient point,
and the divisorial extractions centered there; and the standard form that both
records of a family solve to (`equation_shape`), which fixes the member's
equation shape.

Everything else here is support-based.  A general member is modeled by the set of
monomials its defining polynomial may contain (generic coefficients): the
powers of the distinguished last coordinate w are capped at 2 or 3 by the
family's equation shape, all other slots are generically full.  Root counting
on coordinate edges uses lowest/highest exponents only, never coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .catalog import FamilyRecord, cax_modulus, is_double_cover_shape
from .wps import Monomial, MonomialSupport, WeightSystem, monomials_of_degree, record


class ClassificationError(ValueError):
    """A raw quotient type admits no normalization to a terminal 1/r(1,a,r-a)."""


class NotQuasismoothError(ValueError):
    """A coordinate vertex on the member has no tangent monomial x_i^k x_j."""


class NonIsolatedSingularityError(ValueError):
    """A coordinate edge with non-trivial stabilizer lies inside the member."""


@record
class QuotientSingularity:
    """Terminal cyclic quotient point of type 1/r(1, a, r-a), gcd(a, r) = 1."""

    r: int
    a: int
    locus: str = ""
    count: int = 1

    def __post_init__(self) -> None:
        if self.r < 2 or not (1 <= self.a <= self.r - self.a):
            raise ClassificationError(f"not a normalized type: 1/{self.r}(1,{self.a},{self.r - self.a})")
        if math.gcd(self.a, self.r) != 1:
            raise ClassificationError(f"1/{self.r}(1,{self.a},{self.r - self.a}) is not terminal")

    def type_str(self) -> str:
        return f"1/{self.r}(1,{self.a},{self.r - self.a})"

    def discrepancy(self) -> Fraction:
        return Fraction(1, self.r)


@record
class CAxPoint:
    """The unique non-quotient point of a hypersurface member, at the w vertex.

    Extraction weights come from the ambient formula (`extractions_at_cax`),
    not from the weight parameter of the extraction classification, which
    support data alone cannot determine.
    """

    modulus: int  # 2 or 4
    square_type: bool

    def type_str(self) -> str:
        return f"cAx/{self.modulus}"


@record
class ExtractionDescriptor:
    count: int  # 2 for square type, else 1
    ambient_weights: tuple[Fraction, Fraction, Fraction, Fraction]
    discrepancy: Fraction


def normalize_quotient(r: int, raw: tuple[int, int, int], locus: str = "", count: int = 1) -> QuotientSingularity:
    """Reduce a weight triple mod r and scale by a unit into 1/r(1, a, r-a).

    The unit and the ordering are searched exhaustively; if no choice lands on
    the terminal shape the type is rejected.
    """
    if r < 2:
        raise ClassificationError(f"quotient order must be >= 2, got {r}")
    reduced = tuple(x % r for x in raw)
    if any(x == 0 for x in reduced):
        raise ClassificationError(f"1/{r}{raw}: zero weight after reduction, fixed locus is not a point")
    for u in range(1, r):
        if math.gcd(u, r) != 1:
            continue
        scaled = sorted((u * x) % r for x in reduced)
        if scaled[0] == 1 and scaled[1] + scaled[2] == r:
            return QuotientSingularity(r=r, a=scaled[1], locus=locus, count=count)
    raise ClassificationError(f"1/{r}{raw} is not of terminal type 1/r(1,a,r-a)")


# ---------------------------------------------------------------------------
# Standard form of a family record
# ---------------------------------------------------------------------------

class StandardFormError(ValueError):
    """The record's weights and degrees admit no standard form: the record is
    corrupt."""


@record
class StandardForm:
    """A record's weights in role order, its degrees, and where each role
    sits in the record's (lifted) weights; see `equation_shape`."""

    role_weights: tuple[int, int, int, int, int, int]  # (a0, a1, a2, a3, a4, a5)
    degrees: tuple[int, int]  # (d1, d2) = (a0 + a5, a4 + a5)
    positions: tuple[int, int, int, int, int, int]  # coordinate of each role

    @property
    def b(self) -> int:
        return self.role_weights[4] - self.role_weights[0]


def equation_shape(record: FamilyRecord) -> StandardForm:
    """Solve the subfamily's constraint system for the standard form of a G or
    Gprime record.

    A standard form orders the six ambient weights (a0, ..., a5) of the
    codimension-2 model so that its defining equations take the shape

        v x0 + u (x0 + f) + g = v u - h = 0        (double-cover shape, I')
        v x0 + u^2 + u f + g = v u - h = 0         (triple-cover shape, I'')

    with d1 = a0 + a5 and d2 = a4 + a5.  The counterpart hypersurface X'_d,
    d = d2, lives in P(a0, a1, a2, a3, b) with b = a4 - a0 and eliminates u, v
    in favour of the distinguished coordinate w.

    A Gprime record X'_d in P(x0, x1, x2, x3, b) is first lifted to the six
    weights (x0, x1, x2, x3, a4, a5) and the degrees (d - b, d), with
    a0 = (d - 2b)/2 for I' or (d - 3b)/2 for I'', a4 = a0 + b and a5 = d - a4.
    Both kinds then solve, with d1 <= d2 and both even:

    - double-cover shape: a5 = a4 = d2/2, a1 = d1/2, a0 = d1 - a5;
    - triple-cover shape: a5 = the unique top weight, a0 = d1 - a5,
      a4 = d1/2, a1 = d2/2 and d2 = a4 + a5.

    The two weights left are (a2, a3) with a2 <= a3, and b must be positive.
    `positions` holds each role's coordinate in the (lifted) weights, the
    first free one of its value; a Gprime's a0..a3 land on its x coordinates.
    """
    weights, degrees = record.weights.weights, record.degrees
    double_cover = is_double_cover_shape(record.subfamily)
    if record.kind == "Gprime":
        d, b = degrees[0], weights[4]
        twice_a0 = d - 2 * b if double_cover else d - 3 * b
        if twice_a0 <= 0 or twice_a0 % 2:
            raise StandardFormError(f"No.{record.id}: degree {d} and b={b} admit no standard shape")
        a4 = twice_a0 // 2 + b
        weights = weights[:4] + (a4, d - a4)
        degrees = (d - b, d)
    d1, d2 = sorted(degrees)
    if d1 % 2 or d2 % 2:
        raise StandardFormError(f"No.{record.id}: standard form degrees d1, d2 = {d1}, {d2} "
                                f"are not both even")
    pool = Counter(weights)

    def take(value: int, what: str) -> int:
        if value <= 0 or pool[value] == 0:
            raise StandardFormError(f"No.{record.id}: standard form unsolvable, needs {what} = {value} "
                                    f"in weights {weights}")
        pool[value] -= 1
        return value

    if double_cover:
        a5 = take(d2 // 2, "a5 = d2/2")
        a4 = take(d2 // 2, "a4 = d2/2")
        a1 = take(d1 // 2, "a1 = d1/2")
        a0 = take(d1 - a5, "a0 = d1 - a5")
    else:
        a5 = take(max(weights), "a5 = max weight")
        if pool[a5]:
            raise StandardFormError(f"No.{record.id}: the top weight must be unique")
        a0 = take(d1 - a5, "a0 = d1 - a5")
        a4 = take(d1 // 2, "a4 = d1/2")
        a1 = take(d2 // 2, "a1 = d2/2")
        if a4 + a5 != d2:
            raise StandardFormError(f"No.{record.id}: d2 != a4 + a5")
    if a4 <= a0:
        raise StandardFormError(f"No.{record.id}: b = a4 - a0 = {a4 - a0} is not positive")
    a2, a3 = sorted(pool.elements())

    role_weights = (a0, a1, a2, a3, a4, a5)
    positions: list[int] = []
    for value in role_weights:
        positions.append(next(i for i, a in enumerate(weights) if a == value and i not in positions))
    return StandardForm(role_weights=role_weights, degrees=(d1, d2), positions=tuple(positions))


def family_support(record: FamilyRecord, shape: StandardForm | None = None) -> MonomialSupport:
    """Monomial support of a general member's defining polynomial.

    Double-cover shape:  w^2 x0 (x0 + f(x2,x3)) + w g + h,
    triple-cover shape:  w^3 x0^2 + w^2 x0 f + w g + h,
    with f, g, h generic of the forced degrees.  Exponent vectors are in
    display coordinates (5 slots, w last).  `shape` is the record's
    `equation_shape`, derived here when not given.
    """
    if shape is None:
        shape = equation_shape(record)
    w = record.weights
    d = record.degrees[0]
    b = shape.b
    a0, a4 = shape.role_weights[0], shape.role_weights[4]
    i0, _, i2, i3 = shape.positions[:4]
    x_vars = (0, 1, 2, 3)

    def shift(ms: MonomialSupport, extra: dict[int, int]) -> set[Monomial]:
        out = set()
        for m in ms.monomials:
            vec = list(m)
            for pos, e in extra.items():
                vec[pos] += e
            out.add(tuple(vec))
        return out

    monos: set[Monomial] = set()
    if is_double_cover_shape(record.subfamily):
        # w^2 x0^2 and w^2 x0 * f with f of degree a0 in the x2, x3 slots
        lead = [0] * 5
        lead[i0] = 2
        lead[4] = 2
        monos.add(tuple(lead))
        f_supp = monomials_of_degree(a0, w, variables=(i2, i3))
        monos |= shift(f_supp, {i0: 1, 4: 2})
    else:
        lead = [0] * 5
        lead[i0] = 2
        lead[4] = 3
        monos.add(tuple(lead))
        f_supp = monomials_of_degree(a4, w, variables=x_vars)
        monos |= shift(f_supp, {i0: 1, 4: 2})
    g_supp = monomials_of_degree(d - b, w, variables=x_vars)
    monos |= shift(g_supp, {4: 1})
    monos |= monomials_of_degree(d, w, variables=x_vars).monomials
    return MonomialSupport(degree=d, monomials=frozenset(monos))


def support_with_point_at_vertex(support: MonomialSupport, vertex: int, weight: int) -> MonomialSupport:
    """Normalize coordinates so an edge point sits at the given vertex: the
    vertex then lies on the member, i.e. the pure power of that coordinate is
    struck from the support."""
    if support.degree % weight:
        return support
    pure = [0] * 5
    pure[vertex] = support.degree // weight
    return MonomialSupport(
        degree=support.degree,
        monomials=frozenset(m for m in support.monomials if m != tuple(pure)),
    )


# ---------------------------------------------------------------------------
# Vertex and edge analysis
# ---------------------------------------------------------------------------

def tangent_coordinate(support: MonomialSupport, w: WeightSystem, vertex: int) -> int:
    """The coordinate j eliminated at a vertex on the member: x_vertex^k x_j is
    in the support, j chosen with minimal weight, then minimal index."""
    d = support.degree
    candidates = []
    for j in range(len(w)):
        if j == vertex:
            continue
        rem = d - w[j]
        if rem <= 0 or rem % w[vertex]:
            continue
        k = rem // w[vertex]
        vec = [0] * len(w)
        vec[vertex] = k
        vec[j] = 1
        if tuple(vec) in support:
            candidates.append((w[j], j))
    if not candidates:
        raise NotQuasismoothError(f"no tangent monomial at vertex p{vertex}: not quasismooth there")
    return min(candidates)[1]


def vertex_on_member(support: MonomialSupport, w: WeightSystem, vertex: int) -> bool:
    d = support.degree
    if d % w[vertex]:
        return True
    pure = [0] * len(w)
    pure[vertex] = d // w[vertex]
    return tuple(pure) not in support


def vertex_singularities(record: FamilyRecord,
                         support: MonomialSupport | None = None) -> list[QuotientSingularity]:
    """Quotient types at the x vertices of a general Gprime member.

    The w vertex, the distinguished non-quotient point, is not among them
    (see `cax_classify`).  Vertices of weight 1, and vertices missed by the
    general member, contribute nothing.  `support` is the record's
    `family_support`, derived here when not given.
    """
    if support is None:
        support = family_support(record)
    w = record.weights
    out: list[QuotientSingularity] = []
    for i in range(4):
        if w[i] < 2 or not vertex_on_member(support, w, i):
            continue
        j = tangent_coordinate(support, w, i)
        transverse = tuple(w[m] for m in range(5) if m not in (i, j))
        out.append(normalize_quotient(w[i], transverse, locus=f"p{i}"))
    return out


def edge_root_count(support: MonomialSupport, w: WeightSystem, i: int, j: int) -> int:
    """Number of points cut on the coordinate edge (i, j) away from the two
    vertices, for generic coefficients.

    The restriction of the support to the edge is a binary form; the count is
    its weighted degree after stripping the vanishing orders at both ends,
    divided by the degree of the reduced edge line.

    A monomial lies on the edge when its x_i, x_j part alone has the
    support's weighted degree: the support is homogeneous and the weights are
    positive, so that holds exactly when every other exponent is zero.
    """
    wi, wj, d = w[i], w[j], support.degree
    restricted = [m for m in support.monomials if m[i] * wi + m[j] * wj == d]
    if not restricted:
        raise NonIsolatedSingularityError(
            f"edge p{i}p{j} lies inside the member: non-isolated singularity")
    r = math.gcd(wi, wj)
    p, q = wi // r, wj // r
    big_d = d // r
    m_i = min(m[i] for m in restricted)
    m_j = min(m[j] for m in restricted)
    interior = big_d - p * m_i - q * m_j
    if interior % (p * q):
        raise ValueError(f"edge p{i}p{j}: residual degree {interior} not divisible by {p * q}")
    return interior // (p * q)


def edge_singularities(record: FamilyRecord, edge: tuple[int, int],
                       support: MonomialSupport | None = None) -> QuotientSingularity | None:
    """Quotient points on one coordinate edge of a general Gprime member, with
    their multiplicity; None when the general member meets the edge only at
    vertices.  `support` is the record's `family_support`, derived here when
    not given."""
    i, j = sorted(edge)
    w = record.weights
    r = math.gcd(w[i], w[j])
    if r < 2:
        raise ValueError(f"edge p{i}p{j} has trivial stabilizer (gcd {r})")
    if support is None:
        support = family_support(record)
    count = edge_root_count(support, w, i, j)
    if count == 0:
        return None
    transverse = tuple(w[m] for m in range(5) if m not in (i, j))
    return normalize_quotient(r, transverse, locus=f"p{i}p{j}", count=count)


def singular_locus(record: FamilyRecord,
                   support: MonomialSupport | None = None) -> tuple[list[QuotientSingularity], CAxPoint]:
    """The full basket of a general member: vertex points, edge points, and
    the distinguished cAx point (square type, coefficients being generic).
    `support` is the record's `family_support`, derived here once when not
    given."""
    if support is None:
        support = family_support(record)
    quotients = vertex_singularities(record, support)
    w = record.weights
    for i in range(5):
        for j in range(i + 1, 5):
            if math.gcd(w[i], w[j]) < 2:
                continue
            found = edge_singularities(record, (i, j), support)
            if found is not None:
                quotients.append(found)
    quotients.sort(key=lambda q: (q.locus, q.r))
    return quotients, cax_classify(record, f_is_zero=False, g1_is_zero=False)


def cax_classify(record: FamilyRecord, f_is_zero: bool, g1_is_zero: bool) -> CAxPoint:
    """Type and square/non-square classification of the distinguished point.

    For the double-cover shape the point is of non-square type exactly when
    f = 0; for the triple-cover shape, exactly when the x1-derivative of g
    restricted to the x2, x3 slots vanishes.
    """
    modulus = cax_modulus(record.subfamily)
    if is_double_cover_shape(record.subfamily):
        square = not f_is_zero
    else:
        square = not g1_is_zero
    return CAxPoint(modulus=modulus, square_type=square)


def extractions_at_cax(point: CAxPoint, link_data) -> ExtractionDescriptor:
    """Divisorial extractions centered at the cAx point: two for square type,
    one otherwise, with ambient blowup weights (a4, a1, a2, a3) / b taken from
    the family's link data."""
    b = link_data.b
    a0, a1, a2, a3 = link_data.xprime_weights.weights[:4]
    a4 = a0 + b
    if b != point.modulus:
        raise ValueError(f"blowup weight denominator {b} does not match cAx/{point.modulus}")
    return ExtractionDescriptor(
        count=2 if point.square_type else 1,
        ambient_weights=(Fraction(a4, b), Fraction(a1, b), Fraction(a2, b), Fraction(a3, b)),
        discrepancy=Fraction(1, point.modulus),
    )
