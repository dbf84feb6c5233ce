"""Singular locus of a general hypersurface-family member: terminal quotient
points on coordinate vertices and edges, the distinguished non-quotient point,
and the divisorial extractions centered there.

Everything here is support-based.  A general member is modeled by the set of
monomials its defining polynomial may contain (generic coefficients): the
powers of the distinguished last coordinate w are capped at 2 or 3 by the
family's equation shape, all other slots are generically full.  Root counting
on coordinate edges uses lowest/highest exponents only, never coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .catalog import FamilyRecord, cax_modulus, is_double_cover_shape
from .wps import Monomial, MonomialSupport, WeightSystem, monomials_of_degree


class ClassificationError(ValueError):
    """A raw quotient type admits no normalization to a terminal 1/r(1,a,r-a)."""


class NotQuasismoothError(ValueError):
    """A coordinate vertex on the member has no tangent monomial x_i^k x_j."""


class NonIsolatedSingularityError(ValueError):
    """A coordinate edge with non-trivial stabilizer lies inside the member."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
# Equation shape of a hypersurface family member
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationShape:
    """Standard-shape data of a Gprime member, resolved against its display
    coordinates (ascending x-weights, w last).

    role_to_display maps the four shape slots x0..x3 to display positions;
    the w slot is always display position 4.
    """

    subfamily: str
    degree: int
    b: int
    role_weights: tuple[int, int, int, int]  # (a0, a1, a2, a3)
    role_to_display: tuple[int, int, int, int]

    @property
    def a0(self) -> int:
        return self.role_weights[0]

    @property
    def a4(self) -> int:
        return self.a0 + self.b


def equation_shape(record: FamilyRecord) -> EquationShape:
    """Recover (a0, a1, a2, a3) and their display positions from a Gprime record."""
    if record.kind != "Gprime":
        raise ValueError(f"equation shape is defined for Gprime records, got {record.kind}")
    w = record.weights
    d = record.degrees[0]
    b = w[4]
    double_cover = is_double_cover_shape(record.subfamily)
    twice_a0 = d - 2 * b if double_cover else d - 3 * b
    if twice_a0 <= 0 or twice_a0 % 2:
        raise ValueError(f"No.{record.id}: degree {d} and b={b} admit no standard shape")
    a0 = twice_a0 // 2
    a4 = a0 + b
    a5 = d - a4
    a1 = (a0 + a5) // 2 if double_cover else (a4 + a5) // 2
    pool = list(w.weights[:4])
    for needed in (a0, a1):
        if needed not in pool:
            raise ValueError(f"No.{record.id}: weight {needed} missing from ambient {w.weights}")
        pool.remove(needed)
    a2, a3 = sorted(pool)

    taken: list[int] = []
    role_to_display: list[int] = []
    for needed in (a0, a1, a2, a3):
        for i in range(4):
            if i not in taken and w[i] == needed:
                taken.append(i)
                role_to_display.append(i)
                break
    return EquationShape(
        subfamily=record.subfamily,
        degree=d,
        b=b,
        role_weights=(a0, a1, a2, a3),
        role_to_display=tuple(role_to_display),
    )


def family_support(record: FamilyRecord, shape: EquationShape | None = None) -> MonomialSupport:
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
    d = shape.degree
    b = shape.b
    i0 = shape.role_to_display[0]
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
        f_vars = (shape.role_to_display[2], shape.role_to_display[3])
        f_supp = monomials_of_degree(shape.a0, w, variables=f_vars)
        monos |= shift(f_supp, {i0: 1, 4: 2})
    else:
        lead = [0] * 5
        lead[i0] = 2
        lead[4] = 3
        monos.add(tuple(lead))
        f_supp = monomials_of_degree(shape.a4, w, variables=x_vars)
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

CAX_MARKER = "cAx"


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
                         support: MonomialSupport | None = None) -> list[QuotientSingularity | str]:
    """Quotient types at the coordinate vertices of a general Gprime member.

    The w vertex is reported as the CAX_MARKER string, never as a quotient
    point.  Vertices of weight 1, and vertices missed by the general member,
    contribute nothing.  `support` is the record's `family_support`, derived
    here when not given.
    """
    if support is None:
        support = family_support(record)
    w = record.weights
    out: list[QuotientSingularity | str] = []
    for i in range(4):
        if w[i] < 2 or not vertex_on_member(support, w, i):
            continue
        j = tangent_coordinate(support, w, i)
        transverse = tuple(w[m] for m in range(5) if m not in (i, j))
        out.append(normalize_quotient(w[i], transverse, locus=f"p{i}"))
    out.append(CAX_MARKER)
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
    quotients: list[QuotientSingularity] = []
    for entry in vertex_singularities(record, support):
        if entry != CAX_MARKER:
            quotients.append(entry)
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
