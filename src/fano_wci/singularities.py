"""Singular locus of a hypersurface-family member (`singular_locus`, one walk
over the coordinate vertices and edges for its terminal quotient points), the
distinguished non-quotient point and the divisorial extractions centered there;
and the standard form that both records of a family solve to (`equation_shape`),
which fixes the member's equation shape and subfamily tag.

Everything else here is support-based.  A general member is modeled by the set of
monomials its defining polynomial may contain (generic coefficients): the
powers of the distinguished last coordinate w are capped at 2 or 3 by the
family's equation shape, all other slots are generically full.  Root counting
on coordinate edges uses lowest/highest exponents only, never coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .catalog import FamilyRecord
from .wps import Monomial, MonomialSupport, monomials_of_degree, record


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


@record
class CAxPoint:
    """The unique non-quotient point of a hypersurface member, at the w vertex,
    and the divisorial extractions centered there (see `cax_classify`)."""

    modulus: int  # b of the standard form: 2 or 4 in the catalog
    square_type: bool
    extraction_weights: tuple[Fraction, Fraction, Fraction, Fraction]  # (a4, a1, a2, a3) / b

    def type_str(self) -> str:
        return f"cAx/{self.modulus}"

    @property
    def extraction_count(self) -> int:
        """Two extractions for square type, one otherwise."""
        return 2 if self.square_type else 1


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

    @property
    def double_cover(self) -> bool:
        """True for the I' shape, whose a4 = a5; the I'' shape has a unique
        top weight a5."""
        return self.role_weights[4] == self.role_weights[5]

    @property
    def subfamily(self) -> str:
        """The paper's subfamily tag: the shape, then b, the modulus of the
        cAx/b point."""
        return ("I'" if self.double_cover else "I''") + str(self.b)

    @property
    def shape_name(self) -> str:
        return "I'-shape" if self.double_cover else "I''-shape"

    @property
    def z_degree(self) -> int:
        """The degree d1 + d2 - a5 of the link's midpoint hypersurface."""
        return sum(self.degrees) - self.role_weights[5]


def equation_shape(record: FamilyRecord) -> StandardForm:
    """The standard form of a G or Gprime record: the one equation shape
    whose constraint system the record's weights and degrees solve.

    A standard form orders the six ambient weights (a0, ..., a5) of the
    codimension-2 model so that its defining equations take the shape

        v x0 + u (x0 + f) + g = v u - h = 0        (double-cover shape, I')
        v x0 + u^2 + u f + g = v u - h = 0         (triple-cover shape, I'')

    with d1 = a0 + a5 and d2 = a4 + a5.  The counterpart hypersurface X'_d,
    d = d2, lives in P(a0, a1, a2, a3, b) with b = a4 - a0 and eliminates u, v
    in favour of the distinguished coordinate w.

    A record that solves in neither shape, or in both, raises
    StandardFormError; see `_solve` for the two systems.
    """
    forms, reasons = [], []
    for double_cover, name in ((True, "I'"), (False, "I''")):
        solved = _solve(record, double_cover)
        if type(solved) is str:
            reasons.append(f"{name} shape: {solved}")
        else:
            forms.append(solved)
    if len(forms) == 2:
        raise StandardFormError(f"No.{record.id}: solves in both the I' and the I'' shape")
    if not forms:
        raise StandardFormError(f"No.{record.id}: no standard form ({'; '.join(reasons)})")
    return forms[0]


def _solve(record: FamilyRecord, double_cover: bool) -> StandardForm | str:
    """Solve one shape's constraint system for the standard form of a G or
    Gprime record; return the form, or the reason the system has no solution.

    A Gprime record X'_d in P(x0, x1, x2, x3, b) is first lifted to the six
    weights (x0, x1, x2, x3, a4, a5) and the degrees (d - b, d), with
    a0 = (d - 2b)/2 for I' or (d - 3b)/2 for I'', a4 = a0 + b and a5 = d - a4.
    Both kinds then solve, with d1 <= d2 and both even:

    - double-cover shape: a5 = a4 = d2/2, a1 = d1/2, a0 = d1 - a5;
    - triple-cover shape: a5 = the unique top weight, a0 = d1 - a5,
      a4 = d1/2, a1 = d2/2 and d2 = a4 + a5.

    Each role takes one weight of its value, in the order listed; the two
    weights left are (a2, a3) with a2 <= a3, and b must be positive.
    `positions` holds each role's coordinate in the (lifted) weights, the
    first free one of its value; a Gprime's a0..a3 land on its x coordinates.
    """
    weights, degrees = record.weights, record.degrees
    if record.kind == "Gprime":
        d, b = degrees[0], weights[4]
        twice_a0 = d - 2 * b if double_cover else d - 3 * b
        if twice_a0 <= 0 or twice_a0 % 2:
            return f"degree {d} and b={b} admit no lift to six weights"
        a4 = twice_a0 // 2 + b
        weights = weights[:4] + (a4, d - a4)
        degrees = (d - b, d)
    d1, d2 = sorted(degrees)
    if d1 % 2 or d2 % 2:
        return f"degrees d1, d2 = {d1}, {d2} are not both even"
    if double_cover:
        a5 = a4 = d2 // 2
        a0, a1 = d1 - a5, d1 // 2
        roles = ((a5, "a5 = d2/2"), (a4, "a4 = d2/2"), (a1, "a1 = d1/2"), (a0, "a0 = d1 - a5"))
    else:
        a5 = max(weights)
        if weights.count(a5) > 1:
            return "the top weight must be unique"
        a0, a4, a1 = d1 - a5, d1 // 2, d2 // 2
        roles = ((a5, "a5 = max weight"), (a0, "a0 = d1 - a5"), (a4, "a4 = d1/2"), (a1, "a1 = d2/2"))
    pool = list(weights)
    for value, what in roles:
        if value <= 0 or value not in pool:
            return f"needs {what} = {value} in weights {weights}"
        pool.remove(value)
    if a4 + a5 != d2:  # holds by construction in the double-cover shape
        return "d2 != a4 + a5"
    if a4 <= a0:
        return f"b = a4 - a0 = {a4 - a0} is not positive"
    a2, a3 = sorted(pool)

    role_weights = (a0, a1, a2, a3, a4, a5)
    free = list(weights)  # a taken coordinate is marked 0, which no weight is
    positions = []
    for value in role_weights:
        i = free.index(value)
        free[i] = 0
        positions.append(i)
    return StandardForm(role_weights, (d1, d2), tuple(positions))


def family_support(record: FamilyRecord, shape: StandardForm) -> MonomialSupport:
    """Monomial support of a general member's defining polynomial.

    Double-cover shape:  w^2 x0 (x0 + f(x2,x3)) + w g + h,
    triple-cover shape:  w^3 x0^2 + w^2 x0 f + w g + h,
    with f, g, h generic of the forced degrees.  Exponent vectors are in
    display coordinates (5 slots, w last); each of f, g, h is enumerated
    with its fixed factor (w^2 x0, w, 1) as the offset.  `shape` is the
    record's `equation_shape`.
    """
    w = record.weights
    d = record.degrees[0]
    a0, a4 = shape.role_weights[0], shape.role_weights[4]
    i0, _, i2, i3 = shape.positions[:4]
    x_vars = (0, 1, 2, 3)
    lead = [0, 0, 0, 0, 2 if shape.double_cover else 3]  # w^2 x0^2 or w^3 x0^2
    lead[i0] = 2
    w2_x0 = [0, 0, 0, 0, 2]
    w2_x0[i0] = 1
    # f is of degree a0 in the x2, x3 slots, or of degree a4 in all x slots
    f_degree, f_vars = (a0, (i2, i3)) if shape.double_cover else (a4, x_vars)
    f_supp = monomials_of_degree(f_degree, w, f_vars, tuple(w2_x0))
    g_supp = monomials_of_degree(d - shape.b, w, x_vars, (0, 0, 0, 0, 1))
    h_supp = monomials_of_degree(d, w, x_vars)
    monos = f_supp.monomials.union(g_supp.monomials, h_supp.monomials, (tuple(lead),))
    return MonomialSupport(degree=d, monomials=monos)


def _pure_power(degree: int, weight: int, vertex: int, n: int) -> Monomial | None:
    """The exponents of x_vertex^(degree / weight) among n coordinates, or
    None when the weight does not divide the degree."""
    if degree % weight:
        return None
    return tuple(degree // weight if i == vertex else 0 for i in range(n))


def support_with_point_at_vertex(support: MonomialSupport, vertex: int, weight: int) -> MonomialSupport:
    """Normalize coordinates so an edge point sits at the given vertex: the
    vertex then lies on the member, i.e. the pure power of that coordinate is
    struck from the support."""
    pure = _pure_power(support.degree, weight, vertex, 5)
    if pure is None:
        return support
    return MonomialSupport(degree=support.degree, monomials=support.monomials - {pure})


# ---------------------------------------------------------------------------
# Vertex and edge analysis
# ---------------------------------------------------------------------------

def misses_vertex(support: MonomialSupport, w: tuple[int, ...], vertex: int) -> bool:
    """Whether the member of `support` misses the coordinate vertex
    p_vertex: the pure power of x_vertex is in the support."""
    pure = _pure_power(support.degree, w[vertex], vertex, 5)
    return pure is not None and pure in support


def tangent_monomials(support: MonomialSupport, w: tuple[int, ...], vertex: int) -> list[tuple[int, int]]:
    """The (k, j) of every tangent monomial x_vertex^k x_j, j != vertex, in
    the support, in order of j."""
    d = support.degree
    found = []
    for j in range(len(w)):
        rem = d - w[j]
        if j == vertex or rem <= 0 or rem % w[vertex]:
            continue
        vec = [0] * len(w)
        vec[vertex] = rem // w[vertex]
        vec[j] = 1
        if tuple(vec) in support:
            found.append((vec[vertex], j))
    return found


def tangent_coordinate(support: MonomialSupport, w: tuple[int, ...], vertex: int) -> int:
    """The coordinate j eliminated at a vertex on the member: x_vertex^k x_j is
    in the support, j chosen with minimal weight, then minimal index."""
    candidates = [(w[j], j) for _, j in tangent_monomials(support, w, vertex)]
    if not candidates:
        raise NotQuasismoothError(f"no tangent monomial at vertex p{vertex}: not quasismooth there")
    return min(candidates)[1]


def edge_root_count(support: MonomialSupport, w: tuple[int, ...], i: int, j: int) -> int:
    """Number of points cut on the coordinate edge (i, j) away from the two
    vertices, for generic coefficients.

    The restriction of the support to the edge is a binary form; the count is
    its weighted degree after stripping the vanishing orders at both ends,
    divided by the degree of the reduced edge line.  With r = gcd(w_i, w_j),
    p = w_i/r and q = w_j/r, an edge monomial x_i^a x_j^b has a p + b q = d/r,
    so r divides d; the one that attains m_i puts the stripped degree at
    q (b - m_j), and the one that attains m_j at p (a - m_i), so the coprime
    p and q both divide it and the division is exact.

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
    m_i = min(m[i] for m in restricted)
    m_j = min(m[j] for m in restricted)
    return (d // r - p * m_i - q * m_j) // (p * q)


def singular_locus(record: FamilyRecord, shape: StandardForm,
                   support: MonomialSupport) -> tuple[list[QuotientSingularity], CAxPoint]:
    """The full basket of a member: its quotient points, by locus, and the
    cAx point at the w vertex (`cax_classify`).  One walk visits each x
    vertex of weight r >= 2 on the member, where the tangent coordinate is
    eliminated, then each edge of gcd r >= 2, which holds `edge_root_count`
    points; a point is 1/r of the three weights left.  Vertices go first, so
    theirs is the error raised.  `shape` is the record's `equation_shape`;
    `support` is its `family_support`, or a stratum's with monomials struck."""
    w = record.weights
    quotients = []
    for i in range(4):
        if w[i] < 2 or misses_vertex(support, w, i):
            continue
        j = tangent_coordinate(support, w, i)
        transverse = tuple(w[m] for m in range(5) if m not in (i, j))
        quotients.append(normalize_quotient(w[i], transverse, locus=f"p{i}"))
    for i in range(5):
        for j in range(i + 1, 5):
            r = math.gcd(w[i], w[j])
            if r < 2:
                continue
            count = edge_root_count(support, w, i, j)
            if count:
                transverse = tuple(w[m] for m in range(5) if m not in (i, j))
                quotients.append(normalize_quotient(r, transverse, locus=f"p{i}p{j}", count=count))
    quotients.sort(key=lambda q: (q.locus, q.r))
    return quotients, cax_classify(shape, support)


def cax_classify(shape: StandardForm, support: MonomialSupport) -> CAxPoint:
    """Type, square/non-square classification and extractions of the
    distinguished point, cAx/b, of a member of standard form `shape`.

    The type is read off the member's `support`, x0 and x1 being the
    coordinates of roles a0 and a1.  For the double-cover shape the point is
    of non-square type exactly when f = 0: no term w^2 x0 f.  For the
    triple-cover shape, exactly when the x1-derivative of g restricted to the
    x2, x3 slots vanishes: no term w x1 free of x0.  The extractions' blowup
    weights come from the ambient formula, (a4, a1, a2, a3) / b, not from
    the weight parameter of the extraction classification, which support
    data alone cannot determine.
    """
    x0, x1 = shape.positions[:2]
    if shape.double_cover:
        square = any(m[4] == 2 and m[x0] == 1 for m in support.monomials)
    else:
        square = any(m[4] == 1 and m[x0] == 0 and m[x1] == 1 for m in support.monomials)
    _, a1, a2, a3, a4, _ = shape.role_weights
    return CAxPoint(modulus=shape.b, square_type=square,
                    extraction_weights=tuple(Fraction(a, shape.b) for a in (a4, a1, a2, a3)))
