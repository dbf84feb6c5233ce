"""Intersection numbers on weighted blowups, vanishing orders and nef bounds.

A `BlowupRing` holds the n-th powers of a basis (A, E_1, ..., E_k) of
divisor classes on an n-fold: A pulls back -K of a threefold or O(1) of a
weighted projective space, E_i are the exceptional divisors, and every mixed
product vanishes.  A blowup with weights b/r has E^n = (-1)^(n-1) r^(n-1) /
prod(b) (Reid, "Young person's guide", §6); the Kawamata blowup of a
1/r(1, a, r-a) point has E^3 = r^2 / (a (r - a)).  A class is a plain tuple
in that basis: on a Kawamata tower -K is (1, -1/r_1, ...) and E_1 is
(0, 1, 0, ...).  Proper-transform corrections are the caller's.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .singularities import QuotientSingularity
from .wps import MonomialSupport, record


def exceptional_power(r: int, weights: tuple[int, ...]) -> Fraction:
    """E^n of the blowup with weights b/r, n = len(b): (-1)^(n-1) r^(n-1) / prod(b)."""
    return Fraction((-r) ** (len(weights) - 1), math.prod(weights))


@record
class BlowupRing:
    powers: tuple[Fraction, ...]  # A^n, E_1^n, ..., E_k^n

    @classmethod
    def kawamata_tower(cls, a_cube: Fraction, points: list[QuotientSingularity]) -> "BlowupRing":
        """The Kawamata blowups of a threefold with A^3 = `a_cube` at each of
        `points` (-K of the top is (1, -1/r_1, ...) when each center avoids
        the earlier exceptional divisors)."""
        return cls((a_cube, *(exceptional_power(q.r, (1, q.a, q.r - q.a)) for q in points)))

    @classmethod
    def vertex_blowup(cls, ambient_weights: tuple[int, ...], r: int, weights: tuple[int, ...]) -> "BlowupRing":
        """The blowup with weights `weights`/r of P(`ambient_weights`) at a vertex: A^n = 1/prod(w)."""
        return cls((Fraction(1, math.prod(ambient_weights)), exceptional_power(r, weights)))

    def product(self, *classes) -> Fraction:
        """The product of the classes, n of them on an n-fold: diagonal
        contraction against the basis powers, summed as integers over the
        terms' common denominator and returned as one exact Fraction."""
        rank = len(self.powers)
        for c in classes:
            if len(c) != rank:
                raise ValueError(f"class of rank {len(c)} on a rank-{rank} ring")
        terms = []
        for k, *xs in zip(self.powers, *classes):
            num, den = k.numerator, k.denominator
            for x in xs:
                num, den = num * x.numerator, den * x.denominator
            terms.append((num, den))
        denominator = math.lcm(*(d for _, d in terms))
        return Fraction(sum(n * (denominator // d) for n, d in terms), denominator)


def triple(ring: BlowupRing, c1, c2, c3) -> Fraction:
    """The product of three classes on a threefold's ring."""
    return ring.product(c1, c2, c3)


def b_cubed(a_cube: Fraction, q: QuotientSingularity) -> Fraction:
    """(-K)^3 after the Kawamata blowup of one point: A^3 - 1/(r a (r-a)),
    the ring's (1, -1/r)^3 in closed form, one exact Fraction over the
    common denominator."""
    k = q.r * q.a * (q.r - q.a)
    return Fraction(a_cube.numerator * k - a_cube.denominator, a_cube.denominator * k)


def ambient_quadruple(ambient_weights: tuple[int, ...], blowup_r: int, blowup_weights: tuple[int, ...],
                      classes: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Product of four classes (alpha, beta) = alpha A + beta F on the weighted
    blowup of a weighted projective 4-space at a vertex.

    Used to pair curve classes cut by three coordinate divisors against -K.
    """
    if len(classes) != 4 or len(blowup_weights) != 4:
        raise ValueError("need four classes and four blowup weights")
    return BlowupRing.vertex_blowup(ambient_weights, blowup_r, blowup_weights).product(*classes)


# ---------------------------------------------------------------------------
# Vanishing orders and nef-divisor bounds
# ---------------------------------------------------------------------------

def vanishing_order(support: MonomialSupport,
                    blowup_weights: tuple[Fraction, ...],
                    eliminated: int | None = None) -> Fraction:
    """Order of vanishing along the exceptional divisor, from support minima.

    Without `eliminated`, the order of a section with the given support is the
    minimal weighted order of its monomials.  With `eliminated` set, the
    support is the defining polynomial's: terms divisible by that coordinate
    are filtered off and the minimum of the rest is the implied order of the
    eliminated coordinate itself.  Each monomial's order is summed as an
    integer over the weights' common denominator; the minimum is returned as
    one exact Fraction.
    """
    monos = support.monomials
    if eliminated is not None:
        monos = [m for m in monos if m[eliminated] == 0]
    if not monos:
        raise ValueError("vanishing order undefined: empty residual support")
    denominator = math.lcm(*(a.denominator for a in blowup_weights))
    scaled = [a.numerator * (denominator // a.denominator) for a in blowup_weights]
    if set(map(len, monos)) != {len(scaled)}:
        raise ValueError(f"monomials and {len(scaled)} blowup weights differ in length")
    return Fraction(min(sum(map(operator.mul, m, scaled)) for m in monos), denominator)


@record
class SectionLift:
    """A section of degree d lifting to the class d*B + (d/r - order)*E."""

    class_b: int
    class_e: Fraction

    @classmethod
    def of(cls, degree: int, order: Fraction, r: int) -> "SectionLift":
        d = order.denominator  # degree/r - order over the common denominator r d
        return cls(class_b=degree, class_e=Fraction(degree * d - order.numerator * r, r * d))


def nef_bound_check(lifts: list[SectionLift], q: QuotientSingularity) -> tuple[Fraction, bool]:
    """c = max(class_e / class_b) over the isolating sections; the divisor
    -K + cE is nef when c does not exceed the blowup discrepancy 1/r.  A lift
    of degree d and order o has class_e / class_b = (d/r - o)/d, so
    c = 1/r - min(o/d), and c <= 1/r holds whenever every order is >= 0.
    Each ratio is an integer pair (numerator, denominator) and the max is
    taken by integer cross-products, the first lift on a tie; c is built as
    one exact Fraction."""
    if not lifts:
        raise ValueError("need at least one section lift")
    num, den = -1, 1  # below every ratio of a valid lift
    for lift in lifts:
        n, d = lift.class_e.as_integer_ratio()
        if lift.class_b <= 0 or n < 0:
            raise ValueError(f"lift {lift} is not of the form bB + eE with b > 0, e >= 0")
        d *= lift.class_b
        if n * den > num * d:
            num, den = n, d
    c = Fraction(num, den)
    return c, c.numerator * q.r <= c.denominator  # c <= 1/r
