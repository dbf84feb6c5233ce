"""Numerical divisor-class calculus on towers of Kawamata blowups.

Classes live in the pullback basis {A, E_1, ..., E_k}: A is the pullback of
the anticanonical class of the base, E_i the exceptional divisors.  All mixed
triple products vanish, A^3 is the base degree, and E_i^3 = r^2 / (a (r - a))
for the blowup of a 1/r(1, a, r-a) point.  Proper-transform corrections are
the caller's responsibility and enter as explicit coefficient vectors.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .singularities import QuotientSingularity
from .wps import MonomialSupport, record


def kawamata_numbers(q: QuotientSingularity) -> tuple[Fraction, Fraction]:
    """(discrepancy, E^3) of the Kawamata blowup of a 1/r(1, a, r-a) point."""
    return Fraction(1, q.r), Fraction(q.r * q.r, q.a * (q.r - q.a))


@record
class BlowupLattice:
    a_cube: Fraction
    exceptionals: tuple[tuple[Fraction, Fraction], ...] = ()  # (discrepancy, E^3) per point

    @classmethod
    def over(cls, a_cube: Fraction, points: list[QuotientSingularity]) -> "BlowupLattice":
        return cls(a_cube=a_cube, exceptionals=tuple(map(kawamata_numbers, points)))

    @property
    def rank(self) -> int:
        return 1 + len(self.exceptionals)

    def basis_cubes(self) -> tuple[Fraction, ...]:
        return (self.a_cube, *(e3 for _, e3 in self.exceptionals))

    def anticanonical(self) -> "DivisorClass":
        """-K of the top of the tower: A - sum of discrepancies times E_i
        (valid when each center avoids the earlier exceptional divisors)."""
        return DivisorClass((Fraction(1), *(-disc for disc, _ in self.exceptionals)))

    def exceptional_class(self, i: int = 0) -> "DivisorClass":
        coeffs = [Fraction(0)] * self.rank
        coeffs[1 + i] = Fraction(1)
        return DivisorClass(tuple(coeffs))


@record
class DivisorClass:
    coefficients: tuple[Fraction, ...]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coefficients, other.coefficients, strict=True)))

    def __rmul__(self, scalar) -> "DivisorClass":
        s = Fraction(scalar)
        n, d = s.numerator, s.denominator
        return DivisorClass(tuple(Fraction(n * a.numerator, d * a.denominator) for a in self.coefficients))


def triple(lattice: BlowupLattice, c1: DivisorClass, c2: DivisorClass, c3: DivisorClass) -> Fraction:
    """Triple product of three classes: diagonal contraction against the
    basis cubes (all mixed products vanish), summed as integers over the
    terms' common denominator and returned as one exact Fraction."""
    cubes = lattice.basis_cubes()
    for c in (c1, c2, c3):
        if len(c.coefficients) != lattice.rank:
            raise ValueError(f"class of rank {len(c.coefficients)} on a rank-{lattice.rank} lattice")
    nums, dens = [], []
    for x, y, z, k in zip(c1.coefficients, c2.coefficients, c3.coefficients, cubes):
        nums.append(x.numerator * y.numerator * z.numerator * k.numerator)
        dens.append(x.denominator * y.denominator * z.denominator * k.denominator)
    denominator = math.lcm(*dens)
    return Fraction(sum(n * (denominator // d) for n, d in zip(nums, dens)), denominator)


def b_cubed(a_cube: Fraction, q: QuotientSingularity) -> Fraction:
    """(-K)^3 after the Kawamata blowup of one point: A^3 - 1/(r a (r-a)),
    one exact Fraction over the common denominator."""
    k = q.r * q.a * (q.r - q.a)
    return Fraction(a_cube.numerator * k - a_cube.denominator, a_cube.denominator * k)


def ambient_quadruple(ambient_weights: tuple[int, ...],
                      blowup_r: int,
                      blowup_weights: tuple[int, ...],
                      classes: list[tuple[Fraction, Fraction]]) -> Fraction:
    """Product of four divisor classes alpha*A + beta*F on the weighted blowup
    of a weighted projective 4-space: A^4 = 1 / prod(ambient weights) and
    F^4 = -r^3 / prod(blowup weights), mixed products zero.

    Used to pair curve classes cut by three coordinate divisors against -K.
    """
    if len(classes) != 4 or len(blowup_weights) != 4:
        raise ValueError("need four classes and four blowup weights")
    a4 = Fraction(1, math.prod(ambient_weights))
    f4 = -Fraction(blowup_r ** 3, math.prod(blowup_weights))
    a_term = math.prod(alpha for alpha, _ in classes) * a4
    f_term = math.prod(beta for _, beta in classes) * f4
    return a_term + f_term


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
    -K + cE is nef when c does not exceed the blowup discrepancy 1/r."""
    if not lifts:
        raise ValueError("need at least one section lift")
    for lift in lifts:
        if lift.class_b <= 0 or lift.class_e < 0:
            raise ValueError(f"lift {lift} is not of the form bB + eE with b > 0, e >= 0")
    c = max(Fraction(lift.class_e, lift.class_b) for lift in lifts)
    return c, c <= Fraction(1, q.r)
