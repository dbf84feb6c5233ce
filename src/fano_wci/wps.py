"""Weight systems and graded monomial combinatorics on weighted projective space.

All arithmetic is exact: rational quantities are `fractions.Fraction`
(arbitrary precision, always in lowest terms, positive denominator).  No
floating point enters any computation in this package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


def rat(text: str | int) -> Fraction:
    """Parse an exact rational from an int or a "p/q" / "p" string."""
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text.strip())


def rat_str(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when it is an integer."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def wps_str(weights) -> str:
    """Render an ambient space as "P(a0,...,an)"."""
    return "P(" + ",".join(str(a) for a in weights) + ")"


@dataclass(frozen=True)
class WeightSystem:
    """An ordered tuple of positive integer weights (a_0, ..., a_n)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 2:
            raise ValueError(f"need at least 2 weights, got {self.weights}")
        if any(a < 1 for a in self.weights):
            raise ValueError(f"weights must be >= 1, got {self.weights}")

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> int:
        return self.weights[i]

    def __iter__(self):
        return iter(self.weights)

    def product(self) -> int:
        return math.prod(self.weights)

    def total(self) -> int:
        return sum(self.weights)


Monomial = tuple[int, ...]  # exponent vector, one entry per coordinate


@dataclass(frozen=True)
class MonomialSupport:
    """The support of a homogeneous form: a set of exponent vectors of one
    weighted degree, with generic (unspecified) coefficients."""

    degree: int
    monomials: frozenset[Monomial]

    def sorted(self) -> list[Monomial]:
        """Deterministic (graded-lexicographic) order for serialization."""
        return sorted(self.monomials, reverse=True)

    def __contains__(self, m: Monomial) -> bool:
        return tuple(m) in self.monomials

    def __len__(self) -> int:
        return len(self.monomials)


def weighted_degree(m: Monomial, w: WeightSystem) -> int:
    """Sum of exponent_i * weight_i."""
    if len(m) != len(w):
        raise ValueError(f"exponent vector {m} does not match weights {w.weights}")
    return sum(e * a for e, a in zip(m, w))


def monomials_of_degree(d: int, w: WeightSystem, variables: tuple[int, ...] | None = None) -> MonomialSupport:
    """All exponent vectors of weighted degree d.

    `variables` optionally restricts which coordinates may occur (all others
    get exponent zero); this is how supports of forms in a subset of the
    coordinates are enumerated.

    The coordinates are visited largest weight first (a stable sort, so equal
    weights keep their order), and the exponent of the last coordinate, of the
    smallest weight a, is solved in closed form: the remaining degree r gives
    the exponent r // a when a divides r, and no monomial otherwise.  When a
    is 1, as for the x coordinates of every catalog record, every branch of
    the search ends in a monomial.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    weights = w.weights
    order = sorted(range(len(weights)) if variables is None else variables,
                   key=weights.__getitem__, reverse=True)
    found: list[Monomial] = []
    vec = [0] * len(weights)
    if not order:
        if d == 0:
            found.append(tuple(vec))
        return MonomialSupport(degree=d, monomials=frozenset(found))
    *head, last = order
    a_last = weights[last]
    depth = len(head)

    def extend(pos: int, remaining: int) -> None:
        if pos == depth:
            if remaining % a_last == 0:
                vec[last] = remaining // a_last
                found.append(tuple(vec))
            return
        i = head[pos]
        a = weights[i]
        for e in range(remaining // a + 1):
            vec[i] = e
            extend(pos + 1, remaining - e * a)

    extend(0, d)
    return MonomialSupport(degree=d, monomials=frozenset(found))


def anticanonical_cube(weights: WeightSystem, degrees: tuple[int, ...], label: str = "") -> Fraction:
    """(-K)^3 of an anticanonically embedded WCI: prod(degrees) / prod(weights).

    Requires Fano index one, i.e. sum(weights) - sum(degrees) = 1.
    """
    index = weights.total() - sum(degrees)
    if index != 1:
        raise ValueError(
            f"record {label or degrees}: not anticanonically embedded of index 1 "
            f"(sum weights - sum degrees = {index})"
        )
    return Fraction(math.prod(degrees), weights.product())


def max_pair_lcm(w: WeightSystem, keep: tuple[int, ...] | list[int]) -> int:
    """Max of lcm(a_j, a_k) over unordered pairs {j, k} of the kept indices."""
    kept = tuple(keep)
    if len(kept) < 2:
        raise ValueError(f"need at least two indices, got {kept}")
    return max(math.lcm(w[j], w[k]) for j, k in itertools.combinations(kept, 2))
