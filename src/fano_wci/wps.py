"""Graded monomial combinatorics on weighted projective space.

All arithmetic is exact: rational quantities are `fractions.Fraction`
(arbitrary precision, always in lowest terms, positive denominator).  No
floating point enters any computation in this package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

def rat(text: str) -> Fraction:
    """Parse an exact rational from a "p/q" or "p" string of ASCII digits;
    any other string raises ValueError, and q = 0 ZeroDivisionError.
    (Fraction would also read signs, decimals and exponents, and expand an
    exponent such as 1e-3000000 digit by digit.)"""
    num, slash, den = text.partition("/")
    if num.isdigit() and (den.isdigit() or not slash) and text.isascii():
        return Fraction(int(num), int(den) if slash else 1)
    raise ValueError('expected "p/q" or "p" in ASCII digits')


def rat_str(q: Fraction) -> str:
    """Render a rational as "p/q", or "p" when it is an integer."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def wps_str(weights) -> str:
    """Render an ambient space as "P(a0,...,an)"."""
    return "P(" + ",".join(map(str, weights)) + ")"


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__record_fields__])


def _record_eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(_values(self))


def _record_repr(self) -> str:
    body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({body})"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_RECORD_METHODS = {"__repr__": _record_repr, "__eq__": _record_eq, "__hash__": _record_hash,
                   "__setattr__": _record_setattr, "__delattr__": _record_delattr}
_NO_DEFAULT = object()


def record(cls: type) -> type:
    """Make `cls` an immutable record, as `dataclasses.dataclass(frozen=True)`
    would, without importing `dataclasses` (and with it `inspect`).

    The fields are the fields of a record base class, then the class's own
    annotated names; a class attribute of a field's name is its default.
    The generated `__init__` takes the fields by position or keyword, writes
    each into the instance `__dict__` in field order (`d = self.__dict__;
    d['x'] = x`: no call per field, and the blocked `__setattr__` is never
    reached) and then calls `__post_init__` when the class has one.
    Equality holds between instances of the same class with equal field
    values; the hash is that of the tuple of field values; the repr is
    `Name(a=1, b='x')`; setting or deleting an attribute raises
    AttributeError.  Only `__init__` is compiled, once per class; the other
    methods are the shared functions above, which read `__record_fields__`.
    """
    clash = [name for name in ("__init__", *_RECORD_METHODS) if name in vars(cls)]
    if clash:
        raise TypeError(f"record {cls.__qualname__} must not define {', '.join(clash)}")
    inherited = getattr(cls, "__record_fields__", ())
    own = cls.__annotations__
    annotations = {**(cls.__init__.__annotations__ if inherited else {}), **own, "return": None}
    fields = (*inherited, *(name for name in own if name not in inherited))
    namespace = {}
    params = []
    for name in fields:
        default = getattr(cls, name, _NO_DEFAULT)
        if default is not _NO_DEFAULT:
            namespace[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        elif params and "=" in params[-1]:
            raise TypeError(f"record {cls.__qualname__}: field {name!r} without a default "
                            f"follows a field with one")
        else:
            params.append(name)
    d = "d"  # the local that holds self.__dict__, named apart from every field
    while d in fields:
        d += "_"
    body = [f"    {d} = self.__dict__", *(f"    {d}[{name!r}] = {name}" for name in fields)] if fields else []
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(params)}):\n" + ("\n".join(body) or "    pass")
    # a file name per class, so profiles tell the records' __init__s apart
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), namespace)
    init = namespace["__init__"]
    init.__annotations__ = annotations
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__record_fields__ = fields
    for name, method in _RECORD_METHODS.items():
        setattr(cls, name, method)
    return cls


Monomial = tuple[int, ...]  # exponent vector, one entry per coordinate


@record
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


def monomials_of_degree(d: int, w: tuple[int, ...], variables: tuple[int, ...] | None = None,
                        offset: Monomial | None = None) -> MonomialSupport:
    """All exponent vectors of weighted degree d, each plus `offset`.

    `variables` optionally restricts which coordinates may occur (all others
    get exponent zero); this is how supports of forms in a subset of the
    coordinates are enumerated.  `offset`, an exponent vector of w, is added
    to every vector: the support of `m * f` for a monomial m and a form f of
    degree d.  The result's degree is d plus the weighted degree of `offset`.

    Depth first from the offset, over the coordinates largest weight first
    (a stable sort): each coordinate but the last takes every exponent that
    fits the degree r left, and the last one, of weight a, gets r // a when
    a divides r.
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    vec = [0] * len(w) if offset is None else list(offset)
    if len(vec) != len(w):
        raise ValueError(f"offset {offset} does not match weights {w}")
    start = tuple(vec)
    order = sorted(range(len(w)) if variables is None else variables, key=w.__getitem__, reverse=True)
    found: list[Monomial] = []

    def extend(k: int, left: int) -> None:
        i, a = order[k], w[order[k]]
        if k == len(order) - 1:
            if left % a == 0:
                vec[i] = start[i] + left // a
                found.append(tuple(vec))
            return
        for e in range(left // a + 1):
            vec[i] = start[i] + e
            extend(k + 1, left - e * a)

    if order:
        extend(0, d)
    elif d == 0:
        found.append(start)
    return MonomialSupport(degree=d + sum([e * a for e, a in zip(start, w)]), monomials=frozenset(found))


def anticanonical_cube(weights: tuple[int, ...], degrees: tuple[int, ...], label: str = "") -> Fraction:
    """(-K)^3 of an anticanonically embedded WCI: prod(degrees) / prod(weights).

    Requires Fano index one, i.e. sum(weights) - sum(degrees) = 1.
    """
    index = sum(weights) - sum(degrees)
    if index != 1:
        raise ValueError(f"record {label or degrees}: not anticanonically embedded of index 1 "
                         f"(sum weights - sum degrees = {index})")
    return Fraction(math.prod(degrees), math.prod(weights))


def max_pair_lcm(w: tuple[int, ...], keep: tuple[int, ...] | list[int]) -> int:
    """Max of lcm(a_j, a_k) over unordered pairs {j, k} of the kept indices."""
    kept = tuple(keep)
    if len(kept) < 2:
        raise ValueError(f"need at least two indices, got {kept}")
    return max(math.lcm(w[j], w[k]) for j, k in itertools.combinations(kept, 2))
