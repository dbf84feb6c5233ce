"""Standard forms of the codimension-2 families and the data of their links:
the birational hypersurface counterpart, the midpoint hypersurface, and the
per-point involution inventory.

A standard form reorders the six ambient weights (a0, ..., a5) so that the
defining equations take the shape

    v x0 + u (x0 + f) + g = v u - h = 0        (double-cover shape, I')
    v x0 + u^2 + u f + g = v u - h = 0         (triple-cover shape, I'')

with d1 = a0 + a5 and d2 = a4 + a5; the counterpart hypersurface lives in
P(a0, a1, a2, a3, b) with b = a4 - a0 and eliminates u, v in favour of the
distinguished coordinate w.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .catalog import FamilyRecord, Member, is_double_cover_shape
from .exclusion import POINT_RULES, qi_eligible
from .singularities import QuotientSingularity
from .wps import WeightSystem


class StandardFormError(ValueError):
    """The constraint system of the subfamily has no solution in the record's
    weights: the record is corrupt."""


@dataclass(frozen=True)
class StandardForm:
    role_weights: tuple[int, int, int, int, int, int]  # (a0, a1, a2, a3, a4, a5)
    role_map: tuple[int, int, int, int, int, int]  # input position of each role
    degrees: tuple[int, int]

    @property
    def a0(self) -> int:
        return self.role_weights[0]

    @property
    def a4(self) -> int:
        return self.role_weights[4]

    @property
    def b(self) -> int:
        return self.role_weights[4] - self.role_weights[0]


@dataclass(frozen=True)
class LinkData:
    b: int
    xprime_weights: WeightSystem  # role order (a0, a1, a2, a3, b)
    xprime_degree: int
    z_degree: int
    equation_shape: str  # "I'-shape" | "I''-shape"

    def display_weights(self) -> WeightSystem:
        """Catalog convention: ascending x-weights with w last."""
        return WeightSystem(tuple(sorted(self.xprime_weights.weights[:4])) + (self.b,))


@dataclass(frozen=True)
class InvolutionTag:
    point: str
    tag: str  # "none" | "QI" | "EI" | "II" | "link"
    condition: str


def to_standard_form(record: FamilyRecord) -> StandardForm:
    """Solve the subfamily's constraint system for the role assignment.

    Double-cover shape: a5 = a4 = d2/2, a1 = d1/2, a0 = d1 - a5.
    Triple-cover shape: a5 = max, a0 = d1 - a5, a4 = d1/2, a1 = d2/2.
    In both, the two remaining weights are (a2, a3) with a2 <= a3.
    """
    if record.kind != "G":
        raise StandardFormError(f"standard forms are defined for G records, got {record.kind}")
    d1, d2 = sorted(record.degrees)
    pool = Counter(record.weights.weights)

    def take(value: int, what: str) -> int:
        if value <= 0 or pool[value] == 0:
            raise StandardFormError(
                f"No.{record.id}: standard form unsolvable, needs {what} = {value} "
                f"in weights {record.weights.weights}")
        pool[value] -= 1
        return value

    if is_double_cover_shape(record.subfamily):
        if d2 % 2 or d1 % 2:
            raise StandardFormError(f"No.{record.id}: odd degrees {d1}, {d2}")
        a5 = take(d2 // 2, "a5 = d2/2")
        a4 = take(d2 // 2, "a4 = d2/2")
        a1 = take(d1 // 2, "a1 = d1/2")
        a0 = take(d1 - a5, "a0 = d1 - a5")
    else:
        a5 = max(record.weights)
        if list(record.weights).count(a5) != 1:
            raise StandardFormError(f"No.{record.id}: the top weight must be unique")
        take(a5, "a5 = max weight")
        if d1 % 2 or d2 % 2:
            raise StandardFormError(f"No.{record.id}: odd degrees {d1}, {d2}")
        if d1 != a5 + (d1 - a5):
            raise StandardFormError(f"No.{record.id}: inconsistent degrees")
        a0 = take(d1 - a5, "a0 = d1 - a5")
        a4 = take(d1 // 2, "a4 = d1/2")
        a1 = take(d2 // 2, "a1 = d2/2")
        if a4 + a5 != d2:
            raise StandardFormError(f"No.{record.id}: d2 != a4 + a5")
    rest = sorted(pool.elements())
    if len(rest) != 2:
        raise StandardFormError(f"No.{record.id}: leftover weights {rest}")
    a2, a3 = rest

    role_weights = (a0, a1, a2, a3, a4, a5)
    taken: list[int] = []
    for value in role_weights:
        pos = next(i for i, a in enumerate(record.weights) if a == value and i not in taken)
        taken.append(pos)
    form = StandardForm(role_weights=role_weights, role_map=tuple(taken), degrees=(d1, d2))
    if form.b <= 0:
        raise StandardFormError(f"No.{record.id}: b = a4 - a0 = {form.b} is not positive")
    return form


def build_counterpart(record: FamilyRecord, form: StandardForm | None = None) -> LinkData:
    """The hypersurface counterpart of a codimension-2 member, with the
    midpoint hypersurface degree.  `form` is the record's `to_standard_form`,
    solved here when not given."""
    if form is None:
        form = to_standard_form(record)
    a0, a1, a2, a3, a4, a5 = form.role_weights
    d1, d2 = form.degrees
    b = form.b
    double = is_double_cover_shape(record.subfamily)
    xprime_degree = 2 * b + 2 * a0 if double else 3 * b + 2 * a0
    return LinkData(
        b=b,
        xprime_weights=WeightSystem((a0, a1, a2, a3, b)),
        xprime_degree=xprime_degree,
        z_degree=d1 + d2 - a5,
        equation_shape="I'-shape" if double else "I''-shape",
    )


def counterpart_inverse(gprime: FamilyRecord) -> tuple[WeightSystem, tuple[int, int]]:
    """Reconstruct the codimension-2 record from its hypersurface counterpart:
    a4 = a0 + b and a5 = d - a4.  Returns ascending weights and degrees."""
    if gprime.kind != "Gprime":
        raise ValueError(f"expected a Gprime record, got {gprime.kind}")
    d = gprime.degrees[0]
    b = gprime.weights[4]
    double = is_double_cover_shape(gprime.subfamily)
    a0 = (d - 2 * b) // 2 if double else (d - 3 * b) // 2
    a4 = a0 + b
    a5 = d - a4
    d1, d2 = sorted((a0 + a5, a4 + a5))
    weights = tuple(sorted(gprime.weights.weights[:4] + (a4, a5)))
    return WeightSystem(weights), (d1, d2)


def involution_inventory(member: Member,
                         basket: list[QuotientSingularity]) -> list[InvolutionTag]:
    """One tag per basket point plus the link entry at the distinguished point,
    with both branches of every conditional center.

    Quadratic-involution entries are re-checked structurally: the defining
    polynomial must contain x_v^2 x_j at the point's vertex.
    """
    record = member.gprime
    rules = POINT_RULES[record.id]
    declared = set(rules) - {"p4"}
    found = {q.locus for q in basket}
    if declared != found:
        raise ValueError(
            f"family {record.id}: basket loci {sorted(found)} do not match "
            f"catalog centers {sorted(declared)}")
    out: list[InvolutionTag] = []
    for q in basket:
        for branch in rules[q.locus]:
            tag = branch.tag if branch.method == "untwist" else "none"
            if tag == "QI" and not _qi_check(member, q):
                raise ValueError(f"family {record.id} {q.locus}: quadratic involution "
                                 f"claimed but no x^2 y monomial exists")
            out.append(InvolutionTag(point=q.locus, tag=tag, condition=branch.condition))
    out.append(InvolutionTag(point="p4", tag="link", condition=""))
    return out


def _qi_check(member: Member, q: QuotientSingularity) -> bool:
    locus = q.locus
    if locus.count("p") == 1:
        vertex = int(locus[1:])
    else:
        i, j = int(locus[1]), int(locus[3])
        vertex = i if member.gprime.weights[i] == q.r else j
    return qi_eligible(member, vertex)
