"""The data of the codimension-2 families' links: the birational hypersurface
counterpart, the midpoint hypersurface, and the per-point involution
inventory.  Both records of a family solve to one standard form,
`singularities.equation_shape`; a G record's form builds its counterpart.
"""

from __future__ import annotations

from .catalog import CatalogError, FamilyRecord, Member, is_double_cover_shape
from .exclusion import POINT_RULES, qi_eligible
from .singularities import QuotientSingularity, StandardForm, StandardFormError, equation_shape
from .wps import WeightSystem, record, wps_str


@record
class LinkData:
    b: int
    xprime_weights: WeightSystem  # role order (a0, a1, a2, a3, b)
    xprime_degree: int
    z_degree: int
    equation_shape: str  # "I'-shape" | "I''-shape"

    def display_weights(self) -> WeightSystem:
        """Catalog convention: ascending x-weights with w last."""
        return WeightSystem(tuple(sorted(self.xprime_weights.weights[:4])) + (self.b,))


@record
class InvolutionTag:
    point: str
    tag: str  # "none" | "QI" | "EI" | "II" | "link"
    condition: str


def to_standard_form(record: FamilyRecord) -> StandardForm:
    """The standard form of a G record (see `equation_shape`)."""
    if record.kind != "G":
        raise StandardFormError(f"standard forms are defined for G records, got {record.kind}")
    return equation_shape(record)


def build_counterpart(record: FamilyRecord, form: StandardForm | None = None) -> LinkData:
    """The hypersurface counterpart of a codimension-2 member, with the
    midpoint hypersurface degree.  `form` is the record's `to_standard_form`,
    solved here when not given."""
    if form is None:
        form = to_standard_form(record)
    a0, a1, a2, a3, _, a5 = form.role_weights
    d1, d2 = form.degrees
    double = is_double_cover_shape(record.subfamily)
    return LinkData(
        b=form.b,
        xprime_weights=WeightSystem((a0, a1, a2, a3, form.b)),
        xprime_degree=d2,
        z_degree=d1 + d2 - a5,
        equation_shape="I'-shape" if double else "I''-shape",
    )


def check_counterpart(gprime: FamilyRecord, link_data: LinkData) -> None:
    """Raise CatalogError unless the Gprime record states the counterpart of
    its G record, whose `build_counterpart` is `link_data`: the same weights
    in display order and the same degree."""
    counterpart = link_data.display_weights()
    if counterpart != gprime.weights or link_data.xprime_degree != gprime.degrees[0]:
        raise CatalogError(f"No.{gprime.id}: Gprime record X'_{gprime.degrees[0]} in {wps_str(gprime.weights)} "
                           f"is not the counterpart X'_{link_data.xprime_degree} in {wps_str(counterpart)} "
                           f"of its G record")


def counterpart_inverse(form: StandardForm) -> tuple[WeightSystem, tuple[int, int]]:
    """The codimension-2 model of a standard form: its ascending weights and
    its degrees.  For the form of a Gprime record this inverts
    `build_counterpart`."""
    return WeightSystem(tuple(sorted(form.role_weights))), form.degrees


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
            if tag == "QI" and not qi_eligible(member, q.locus):
                raise ValueError(f"family {record.id} {q.locus}: quadratic involution "
                                 f"claimed but no x^2 y monomial exists")
            out.append(InvolutionTag(point=q.locus, tag=tag, condition=branch.condition))
    out.append(InvolutionTag(point="p4", tag="link", condition=""))
    return out

