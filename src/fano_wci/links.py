"""The data of the codimension-2 families' links: the birational hypersurface
counterpart, the midpoint hypersurface, and the per-point involution
inventory of a family's report.  Both records of a family solve to one
standard form, `singularities.equation_shape`, of the catalog's stated
subfamily; a G record's form builds its counterpart.
"""

from __future__ import annotations

from .catalog import CatalogError, FamilyRecord
from .singularities import StandardForm, equation_shape
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


def to_standard_form(record: FamilyRecord, subfamily: str) -> StandardForm:
    """The standard form of a G or Gprime record (see `equation_shape`);
    raises CatalogError unless its subfamily tag is the catalog's stated
    `subfamily`."""
    form = equation_shape(record)
    if form.subfamily != subfamily:
        raise CatalogError(f"No.{record.id}: the {record.kind} record solves to subfamily "
                           f"{form.subfamily}, the catalog states {subfamily}")
    return form


def build_counterpart(form: StandardForm) -> LinkData:
    """The hypersurface counterpart of the codimension-2 member of standard
    form `form`, with the midpoint hypersurface degree."""
    a0, a1, a2, a3, _, a5 = form.role_weights
    d1, d2 = form.degrees
    return LinkData(
        b=form.b,
        xprime_weights=WeightSystem((a0, a1, a2, a3, form.b)),
        xprime_degree=d2,
        z_degree=d1 + d2 - a5,
        equation_shape="I'-shape" if form.double_cover else "I''-shape",
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


def involution_inventory(report) -> list[tuple[str, str, str]]:
    """The link column of a `report.Report`: the (point, tag, condition) of
    every branch that ran at a point center, in the report's order of
    centers and, within a center, of branches.  A branch that dispatch could
    not run, such as a quadratic involution without its x^2 y monomial, is
    missing from it."""
    return [(cr.center.locus, br.tag, br.condition) for cr in report.centers
            if cr.center.kind in ("quotient-point", "cax-point") for br in cr.branches]
