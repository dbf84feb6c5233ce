"""The links of the codimension-2 families: each record's standard form
(`singularities.equation_shape`, of the catalog's stated subfamily), the
hypersurface counterpart that a G record's form builds and its Gprime record
must state, its inverse, and the per-point involution inventory of a
family's report.  The form itself carries b, the midpoint degree and shape.
"""

from __future__ import annotations

from .catalog import CatalogError, FamilyRecord
from .singularities import StandardForm, equation_shape
from .wps import wps_str


def to_standard_form(record: FamilyRecord, subfamily: str) -> StandardForm:
    """The standard form of a G or Gprime record (see `equation_shape`);
    raises CatalogError unless its subfamily tag is the catalog's stated
    `subfamily`."""
    form = equation_shape(record)
    if form.subfamily != subfamily:
        raise CatalogError(f"No.{record.id}: the {record.kind} record solves to subfamily "
                           f"{form.subfamily}, the catalog states {subfamily}")
    return form


def build_counterpart(form: StandardForm) -> tuple[tuple[int, ...], int]:
    """The hypersurface counterpart of the codimension-2 member of standard
    form `form`: X'_{d2} in P(a0, a1, a2, a3, b), as its weights in catalog
    order (ascending x-weights, b last) and its degree."""
    return (*sorted(form.role_weights[:4]), form.b), form.degrees[1]


def check_counterpart(gprime: FamilyRecord, g_form: StandardForm) -> None:
    """Raise CatalogError unless the Gprime record states the counterpart of
    its G record, whose standard form is `g_form`: the same weights in
    catalog order and the same degree."""
    weights, degree = build_counterpart(g_form)
    if weights != gprime.weights or degree != gprime.degrees[0]:
        raise CatalogError(f"No.{gprime.id}: Gprime record X'_{gprime.degrees[0]} in {wps_str(gprime.weights)} "
                           f"is not the counterpart X'_{degree} in {wps_str(weights)} of its G record")


def counterpart_inverse(form: StandardForm) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The codimension-2 model of a standard form: its ascending weights and
    its degrees.  For the form of a Gprime record this inverts
    `build_counterpart`."""
    return tuple(sorted(form.role_weights)), form.degrees


def involution_inventory(report) -> list[tuple[str, str, str]]:
    """The link column of a `report.Report`: the (point, tag, condition) of
    every branch that ran at a point center, in the report's order of
    centers and, within a center, of branches.  A branch that dispatch could
    not run, such as a quadratic involution without its x^2 y monomial, is
    missing from it."""
    return [(cr.center.locus, br.tag, br.condition) for cr in report.centers
            if cr.center.kind in ("quotient-point", "cax-point") for br in cr.branches]
