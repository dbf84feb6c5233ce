"""The verifier compares every witness entry of the golden tables with a
certificate of its method, and reports an entry that no such certificate
reaches instead of skipping it."""

from fractions import Fraction

import pytest

from fano_wci import exclusion, report
from fano_wci.report import GOLDEN, GoldenNumbers, verify_tables

F = Fraction


def golden_with(table, key, value):
    """GOLDEN with one entry added to (or replaced in) one table."""
    fields = {name: getattr(GOLDEN, name) for name in GoldenNumbers.__record_fields__}
    fields[table] = {**fields[table], key: value}
    return GoldenNumbers(**fields)


# entries whose family runs no certificate of the table's method there:
# family 17 has no nef-divisor and no curve-gamma branch, family 23's p2p4
# point no negdef-matrix branch, family 50's p1p4 point no infinite-curves one
UNREACHED = {
    "nef_witness": (17, F(-1, 4), "nef-divisor"),
    "curve_witness": (17, F(-1, 2), "curve-gamma"),
    "matrices": ((23, "p2p4"), (F(1, 4), F(-2, 5), F(1)), "negdef-matrix"),
    "infinite_curves": ((50, "p1p4"), (F(0), F(2)), "infinite-curves"),
}


@pytest.mark.parametrize("table", UNREACHED)
def test_a_golden_entry_no_certificate_reaches_is_a_mismatch(catalog, monkeypatch, table):
    key, value, method = UNREACHED[table]
    monkeypatch.setattr(report, "GOLDEN", golden_with(table, key, value))
    family = key[0] if isinstance(key, tuple) else key
    assert verify_tables(catalog) == [
        f"family {family}: table {table}[{key!r}] unchecked: no {method} certificate ran"]


def test_a_golden_entry_a_certificate_reaches_is_compared(catalog, monkeypatch):
    # every family runs the isolation certificate at a nonsingular point
    monkeypatch.setattr(report, "GOLDEN", golden_with("isolation", 17, (1, F(1))))
    (line,) = verify_tables(catalog)
    assert line.startswith("family 17: isolation (") and line.endswith(") != table (1, 1)")



# entries keyed by families outside the shipped catalog's 14
OUTSIDE = {"nef_witness": (99, F(-1, 4)), "b_cube_signs": ((98, "p2"), -1),
           "gamma_rows": (97, frozenset({(0, 2, 0)})), "a_cube": (96, F(1)),
           "matrices": ((95, "p2"), (F(1, 4), F(-2, 5), F(1)))}


@pytest.mark.parametrize("table", OUTSIDE)
def test_a_golden_entry_of_a_family_outside_the_catalog_is_a_mismatch(catalog, monkeypatch, table):
    key, value = OUTSIDE[table]
    monkeypatch.setattr(report, "GOLDEN", golden_with(table, key, value))
    family = key[0] if isinstance(key, tuple) else key
    assert verify_tables(catalog) == [
        f"family {family}: table {table}[{key!r}] unchecked: family not in the catalog"]


def test_a_quadratic_involution_without_its_monomial_is_uncovered(catalog, monkeypatch):
    # dispatch's QI check is the only one: the branch does not run, so the
    # center is uncovered and the link column read off the report lacks it
    monkeypatch.setattr(exclusion, "qi_eligible", lambda member, locus: False)
    lines = [line for line in verify_tables(catalog) if line.startswith("family 41: ")]
    assert lines == [
        "family 41: link column computed [('p4', 'link', '')] != catalog "
        "[('p2p3', 'QI', ''), ('p4', 'link', '')]",
        "family 41: uncovered centers: uncovered-cases(family 41 p2p3: no x^2 y tangent monomial, "
        "quadratic involution not available)"]
