"""The verifier compares every witness entry of the golden tables with a
certificate of its method, and reports an entry that no such certificate
reaches instead of skipping it."""

from fractions import Fraction

import pytest

from fano_wci import exclusion, report
from fano_wci.report import GOLDEN, build_report, render_markdown, verify_tables

F = Fraction


def golden_with(table, key, value):
    """GOLDEN with one entry added to (or replaced in) one table."""
    return {**GOLDEN, table: {**GOLDEN[table], key: value}}


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


# one golden fault per case and the exact verify-tables output: a wrong
# value, an added entry a certificate reaches, an entry none reaches, and an
# entry of a family outside the catalog
FAULTS = [
    ("nef_witness", 50, F(-1, 4), "family 50: nef witness -3/20 != table -1/4"),
    ("matrices", (50, "p1p4"), (F(1, 3), F(-2, 5), F(1)),
     "family 50: matrix data (1/4, -2/5, 1) != table (1/3, -2/5, 1)"),
    ("matrices", (50, "p2"), (F(-1, 10), F(1, 60), F(1)),
     "family 50: matrix data (-1/10, 1/60, 1/2) != table (-1/10, 1/60, 1)"),
    ("infinite_curves", (23, "p2p4"), (F(1), F(3)), "family 23: infinite-curves data (0, 3) != table (1, 3)"),
    ("isolation", 42, (11, F(40, 3)), "family 42: isolation (10, 40/3) != table (11, 40/3)"),
    ("curve_witness", 19, F(-1, 3), "family 19: curve witness -1/2 != table -1/3"),
    ("gamma_rows", 29, frozenset({(2, 0, 3), (0, 2, 0)}),
     "family 29: restriction curve support [(0, 2, 0), (2, 0, 3), (3, 0, 2), (4, 0, 1), (5, 0, 0)] "
     "!= table [(0, 2, 0), (2, 0, 3)]"),
    ("b_cube_signs", (23, "p2p4"), 1, "family 23: B^3 at p2p4 computed -1/12, table sign says 1"),
    ("a_cube", 17, F(2), "family 17: A^3 computed 1 != table 2"),
    ("isolation", 17, (1, F(1)), "family 17: isolation (2, 4) != table (1, 1)"),
    ("nef_witness", 17, F(-1, 4), "family 17: table nef_witness[17] unchecked: no nef-divisor certificate ran"),
    ("infinite_curves", (50, "p1p4"), (F(0), F(2)),
     "family 50: table infinite_curves[(50, 'p1p4')] unchecked: no infinite-curves certificate ran"),
    ("curve_witness", 17, F(-1, 2), "family 17: table curve_witness[17] unchecked: no curve-gamma certificate ran"),
    ("b_cube_signs", (23, "p3p4"), -1, "family 23: no computed point at p3p4 for B^3 sign check"),
    ("nef_witness", 99, F(-1, 4), "family 99: table nef_witness[99] unchecked: family not in the catalog"),
    ("matrices", (95, "p2"), (F(1, 4), F(-2, 5), F(1)),
     "family 95: table matrices[(95, 'p2')] unchecked: family not in the catalog"),
]


@pytest.mark.parametrize("table, key, value, line", FAULTS, ids=[f"{t}[{k!r}]" for t, k, _, _ in FAULTS])
def test_each_golden_fault_prints_its_exact_mismatch_line(catalog, monkeypatch, table, key, value, line):
    monkeypatch.setattr(report, "GOLDEN", golden_with(table, key, value))
    assert verify_tables(catalog) == [line]


def test_an_uncertified_nef_divisor_is_a_mismatch(catalog, monkeypatch):
    # the one method-specific line: each nef_witness entry's certificate must
    # be certified as well as match
    bound_check = exclusion.nef_bound_check
    monkeypatch.setattr(exclusion, "nef_bound_check", lambda lifts, q: (bound_check(lifts, q)[0], False))
    lines = []
    for family, condition in ((50, "not-exists-wci(1,3,4)"), (74, "unconditional"), (82, "unconditional")):
        lines += [f"family {family}: uncovered centers: uncovered-cases(p1p4 = 1/2(1,1,1) [{condition}])",
                  f"family {family}: nef divisor not certified"]
    assert verify_tables(catalog) == lines


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
    rows = [line for line in render_markdown(build_report(catalog, 41)).splitlines()
            if line.startswith("| p2p3 = ")]
    assert rows == ["| p2p3 = 1/3(1,1,2) | uncovered: family 41 p2p3: no x^2 y tangent monomial, "
                    "quadratic involution not available | uncovered |"]
