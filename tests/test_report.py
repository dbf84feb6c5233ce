"""The verifier compares every witness entry of the golden tables with a
certificate of its method, and reports an entry that no such certificate
reaches instead of skipping it."""

from fractions import Fraction

import pytest

from fano_wci import report
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

