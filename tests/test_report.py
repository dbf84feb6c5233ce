"""The verifier compares every witness entry of the golden tables with a
certificate of its method, reports an entry that no such certificate
reaches instead of skipping it, and reports a check that finds no entry."""

import copy
import json
import os
import tempfile
from fractions import Fraction

import pytest

from fano_wci import exclusion, links, report
from fano_wci.blowup import BlowupRing, triple
from fano_wci.catalog import (LINK_TAGS, Catalog, CatalogError, FamilyRecord, Member, default_catalog_path,
                              load_catalog)
from fano_wci.report import GOLDEN, build_report, render_markdown, verify_tables
from fano_wci.singularities import QuotientSingularity
from test_strata import stratum, with_rows

F = Fraction


def golden_with(table, key, value):
    """GOLDEN with one entry added to (or replaced in) one table."""
    return {**GOLDEN, table: {**GOLDEN[table], key: value}}


def golden_without(table, key):
    """GOLDEN with one entry deleted from one table."""
    return {**GOLDEN, table: {k: v for k, v in GOLDEN[table].items() if k != key}}


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
    ("isolation", 17, (1, F(1)), "family 17: isolation (2, 4) != table (1, 1)"),
    ("nef_witness", 17, F(-1, 4), "family 17: table nef_witness[17] unchecked: no nef-divisor certificate ran"),
    ("infinite_curves", (50, "p1p4"), (F(0), F(2)),
     "family 50: table infinite_curves[(50, 'p1p4')] unchecked: no infinite-curves certificate ran"),
    ("curve_witness", 17, F(-1, 2), "family 17: table curve_witness[17] unchecked: no curve-gamma certificate ran"),
    ("matrices", (23, "p2p4"), (F(1, 4), F(-2, 5), F(1)),
     "family 23: table matrices[(23, 'p2p4')] unchecked: no negdef-matrix certificate ran"),
    ("b_cube_signs", (23, "p3p4"), -1, "family 23: table b_cube_signs[(23, 'p3p4')] unchecked: no computed point"),
    ("nef_witness", 99, F(-1, 4), "family 99: table nef_witness[99] unchecked: family not in the catalog"),
    ("matrices", (95, "p2"), (F(1, 4), F(-2, 5), F(1)),
     "family 95: table matrices[(95, 'p2')] unchecked: family not in the catalog"),
    ("b_cube_signs", (98, "p2"), -1, "family 98: table b_cube_signs[(98, 'p2')] unchecked: family not in the catalog"),
    ("gamma_rows", 97, frozenset({(0, 2, 0)}), "family 97: table gamma_rows[97] unchecked: family not in the catalog"),
    ("tower_cube", 19, F(-1, 13), "family 19: tower (-K)^3 = -1/12 != -1/13"),
    ("tower_cube", 94, F(-1, 12), "family 94: table tower_cube[94] unchecked: family not in the catalog"),
    ("tower_cube", 17, F(-1, 12), "family 17: table tower_cube[17] unchecked: no cited G points"),
    ("gamma_rows", 17, frozenset({(0, 2, 0)}),
     "family 17: table gamma_rows[17] unchecked: no surface-pair certificate ran"),
]


def test_family_19_tower_class_is_minus_k_over_its_cited_points(catalog):
    # -K on the tower over the G model's cited 1/2 and 1/4 points is
    # (1, -1/2, -1/4): the tower cube is that class cubed
    g_a_cube = catalog.pair(19).g.a_cube()
    tower = BlowupRing.kawamata_tower(g_a_cube, [QuotientSingularity(2, 1), QuotientSingularity(4, 1)])
    k = (1, F(-1, 2), F(-1, 4))
    assert report._tower_cube(19, g_a_cube) == triple(tower, k, k, k) == F(-1, 12)


def test_every_golden_table_has_a_consumer():
    # a table is checked by verify_family directly or through a certificate
    # method's WITNESSES row, so a table added without a check fails here
    assert set(GOLDEN) == {"b_cube_signs", "tower_cube"} | {row[0] for row in report.WITNESSES.values()}


@pytest.mark.parametrize("table, key, value, line", FAULTS, ids=[f"{t}[{k!r}]" for t, k, _, _ in FAULTS])
def test_each_golden_fault_prints_its_exact_mismatch_line(catalog, monkeypatch, table, key, value, line):
    monkeypatch.setattr(report, "GOLDEN", golden_with(table, key, value))
    assert verify_tables(catalog) == [line]


# one golden entry deleted per case and the exact verify-tables output: the
# check that finds no entry names the value it computed.  Family 77's two
# surface-pair points share one gamma_rows entry, so its deletion is one line
DELETIONS = [
    ("b_cube_signs", (23, "p2p4"), "family 23: B^3 at p2p4 computed -1/12, table b_cube_signs has no entry"),
    ("nef_witness", 50, "family 50: nef witness computed -3/20, table nef_witness has no entry"),
    ("matrices", (50, "p2"), "family 50: matrix data at p2 computed (-1/10, 1/60, 1/2), table matrices has no entry"),
    ("infinite_curves", (55, "p2"),
     "family 55: infinite-curves data at p2 computed (0, 2), table infinite_curves has no entry"),
    ("curve_witness", 23, "family 23: curve witness computed -1/4, table curve_witness has no entry"),
    ("gamma_rows", 77, "family 77: restriction curve support computed [(0, 2, 0), (2, 0, 3), (3, 0, 0)], "
     "table gamma_rows has no entry"),
]


@pytest.mark.parametrize("table, key, line", DELETIONS, ids=[f"{t}[{k!r}]" for t, k, _ in DELETIONS])
def test_each_golden_deletion_prints_its_exact_mismatch_line(catalog, monkeypatch, table, key, line):
    monkeypatch.setattr(report, "GOLDEN", golden_without(table, key))
    assert verify_tables(catalog) == [line]


def test_several_golden_faults_print_their_lines_in_family_order(catalog, monkeypatch):
    # two unreached entries of one catalog family come in WITNESSES order;
    # the entries of families outside the catalog follow, in table order
    tables = GOLDEN
    for table, key, value in (("nef_witness", 17, F(-1, 4)), ("curve_witness", 17, F(-1, 2)),
                              ("nef_witness", 99, F(-1, 4)), ("matrices", (95, "p2"), (F(1, 4), F(-2, 5), F(1))),
                              ("isolation", 99, (10, F(40, 3)))):
        tables = {**tables, table: {**tables[table], key: value}}
    monkeypatch.setattr(report, "GOLDEN", tables)
    assert verify_tables(catalog) == [
        "family 17: table nef_witness[17] unchecked: no nef-divisor certificate ran",
        "family 17: table curve_witness[17] unchecked: no curve-gamma certificate ran",
        "family 99: table nef_witness[99] unchecked: family not in the catalog",
        "family 95: table matrices[(95, 'p2')] unchecked: family not in the catalog",
        "family 99: table isolation[99] unchecked: family not in the catalog",
    ]


def test_a_family_without_a_tower_cube_entry_is_still_checked(catalog, monkeypatch):
    # family 19's tower is computed all the same, and the missing entry is
    # its own line
    monkeypatch.setattr(report, "GOLDEN", {**GOLDEN, "tower_cube": {}})
    assert verify_tables(catalog) == ["family 19: tower (-K)^3 computed -1/12, table tower_cube has no entry"]


def test_verification_leaves_the_golden_tables_untouched(catalog, monkeypatch):
    # each call checks entries out of its own grouping of the tables, never
    # out of GOLDEN, so a second call sees every entry again
    tables = golden_with("nef_witness", 17, F(-1, 4))
    snapshot = copy.deepcopy(tables)
    monkeypatch.setattr(report, "GOLDEN", tables)
    line = "family 17: table nef_witness[17] unchecked: no nef-divisor certificate ran"
    assert verify_tables(catalog) == [line]
    assert verify_tables(catalog) == [line]
    assert tables == snapshot


def under_id(member: Member, family_id: int) -> Member:
    """`member` with both records under `family_id`."""
    g, gprime = member.g, member.gprime
    return Member(g=FamilyRecord(family_id, "G", g.weights, g.degrees),
                  gprime=FamilyRecord(family_id, "Gprime", gprime.weights, gprime.degrees), golden=member.golden,
                  a_cube=member.a_cube, shape=member.shape, support=member.support, quotients=member.quotients,
                  cax=member.cax)


def test_a_member_of_a_family_without_rules_is_reported_uncovered(catalog):
    # family 50's member under id 7, which no per-id table knows: its link
    # rows travel with it and run, and each builder that reads a table keyed
    # by family id is uncovered rather than a KeyError; without its rows,
    # each point is a center the family lacks.  Its isolating vertex is
    # derived from the support, not read by id
    member = under_id(catalog.member(50), 7)
    assert build_report(member).uncovered == (
        "no curve-pair matrix data for family 7 at p1p4", "no curve-pair matrix data for family 7 at p2")
    assert build_report(with_rows(member, ())).uncovered == (
        "family 7 has no center at p1p4", "family 7 has no center at p2", "family 7 has no center at p3",
        "family 7 has no center at p4")


def test_a_special_curve_without_cited_data_is_an_uncovered_center(catalog):
    # family 17's member under id 7 has its special curve of degree 1/2 below
    # (-K)^3 = 1 but no cited curve data: the curve is uncovered by name,
    # not a KeyError, and the report's other centers still run
    report = build_report(under_id(catalog.member(17), 7))
    assert report.uncovered == ("family 7: curve of degree 1/2 is below (-K)^3 and matches no special certificate",)
    assert [cr.center.describe() for cr in report.centers if cr.uncovered] == ["curve of degree 1/2"]


def test_an_uncertified_nef_divisor_is_a_mismatch(empty_load_cache, monkeypatch):
    # an uncertified nef divisor excludes nothing (`NefDivisor.verdict`), so
    # its center is uncovered; no line of its own is needed, and none fires
    # on the catalog, where every order is >= 0 and `certified` holds.  The
    # catalog is loaded afresh, so its Members derive their nef numbers with
    # the patched check
    bound_check = exclusion.nef_bound_check
    monkeypatch.setattr(exclusion, "nef_bound_check", lambda lifts, q: (bound_check(lifts, q)[0], False))
    lines = [f"family {family}: uncovered centers: uncovered-cases(p1p4 = 1/2(1,1,1) [{condition}])"
             for family, condition in ((50, "not-exists-wci(1,3,4)"), (74, "unconditional"), (82, "unconditional"))]
    assert verify_tables(load_catalog()) == lines


def test_a_quadratic_involution_without_its_monomial_is_uncovered(catalog):
    # family 41 without x2^2 x3: its p2p3 point, moved to the x2 vertex,
    # keeps its type and loses its x^2 y monomial.  dispatch's QI check is
    # the only one: the branch does not run, so the center is uncovered and
    # the link column read off the report lacks it
    member = stratum(catalog.member(41), (0, 0, 2, 1, 0))
    assert member.basket == catalog.member(41).basket
    report = build_report(member)
    assert report.uncovered == ("family 41 p2p3: no x^2 y tangent monomial, quadratic involution not available",)
    assert [row[:3] for row in member.golden.link_column] == [("p2p3", "QI", ""), ("p4", "link", "")]
    assert links.involution_inventory(report) == [("p4", "link", "")]
    rows = [line for line in render_markdown(report).splitlines() if line.startswith("| p2p3 = ")]
    assert rows == ["| p2p3 = 1/3(1,1,2) | uncovered: family 41 p2p3: no x^2 y tangent monomial, "
                    "quadratic involution not available | uncovered |"]


with open(default_catalog_path(), encoding="utf-8") as fh:
    SHIPPED = json.load(fh)  # the shipped catalog's entries


def link_rows(entries: list[dict], family: int) -> list[dict]:
    """The links array of the family's Gprime entry in the catalog `entries`."""
    return next(e for e in entries if e["id"] == family and e["kind"] == "Gprime")["links"]


def load_entries(path: str, entries: list[dict]):
    """The catalog `entries` written to `path` and loaded as verify-tables loads them."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh)
    return load_catalog(path, strict=False)


# every surface-pair row of the catalog, as (family, locus, condition)
SURFACE_PAIRS = [(e["id"], row["point"], row["condition"]) for e in SHIPPED
                 for row in e["links"] if row["method"] == "surface-pair"]


@pytest.mark.parametrize("family, locus, condition", SURFACE_PAIRS,
                         ids=[f"{fid}-{locus}" for fid, locus, _ in SURFACE_PAIRS])
def test_an_exclusion_turned_into_an_untagged_untwist_is_a_load_error(tmp_path, family, locus, condition):
    # an untwist resolves its center, so a row whose method is edited to
    # untwist while its tag stays "none" must not pass as resolved: the
    # load rejects it, and verify-tables exits 2
    entries = copy.deepcopy(SHIPPED)
    (row,) = [r for r in link_rows(entries, family) if (r["point"], r["condition"]) == (locus, condition)]
    row["method"] = "untwist"
    with pytest.raises(CatalogError, match=f"for family {family}$") as exc:
        load_entries(str(tmp_path / "edited.json"), entries)
    if family == 29:
        assert str(exc.value) == ("catalog entry #7: a row untwists exactly when its tag is not 'none', "
                                  "got method 'untwist' with tag 'none' at p2p4 for family 29")


# ---------------------------------------------------------------------------
# Dispatch-edit census: a single edit of the dispatch data (the cited
# tables of `exclusion` and the catalog's link rows) must print a mismatch
# line or fail to load, unless it is pinned below with the reason it cannot
# ---------------------------------------------------------------------------

CENSUS_METHODS = ("surface-pair", "infinite-curves", "nef-divisor", "untwist")
# every condition of a catalog row, "" among them
CONDITIONS = sorted({row["condition"] for e in SHIPPED for row in e["links"]})


def row_edits(field: str, values) -> list[tuple[str, int, int, str, object]]:
    """Every edit of `field` of one catalog link row to each other one of
    `values`, as (name, family, row index, field, value)."""
    return [(f"{e['id']} {row['point']} [{row['condition']}] {row[field]}->{value}", e["id"], i, field, value)
            for e in SHIPPED for i, row in enumerate(e["links"]) for value in values if value != row[field]]


def dispatch_edits() -> list[tuple[str, int, int | None, str, object]]:
    """Each cited isolation vertex (`ISOLATION_DROP`) set to each other
    vertex, and each link row's method set to each other one of
    `CENSUS_METHODS`."""
    drops = [(f"{fid} isolation drop {drop}->{v}", fid, None, "ISOLATION_DROP", {**exclusion.ISOLATION_DROP, fid: v})
             for fid, drop in exclusion.ISOLATION_DROP.items() for v in range(5) if v != drop]
    return drops + row_edits("method", CENSUS_METHODS)


def table_edits() -> list[tuple[str, int, None, str, object]]:
    """One edit per entry of each other cited table of `exclusion`: a
    `CURVE_GAMMA_SQ` value or a `CURVE_CYCLE_DATA[17]` number doubled,
    family 23 dropped from `GAMMA_NORMALIZED`."""
    gamma, cycle = exclusion.CURVE_GAMMA_SQ, exclusion.CURVE_CYCLE_DATA[17]
    return [*[(f"CURVE_GAMMA_SQ[{fid}] doubled", fid, None, "CURVE_GAMMA_SQ", {**gamma, fid: 2 * value})
              for fid, value in gamma.items()],
            *[(f"CURVE_CYCLE_DATA[17][{i}] doubled", 17, None, "CURVE_CYCLE_DATA",
               {17: tuple(2 * x if j == i else x for j, x in enumerate(cycle))}) for i in range(2)],
            ("GAMMA_NORMALIZED without 23", 23, None, "GAMMA_NORMALIZED", exclusion.GAMMA_NORMALIZED - {23})]


def tag_edits() -> list[tuple[str, int, int, str, object]]:
    """Each link row's tag set to each other one of `LINK_TAGS`."""
    return row_edits("tag", LINK_TAGS)


def condition_edits() -> list[tuple[str, int, int, str, object]]:
    """Each link row's condition set to each other one of `CONDITIONS`."""
    return row_edits("condition", CONDITIONS)


def outcomes(edits) -> dict[str, str]:
    """What verify-tables does after each edit, applied alone, by the edit's
    name: "load error" (it exits 2), "mismatch" (it prints a line) or
    "silent" (it passes).  A row edit edits the catalog file; an edit
    without a row index sets the cited table of `exclusion` that its field
    names, and runs on a new `Catalog` of the loaded pairs, whose members
    derive their plans anew."""
    got = {}
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "edited.json")
        for name, family, index, field, value in edits:
            entries = copy.deepcopy(SHIPPED)
            with pytest.MonkeyPatch.context() as mp:
                if index is None:
                    mp.setattr(exclusion, field, value)
                else:
                    link_rows(entries, family)[index][field] = value
                try:
                    catalog = load_entries(path, entries)
                except CatalogError:
                    got[name] = "load error"
                    continue
                if index is None:
                    catalog = Catalog(catalog.pairs)
                got[name] = "mismatch" if verify_tables(catalog) else "silent"
    return got


def census(edits) -> list[str]:
    """The names of the edits, each applied alone, after which verify-tables
    passes: the edited catalog loads and `verify_tables` prints no line."""
    return [name for name, outcome in outcomes(edits).items() if outcome == "silent"]


# the edits that print no line, by group; each group's comment is the reason
SILENT_EDITS = {
    # no golden isolation entry: the bound changes but stays within the limit
    "no isolation entry": {"30 isolation drop 3->2"},
}

# no number tells EI from II; ROADMAP items 13 and 18
SILENT_TAG_EDITS = {"19 p2p4 [not-exists-wci(1,1,2)] EI->II", "19 p2p4 [exists-wci(1,1,2)] II->EI"}


def test_every_dispatch_edit_but_the_pinned_ones_prints_a_mismatch():
    # each edit runs verify_tables without raising; an edit that stays
    # silent and is not pinned, or a pinned one that turns loud, fails here
    edits = dispatch_edits()
    assert len(edits) == 136 and len({name for name, *_ in edits}) == 136
    silent = census(edits)
    assert set(silent) == set().union(*SILENT_EDITS.values())
    assert len(silent) == 1


def test_every_tag_edit_but_the_pinned_ones_prints_a_mismatch():
    edits = tag_edits()
    assert len(edits) == 168 and len({name for name, *_ in edits}) == 168
    assert set(census(edits)) == SILENT_TAG_EDITS


def test_every_condition_edit_is_a_load_error_or_a_mismatch():
    edits = condition_edits()
    assert len(edits) == 420 and len({name for name, *_ in edits}) == 420
    assert census(edits) == []


# no golden table holds a curve-cycle witness; family 17's certificate still excludes
SILENT_TABLE_EDITS = {"CURVE_CYCLE_DATA[17][0] doubled", "CURVE_CYCLE_DATA[17][1] doubled"}


def test_every_cited_table_edit_but_the_pinned_ones_prints_a_mismatch():
    edits = table_edits()
    assert len(edits) == 5 and len({name for name, *_ in edits}) == 5
    assert set(census(edits)) == SILENT_TABLE_EDITS


# ---------------------------------------------------------------------------
# Golden-deletion census: deleting a single golden entry must print a
# mismatch line, unless it is pinned below with the reason it cannot
# ---------------------------------------------------------------------------

def golden_deletions() -> list[tuple[str, str, object]]:
    """Every single deletion from `GOLDEN` as (name, table, key)."""
    return [(f"{table}[{key!r}]", table, key) for table, entries in GOLDEN.items() for key in entries]


def deletion_census(catalog) -> list[str]:
    """The names of the golden deletions, each applied alone, after which
    `verify_tables(catalog)` prints no line."""
    silent = []
    for name, table, key in golden_deletions():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report, "GOLDEN", golden_without(table, key))
            if not verify_tables(catalog):
                silent.append(name)
    return silent


# the isolation certificate runs in all 14 families and the paper bounds it
# in four, so a family without an isolation entry is no mismatch
SILENT_DELETIONS = {"isolation[42]", "isolation[19]", "isolation[50]", "isolation[23]"}


def test_every_golden_deletion_but_the_pinned_ones_prints_a_mismatch():
    deletions = golden_deletions()
    assert len(deletions) == 41 and len({name for name, *_ in deletions}) == 41
    silent = deletion_census(load_catalog(strict=False))
    assert set(silent) == SILENT_DELETIONS
    assert len(silent) == 4
