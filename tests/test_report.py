"""The verifier compares every witness entry of the golden tables with a
certificate of its method, reports an entry that no such certificate
reaches instead of skipping it, and reports a check that finds no entry.
A report's certificates and its JSON text render as `analyze` prints them."""

import copy
import itertools
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fano_wci import exclusion, links, report
from fano_wci.blowup import BlowupRing, triple
from fano_wci.catalog import (LINK_TAGS, CatalogError, FamilyPair, FamilyRecord, Member, default_catalog_path,
                              derive_member, load_catalog)
from fano_wci.exclusion import Center, Untwist
from fano_wci.report import GOLDEN, build_report, certificate_json, render_json, render_markdown, verify_tables
from fano_wci.singularities import NotQuasismoothError, QuotientSingularity
from fano_wci.wps import rat_str
from test_strata import dispatch_branch, stratum, with_cited, with_rows

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
    ("cycle_witness", 17, F(1, 3), "family 17: cycle witness 1/2 != table 1/3"),
    ("cycle_witness", 19, F(1, 2), "family 19: table cycle_witness[19] unchecked: no curve-cycle certificate ran"),
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
    # (1, -1/2, -1/4): the tower cube is that class cubed.  Only family 19's
    # G record cites a tower
    g = catalog.pair(19).g
    assert g.cited == {("tower", ((2, 1), (4, 1)))}
    tower = BlowupRing.kawamata_tower(g.a_cube(), [QuotientSingularity(2, 1), QuotientSingularity(4, 1)])
    k = (1, F(-1, 2), F(-1, 4))
    assert report._tower_cube(g) == triple(tower, k, k, k) == F(-1, 12)
    assert [fid for fid in catalog.ids() if report._tower_cube(catalog.pair(fid).g) is not None] == [19]


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
    ("cycle_witness", 17, "family 17: cycle witness computed 1/2, table cycle_witness has no entry"),
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


def test_the_tower_is_checked_where_the_g_record_cites_it(tmp_path):
    # with the ids of families 19 and 29 traded in the file, the tower runs
    # on 19's G model under id 29, which has no tower_cube entry, and the
    # entry of id 19 is left: no G record under that id cites a tower
    entries = copy.deepcopy(SHIPPED)
    for entry in entries:
        entry["id"] = {19: 29, 29: 19}.get(entry["id"], entry["id"])
    lines = verify_tables(load_entries(str(tmp_path / "traded.json"), entries))
    assert "family 29: tower (-K)^3 computed -1/12, table tower_cube has no entry" in lines
    assert "family 19: table tower_cube[19] unchecked: no cited G points" in lines
    assert not [line for line in lines if "tower (-K)^3 =" in line]


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
    """`member`'s family pair with both records under `family_id`, derived
    anew; its rows and each record's cited constants travel with it."""
    g, gprime = member.g, member.gprime
    return derive_member(FamilyPair(g=FamilyRecord(family_id, "G", g.weights, g.degrees, g.cited),
                                    gprime=FamilyRecord(family_id, "Gprime", gprime.weights, gprime.degrees,
                                                        gprime.cited),
                                    golden=member.golden))


def certificates(report) -> list:
    return [(br.certificate, br.verdict) for cr in report.centers for br in cr.branches]


def test_a_member_under_another_id_has_the_certificates_of_its_own(catalog):
    # no builder reads the family id: each of the 14 members, its pair
    # rebuilt under id 7, runs every branch to the same certificate and
    # verdict, but the link untwist, which names its counterpart by id.
    # Every member hashes, `cited` objects and all
    for fid in catalog.ids():
        member, moved = catalog.member(fid), under_id(catalog.member(fid), 7)
        hash(member), hash(moved)  # a record hashes its fields, `cited` objects among them
        assert build_report(moved).uncovered == ()
        want = [(Untwist(c.tag, c.point, c.condition, 7, c.eligible) if c.method == "untwist" and c.tag == "link"
                 else c, v) for c, v in certificates(build_report(member))]
        assert certificates(build_report(moved)) == want, fid


def test_a_member_without_cited_constants_is_reported_uncovered(catalog):
    # family 50's member under id 7 without the cited sections, beta and
    # floors of its rows: each negdef-matrix row is uncovered rather than a
    # KeyError; without its rows, each point is a center the family lacks.
    # Its isolating vertex is derived from the support, not cited
    member = under_id(catalog.member(50), 7)
    assert build_report(with_rows(member, [row[:4] for row in member.golden.link_column])).uncovered == (
        "no curve-pair matrix data for family 7 at p1p4", "no curve-pair matrix data for family 7 at p2")
    assert build_report(with_rows(member, ())).uncovered == (
        "family 7 has no center at p1p4", "family 7 has no center at p2", "family 7 has no center at p3",
        "family 7 has no center at p4")


def test_a_special_curve_without_cited_data_is_an_uncovered_center(catalog):
    # family 17's member under id 7 without its cited cycle has its special
    # curve of degree 1/2 below (-K)^3 = 1 but no curve data: the curve is
    # uncovered by name, not a KeyError, and the report's other centers
    # still run
    report = build_report(with_cited(under_id(catalog.member(17), 7), None))
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
# Dispatch-edit census: a single edit of the dispatch data (the catalog's
# link rows and `cited` objects) must print a mismatch line or fail to load,
# unless it is pinned below with the reason it cannot.  An edit is (name,
# index of the edited entry in the file, path of the field in it, value)
# ---------------------------------------------------------------------------

CENSUS_METHODS = ("surface-pair", "infinite-curves", "nef-divisor", "untwist")
# every condition of a catalog row, "" among them
CONDITIONS = sorted({row["condition"] for e in SHIPPED for row in e["links"]})


def row_edits(field: str, values) -> list[tuple[str, int, tuple, object]]:
    """Every edit of `field` of one catalog link row to each other one of `values`."""
    return [(f"{e['id']} {row['point']} [{row['condition']}] {row[field]}->{value}", k, ("links", i, field), value)
            for k, e in enumerate(SHIPPED) for i, row in enumerate(e["links"]) for value in values
            if value != row[field]]


def dispatch_edits() -> list[tuple[str, int, tuple, object]]:
    """Each cited isolation vertex set to each other vertex, and each link
    row's method set to each other one of `CENSUS_METHODS`."""
    drops = [(f"{e['id']} isolation drop {drop}->{v}", k, ("cited", "isolation_vertex"), v)
             for k, e in enumerate(SHIPPED) if (drop := e.get("cited", {}).get("isolation_vertex")) is not None
             for v in range(5) if v != drop]
    return drops + row_edits("method", CENSUS_METHODS)


def doubled(value):
    """An int or a "p/q" string doubled, as the file states it."""
    return 2 * value if type(value) is int else rat_str(2 * F(value))


def cited_edits() -> list[tuple[str, int, tuple, object]]:
    """One edit per value of each `cited` object of the catalog but the
    isolation vertex (`dispatch_edits`): a flag negated, a section set to
    each coordinate the sections lack, each other number doubled, each
    number of a tower point too.  A swap of the two tower points is no edit:
    the tower's cube is symmetric in them."""
    edits = []
    for k, e in enumerate(SHIPPED):
        stated = [(f"{e['id']} {e['kind']}", ("cited",), e.get("cited", {})),
                  *[(f"{e['id']} {row['point']} [{row['condition']}]", ("links", i, "cited"), row.get("cited", {}))
                    for i, row in enumerate(e["links"])]]
        for where, path, cited in stated:
            for key, value in cited.items():
                if type(value) is bool:
                    edits.append((f"{where} cited {key} negated", k, (*path, key), not value))
                elif key == "sections":
                    edits += [(f"{where} cited {key}[{i}] {x}->{y}", k, (*path, key, i), y)
                              for i, x in enumerate(value) for y in range(5) if y not in value]
                elif key == "tower":
                    edits += [(f"{where} cited {key}[{i}][{j}] doubled", k, (*path, key, i, j), doubled(x))
                              for i, point in enumerate(value) for j, x in enumerate(point)]
                elif type(value) is list:
                    edits += [(f"{where} cited {key}[{i}] doubled", k, (*path, key, i), doubled(x))
                              for i, x in enumerate(value)]
                elif key != "isolation_vertex":
                    edits.append((f"{where} cited {key} doubled", k, (*path, key), doubled(value)))
    return edits


def tag_edits() -> list[tuple[str, int, tuple, object]]:
    """Each link row's tag set to each other one of `LINK_TAGS`."""
    return row_edits("tag", LINK_TAGS)


def condition_edits() -> list[tuple[str, int, tuple, object]]:
    """Each link row's condition set to each other one of `CONDITIONS`."""
    return row_edits("condition", CONDITIONS)


def outcome(path: str, entries: list[dict]) -> str:
    """What verify-tables does on the catalog `entries`, written to `path`:
    "load error" (it exits 2), "mismatch" (it prints a line) or "silent" (it
    passes)."""
    try:
        catalog = load_entries(path, entries)
    except CatalogError:
        return "load error"
    return "mismatch" if verify_tables(catalog) else "silent"


def outcomes(edits) -> dict[str, str]:
    """The `outcome` of each edit of the catalog file, applied alone, by the edit's name."""
    got = {}
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "edited.json")
        for name, index, (*parents, last), value in edits:
            entries = copy.deepcopy(SHIPPED)
            stated = entries[index]
            for key in parents:
                stated = stated[key]
            stated[last] = value
            got[name] = outcome(path, entries)
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


def test_every_cited_edit_prints_a_mismatch():
    # family 17's cycle has its golden witness, and family 19's tower points
    # their tower cube: no cited value is left without a check
    edits = cited_edits()
    assert len(edits) == 33 and len({name for name, *_ in edits}) == 33
    assert [name for name, *_ in edits if "tower" in name] == [
        "19 G cited tower[0][0] doubled", "19 G cited tower[0][1] doubled",
        "19 G cited tower[1][0] doubled", "19 G cited tower[1][1] doubled"]
    assert census(edits) == []


# ---------------------------------------------------------------------------
# Id-trade census: the golden tables are keyed by family id, the verifier's
# one binding of an id to a record, so trading the ids of two families in the
# file must print a mismatch, unless it is pinned below with the reason it
# cannot
# ---------------------------------------------------------------------------

def trade_outcomes() -> dict[str, str]:
    """The `outcome` of the shipped catalog with the ids of two families
    traded, both records of each, by "a<->b", for every pair of families."""
    ids = sorted({e["id"] for e in SHIPPED})
    got = {}
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "traded.json")
        for a, b in itertools.combinations(ids, 2):
            entries = [{**e, "id": {a: b, b: a}.get(e["id"], e["id"])} for e in SHIPPED]
            got[f"{a}<->{b}"] = outcome(path, entries)
    return got


# the trades that print no line, each with its reason: the golden entries of
# 30 and 69 coincide, both a b_cube_signs +1 and an infinite_curves (0, 2) at p2
SILENT_TRADES = {"30<->69"}


def test_every_id_trade_but_the_pinned_one_prints_a_mismatch():
    got = trade_outcomes()
    assert len(got) == 91
    assert {name for name, result in got.items() if result == "silent"} == SILENT_TRADES
    assert list(got.values()).count("mismatch") == 90


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
    assert len(deletions) == 42 and len({name for name, *_ in deletions}) == 42
    silent = deletion_census(load_catalog(strict=False))
    assert set(silent) == SILENT_DELETIONS
    assert len(silent) == 4


# ---------------------------------------------------------------------------
# Rendering: a certificate's JSON object, and the JSON text of a report
# ---------------------------------------------------------------------------

def test_certificates_serialize(catalog):
    q = QuotientSingularity(2, 1, locus="p1p4")
    for condition in ("not-exists-wci(1,3,4)", "exists-wci(1,3,4)"):
        cert, _ = dispatch_branch(catalog.member(50), Center.quotient_point(q), condition)
        blob = certificate_json(cert)
        assert blob["paper_method"] == cert.method


def stdlib_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def test_the_json_writer_is_the_stdlib_on_every_report(catalog):
    # every family's general member, then each quasi-smooth one-monomial stratum
    checked = 0
    for fid in catalog.ids():
        member = catalog.member(fid)
        members = [member]
        for monomial in member.support.sorted():
            try:
                members.append(stratum(member, monomial))
            except NotQuasismoothError:
                continue
        for m in members:
            value = render_json(build_report(m))
            assert report.json_text(value) == stdlib_json(value), (fid, m.support)
            checked += 1
    assert checked == 14 + 1_268


# str, int, bool and None leaves in nested lists and str-keyed dicts, empty
# containers included; the strings lean on what JSON escapes
WRITER_TEXT = st.text() | st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028 aé☃\U0001f600'))
WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | WRITER_TEXT,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(WRITER_TEXT, inner, max_size=5),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@example(value=[[], {}, {"": [{}]}, -2**64 - 1, 2**64, True, None, '"\\\x00é'])
@given(value=WRITER_VALUES)
def test_the_json_writer_is_the_stdlib_on_any_nested_value(value):
    assert report.json_text(value) == stdlib_json(value)


class Text(str):
    pass


@pytest.mark.parametrize("value", [1.5, ("a",), Fraction(1, 2), Text("a"), {1: "a"}, {"a": 1, 2: "b"},
                                   [{"a": [0.0]}]],
                         ids=["float", "tuple", "Fraction", "str subclass", "int key", "mixed keys", "nested float"])
def test_the_json_writer_raises_on_any_other_value(value):
    with pytest.raises(TypeError):
        report.json_text(value)
