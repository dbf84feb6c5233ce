"""The verifier compares every witness entry of the golden tables with a
certificate of its method, reports an entry that no such certificate
reaches instead of skipping it, and reports a check that finds no entry."""

import copy
from fractions import Fraction

import pytest

from fano_wci import exclusion, report
from fano_wci.catalog import FamilyRecord, Member, load_catalog
from fano_wci.report import GOLDEN, build_report, render_markdown, verify_tables

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
    ("a_cube", 17, F(2), "family 17: A^3 computed 1 != table 2"),
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
    ("a_cube", 96, F(1), "family 96: table a_cube[96] unchecked: family not in the catalog"),
    ("tower_cube", 19, F(-1, 13), "family 19: tower (-K)^3 = -1/12 != -1/13"),
    ("tower_cube", 94, F(-1, 12), "family 94: table tower_cube[94] unchecked: family not in the catalog"),
    ("tower_cube", 17, F(-1, 12), "family 17: table tower_cube[17] unchecked: no cited G points"),
    ("gamma_rows", 17, frozenset({(0, 2, 0)}),
     "family 17: table gamma_rows[17] unchecked: no surface-pair certificate ran"),
]


def test_every_golden_table_has_a_consumer():
    # a table is checked by verify_family directly or through a certificate
    # method's WITNESSES row, so a table added without a check fails here
    assert set(GOLDEN) == {"a_cube", "b_cube_signs", "tower_cube"} | {row[0] for row in report.WITNESSES.values()}


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


def test_a_family_without_an_a_cube_entry_is_still_checked(catalog, monkeypatch):
    # the missing entry is its own line; family 19's tower, isolation and
    # curve witness entries are still compared, so no other line follows
    a_cube = {key: value for key, value in GOLDEN["a_cube"].items() if key != 19}
    monkeypatch.setattr(report, "GOLDEN", {**GOLDEN, "a_cube": a_cube})
    assert verify_tables(catalog) == ["family 19: A^3 computed 2/3, table a_cube has no entry"]


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


def test_a_member_of_a_family_without_rules_is_reported_uncovered(catalog):
    # family 50's member under id 7, which no rule table knows: each point
    # without rules is uncovered rather than a KeyError
    m = catalog.member(50)
    member = Member(g=FamilyRecord(7, "G", m.g.weights, m.g.degrees),
                    gprime=FamilyRecord(7, "Gprime", m.gprime.weights, m.gprime.degrees), golden=m.golden,
                    a_cube=m.a_cube, shape=m.shape, support=m.support, quotients=m.quotients, cax=m.cax)
    assert build_report(member).uncovered == (
        "family 7: no isolation vertex to drop", "family 7 has no center at p1p4",
        "family 7 has no center at p2", "family 7 has no center at p3", "family 7 has no center at p4")


def test_an_uncertified_nef_divisor_is_a_mismatch(catalog, monkeypatch):
    # an uncertified nef divisor excludes nothing (`NefDivisor.verdict`), so
    # its center is uncovered; no line of its own is needed, and none fires
    # on the catalog, where every order is >= 0 and `certified` holds
    bound_check = exclusion.nef_bound_check
    monkeypatch.setattr(exclusion, "nef_bound_check", lambda lifts, q: (bound_check(lifts, q)[0], False))
    lines = [f"family {family}: uncovered centers: uncovered-cases(p1p4 = 1/2(1,1,1) [{condition}])"
             for family, condition in ((50, "not-exists-wci(1,3,4)"), (74, "unconditional"), (82, "unconditional"))]
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
    rows = [line for line in render_markdown(build_report(catalog.member(41))).splitlines()
            if line.startswith("| p2p3 = ")]
    assert rows == ["| p2p3 = 1/3(1,1,2) | uncovered: family 41 p2p3: no x^2 y tangent monomial, "
                    "quadratic involution not available | uncovered |"]


# every surface-pair branch of the rules, as (family, locus, condition)
SURFACE_PAIRS = [(fid, locus, br.condition) for fid, rules in exclusion.POINT_RULES.items()
                 for locus, branches in rules.items() for br in branches if br.method == "surface-pair"]


@pytest.mark.parametrize("family, locus, condition", SURFACE_PAIRS,
                         ids=[f"{fid}-{locus}" for fid, locus, _ in SURFACE_PAIRS])
def test_an_exclusion_turned_into_an_untagged_untwist_is_a_mismatch(catalog, monkeypatch, family, locus,
                                                                     condition):
    # an untwist resolves its center, so a branch whose method is edited to
    # untwist while its golden tag stays "none" must not pass as resolved
    branches = tuple(exclusion.RuleBranch(br.condition, "untwist", br.tag) if br.condition == condition else br
                     for br in exclusion.POINT_RULES[family][locus])
    monkeypatch.setitem(exclusion.POINT_RULES[family], locus, branches)
    lines = verify_tables(catalog)
    assert lines and all(line.startswith(f"family {family}: ") for line in lines)
    if family == 29:
        assert lines == [
            "family 29: link column computed [('p4', 'link', '')] != catalog "
            "[('p2p4', 'none', ''), ('p4', 'link', '')]",
            "family 29: uncovered centers: uncovered-cases(family 29 p2p4: untwist needs a QI, EI, II "
            "or link tag, not 'none')",
            "family 29: table gamma_rows[29] unchecked: no surface-pair certificate ran"]


# ---------------------------------------------------------------------------
# Dispatch-edit census: a single edit of the per-family dispatch data must
# print a mismatch line, unless it is pinned below with the reason it cannot
# ---------------------------------------------------------------------------

CENSUS_METHODS = ("surface-pair", "infinite-curves", "nef-divisor", "untwist")


def dispatch_edits() -> list[tuple[str, dict, object, object]]:
    """Every single edit of the dispatch data as (name, table, key, value):
    each family's isolation vertex set to each other vertex, and each point
    branch's method set to each other one of `CENSUS_METHODS`, its condition
    and tag kept."""
    edits = []
    for fid, drop in exclusion.ISOLATION_DROP.items():
        edits += [(f"{fid} isolation drop {drop}->{v}", exclusion.ISOLATION_DROP, fid, v)
                  for v in range(5) if v != drop]
    for fid, rules in exclusion.POINT_RULES.items():
        for locus, branches in rules.items():
            for i, br in enumerate(branches):
                edits += [(f"{fid} {locus} [{br.condition}] {br.method}->{method}", rules, locus,
                           (*branches[:i], exclusion.RuleBranch(br.condition, method, br.tag), *branches[i + 1:]))
                          for method in CENSUS_METHODS if method != br.method]
    return edits


def census(catalog) -> list[str]:
    """The names of the dispatch edits, each applied alone, after which
    `verify_tables(catalog)` prints no line."""
    silent = []
    for name, table, key, value in dispatch_edits():
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(table, key, value)
            if not verify_tables(catalog):
                silent.append(name)
    return silent


# the edits that print no line, by group; each group's comment is the reason
SILENT_EDITS = {
    # families 19 and 50: the edited vertex's bound ties the typed vertex's,
    # so the golden isolation entry still matches
    "ties": {"19 isolation drop 2->0", "19 isolation drop 2->1", "19 isolation drop 2->4",
             "50 isolation drop 1->0", "50 isolation drop 1->2"},
    # no golden isolation entry: the bound changes but stays within the limit
    "no isolation entry": {
        "17 isolation drop 3->0", "17 isolation drop 3->1", "17 isolation drop 3->2", "17 isolation drop 3->4",
        "30 isolation drop 3->2", "41 isolation drop 3->0", "41 isolation drop 3->1", "41 isolation drop 3->2",
        "41 isolation drop 3->4", "49 isolation drop 3->4", "55 isolation drop 3->2", "69 isolation drop 3->2",
        "74 isolation drop 3->0", "74 isolation drop 3->1", "74 isolation drop 3->2", "74 isolation drop 3->4",
        "77 isolation drop 3->0", "77 isolation drop 3->1", "77 isolation drop 3->2", "77 isolation drop 3->4",
        "82 isolation drop 3->0", "82 isolation drop 3->1", "82 isolation drop 3->2", "82 isolation drop 3->4"},
    # no table records the paper's method at a branch: the QI branch's
    # infinite-curves witness is the one the (30, 'p2') entry expects, and its
    # QI tag still makes the link column
    "no method entry": {"30 p2 [monomial-present(y^2 z)] untwist->infinite-curves"},
}


def test_every_dispatch_edit_but_the_pinned_ones_prints_a_mismatch():
    # each edit runs verify_tables without raising; an edit that stays
    # silent and is not pinned, or a pinned one that turns loud, fails here
    edits = dispatch_edits()
    assert len(edits) == 184 and len({name for name, *_ in edits}) == 184
    silent = census(load_catalog(strict=False))
    assert set(silent) == set().union(*SILENT_EDITS.values())
    assert len(silent) == 30


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
    assert len(deletions) == 55 and len({name for name, *_ in deletions}) == 55
    silent = deletion_census(load_catalog(strict=False))
    assert set(silent) == SILENT_DELETIONS
    assert len(silent) == 4
