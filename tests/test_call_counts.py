"""Redundant-work regressions: how often one run derives the same data.
Calls are counted by code object with the interpreter's profiler, so the
count does not depend on how the functions are bound or wrapped, and it does
not flake the way a wall time would."""

import importlib
import json
import operator
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fano_wci import catalog as catalog_module
from fano_wci import cli, exclusion, report, singularities, wps
from fano_wci.catalog import FAMILY_IDS, CatalogError, FamilyRecord, Member, default_catalog_path, load_catalog
from fano_wci.report import build_report, verify_tables
from fano_wci.wps import MonomialSupport
from test_strata import stratum, with_rows

def count_calls(functions: dict, run) -> tuple[Counter, object]:
    """Calls of each named function during run(), and run()'s result."""
    names = {fn.__code__: name for name, fn in functions.items()}
    calls: Counter[str] = Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


def verify_tables_twice(functions: dict) -> tuple[Counter, Counter]:
    """Calls of each named function in two verify-tables runs, each on its
    own non-strict load of the shipped text: the first load parses the text
    and its run derives every Member, the second load returns that catalog."""
    counts = []
    for _ in range(2):
        calls, diffs = count_calls(functions, lambda: verify_tables(load_catalog(strict=False)))
        assert diffs == []
        counts.append(calls)
    return counts[0], counts[1]


def test_verify_tables_derives_each_member_once(empty_load_cache):
    first, second = verify_tables_twice({"family_support": singularities.family_support,
                                         "monomials_of_degree": wps.monomials_of_degree,
                                         "singular_locus": singularities.singular_locus})
    families = len(FAMILY_IDS)
    # one support per family, built from three monomial enumerations (f, g, h)
    assert first == {"family_support": families, "monomials_of_degree": 3 * families,
                     "singular_locus": families}
    assert second == {}


def test_verify_tables_loads_once_and_solves_each_record_once(empty_load_cache):
    # one load, and one standard-form solve per record (G and Gprime) on the
    # text's first load: a load or a solve that re-derives what it already
    # holds fails here
    first, second = verify_tables_twice({"load_catalog": load_catalog,
                                         "equation_shape": singularities.equation_shape})
    assert first == {"load_catalog": 1, "equation_shape": 2 * len(FAMILY_IDS)}
    assert second == {"load_catalog": 1}


def test_verify_tables_derives_each_records_a_cube_once(empty_load_cache):
    first, second = verify_tables_twice({"anticanonical_cube": wps.anticanonical_cube})
    # one derivation per record (G and Gprime) on the text's first load, which
    # the record keeps: the Member's (-K)^3, the two checks of verify_family
    # and family 19's blowup tower read it, and a later load derives none
    assert first == {"anticanonical_cube": 2 * len(FAMILY_IDS)}
    assert second == {}


def test_a_record_of_the_wrong_index_keeps_no_a_cube():
    # a failed derivation keeps nothing: every call derives again and raises
    # the same error
    rec = FamilyRecord(17, "Gprime", (1, 1, 1, 4, 2), (9,))
    for _ in range(2):
        calls, _ = count_calls({"anticanonical_cube": wps.anticanonical_cube},
                               lambda: pytest.raises(ValueError, rec.a_cube))
        assert calls == {"anticanonical_cube": 1}
    assert vars(rec) == {"id": 17, "kind": "Gprime", "weights": (1, 1, 1, 4, 2), "degrees": (9,), "cited": None}


def test_verify_tables_checks_each_quadratic_involution_once(empty_load_cache):
    # the QI structural check runs once per quotient point that point_vertex
    # moves to a vertex, when the member derives its local models
    # (`Member.local`) on the text's first derivation; the untwist builder
    # reads the kept flag, and the verifier reads the link column off the
    # report, so a later op checks nothing
    first, second = verify_tables_twice({"qi_eligible": exclusion.qi_eligible})
    catalog = load_catalog(strict=False)
    models = [model for fid in FAMILY_IDS for model in catalog.member(fid).local.values()]
    assert (len(models), sum(not model.unreached for model in models)) == (23, 22)
    assert first == {"qi_eligible": 22}
    assert second == {}
    # family 19's three involution rows sit at two loci, p2p4 (EI and II)
    # and p3 (QI): one check per locus, on a member that derives its own models
    member = with_rows(catalog.member(19), catalog.member(19).golden.link_column)
    rows = [row.point for row in member.golden.link_column if row.tag in ("QI", "EI", "II")]
    assert rows == ["p2p4", "p2p4", "p3"]
    for expected in (2, 0):
        calls, report = count_calls({"qi_eligible": exclusion.qi_eligible}, lambda: build_report(member))
        assert report.uncovered == () and calls["qi_eligible"] == expected


def count_parses(load) -> tuple[int, object]:
    """Records parsed during load(), and load()'s result."""
    calls, result = count_calls({"parse": catalog_module._parse_record}, load)
    return calls["parse"], result


def shipped_entries() -> list[dict]:
    with open(default_catalog_path(), encoding="utf-8") as fh:
        return json.load(fh)


def entry(entries: list[dict], family: int, kind: str) -> dict:
    return next(obj for obj in entries if obj["id"] == family and obj["kind"] == kind)


def test_a_second_load_of_the_same_text_parses_nothing(empty_load_cache):
    parses, first = count_parses(load_catalog)
    assert parses == 2 * len(FAMILY_IDS)
    first.member(17)
    parses, second = count_parses(load_catalog)
    assert parses == 0
    # the same catalog, with the Members derived so far
    assert second is first
    assert second.member(17) is first.member(17)


def test_a_rewritten_file_is_checked_again(tmp_path):
    entries = shipped_entries()
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    load_catalog(str(path))
    entry(entries, 19, "G")["a_cube"] = "1/3"  # the weights give 1/2
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(CatalogError, match="a_cube mismatch for family 19 \\(G\\)"):
        load_catalog(str(path))


def test_a_non_strict_load_does_not_pass_the_strict_checks(tmp_path):
    # a file that passes only the non-strict checks fails every strict load,
    # also after a non-strict load of the same text succeeded
    entries = shipped_entries()
    entry(entries, 19, "Gprime")["a_cube"] = "1/2"
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    for _ in range(2):
        assert load_catalog(str(path), strict=False).pair(19).golden.a_cube == 1 / 2
        with pytest.raises(CatalogError, match="a_cube mismatch for family 19 \\(Gprime\\)"):
            load_catalog(str(path))


def test_a_failed_load_fails_again_with_the_same_message(tmp_path):
    entries = shipped_entries()
    entries[-1]["id"] = 18
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries), encoding="utf-8")

    def failing_load() -> str:
        with pytest.raises(CatalogError) as failure:
            load_catalog(str(path), strict=False)
        return str(failure.value)

    # every load parses the file anew: the last record fails its id check
    first, second = count_parses(failing_load), count_parses(failing_load)
    assert first == second
    assert first[0] == 2 * len(FAMILY_IDS) and "id 18 is not one of" in first[1]


def test_no_member_outlives_its_text(empty_load_cache, tmp_path):
    # families 29 and 41 trade ids in the second text, so its Members for
    # both ids differ from the shipped text's; their link rows travel with
    # their records, and the tables keyed by family id give the mismatches.
    # A Member kept across texts would hide them or invent them when the
    # shipped text returns
    entries = shipped_entries()
    for obj in entries:
        if obj["id"] in (29, 41):
            obj["id"] = 70 - obj["id"]
    traded = tmp_path / "traded.json"
    traded.write_text(json.dumps(entries), encoding="utf-8")
    shipped = default_catalog_path()

    def verify(path) -> list[str]:
        return verify_tables(load_catalog(str(path), strict=False))

    expected = {}
    for path in (shipped, traded):
        catalog_module._PARSED.clear()
        expected[path] = verify(path)
    assert expected[shipped] == [] and len(expected[traded]) == 4
    catalog_module._PARSED.clear()
    for path in (shipped, traded, shipped):
        assert verify(path) == expected[path]


def test_a_failed_derivation_keeps_no_member(empty_load_cache, tmp_path):
    entries = shipped_entries()
    entry(entries, 17, "Gprime")["weights"] = [1, 1, 1, 2, 4]  # distinguished weight 4 swapped with x3
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    line = ("family 17: No.17: no standard form (I' shape: degree 8 and b=4 admit no lift to six weights; "
            "I'' shape: degree 8 and b=4 admit no lift to six weights)")
    unchecked = "family 17: table cycle_witness[17] unchecked: the checks stopped at the error above"
    for _ in range(2):
        catalog = load_catalog(str(path), strict=False)
        assert verify_tables(catalog) == [line, unchecked]
        assert sorted(catalog._members) == [i for i in FAMILY_IDS if i != 17]


def test_strict_and_non_strict_loads_share_no_member(empty_load_cache):
    strict, loose = load_catalog(), load_catalog(strict=False)
    assert strict is not loose and strict.pairs == loose.pairs
    assert strict.member(50) is not loose.member(50) and strict.member(50) == loose.member(50)
    assert load_catalog() is strict and load_catalog(strict=False) is loose
    # each member keeps the plan its report derived, which is no record field
    for member in (strict.member(50), loose.member(50)):
        build_report(member)
    assert strict.member(50) == loose.member(50) and hash(strict.member(50)) == hash(loose.member(50))


def test_each_member_plans_its_centers_once(empty_load_cache):
    # the first verify-tables on a text plans each family's member, with its
    # isolating vertex, and a later one reuses the plans its members keep
    first, second = verify_tables_twice({"centers": exclusion.centers,
                                         "isolating_vertex": exclusion.isolating_vertex})
    assert first == {"centers": len(FAMILY_IDS), "isolating_vertex": len(FAMILY_IDS)}
    assert second == {}
    # a member built from another derives its own plan: with_rows runs the
    # edited rows, and a stratum names the locus it lost once per report
    member = load_catalog().member(29)
    assert build_report(member).uncovered == ()
    edited = with_rows(member, [*member.golden.link_column[1:], ("p1", "none", "", "surface-pair")])
    assert build_report(edited).uncovered == ("family 29 has no center at p2p4",
                                              "family 29 link row at p1: the member has no point there")
    lost = stratum(load_catalog().member(23), (0, 0, 5, 0, 0))
    for _ in range(2):
        assert build_report(lost).unplaced == ("family 23 link row at p2p4: the member has no point there",)


def test_each_local_model_derives_its_nef_numbers_and_pairings_once(empty_load_cache):
    # the first verify-tables on a text derives the nef numbers at the three
    # nef-divisor points (family 50's negdef-matrix branch at its half point
    # reads its own kept curve-pair sum, `LocalModel.pair_sum`) and the
    # pairings at the four infinite-curves points, and a later one derives none
    first, second = verify_tables_twice({"nef_numbers": exclusion.nef_numbers,
                                         "curve_pairings": exclusion.curve_pairings})
    assert first == {"nef_numbers": 3, "curve_pairings": 4}
    assert second == {}


def test_a_derivation_that_raises_raises_on_every_report(catalog):
    # a derivation that raises keeps nothing, so every report derives again
    # and meets the same error.  A nef-divisor row at family 77's p2p3, a
    # point that moves to no vertex, is uncovered by at_vertex's reason, and
    # an infinite-curves row at its p2p4 by the missing cited data
    derivations = {"nef_numbers": exclusion.nef_numbers, "curve_pairings": exclusion.curve_pairings}
    member = with_rows(catalog.member(77), [("p2p3", "none", "", "nef-divisor"),
                                            ("p2p4", "none", "", "infinite-curves"), ("p4", "link", "", "untwist")])
    for _ in range(2):
        calls, report = count_calls(derivations, lambda: build_report(member))
        assert calls == {"nef_numbers": 1, "curve_pairings": 1}
        assert report.uncovered == ("edge p2p3 point cannot be moved to a vertex",
                                    "no infinite-curves data for family 77 at p2p4")
    assert [("nef" in vars(model), vars(model).get("_derived", {})) for model in member.local.values()] == [
        (False, {}), (False, {})]

    # family 50 without the monomials free of w whose order at the half
    # point is at most 2 = 4/r, w's degree over r: w's order is 3, its
    # section's lift is no bB + eE with e >= 0, and every report raises
    general = catalog.member(50)
    k = general.local["p1p4"].weights
    support = MonomialSupport(general.support.degree, frozenset(
        [m for m in general.support.monomials if m[4] or sum(map(operator.mul, m, k)) > 4]))
    member = Member(*[support if name == "support" else getattr(general, name) for name in Member.__record_fields__])
    assert member.local["p1p4"].w_order == 3

    def failing_report():
        with pytest.raises(ValueError, match=r"^lift SectionLift\(class_b=4, class_e=Fraction\(-1, 1\)\) is not "):
            build_report(member)

    for _ in range(2):
        calls, _ = count_calls(derivations, failing_report)
        assert calls == {"nef_numbers": 1}
    assert "nef" not in vars(member.local["p1p4"])


def test_negdef_matrix_builds_no_nef_divisor():
    # family 50's half point has a nef-divisor branch and a negdef-matrix
    # branch; the negdef branch reads its own curve-pair sum (B . x0 . x2),
    # which on the general member is the nef divisor's (M . B^2), since x0
    # lifts to B and x2 to M there
    catalog = load_catalog()
    calls, report = count_calls({"nef": exclusion._nef_divisor}, lambda: build_report(catalog.member(50)))
    half = next(cr for cr in report.centers if cr.center.describe().startswith("p1p4"))
    assert [br.verdict.method for br in half.branches] == ["nef-divisor", "negdef-matrix"]
    assert calls == {"nef": 1}
    model = catalog.member(50).local["p1p4"]
    assert model.pair_sum((0, 2)) == model.nef.m_b2 == Fraction(-3, 20)


def test_links_derives_the_member_like_every_command(empty_load_cache, capsys):
    # one load and, on the text's first load, the Member's derivation: a
    # solve of each record, the Gprime record's support and singular locus
    counts = []
    for _ in range(2):
        calls, code = count_calls({"load_catalog": load_catalog,
                                   "equation_shape": singularities.equation_shape,
                                   "family_support": singularities.family_support,
                                   "singular_locus": singularities.singular_locus},
                                  lambda: cli.main(["links", "--family", "50"]))
        assert code == 0 and "No.50" in capsys.readouterr().out
        counts.append(calls)
    assert counts == [{"load_catalog": 1, "equation_shape": 2, "family_support": 1, "singular_locus": 1},
                      {"load_catalog": 1}]


def listed_functions() -> dict:
    """Every function whose calls BENCHMARK.json lists per layer, by
    `<module>.<function>`; the per-method dispatch names are one function."""
    with open(Path(__file__).resolve().parents[1] / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["per_layer"] if entry["name"].endswith(".calls")]
    functions = {}
    for name in names:
        module, function = name.split(".")[:2]
        functions[f"{module}.{function}"] = getattr(importlib.import_module(f"fano_wci.{module}"), function)
    return functions


# one op on a text whose Members are derived, as every measured warm-cli op
# but the first: each listed function not named makes no call.  The local
# models and restriction supports (`qi_eligible`, `b_cubed`,
# `vanishing_order`, `gamma_polynomial`) are kept on the Members, and each
# local model keeps its nef-divisor numbers and pairings, so the one
# `triple` left is family 19's tower in `verify_family`
VERIFY_TABLES_CALLS = {
    "exclusion.dispatch": 73, "report.build_report": 14, "report.verify_family": 14, "blowup.triple": 1,
    "blowup.ambient_quadruple": 1, "links.counterpart_inverse": 14, "links.involution_inventory": 14,
    "catalog.load_catalog": 1,
}
ANALYZE_50_CALLS = {
    "exclusion.dispatch": 8, "report.build_report": 1, "blowup.ambient_quadruple": 1,
    "catalog.load_catalog": 1,
}
PER_OP_CALLS = {
    "verify-tables": VERIFY_TABLES_CALLS,
    "analyze --family 50 --format md": {**ANALYZE_50_CALLS, "report.render_markdown": 1},
    "analyze --family 50 --format json": {**ANALYZE_50_CALLS, "report.render_json": 1},
}


@pytest.mark.parametrize("command", PER_OP_CALLS)
def test_an_op_on_a_loaded_text_makes_the_pinned_calls_of_every_listed_function(command, capsys):
    # a speed-up that skips, shares or caches a certificate, a report or a
    # golden check makes fewer calls; one that repeats work makes more
    functions = listed_functions()
    assert len(functions) == 20
    argv = command.split()
    assert cli.main(argv) == 0  # the text is loaded and its Members derived
    calls, code = count_calls(functions, lambda: cli.main(argv))
    assert code == 0 and capsys.readouterr().out
    assert calls == PER_OP_CALLS[command]


def test_analyze_json_writes_without_the_python_json_encoder(capsys):
    # the stdlib's indent path runs json.encoder's Python generators for
    # every value; the op's writer needs none of it
    argv = ["analyze", "--family", "50", "--format", "json"]
    assert cli.main(argv) == 0
    calls, code = count_calls({"_make_iterencode": json.encoder._make_iterencode,
                               "JSONEncoder.encode": json.JSONEncoder.encode,
                               "render_json": report.render_json}, lambda: cli.main(argv))
    assert code == 0 and capsys.readouterr().out
    assert calls == {"render_json": 1}
