"""Redundant-work regressions: how often one run derives the same data.
Calls are counted by code object with the interpreter's profiler, so the
count does not depend on how the functions are bound or wrapped, and it does
not flake the way a wall time would."""

import sys
from collections import Counter

from fano_wci import cli, exclusion, singularities, wps
from fano_wci.catalog import FAMILY_IDS, load_catalog
from fano_wci.report import build_report, verify_tables


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


def test_verify_tables_derives_each_member_once():
    catalog = load_catalog(strict=False)
    calls, diffs = count_calls({"family_support": singularities.family_support,
                                "monomials_of_degree": wps.monomials_of_degree,
                                "singular_locus": singularities.singular_locus},
                               lambda: verify_tables(catalog))
    assert diffs == []
    families = len(FAMILY_IDS)
    # one support per family, built from three monomial enumerations (f, g, h)
    assert calls == {"family_support": families, "monomials_of_degree": 3 * families,
                     "singular_locus": families}


def test_verify_tables_loads_once_and_solves_each_record_once():
    # one load, and one standard-form solve per record (G and Gprime): a
    # load or a solve that re-derives what it already holds fails here
    calls, diffs = count_calls({"load_catalog": load_catalog,
                                "equation_shape": singularities.equation_shape},
                               lambda: verify_tables(load_catalog(strict=False)))
    assert diffs == []
    assert calls == {"load_catalog": 1, "equation_shape": 2 * len(FAMILY_IDS)}


def test_verify_tables_derives_a_cube_three_times_per_family():
    catalog = load_catalog(strict=False)
    calls, diffs = count_calls({"anticanonical_cube": wps.anticanonical_cube},
                               lambda: verify_tables(catalog))
    assert diffs == []
    # per family: the G and Gprime checks of verify_family and the Member's
    # (-K)^3; plus family 19's blowup tower
    assert calls == {"anticanonical_cube": 3 * len(FAMILY_IDS) + 1}


def test_negdef_matrix_reuses_the_nef_divisor():
    # family 50's half point has a nef-divisor branch and a negdef-matrix
    # branch resting on the same (M . B^2)
    catalog = load_catalog()
    calls, report = count_calls({"nef": exclusion._nef_divisor}, lambda: build_report(catalog, 50))
    half = next(cr for cr in report.centers if cr.center.describe().startswith("p1p4"))
    assert [br.verdict.method for br in half.branches] == ["nef-divisor", "negdef-matrix"]
    assert calls == {"nef": 1}


def test_cli_builds_no_parser_per_command(capsys):
    calls, code = count_calls({"make_parser": cli.make_parser},
                              lambda: cli.main(["basket", "--family", "29"]))
    assert code == 0 and "No.29" in capsys.readouterr().out
    assert calls == {}
