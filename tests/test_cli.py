import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fano_wci import cli
from fano_wci.catalog import FAMILY_IDS, CatalogError, default_catalog_path, load_catalog
from fano_wci.cli import main
from fano_wci.wps import rat_str


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_tables_ok(capsys):
    code, out, _ = run(capsys, "verify-tables")
    assert code == 0
    assert "all 14 families" in out


def test_analyze_markdown(capsys):
    code, out, _ = run(capsys, "analyze", "--family", "50")
    assert code == 0
    assert "A^3 = 7/60" in out
    assert out.count("| p") == 4  # four point-center rows
    code, out19, _ = run(capsys, "analyze", "--family", "19")
    assert "EI" in out19 and "II" in out19


@pytest.mark.parametrize("command", [["analyze", "--format", "md"], ["analyze", "--format", "json"],
                                     ["links"], ["basket"]], ids=["analyze-md", "analyze-json", "links", "basket"])
def test_analyze_unknown_family(capsys, command):
    code, out, err = run(capsys, *command, "--family", "99")
    assert code == 2
    assert out == ""
    assert err == "error: unknown family id 99; catalog has (17, 19, 23, 29, 30, 41, 42, 49, 50, 55, 69, 74, 77, 82)\n"


def test_analyze_json_round_trips_schema(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze", "--family", "82", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_cube"] == "1/20"
    # the embedded golden record reparses as a one-record catalog fragment
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    g_half = [obj for obj in raw if obj["id"] == 82]
    replaced = [payload["golden_record"] if obj["kind"] == "Gprime" else obj for obj in g_half]
    rest = [obj for obj in raw if obj["id"] != 82]
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(rest + replaced))
    reparsed = load_catalog(str(path))
    assert reparsed.pair(82).golden == load_catalog().pair(82).golden


def test_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "analyze", "--family", "74", "--format", "json")
    _, second, _ = run(capsys, "analyze", "--family", "74", "--format", "json")
    assert first == second
    _, md1, _ = run(capsys, "analyze", "--family", "74")
    _, md2, _ = run(capsys, "analyze", "--family", "74")
    assert md1 == md2


def test_links_and_basket_commands(capsys):
    code, out, _ = run(capsys, "links", "--family", "82")
    assert code == 0
    assert "X'_22 in P(1,2,5,11,4)" in out
    code, out, _ = run(capsys, "basket", "--family", "29")
    assert code == 0
    assert "3 x 1/2(1,1,1)" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", [["verify-tables"], ["analyze", "--family", "50", "--format", "json"]],
                         ids=["verify-tables", "analyze-json"])
def test_a_closed_stdout_exits_141_without_a_traceback(command, unbuffered):
    # stdout is a pipe whose read end is closed before the command starts,
    # as in `fano-wci verify-tables | head -0`
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "fano_wci.cli", *command], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_verify_tables_flags_wrong_g_a_cube(capsys, tmp_path):
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    for obj in raw:
        if obj["id"] == 29 and obj["kind"] == "G":
            obj["a_cube"] = "7/3"
    path = tmp_path / "g29.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
    assert code == 1
    assert "family 29: catalog G a_cube 7/3 != computed 1/3" in out.splitlines()
    code, _, err = run(capsys, "--catalog", str(path), "basket", "--family", "29")
    assert code == 2 and "a_cube mismatch" in err


def _gprime_29(raw):
    return next(obj for obj in raw if obj["id"] == 29 and obj["kind"] == "Gprime")


MALFORMED = {
    "weights-float": lambda e: e.update(weights=[float(x) for x in e["weights"]]),
    "weights-null": lambda e: e.update(weights=None),
    "a_cube-number": lambda e: e.update(a_cube=0.5),
    "degrees-int": lambda e: e.update(degrees=e["degrees"][0]),
    "weights-zero": lambda e: e["weights"].__setitem__(0, 0),
    "basket-no-count": lambda e: e["basket"][0].pop("count"),
}


@pytest.mark.parametrize("command", [["verify-tables"], ["analyze", "--family", "29"],
                                     ["basket", "--family", "29"]], ids=lambda c: c[0])
@pytest.mark.parametrize("mutation", MALFORMED)
def test_malformed_catalog_field_is_a_load_error(capsys, tmp_path, mutation, command):
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    MALFORMED[mutation](_gprime_29(raw))
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "--catalog", str(path), *command)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: catalog entry #")
    assert "Traceback" not in err


G_ARRAYS = {
    "links-string": ("links", lambda gprime: "garbage"),
    "links-null": ("links", lambda gprime: None),
    "links-gprime": ("links", lambda gprime: gprime["links"]),
    "basket-object": ("basket", lambda gprime: {}),
    "basket-gprime": ("basket", lambda gprime: gprime["basket"]),
    "basket-bad-entry": ("basket", lambda gprime: [{"type": 1}]),
}


@pytest.mark.parametrize("change", G_ARRAYS)
def test_g_record_with_a_basket_or_links_is_a_load_error(capsys, tmp_path, change):
    # the golden basket and link column belong to the Gprime record; a G
    # record's arrays must be empty
    field, value = G_ARRAYS[change]
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    index, g = next((k, obj) for k, obj in enumerate(raw) if obj["id"] == 29 and obj["kind"] == "G")
    g[field] = value(_gprime_29(raw))
    path = tmp_path / "g_arrays.json"
    path.write_text(json.dumps(raw))
    chosen = ["--family", "29"]
    for command in (["verify-tables"], ["analyze", *chosen, "--format", "json"], ["analyze", *chosen],
                    ["basket", *chosen], ["links", *chosen]):
        code, out, err = run(capsys, "--catalog", str(path), *command)
        assert code == 2, command
        assert out == ""
        assert err.splitlines() == [f"error: catalog entry #{index}: '{field}' of a G record must be [], "
                                    f"got {g[field]!r}"]


def make_parser() -> argparse.ArgumentParser:
    """The argparse parser that cli's table replaced: the reference its
    parser is checked against."""
    parser = argparse.ArgumentParser(prog="fano-wci",
                                     description="Catalog analysis of Q-Fano weighted complete intersections")
    parser.add_argument("--catalog", default=None, help="path to a catalog JSON file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full per-family report")
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--format", choices=("md", "json"), default="md")

    sub.add_parser("verify-tables", help="recompute everything and diff against golden data")

    p = sub.add_parser("links", help="standard form and counterpart of one family")
    p.add_argument("--family", type=int, required=True)

    p = sub.add_parser("basket", help="singular locus of the hypersurface member")
    p.add_argument("--family", type=int, required=True)
    return parser


PARSED = ("catalog", "command", "family", "format")
ARGVS = [
    # accepted: each command, "=", unique prefixes, the last of a repeated
    # option, int() conversion, a negative id, a value that looks odd
    ["verify-tables"], ["analyze", "--family", "50"], ["analyze", "--family", "50", "--format", "json"],
    ["links", "--family", "50"], ["basket", "--family", "50"], ["--catalog", "x", "basket", "--family", "29"],
    ["analyze", "--family=50"], ["analyze", "--fam", "50"], ["--cat", "x", "verify-tables"],
    ["--c=x", "verify-tables"], ["--catalog=", "verify-tables"], ["--catalog=a=b", "verify-tables"],
    ["analyze", "--fo", "json", "--fa", "50"], ["analyze", "--format=json", "--family", "50"],
    ["analyze", "--family", "1", "--family", "50"], ["--catalog", "a", "--catalog", "b", "verify-tables"],
    ["analyze", "--family", "50", "--format", "json", "--format", "md"], ["analyze", "--family", " 50 "],
    ["analyze", "--family", "+50"], ["analyze", "--family", "5_0"], ["analyze", "--family", "-3"],
    ["analyze", "--family=-3"], ["--catalog", "-3", "verify-tables"], ["--catalog", "-.5", "verify-tables"],
    ["--catalog", "-x y", "verify-tables"], ["--catalog", "", "links", "--family", "17"],
    # help, wherever it comes before an error
    ["-h"], ["--help"], ["--he"], ["-h", "bogus"], ["--catalog", "x", "-h"], ["analyze", "-h"],
    ["analyze", "-h", "--family", "x"], ["basket", "--family", "50", "--help"], ["verify-tables", "--h"],
    # rejected
    [], ["bogus"], ["bogus", "-h"], ["--catalog"], ["--catalog", "x"], ["--catalog", "-h"],
    ["--catalog", "-x", "verify-tables"], ["--catalog", "--", "verify-tables"], ["analyze"],
    ["analyze", "--family", "x"], ["analyze", "--family", "x", "-h"], ["analyze", "--family", "1e3"],
    ["analyze", "--family", "-1.5"], ["analyze", "--family", ""], ["analyze", "--family="],
    ["analyze", "--family"], ["analyze", "--family", "--format", "json"],
    ["analyze", "--family", "50", "--format", "xml"], ["analyze", "--family", "50", "--format"],
    ["analyze", "--format", "json"], ["analyze", "-f", "50"], ["links", "--family", "50", "--format", "json"],
    ["verify-tables", "--family", "3"], ["analyze", "--family", "50", "--catalog", "x"],
    ["basket", "--family", "50", "extra"], ["basket", "extra", "--family", "50"],
    ["analyze", "--family", "50", "-3"], ["-x"], ["-x", "verify-tables"], ["verify-tables", "-x", "-y"],
    ["-", "verify-tables"], ["--", "verify-tables"], ["--", "-h"], ["verify-tables", "--"],
    ["analyze", "--", "--family", "50"], ["analyze", "--family", "50", "--", "x"], ["analyze", "--", "-h"],
    ["analyze", "--f", "50"], ["analyze", "--family", "50", "--=x"], ["--help=x"],
    ["analyze", "--family", "50", "--help=x"]
]
# rejected with another reason than argparse's: argparse names the command
# "--", rejects an =value on --help, and matches "--=x" after the command
# against the options before it
WORDED_OTHERWISE = (["--", "verify-tables"], ["--", "-h"], ["--help=x"],
                    ["analyze", "--family", "50", "--help=x"], ["analyze", "--family", "50", "--=x"])


def parse_outcome(parse, argv, capsys):
    """What `parse` makes of argv: ("parsed", catalog, command, family,
    format) or ("exit", code), with its stdout and stderr."""
    try:
        namespace = parse(list(argv))
        outcome = ("parsed", *(getattr(namespace, key, None) for key in PARSED))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_the_table_parser_reads_every_argv_as_argparse_did(capsys, argv):
    want, _, want_err = parse_outcome(make_parser().parse_args, argv, capsys)
    got, out, err = parse_outcome(cli._parse, argv, capsys)
    assert got == want
    if got == ("exit", 2):
        assert out == ""
        usage, error = err.splitlines()
        assert usage.startswith("usage: fano-wci ") and error.startswith("fano-wci: error: ")
        # argparse's wording; how a Python version lists the choices aside
        reason = error.removeprefix("fano-wci: error: ").partition(" (choose from")[0]
        if argv not in WORDED_OTHERWISE:
            assert reason == want_err.splitlines()[-1].split(": error: ", 1)[1].partition(" (choose from")[0]
    elif got == ("exit", 0):
        assert out.startswith("usage: fano-wci ") and err == ""
    else:
        assert (out, err) == ("", "")


@pytest.mark.parametrize("argv", [["analyze", "--family", "50"], ["analyze", "--family=50"],
                                  ["analyze", "--fam", "50"], ["analyze", "--family", "50", "--format=md"]],
                         ids=" ".join)
def test_an_option_by_its_exact_name_or_a_unique_prefix_reads_as_argparse_read_it(argv):
    want, got = make_parser().parse_args(argv), cli._parse(argv)
    assert (got.command, got.family, got.format) == (want.command, want.family, want.format) == ("analyze", 50, "md")


def test_a_prefix_of_two_options_is_argparses_ambiguous_option_error(capsys):
    argv = ["analyze", "--f", "50"]
    errors = []
    for parse in (make_parser().parse_args, cli._parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        errors.append((exc.value.code, capsys.readouterr().err.splitlines()[-1].split(": error: ", 1)[1]))
    assert errors == [(2, "ambiguous option: --f could match --family, --format")] * 2


def test_help_names_every_command_its_options_and_its_help_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "usage: fano-wci [-h] [--catalog CATALOG] {analyze,verify-tables,links,basket} ..."
    assert "Catalog analysis of Q-Fano weighted complete intersections" in lines
    for command, synopsis in [("analyze", "analyze --family FAMILY [--format {md,json}]"),
                              ("verify-tables", "verify-tables"), ("links", "links --family FAMILY"),
                              ("basket", "basket --family FAMILY")]:
        k = lines.index(f"  {synopsis}")
        assert lines[k + 1] == f"      {cli.COMMANDS[command][0]}"


def loaded_by_cli_import(*names: str) -> str:
    """Which of the modules `names` `import fano_wci.cli` loads, as a sorted
    list's repr; -S: no site-packages .pth hooks, which can import them themselves."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import fano_wci.cli, sys; print(sorted({set(names)!r} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_loads_no_argument_parser():
    assert loaded_by_cli_import("argparse", "gettext", "locale") == "[]"


def test_cli_import_loads_no_typing():
    # the package's two tuple types are collections.namedtuple types, and no
    # module imports typing for its annotations
    assert loaded_by_cli_import("typing") == "[]"


def test_main_dispatches_through_the_module_bindings(capsys, monkeypatch):
    # a wrapper rebound at cli.cmd_basket after import must be what main runs
    seen = []
    original = cli.cmd_basket

    def recording(args):
        seen.append(args.family)
        return original(args)

    monkeypatch.setattr(cli, "cmd_basket", recording)
    code, out, _ = run(capsys, "basket", "--family", "29")
    assert code == 0 and "3 x 1/2(1,1,1)" in out
    assert seen == [29]


# every command on family 17
FAMILY_17_COMMANDS = (["verify-tables"], ["analyze", "--family", "17"],
                      ["analyze", "--family", "17", "--format", "json"],
                      ["links", "--family", "17"], ["basket", "--family", "17"])


def _catalog_with_gprime_17(tmp_path, change):
    """A catalog file whose family 17 Gprime record is changed in place by
    `change`, and that record's entry number."""
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    index, gprime = next((k, obj) for k, obj in enumerate(raw) if obj["id"] == 17 and obj["kind"] == "Gprime")
    change(gprime)
    path = tmp_path / "gprime17.json"
    path.write_text(json.dumps(raw))
    return str(path), index


def test_a_huge_weight_is_a_load_error(capsys, tmp_path):
    # index one, but a_cube's denominator would have 5,001 digits, past
    # what str() prints
    def huge(gprime):
        gprime["weights"] = [1, 1, 1, 10**2500, 10**2500 + 1]
        gprime["degrees"] = [sum(gprime["weights"]) - 1]
    path, index = _catalog_with_gprime_17(tmp_path, huge)
    for command in FAMILY_17_COMMANDS:
        code, out, err = run(capsys, "--catalog", path, *command)
        assert code == 2, command
        assert out == ""
        assert err.splitlines() == [f"error: catalog entry #{index}: 'weights' and 'degrees' must be at most 10000"]


def test_an_a_cube_in_exponent_notation_is_a_load_error(capsys, tmp_path):
    # Fraction would expand 10^3000000 digit by digit
    path, index = _catalog_with_gprime_17(tmp_path, lambda gprime: gprime.update(a_cube="1e-3000000"))
    for command in FAMILY_17_COMMANDS:
        code, out, err = run(capsys, "--catalog", path, *command)
        assert code == 2, command
        assert out == ""
        assert err.splitlines() == [f"error: catalog entry #{index}: bad a_cube '1e-3000000': "
                                    f"expected \"p/q\" or \"p\" in ASCII digits"]


def _bump_weight_2_of_29(raw):
    _gprime_29(raw)["weights"][2] += 1


def _swap_weights_0_4_of_17(raw):
    w = next(obj for obj in raw if obj["id"] == 17 and obj["kind"] == "Gprime")["weights"]
    w[0], w[4] = w[4], w[0]


def _gprime_weights(family, weights):
    # a swap of the distinguished weight with an x-weight that keeps the
    # x-weights ascending, so the strict load accepts the record
    def mutate(raw):
        next(obj for obj in raw if obj["id"] == family and obj["kind"] == "Gprime")["weights"] = weights
    return mutate


def _stated_subfamily(family, subfamily):
    # both records state the tag, so the load accepts it
    def mutate(raw):
        for obj in raw:
            if obj["id"] == family:
                obj["subfamily"] = subfamily
    return mutate


def _stopped(family, *entries):
    """The lines that name a family's golden entries left unchecked by its error."""
    return [f"family {family}: table {entry} unchecked: the checks stopped at the error above" for entry in entries]


# (mutation, family, the lines verify-tables prints for it: the error, then
# the family's golden entries that it left unchecked)
UNDERIVABLE = {
    "wrong-index": (_bump_weight_2_of_29, 29,
                    ["family 29: record No.29/Gprime: not anticanonically embedded of index 1 "
                     "(sum weights - sum degrees = 2)",
                     *_stopped(29, "b_cube_signs[(29, 'p2p4')]", "gamma_rows[29]")]),
    "no-standard-shape": (_swap_weights_0_4_of_17, 17,
                          ["family 17: No.17: no standard form (I' shape: degrees d1, d2 = 7, 8 are not "
                           "both even; I'' shape: degree 8 and b=1 admit no lift to six weights)",
                           *_stopped(17, "cycle_witness[17]")]),
    "swap-odd-degrees": (_gprime_weights(19, [1, 1, 2, 2, 3]), 19,
                         ["family 19: No.19: no standard form (I' shape: degrees d1, d2 = 5, 8 are not "
                          "both even; I'' shape: degree 8 and b=3 admit no lift to six weights)",
                          *_stopped(19, "isolation[19]", "curve_witness[19]")]),
    # the record solves, as X'_14 in P(1,1,2,7,4) with b = 4, to I''4
    "swap-not-counterpart": (_gprime_weights(55, [1, 1, 2, 7, 4]), 55,
                             ["family 55: No.55: the Gprime record solves to subfamily I''4, "
                              "the catalog states I''2",
                              *_stopped(55, "b_cube_signs[(55, 'p2')]", "b_cube_signs[(55, 'p2p4')]",
                                        "infinite_curves[(55, 'p2')]", "gamma_rows[55]")]),
    # the load checks the order of the x-weights only when strict
    "unordered-not-counterpart": (_gprime_weights(19, [1, 2, 1, 3, 2]), 19,
                                  ["family 19: No.19: Gprime record X'_8 in P(1,2,1,3,2) is not the "
                                   "counterpart X'_8 in P(1,1,2,3,2) of its G record",
                                   *_stopped(19, "isolation[19]", "curve_witness[19]")]),
    "stated-subfamily": (_stated_subfamily(19, "I''2"), 19,
                         ["family 19: No.19: the G record solves to subfamily I'2, the catalog states I''2",
                          *_stopped(19, "isolation[19]", "curve_witness[19]")]),
}


@pytest.mark.parametrize("command", ["analyze", "basket", "links"])
@pytest.mark.parametrize("mutation", UNDERIVABLE)
def test_underivable_gprime_record_is_a_load_error(capsys, tmp_path, mutation, command):
    mutate, family, lines = UNDERIVABLE[mutation]
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    mutate(raw)
    path = tmp_path / "underivable.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "--catalog", str(path), command, "--family", str(family))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
    assert code == 1
    assert out.splitlines() == [*lines, f"verify-tables: {len(lines)} mismatch(es)"]


def _other_index_one_splits(entry):
    """The degrees (d1, d2), d1 <= d2, of every other index-one split of a G
    record's weights, each with the a_cube its weights and degrees give."""
    weights = entry["weights"]
    total = sum(weights) - 1
    for d1 in range(1, total // 2 + 1):
        degrees = [d1, total - d1]
        if degrees != sorted(entry["degrees"]):
            yield degrees, rat_str(Fraction(d1 * (total - d1), math.prod(weights)))


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_a_resplit_g_record_is_a_load_error_for_every_command(capsys, tmp_path, family):
    # a strict load accepts the record, whose a_cube is restated; no Member
    # can be derived from it, so every command that reads the family exits 2
    # with the same error, and verify-tables reports it
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    entry = next(obj for obj in raw if obj["id"] == family and obj["kind"] == "G")
    path = tmp_path / "resplit.json"
    splits = list(_other_index_one_splits(entry))
    assert splits
    chosen = ["--family", str(family)]
    for degrees, a_cube in splits:
        entry.update(degrees=degrees, a_cube=a_cube)
        path.write_text(json.dumps(raw))
        load_catalog(str(path))  # the strict load accepts the record
        errors = set()
        for command in (["links", *chosen], ["basket", *chosen], ["analyze", *chosen],
                        ["analyze", *chosen, "--format", "json"]):
            code, out, err = run(capsys, "--catalog", str(path), *command)
            assert (code, out) == (2, ""), (degrees, command)
            assert len(err.splitlines()) == 1 and err.startswith("error: No."), (degrees, command, err)
            errors.add(err)
        assert len(errors) == 1, (degrees, errors)
        code, _, _ = run(capsys, "--catalog", str(path), "verify-tables")
        assert code == 1, degrees


def _gprimes_with_another_b(entry):
    """Gprime records that a strict load accepts (ascending x-weights, Fano
    index one, the true a_cube) and whose distinguished weight is not the
    entry's: b moves to each b' in 1..8 and one x-weight takes up the
    difference."""
    *x, b = entry["weights"]
    for other in range(1, 9):
        for i in range(4):
            xs = x[:i] + [x[i] + b - other] + x[i + 1:]
            if other != b and min(xs) >= 1 and xs == sorted(xs):
                weights = xs + [other]
                yield weights, rat_str(Fraction(entry["degrees"][0], math.prod(weights)))


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_gprime_record_with_another_b_is_a_load_error(capsys, tmp_path, family):
    # a G record and its Gprime record agree on b, the modulus of the cAx
    # point; that is why the extraction weights can be read off the G
    # record's link data
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    entry = next(obj for obj in raw if obj["id"] == family and obj["kind"] == "Gprime")
    path = tmp_path / "another-b.json"
    candidates = list(_gprimes_with_another_b(entry))
    assert candidates
    for weights, a_cube in candidates:
        entry.update(weights=weights, a_cube=a_cube)
        path.write_text(json.dumps(raw))
        load_catalog(str(path))  # the strict load accepts the record
        code, out, err = run(capsys, "--catalog", str(path), "analyze", "--family", str(family))
        assert code == 2, weights
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: No.{family}: "), err


@pytest.mark.parametrize("kind", ["G", "Gprime"])
@pytest.mark.parametrize("family", FAMILY_IDS)
def test_one_changed_subfamily_tag_is_a_load_error(capsys, tmp_path, family, kind):
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    entry = next(obj for obj in raw if obj["id"] == family and obj["kind"] == kind)
    entry["subfamily"] = "I''4" if entry["subfamily"] == "I'2" else "I'2"
    path = tmp_path / "tag.json"
    path.write_text(json.dumps(raw))
    chosen = ["--family", str(family)]
    for command in (["verify-tables"], ["analyze", *chosen, "--format", "json"], ["analyze", *chosen],
                    ["basket", *chosen], ["links", *chosen]):
        code, out, err = run(capsys, "--catalog", str(path), *command)
        assert code == 2, command
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: catalog entry #")
        assert f"of family {family} (" in err and "stated by its other record" in err


def test_verify_tables_reports_a_g19_record_of_wrong_index(capsys, tmp_path):
    # family 19's G record feeds the G a_cube check, whose (-K)^3 the blowup
    # tower reuses; the error stops the family's checks there, and the
    # entries that the later checks would have taken are named
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    next(obj for obj in raw if obj["id"] == 19 and obj["kind"] == "G")["degrees"][0] += 1
    path = tmp_path / "g19.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
    assert code == 1
    assert out.splitlines() == [
        "family 19: record No.19/G: not anticanonically embedded of index 1 (sum weights - sum degrees = 0)",
        *_stopped(19, "tower_cube[19]", "isolation[19]", "curve_witness[19]"),
        "verify-tables: 4 mismatch(es)"]


def test_verify_tables_keeps_the_mismatches_found_before_a_later_step_raises(capsys, tmp_path):
    # the a_cube mismatch is found before the G record's index check raises
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    next(obj for obj in raw if obj["id"] == 17 and obj["kind"] == "Gprime")["a_cube"] = "2"
    next(obj for obj in raw if obj["id"] == 17 and obj["kind"] == "G")["degrees"] = [7, 8]
    path = tmp_path / "g17.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
    assert code == 1
    assert out.splitlines() == [
        "family 17: catalog a_cube 2 != computed 1",
        "family 17: record No.17/G: not anticanonically embedded of index 1 (sum weights - sum degrees = 0)",
        *_stopped(17, "cycle_witness[17]"),
        "verify-tables: 3 mismatch(es)"]


def _swap_first_unequal_g_weight(raw, family):
    # weights[0] trades places with the first weight unequal to it
    w = next(obj for obj in raw if obj["id"] == family and obj["kind"] == "G")["weights"]
    j = next(j for j, a in enumerate(w) if a != w[0])
    w[0], w[j] = w[j], w[0]


@pytest.mark.parametrize("command", ["analyze", "basket", "links"])
@pytest.mark.parametrize("family", FAMILY_IDS)
def test_unordered_g_weights_are_a_load_error(capsys, tmp_path, family, command):
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    _swap_first_unequal_g_weight(raw, family)
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(raw))
    code, out, err = run(capsys, "--catalog", str(path), command, "--family", str(family))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: catalog entry #")
    assert f"'weights' of family {family} (G) must be ascending" in err
    # verify-tables loads non-strictly and reports the swap as a mismatch
    code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
    assert code == 1
    assert out.splitlines()[-1].endswith("mismatch(es)")


def _perfbench_mutations(monkeypatch):
    """perfbench/mutations.py, loaded read-only by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "mutations.py"
    spec = importlib.util.spec_from_file_location("perfbench_mutations", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


def test_mutated_catalogs_keep_the_exit_code_contract(capsys, tmp_path, monkeypatch):
    # the benchmark's seeded single-field mutations, every class five times:
    # no command raises, every exit code is 0, 1 or 2, and verify-tables
    # notices every mutation
    mutations = _perfbench_mutations(monkeypatch)
    with open(default_catalog_path(), encoding="utf-8") as fh:
        entries = json.load(fh)
    path = tmp_path / "mutated.json"
    for k, mutation in enumerate(mutations.generate(entries, seed=11, count=80)):
        path.write_text(mutation.text, encoding="utf-8")
        family = ["--family", str(mutation.family)]
        for command in (["verify-tables"], ["analyze", *family, "--format", "json"],
                        ["basket", *family], ["links", *family]):
            code, _, _ = run(capsys, "--catalog", str(path), *command)
            assert code in (0, 1, 2), (k, mutation.cls, command)
            assert code != 0 or command != ["verify-tables"], (k, mutation.cls)


# JSON values for a drawn mutation: scalars, strings the catalog uses, and
# nested lists and objects of them, so that near misses of every field occur
CATALOG_WORDS = ("G", "Gprime", "I'2", "I''2", "I'4", "I''4", "1/2", "1/20", "0/1", "cAx/2",
                 "1/2(1,1,1)", "p4", "p2p4", "none", "QI", "EI", "II", "link", "", "type", "count",
                 "locus", "point", "tag", "condition")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6) | st.sampled_from(CATALOG_WORDS),
    lambda inner: (st.lists(inner, max_size=7)
                   | st.dictionaries(st.sampled_from(CATALOG_WORDS), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@example(k=0, field="degrees", value=[8, 6])  # family 17's G degrees out of order
@example(k=19, field="basket", value=[  # family 55's Gprime basket reversed
    {"type": "cAx/2", "count": 1, "locus": "p4"}, {"type": "1/2(1,1,1)", "count": 1, "locus": "p2p4"},
    {"type": "1/4(1,1,3)", "count": 1, "locus": "p2"}])
@given(k=st.integers(0, 2 * len(FAMILY_IDS) - 1),
       field=st.sampled_from(("id", "kind", "weights", "degrees", "subfamily", "a_cube", "basket", "links")),
       value=JSON_VALUES)
def test_any_single_field_mutation_keeps_the_exit_code_contract(tmp_path_factory, k, field, value):
    # every command exits 0, 1 or 2 without raising, and verify-tables passes
    # exactly the files that load to the shipped catalog's pairs
    with open(default_catalog_path(), encoding="utf-8") as fh:
        entries = json.load(fh)
    family = entries[k]["id"]
    entries[k][field] = value
    path = tmp_path_factory.getbasetemp() / "single-field-mutation.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    try:
        same = load_catalog(str(path), strict=False).pairs == load_catalog(strict=False).pairs
    except CatalogError:
        same = False
    codes = {}
    for command in (["verify-tables"], ["analyze", "--family", str(family)],
                    ["analyze", "--family", str(family), "--format", "json"],
                    ["links", "--family", str(family)], ["basket", "--family", str(family)]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[" ".join(command)] = code = main(["--catalog", str(path), *command])
        assert code in (0, 1, 2), (command, code)
    assert (codes["verify-tables"] == 0) == same, codes


@pytest.mark.parametrize("family, locus", [(41, "p2p3"), (55, "p2"), (69, "p2"), (77, "p2p3")])
def test_a_basket_point_without_rules_is_an_uncovered_center(capsys, tmp_path, family, locus):
    # the family's link row at `locus` is deleted, so its point has no
    # branch to run
    with open(default_catalog_path(), encoding="utf-8") as fh:
        raw = json.load(fh)
    gprime = next(obj for obj in raw if obj["id"] == family and obj["kind"] == "Gprime")
    gprime["links"] = [row for row in gprime["links"] if row["point"] != locus]
    path = tmp_path / "deleted.json"
    path.write_text(json.dumps(raw))
    load_catalog(str(path))  # the strict load accepts the records
    uncovered = f"uncovered-cases(family {family} has no center at {locus})"
    code, out, err = run(capsys, "--catalog", str(path), "analyze", "--family", str(family))
    assert (code, err) == (0, "")
    assert f"- summary: {uncovered}" in out.splitlines()
    # the point's table row gives the reason in place of empty cells
    (row,) = [line for line in out.splitlines() if line.startswith(f"| {locus} = ")]
    assert row.endswith(f" | uncovered: family {family} has no center at {locus} | uncovered |")
    code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
    assert code == 1
    lines = [f"family {family}: uncovered centers: {uncovered}"]
    if family in (55, 69):  # no infinite-curves branch runs to take the entry
        lines.append(f"family {family}: table infinite_curves[({family}, {locus!r})] unchecked: "
                     f"no infinite-curves certificate ran")
    assert out.splitlines() == [*lines, f"verify-tables: {len(lines)} mismatch(es)"]


# family: the stray row's locus, and the link column that runs
STRAY_ROWS = {29: ("p1", [("p2p4", "none", ""), ("p4", "link", "")]), 17: ("p3", [("p4", "link", "")])}


def test_a_link_row_at_a_point_the_member_lacks_is_a_mismatch(capsys, tmp_path):
    # the member has no point at the row's locus, so the row runs at no
    # center: the report names it uncovered, and the link column read off
    # the report lacks it
    for family, (locus, ran) in STRAY_ROWS.items():
        with open(default_catalog_path(), encoding="utf-8") as fh:
            raw = json.load(fh)
        gprime = next(obj for obj in raw if obj["id"] == family and obj["kind"] == "Gprime")
        gprime["links"].insert(1, {"point": locus, "tag": "none", "condition": "", "method": "surface-pair"})
        path = tmp_path / "stray.json"
        path.write_text(json.dumps(raw))
        uncovered = f"uncovered-cases(family {family} link row at {locus}: the member has no point there)"
        code, out, err = run(capsys, "--catalog", str(path), "analyze", "--family", str(family))
        assert (code, err) == (0, "")
        assert f"- summary: {uncovered}" in out.splitlines()
        code, out, _ = run(capsys, "--catalog", str(path), "analyze", "--family", str(family), "--format", "json")
        assert (code, json.loads(out)["birigid_summary"]) == (0, uncovered)
        code, out, _ = run(capsys, "--catalog", str(path), "verify-tables")
        stated = [*ran[:1], (locus, "none", ""), *ran[1:]]
        assert (code, out.splitlines()) == (1, [
            f"family {family}: link column computed {ran} != catalog {stated}",
            f"family {family}: uncovered centers: {uncovered}",
            "verify-tables: 2 mismatch(es)"])
