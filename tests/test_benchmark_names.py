"""The per-layer names that BENCHMARK.json lists name code that exists: a
traced benchmark run raises `no measurement` for a name no call produces, so
a renamed certificate method or a deleted listed function fails here first.
The traced run's three checks after its ops (every listed name has a span,
no call bypasses the span wrappers, the import probe sees every traced
module) run here too, each in a fresh interpreter with perfbench's own code.
The file and perfbench/ are only read."""

import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from fano_wci.report import build_report

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
DISPATCH = "exclusion.dispatch."


def listed_calls() -> list[str]:
    """The `<module>.<function>` of every per-layer `.calls` name."""
    with open(SPEC, encoding="utf-8") as fh:
        names = [entry["name"] for entry in json.load(fh)["per_layer"]]
    return [name.removesuffix(".calls") for name in names if name.endswith(".calls")]


def test_every_listed_function_is_public_in_its_module():
    functions = [name for name in listed_calls() if not name.startswith(DISPATCH)]
    assert functions
    for name in functions:
        module_name, function = name.split(".")
        fn = getattr(importlib.import_module(f"fano_wci.{module_name}"), function, None)
        assert not function.startswith("_") and isinstance(fn, types.FunctionType), name
        assert fn.__module__ == f"fano_wci.{module_name}", name


def test_the_listed_dispatch_methods_are_the_methods_of_the_shipped_reports(catalog):
    listed = {name.removeprefix(DISPATCH) for name in listed_calls() if name.startswith(DISPATCH)}
    ran = {br.verdict.method for fid in catalog.ids()
           for cr in build_report(catalog.member(fid)).centers for br in cr.branches}
    assert len(catalog.ids()) == 14
    assert listed == ran and len(ran) == 9


def run_python(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter at the repository root, which
    imports fano_wci from the checkout's src."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


# every command of the benchmark's mix for every family, then one
# verify-tables, under perfbench's span wrappers on a fresh import: the
# rounds that first touch a family, where the member's derivation runs
SPANS_OF_THE_MIX = """
import json, sys
sys.path.insert(0, "perfbench")
import run, spans
cli = run.fresh_import()
ids = cli.load_catalog().ids()
recorder = spans.Recorder()
spans.install(recorder)
ops = [(command, fid) for fid in ids for command in ("analyze-md", "analyze-json", "links", "basket")]
for command, fid in ops + [("verify-tables", 0)]:
    call = run.invoke(cli.main, command, run.cli_argv(command, fid))
    assert (call.code, call.crash) == (0, ""), (command, fid, call.err)
print(json.dumps([len(ids), sorted({span.name for span in recorder.spans})]))
"""


def test_every_listed_name_has_a_span_in_the_first_round_of_each_family():
    done = run_python("-c", SPANS_OF_THE_MIX)
    assert done.returncode == 0, done.stderr
    families, names = json.loads(done.stdout)
    listed = listed_calls()
    assert families == 14 and len(listed) == 28
    assert [name for name in listed if name not in names] == []


def test_the_binding_check_sees_every_call_through_a_wrapper():
    # the benchmark's binding check, which every tier-1 run (each CI matrix
    # leg) runs here: it raises on a call that the profiler sees and no
    # wrapper does, and returns the verify-tables op's family_support calls,
    # one per family
    done = run_python("-c", "import sys; sys.path.insert(0, 'perfbench'); import run; "
                            "run.fresh_import(); print(run.binding_check())")
    assert (done.returncode, done.stdout) == (0, "14\n"), done.stderr


def test_the_import_probe_sees_the_package_and_every_traced_module():
    location = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(location)
    location.loader.exec_module(spans)
    done = run_python("-X", "importtime", "-c", "import fano_wci.cli")
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert len(spans.MODULES) == 8
    assert {"fano_wci", *[f"fano_wci.{module}" for module in spans.MODULES]} <= imported
