"""The per-layer names that BENCHMARK.json lists name code that exists: a
traced benchmark run raises `no measurement` for a name no call produces, so
a renamed certificate method or a deleted listed function fails here first.
The file is only read."""

import importlib
import json
import types
from pathlib import Path

from fano_wci.report import build_report

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
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
