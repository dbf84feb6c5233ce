"""Error-path snapshot: sha256 of (exit code, stdout, stderr) for every CLI
command on the benchmark's seeded single-field catalog mutations, checked in
as `mutation_digests.json`.

`test_snapshot.py` pins the output on the shipped catalog; this file pins the
load errors, derivation errors and verification diffs that the 80 mutations
of seed 11 reach, so a rewrite of the validation path that changes any error
text or the order of the checks fails here by name.  The catalog path is
replaced by a fixed placeholder before hashing.  To re-record after an
intended output change:

    PYTHONPATH=src python tests/test_mutation_snapshot.py > tests/mutation_digests.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from fano_wci.catalog import ENV_CATALOG, default_catalog_path
from fano_wci.cli import main

DIGESTS = Path(__file__).with_name("mutation_digests.json")
MUTATIONS = Path(__file__).resolve().parents[1] / "perfbench" / "mutations.py"
SEED, COUNT = 11, 80


def load_mutations():
    """perfbench/mutations.py, loaded read-only by path."""
    spec = importlib.util.spec_from_file_location("perfbench_mutations", MUTATIONS)
    module = importlib.util.module_from_spec(spec)
    previous = sys.modules.get(spec.name)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    try:
        spec.loader.exec_module(module)
    finally:
        if previous is None:
            del sys.modules[spec.name]
        else:
            sys.modules[spec.name] = previous
    return module


def commands(family: int) -> dict[str, list[str]]:
    fam = ["--family", str(family)]
    return {"verify-tables": ["verify-tables"], "analyze-md": ["analyze", *fam, "--format", "md"],
            "analyze-json": ["analyze", *fam, "--format", "json"], "links": ["links", *fam],
            "basket": ["basket", *fam]}


def digest(path: str, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--catalog", path, *argv])
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(path, "<catalog>")
    return hashlib.sha256(text.encode()).hexdigest()


def record(directory: str) -> dict[str, str]:
    with open(default_catalog_path(), encoding="utf-8") as fh:
        entries = json.load(fh)
    path = os.path.join(directory, "mutated.json")
    got = {}
    for k, mutation in enumerate(load_mutations().generate(entries, seed=SEED, count=COUNT)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mutation.text)
        for name, argv in commands(mutation.family).items():
            got[f"#{k} {mutation.cls} No.{mutation.family} {name}"] = digest(path, argv)
    return got


def test_mutated_catalog_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == 5 * COUNT
    got = record(str(tmp_path))
    assert got.keys() == expected.keys()
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"output changed for: {changed}"


if __name__ == "__main__":
    os.environ.pop(ENV_CATALOG, None)
    with tempfile.TemporaryDirectory() as directory:
        json.dump(record(directory), sys.stdout, indent=1)
    print()
