"""Output snapshot: sha256 of (exit code, stdout) for every CLI command and
family, checked in as `output_digests.json`.

The digests were recorded before the per-load `Member` refactor, so a change
that alters any byte of output fails here by name.  To re-record after an
intended output change:

    PYTHONPATH=src python tests/test_snapshot.py > tests/output_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from fano_wci.catalog import FAMILY_IDS
from fano_wci.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")


def argvs() -> list[list[str]]:
    out = [["verify-tables"]]
    for fid in FAMILY_IDS:
        family = ["--family", str(fid)]
        out += [["analyze", *family, "--format", "md"], ["analyze", *family, "--format", "json"],
                ["links", *family], ["basket", *family]]
    return out


def digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest()


def record() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in argvs()}


def test_output_matches_recorded_digests():
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == 57
    got = record()
    assert got.keys() == expected.keys()
    changed = [argv for argv in expected if got[argv] != expected[argv]]
    assert not changed, f"output changed for: {changed}"


def test_fresh_processes_match_recorded_digests():
    # the test above runs every command in one process, so only its first
    # load parses the catalog; here each command is a new interpreter whose
    # one load runs every check
    expected = json.loads(DIGESTS.read_text())
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    family = ["--family", "50"]
    for argv in (["verify-tables"], ["analyze", *family, "--format", "md"],
                 ["analyze", *family, "--format", "json"], ["links", *family], ["basket", *family]):
        done = subprocess.run([sys.executable, "-m", "fano_wci.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        got = hashlib.sha256(f"{done.returncode}\n{done.stdout}".encode()).hexdigest()
        assert got == expected[" ".join(argv)], (argv, done.stderr)


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    print()
