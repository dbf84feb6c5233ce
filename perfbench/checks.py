"""Per-op output checks.

Expected values come from the catalog file's own entries, parsed here with
`json`; nothing is computed through the package under test.  Each check
returns a description of the first problem found, or None.
"""

from __future__ import annotations

import json


class Reference:
    """The G and Gprime entries of a catalog file, by family id."""

    def __init__(self, entries: list[dict]):
        self.g = {e["id"]: e for e in entries if e["kind"] == "G"}
        self.gprime = {e["id"]: e for e in entries if e["kind"] == "Gprime"}


def _wps(weights) -> str:
    return "P(" + ",".join(str(a) for a in weights) + ")"


def _g_line(g: dict) -> str:
    d1, d2 = g["degrees"]
    return f"X_{{{d1},{d2}}} in {_wps(g['weights'])}"


def _gprime_line(gp: dict) -> str:
    return f"X'_{gp['degrees'][0]} in {_wps(gp['weights'])}, A^3 = {gp['a_cube']}"


def _basket_tuples(basket) -> list[tuple]:
    return sorted((b["type"], b["count"], b["locus"]) for b in basket)


def check_verify_tables(ref: Reference, family, out: str) -> str | None:
    want = f"verify-tables: all {len(ref.g)} families match the golden tables\n"
    return None if out == want else f"expected {want!r}, got {out[-200:]!r}"


def check_analyze_json(ref: Reference, family: int, out: str) -> str | None:
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    g, gp = ref.g[family], ref.gprime[family]
    expected = {
        "family": family,
        "a_cube": gp["a_cube"],
        "g_weights": g["weights"],
        "g_degrees": g["degrees"],
        "golden_record": gp,
        "birigid_summary": "all-centers-resolved",
    }
    for key, want in expected.items():
        if payload.get(key) != want:
            return f"{key}: expected {want!r}, got {payload.get(key)!r}"
    if payload["link"]["xprime_weights"] != gp["weights"]:
        return f"counterpart weights {payload['link']['xprime_weights']} != {gp['weights']}"
    if _basket_tuples(payload["basket"]) != _basket_tuples(gp["basket"]):
        return f"basket {payload['basket']} != {gp['basket']}"
    return None


def check_analyze_md(ref: Reference, family: int, out: str) -> str | None:
    g, gp = ref.g[family], ref.gprime[family]
    lines = out.splitlines()
    for want in (f"# Family No.{family}", f"- G:  {_g_line(g)}", f"- G': {_gprime_line(gp)}",
                 "- summary: all-centers-resolved"):
        if want not in lines:
            return f"missing line {want!r}"
    rows = {}
    for line in lines:
        if line.startswith("| p"):
            center, _, tags, _ = (cell.strip() for cell in line[1:].split("|"))
            rows[center] = sorted(tags.split("; "))
    link_to = f"link to {_g_line(g).split(' in ')[0]} in G_{family}"
    expected = {}
    for b in gp["basket"]:
        tags = [link_to if link["tag"] == "link" else link["tag"]
                for link in gp["links"] if link["point"] == b["locus"]]
        expected[f"{b['locus']} = {b['type']}"] = sorted(tags)
    return None if rows == expected else f"center rows {rows} != {expected}"


def check_basket(ref: Reference, family: int, out: str) -> str | None:
    gp = ref.gprime[family]
    lines = out.splitlines()
    head = f"No.{family}: {_gprime_line(gp)}"
    if not lines or lines[0] != head:
        return f"expected first line {head!r}, got {lines[:1]!r}"
    want = []
    for b in gp["basket"]:
        prefix = f"{b['count']} x " if b["count"] > 1 else ""
        want.append(f"  {b['locus']} = {prefix}{b['type']}")
    return None if sorted(lines[1:]) == sorted(want) else f"basket lines {lines[1:]} != {want}"


def check_links(ref: Reference, family: int, out: str) -> str | None:
    g, gp = ref.g[family], ref.gprime[family]
    shape = "I'-shape" if gp["subfamily"] in ("I'2", "I'4") else "I''-shape"
    lines = out.splitlines()
    if len(lines) != 4:
        return f"expected 4 lines, got {len(lines)}"
    if lines[0] != f"No.{family}: {_g_line(g)}":
        return f"bad first line {lines[0]!r}"
    if not (lines[1].startswith("standard form (a0..a5) = (") and lines[1].endswith(f", b = {gp['weights'][-1]}")):
        return f"bad standard-form line {lines[1]!r}"
    want = f"counterpart: X'_{gp['degrees'][0]} in {_wps(gp['weights'])} [{shape}]"
    if lines[2] != want:
        return f"expected {want!r}, got {lines[2]!r}"
    if not lines[3].startswith("midpoint hypersurface degree: "):
        return f"bad midpoint line {lines[3]!r}"
    return None


CHECKS = {
    "verify-tables": check_verify_tables,
    "analyze-md": check_analyze_md,
    "analyze-json": check_analyze_json,
    "links": check_links,
    "basket": check_basket,
}


def check_exit_contract(command: str, code: int, out: str, err: str) -> str | None:
    """The documented exit-code contract, for ops on a mutated catalog whose
    right answer is not known: 0 success, 1 verification mismatch (verify-tables
    only, with its summary line), 2 load or usage error (with an error line)."""
    if code == 2:
        return None if err.startswith("error: ") or "usage:" in err else f"exit 2 without an error line: {err[:200]!r}"
    if code == 1:
        if command != "verify-tables":
            return f"{command} exited 1"
        lines = out.splitlines()
        summary = f"verify-tables: {len(lines) - 1} mismatch(es)"
        return None if lines and lines[-1] == summary else f"exit 1 without {summary!r}"
    if code == 0:
        if command == "verify-tables":
            return None if out.startswith("verify-tables: all ") else f"exit 0 without the match line: {out[:200]!r}"
        try:
            json.loads(out)
        except json.JSONDecodeError as exc:
            return f"exit 0 without JSON output: {exc}"
        return None
    return f"exit code {code} is outside 0, 1, 2"
