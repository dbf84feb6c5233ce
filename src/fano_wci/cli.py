"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage or load error,
141 (128 + SIGPIPE) when the reader of stdout has gone.
The catalog path comes from --catalog, else it is the file shipped with the
package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .catalog import CatalogError, load_catalog
from .report import build_report, render_json, render_markdown, verify_tables
from .wps import rat_str, wps_str


def cmd_analyze(args) -> int:
    catalog = load_catalog(args.catalog)
    report = build_report(catalog, args.family)
    if args.format == "json":
        print(json.dumps(render_json(report), indent=2, sort_keys=True))
    else:
        print(render_markdown(report))
    return 0


def cmd_verify_tables(args) -> int:
    catalog = load_catalog(args.catalog, strict=False)
    diffs = verify_tables(catalog)
    if diffs:
        for line in diffs:
            print(line)
        print(f"verify-tables: {len(diffs)} mismatch(es)")
        return 1
    print(f"verify-tables: all {len(catalog.ids())} families match the golden tables")
    return 0


def cmd_links(args) -> int:
    catalog = load_catalog(args.catalog)
    member = catalog.member(args.family)
    g, gp, shape = member.g, member.gprime, member.shape
    d1, d2 = g.degrees
    print(f"No.{args.family}: X_{{{d1},{d2}}} in {wps_str(g.weights)}")
    # the Gprime record is the G record's counterpart and its form the G
    # record's form, as in report.render_markdown
    print(f"standard form (a0..a5) = {shape.role_weights}, b = {shape.b}")
    print(f"counterpart: X'_{gp.degrees[0]} in {wps_str(gp.weights)} [{shape.shape_name}]")
    print(f"midpoint hypersurface degree: {shape.z_degree}")
    return 0


def cmd_basket(args) -> int:
    catalog = load_catalog(args.catalog)
    member = catalog.member(args.family)
    gp = member.gprime
    print(f"No.{args.family}: X'_{gp.degrees[0]} in {wps_str(gp.weights)}, "
          f"A^3 = {rat_str(member.a_cube)}")
    for type_str, count, locus in member.basket:
        prefix = f"{count} x " if count > 1 else ""
        print(f"  {locus} = {prefix}{type_str}")
    return 0


def make_parser() -> argparse.ArgumentParser:
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


PARSER = make_parser()


def main(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)
    # looked up at call time, so a rebound cmd_* (a wrapper) is what runs
    commands = {"analyze": cmd_analyze, "verify-tables": cmd_verify_tables,
                "links": cmd_links, "basket": cmd_basket}
    try:
        code = commands[args.command](args)
        sys.stdout.flush()
        return code
    except (CatalogError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader has gone: fd 1 now writes to devnull, so the
        # interpreter's flush of what is left at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
