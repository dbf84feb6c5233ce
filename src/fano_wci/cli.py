"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage or load error.
The catalog path comes from --catalog, else it is the file shipped with the
package.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import Catalog, CatalogError, load_catalog
from .report import build_report, render_json, render_markdown, verify_tables
from .wps import rat_str, wps_str


def _require_family(catalog: Catalog, family_id: int):
    if family_id not in catalog.ids():
        raise CatalogError(f"unknown family id {family_id}; catalog has {catalog.ids()}")


def cmd_analyze(args) -> int:
    catalog = load_catalog(args.catalog)
    _require_family(catalog, args.family)
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
    _require_family(catalog, args.family)
    member = catalog.member(args.family)
    g, ld = member.g, member.link_data
    d1, d2 = g.degrees
    print(f"No.{args.family}: X_{{{d1},{d2}}} in {wps_str(g.weights)}")
    # the Gprime form's role weights are the G form's: derive_member accepts
    # the pair only when the Gprime record lifts to the G record's six
    # weights and (d1, d2) and solves to the same stated shape
    print(f"standard form (a0..a5) = {member.shape.role_weights}, b = {ld.b}")
    print(f"counterpart: X'_{ld.xprime_degree} in {wps_str(ld.display_weights())} [{ld.equation_shape}]")
    print(f"midpoint hypersurface degree: {ld.z_degree}")
    return 0


def cmd_basket(args) -> int:
    catalog = load_catalog(args.catalog)
    _require_family(catalog, args.family)
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
        return commands[args.command](args)
    except (CatalogError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
