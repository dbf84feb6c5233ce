"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage or load error,
141 (128 + SIGPIPE) when the reader of stdout has gone.
The catalog path comes from --catalog, else it is the file shipped with the
package.
"""

from __future__ import annotations

import os
import re
import sys
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .catalog import CatalogError, load_catalog
from .report import build_report, render_json, render_markdown, verify_tables
from .wps import rat_str, wps_str


def cmd_analyze(args) -> int:
    report = build_report(load_catalog(args.catalog).member(args.family))
    if args.format == "json":
        print(_json_text(render_json(report)))
    else:
        print(render_markdown(report))
    return 0


def _json_text(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for the values that
    `render_json` builds: str, int, bool, None, lists, and dicts with str
    keys.  TypeError on a value of any other type, a subclass of these
    included, so a new field type fails instead of printing other bytes.
    On Python 3.11 `json.dumps` leaves its C encoder whenever `indent` is
    set; `_quote` is the C string encoder it keeps."""
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


def _write_json(value, out: list[str], pad: str) -> None:
    """Append the text of `value` to `out`; `pad` is the newline and indent
    before the value's closing bracket."""
    cls = value.__class__
    if cls is str:
        out.append(_quote(value))
    elif cls is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):  # TypeError on keys of mixed types; _quote's on a key not a str
            out.append(sep + _quote(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif cls is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif cls is int:
        out.append(int.__repr__(value))
    elif cls is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {cls.__name__} is not written as JSON")


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
    member = load_catalog(args.catalog).member(args.family)
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
    member = load_catalog(args.catalog).member(args.family)
    gp = member.gprime
    print(f"No.{args.family}: X'_{gp.degrees[0]} in {wps_str(gp.weights)}, "
          f"A^3 = {rat_str(member.a_cube)}")
    for type_str, count, locus in member.basket:
        prefix = f"{count} x " if count > 1 else ""
        print(f"  {locus} = {prefix}{type_str}")
    return 0


# command: (help line, {option: (conversion, default)}); a conversion is a
# function or the tuple of the values allowed, and a default of None marks a
# required option.  The table holds no public function (see main).
COMMANDS = {
    "analyze": ("full per-family report", {"--family": (int, None), "--format": (("md", "json"), "md")}),
    "verify-tables": ("recompute everything and diff against golden data", {}),
    "links": ("standard form and counterpart of one family", {"--family": (int, None)}),
    "basket": ("singular locus of the hypersurface member", {"--family": (int, None)}),
}
USAGE = f"fano-wci [-h] [--catalog CATALOG] {{{','.join(COMMANDS)}}} ..."
# argparse's values, unless one names an option: no leading "-", "-" alone, a negative number, or a space
_VALUE = re.compile(r"(?!-)|-\Z|-\d+$|-\d*\.\d+$|[^ ]* ")


def _help() -> str:
    lines = [f"usage: {USAGE}", "", "Catalog analysis of Q-Fano weighted complete intersections", "",
             "CATALOG is a catalog JSON file, by default the one shipped with the package.", "", "commands:"]
    for command, (line, options) in COMMANDS.items():
        words = [f"{o} {m}" if d is None else f"[{o} {m}]" for o, (c, d) in options.items()
                 for m in ["{" + ",".join(c) + "}" if isinstance(c, tuple) else o[2:].upper()]]
        lines += [f"  {' '.join([command, *words])}", f"      {line}"]
    return "\n".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace:
    """`[--catalog PATH] COMMAND [OPTIONS]`, read as argparse read it; help and errors raise SystemExit."""
    def fail(reason: str):
        sys.stderr.write(f"usage: {USAGE}\nfano-wci: error: {reason}\n")
        raise SystemExit(2)
    parsed, options, command, extras = {"catalog": None}, {"--catalog": (str, None)}, None, []
    for arg in (args := iter(argv)):
        # an option, by its name or a unique prefix, and its value after "="
        head, sep, inline = arg.partition("=")
        found = [name for name in ("--help", *options) if name.startswith(head)] if arg[:2] == "--" != arg else []
        if len(found) > 1:
            fail(f"ambiguous option: {arg} could match {', '.join(found)}")
        name, inline = (found[0], inline if sep else None) if found else (arg, None)
        if name in ("-h", "--help") and inline is None:  # --help=x is unrecognized
            print(_help())
            raise SystemExit(0)
        elif name in options:
            value = next(args, "--") if inline is None else inline  # none left reads as "--", no value
            if inline is None and not _VALUE.match(value):
                fail(f"argument {name}: expected one argument")
            convert = options[name][0]
            if isinstance(convert, tuple) and value not in convert:
                fail(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, convert))})")
            try:
                parsed[name[2:]] = value if isinstance(convert, tuple) else convert(value)
            except ValueError:
                fail(f"argument {name}: invalid {convert.__name__} value: {value!r}")
        elif command or not _VALUE.match(arg):
            extras += [arg, *args] if arg == "--" else [arg]  # all after "--" are positionals
        elif arg in COMMANDS:
            command, options = arg, COMMANDS[arg][1]
            parsed.update((option[2:], default) for option, (_, default) in options.items())
        else:
            fail(f"argument command: invalid choice: {arg!r} (choose from {', '.join(map(repr, COMMANDS))})")
    missing = [option for option in options if parsed[option[2:]] is None] if command else ["command"]
    if missing or extras:
        fail(f"the following arguments are required: {', '.join(missing)}" if missing
             else f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **parsed)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        # looked up at call time, so a rebound cmd_* (a wrapper) is what runs
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
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
