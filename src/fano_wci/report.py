"""Per-family analysis reports, every per-family view that the CLI prints
(markdown, the JSON object and its text, links, basket), and the
golden-table verification engine.

`GOLDEN` maps each table of classification numbers (blowup signs, family
19's blowup tower, certificate witnesses, restriction-curve supports,
isolation bounds) to its entries, and `WITNESSES` names the table of each
certificate method's witness.  `verify_tables` recomputes every entry from
weights and degrees alone and reports any difference.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import blowup, exclusion, links, singularities
from .catalog import BASKET_KEYS, LINK_KEYS, Catalog, FamilyPair, FamilyRecord, LinkRow, Member
from .exclusion import Center, Certificate, NegDefMatrix, Verdict
from .wps import MonomialSupport, rat_str, record, wps_str

F = Fraction


# the golden tables, keyed by family or by (family, locus)
GOLDEN = {
    "b_cube_signs": {
        (23, "p2p4"): -1, (29, "p2p4"): 0, (30, "p2"): 1, (42, "p2p4"): -1,
        (49, "p2p4"): -1, (50, "p1p4"): -1, (50, "p2"): -1, (55, "p2"): 1,
        (55, "p2p4"): -1, (69, "p2"): 1, (74, "p1p4"): -1, (74, "p2p3"): -1,
        (77, "p2p3"): 0, (77, "p2p4"): -1, (82, "p1p4"): -1, (82, "p2"): 0,
    },
    "tower_cube": {19: F(-1, 12)},
    "nef_witness": {50: F(-3, 20), 74: F(-1, 4), 82: F(-1, 4)},
    "matrices": {
        (50, "p1p4"): (F(1, 4), F(-2, 5), F(1)),
        (50, "p2"): (F(-1, 10), F(1, 60), F(1, 2)),
    },
    "infinite_curves": {
        (23, "p2p4"): (F(0), F(3)), (30, "p2"): (F(0), F(2)),
        (55, "p2"): (F(0), F(2)), (69, "p2"): (F(0), F(2)),
    },
    "isolation": {42: (10, F(40, 3)), 19: (6, F(6)), 50: (20, F(240, 7)), 23: (6, F(48, 5))},
    "curve_witness": {19: F(-1, 2), 23: F(-1, 4)},
    "cycle_witness": {17: F(1, 2)},
    "gamma_rows": {
        23: frozenset({(3, 0, 1), (0, 2, 1), (2, 2, 0)}),
        29: frozenset({(2, 0, 3), (3, 0, 2), (4, 0, 1), (5, 0, 0), (0, 2, 0)}),
        42: frozenset({(2, 0, 2), (0, 2, 1), (3, 0, 0)}),
        49: frozenset({(5, 0, 1), (7, 0, 0), (0, 2, 0)}),
        50: frozenset({(2, 0, 2), (0, 2, 1), (3, 1, 0)}),
        55: frozenset({(2, 0, 3), (3, 0, 1), (0, 2, 0)}),
        74: frozenset({(2, 0, 3), (6, 0, 0), (3, 1, 0), (0, 2, 0)}),
        77: frozenset({(2, 0, 3), (3, 0, 0), (0, 2, 0)}),
        82: frozenset({(2, 0, 3), (0, 2, 0)}),
    },
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@record
class BranchResult:
    row: LinkRow  # the branch that ran: a link row, or a curve's or the nonsingular point's SINGLE_BRANCH row
    certificate: Certificate
    verdict: Verdict


@record
class CenterReport:
    center: Center
    branches: tuple[BranchResult, ...]  # the branches that ran
    uncovered: tuple[str, ...]  # one reason per branch that did not run or did not resolve


@record
class Report:
    member: Member
    centers: tuple[CenterReport, ...]
    unplaced: tuple[str, ...]  # one reason per locus of link rows where the member has no point

    @property
    def uncovered(self) -> tuple[str, ...]:
        return (*[reason for cr in self.centers for reason in cr.uncovered], *self.unplaced)

    @property
    def birigid_summary(self) -> str:
        return "all-centers-resolved" if not self.uncovered else f"uncovered-cases({', '.join(self.uncovered)})"


def build_report(member: Member) -> Report:
    """Every center of `member`, a family's general member or a stratum of
    it, with one result per branch of its plan (`Member.plan`), each run
    with its condition and tag.  A point without rows is a center the family
    lacks, and each locus of link rows where the member has no point is
    uncovered once.  Every certificate, verdict and result is built anew."""
    plan = member.plan
    centers: list[CenterReport] = []
    for center, branches in plan.centers:
        results, uncovered = [], []
        if not branches:
            uncovered.append(f"family {member.g.id} has no center at {center.locus}")
        for row in branches:
            try:
                cert, verdict = exclusion.dispatch(member, center, row)
            except exclusion.UncoveredCaseError as exc:
                uncovered.append(str(exc))
                continue
            results.append(BranchResult(row, cert, verdict))
            if not verdict.resolved:
                uncovered.append(f"{center.describe()} [{row.condition or 'unconditional'}]")
        centers.append(CenterReport(center, tuple(results), tuple(uncovered)))
    return Report(member=member, centers=tuple(centers), unplaced=tuple(
        [f"family {member.g.id} link row at {at}: the member has no point there" for at in plan.unplaced]))


def _describe_branch(br: BranchResult) -> str:
    v = br.verdict
    body = v.method
    if v.witness is not None:
        body += f" (witness {rat_str(v.witness)})"
    if br.row.condition:
        body += f" [{br.row.condition}]"
    return body


# The renderers read the link off the Gprime record, its form and cAx point:
# derive_member accepts it only as the G record's counterpart, whose form has
# the G form's role weights and degrees, hence its b, Z degree and extractions.
def render_markdown(report: Report) -> str:
    member = report.member
    g, gp, shape, cax = member.g, member.gprime, member.shape, member.cax
    d1, d2 = g.degrees
    lines = [
        f"# Family No.{g.id}",
        "",
        f"- G:  X_{{{d1},{d2}}} in {wps_str(g.weights)}",
        f"- G': X'_{gp.degrees[0]} in {wps_str(gp.weights)}, A^3 = {rat_str(member.a_cube)}",
        f"- link: b = {shape.b}, {shape.shape_name}, midpoint Z_{shape.z_degree},"
        f" extractions at cAx/{cax.modulus}: {cax.extraction_count}",
        "",
        "| center | method | link |",
        "|---|---|---|",
    ]
    link = f"link to X_{{{d1},{d2}}} in G_{g.id}"
    for cr in report.centers:
        if not cr.center.is_point:
            continue
        if not cr.branches:  # every branch failed to dispatch
            lines.append(f"| {cr.center.describe()} | uncovered: {'; '.join(cr.uncovered)} | uncovered |")
            continue
        methods = "; ".join(_describe_branch(br) for br in cr.branches)
        tags = "; ".join(link if br.row.tag == "link" else br.row.tag for br in cr.branches)
        lines.append(f"| {cr.center.describe()} | {methods} | {tags} |")
    lines.append("")
    for cr in report.centers:
        if cr.center.is_point:
            continue
        for br in cr.branches:
            lines.append(f"- {cr.center.describe()}: {_describe_branch(br)}")
    lines.append(f"- summary: {report.birigid_summary}")
    lines.append("")
    return "\n".join(lines)


def render_links(member: Member) -> str:
    """The `links` view: the G model, the standard form and the counterpart."""
    g, gp, shape = member.g, member.gprime, member.shape
    d1, d2 = g.degrees
    return "\n".join([f"No.{g.id}: X_{{{d1},{d2}}} in {wps_str(g.weights)}",
                      f"standard form (a0..a5) = {shape.role_weights}, b = {shape.b}",
                      f"counterpart: X'_{gp.degrees[0]} in {wps_str(gp.weights)} [{shape.shape_name}]",
                      f"midpoint hypersurface degree: {shape.z_degree}"])


def render_basket(member: Member) -> str:
    """The `basket` view: the hypersurface member, its (-K)^3 and one line per basket row."""
    gp = member.gprime
    lines = [f"No.{member.g.id}: X'_{gp.degrees[0]} in {wps_str(gp.weights)}, A^3 = {rat_str(member.a_cube)}"]
    for type_str, count, locus in member.basket:
        prefix = f"{count} x " if count > 1 else ""
        lines.append(f"  {locus} = {prefix}{type_str}")
    return "\n".join(lines)


def certificate_json(cert: Certificate) -> dict:
    """A certificate as a JSON object: its method as "paper_method" and one
    key per record field; a NegDefMatrix adds its entries at the parameter
    floor."""
    blob = {"paper_method": cert.method}
    for name in cert.__record_fields__:
        blob[name] = _json_value(getattr(cert, name))
    if isinstance(cert, NegDefMatrix):
        blob["entries"] = _json_value(cert.entries_at(cert.parameter_floor))
    return blob


def _json_value(value):
    """Fractions as "p/q", a support as its sorted exponent lists, a quotient
    point as its type, a section lift as [class_b, class_e], sequences
    element-wise; ints, flags, strings and None as they are."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, MonomialSupport):
        return [list(m) for m in value.sorted()]
    if isinstance(value, singularities.QuotientSingularity):
        return value.type_str()
    if isinstance(value, blowup.SectionLift):
        return [value.class_b, rat_str(value.class_e)]
    return value


def _golden_record_json(pair: FamilyPair) -> dict:
    """The Gprime record as the catalog file states it, `cited` objects too."""
    gp, golden = pair.gprime, pair.golden
    return _with_cited({
        "id": gp.id,
        "kind": "Gprime",
        "weights": list(gp.weights),
        "degrees": list(gp.degrees),
        "subfamily": golden.subfamily,
        "a_cube": rat_str(golden.a_cube),
        "basket": [dict(zip(BASKET_KEYS, row)) for row in golden.basket],
        "links": [_with_cited(dict(zip(LINK_KEYS, row)), row.cited) for row in golden.link_column],
    }, gp.cited)


def _with_cited(blob: dict, cited: frozenset | None) -> dict:
    if cited is not None:
        blob["cited"] = {key: _json_value(value) for key, value in cited}
    return blob


def render_json(report: Report) -> dict:
    member = report.member
    g, gp, shape, cax = member.g, member.gprime, member.shape, member.cax
    return {
        "family": g.id,
        "a_cube": rat_str(member.a_cube),
        "g_weights": list(g.weights),
        "g_degrees": list(g.degrees),
        "link": {
            "b": shape.b,
            "xprime_weights": list(gp.weights),
            "xprime_degree": gp.degrees[0],
            "z_degree": shape.z_degree,
            "equation_shape": shape.shape_name,
            "extraction_count": cax.extraction_count,
            "extraction_weights": [rat_str(x) for x in cax.extraction_weights],
        },
        "basket": [dict(zip(BASKET_KEYS, row)) for row in member.basket],
        "centers": [
            {
                "center": cr.center.describe(),
                "branches": [
                    {
                        "condition": br.row.condition,
                        "tag": br.row.tag,
                        "excluded": br.verdict.excluded,
                        "method": br.verdict.method,
                        "witness": None if br.verdict.witness is None else rat_str(br.verdict.witness),
                        "certificate": certificate_json(br.certificate),
                    }
                    for br in cr.branches
                ],
            }
            for cr in report.centers
        ],
        "birigid_summary": report.birigid_summary,
        "golden_record": _golden_record_json(member),
    }


def json_text(value) -> str:
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


# ---------------------------------------------------------------------------
# Golden-table verification
# ---------------------------------------------------------------------------

def _sign(x: Fraction) -> int:
    return (x.numerator > 0) - (x.numerator < 0)


def _differ(got, want) -> bool:
    """got != want for a computed value and its golden entry, with each
    number, alone or in a tuple, compared as its integer pair (numerator,
    denominator): equal pairs are equal numbers, and no `Fraction.__eq__`
    runs.  A support compares as the frozenset it is."""
    if isinstance(got, frozenset):
        return got != want
    if isinstance(got, tuple):
        return [x.as_integer_ratio() for x in got] != [x.as_integer_ratio() for x in want]
    return got.as_integer_ratio() != want.as_integer_ratio()


# one row per certificate method with a golden witness: its table, whether
# that table is keyed by (family, locus) rather than by family, the label of
# its mismatch line, and the value computed from (certificate, verdict)
WITNESSES = {
    "nef-divisor": ("nef_witness", False, "nef witness", lambda cert, v: v.witness),
    "negdef-matrix": ("matrices", True, "matrix data",
                      lambda cert, v: (cert.alpha, cert.beta, cert.parameter_floor)),
    "infinite-curves": ("infinite_curves", True, "infinite-curves data",
                        lambda cert, v: (cert.b_dot_c, cert.e_dot_c)),
    "isolation": ("isolation", False, "isolation", lambda cert, v: (cert.bound, cert.limit)),
    "curve-gamma": ("curve_witness", False, "curve witness", lambda cert, v: v.witness),
    "curve-cycle": ("cycle_witness", False, "cycle witness", lambda cert, v: v.witness),
    "surface-pair": ("gamma_rows", False, "restriction curve support",
                     lambda cert, v: cert.gamma_support.monomials),
}


# why an entry that no check took is left, by table, when no check stopped at an error
UNTAKEN = {**{table: f"no {method} certificate ran" for method, (table, *_) in WITNESSES.items()},
           "b_cube_signs": "no computed point", "tower_cube": "no cited G points"}


def _witness_str(value) -> str:
    """A witness as its mismatch line prints it: "p/q", "(p/q, ...)", or a
    support's exponent triples as a sorted list."""
    if isinstance(value, frozenset):
        return str(sorted(value))
    if isinstance(value, tuple):
        return f"({', '.join(map(rat_str, value))})"
    return rat_str(value)


def _tower_cube(g: FamilyRecord) -> Fraction | None:
    """(-K)^3 on the blowup tower over the G model at the points 1/r(1, a, r-a) that
    its record cites as `tower` [r, a] pairs (-K is (1, -1/r_1, -1/r_2)), else None."""
    points = [singularities.QuotientSingularity(r, a) for r, a in dict(g.cited or ()).get("tower", ())]
    if not points:
        return None
    k = (1, *[F(-1, q.r) for q in points])
    return blowup.triple(blowup.BlowupRing.kawamata_tower(g.a_cube(), points), k, k, k)


def verify_family(catalog: Catalog, family_id: int, golden: dict) -> list[str]:
    """All mismatches between recomputed quantities and the family's golden
    entries `golden` ((table, key) -> value); empty when everything agrees.
    Each check pops its own entries out of `golden`; each entry left is an
    unchecked line, and each check that finds no entry a `has no entry` line."""
    diffs: list[str] = []

    def diff(msg: str) -> None:
        diffs.append(f"family {family_id}: {msg}")

    why = UNTAKEN
    try:
        pair = catalog.pair(family_id)
        g, gp = pair.g, pair.gprime

        # degrees of the anticanonical models
        if _differ(a_cube := gp.a_cube(), pair.golden.a_cube):
            diff(f"catalog a_cube {rat_str(pair.golden.a_cube)} != computed {rat_str(a_cube)}")
        if _differ(g_a_cube := g.a_cube(), pair.golden.g_a_cube):
            diff(f"catalog G a_cube {rat_str(pair.golden.g_a_cube)} != computed {rat_str(g_a_cube)}")
        # the blowup tower over the G model, where its record cites one (family 19)
        tower = _tower_cube(g)
        if tower is not None:
            want = golden.pop(("tower_cube", family_id), None)
            if want is None:
                diff(f"tower (-K)^3 computed {rat_str(tower)}, table tower_cube has no entry")
            elif _differ(tower, want):
                diff(f"tower (-K)^3 = {rat_str(tower)} != {rat_str(want)}")

        # link construction and round trip: deriving the Member checks both
        # records' subfamily and the counterpart, and the Gprime record's form
        # must give back the G record
        member = catalog.member(family_id)
        back_weights, back_degrees = links.counterpart_inverse(member.shape)
        if back_weights != g.weights or back_degrees != g.degrees:
            diff(f"round trip gave {back_weights} {back_degrees}, catalog has {g.weights} {g.degrees}")

        # basket, in singular-locus order with the cAx point last
        if member.basket != pair.golden.basket:
            diff(f"basket computed {list(member.basket)} != catalog {list(pair.golden.basket)}")

        # blowup signs at every computed quotient point with an entry
        signed = set()
        for q in member.quotients:
            sign = golden.pop(("b_cube_signs", (family_id, q.locus)), None)
            if sign is not None:
                signed.add(q.locus)
                if _sign(val := member.local[q.locus].b_cube) != sign:
                    diff(f"B^3 at {q.locus} computed {rat_str(val)}, table sign says {sign}")

        # every center and link row resolves, every link row ran, each point
        # where an exclusion ran has a sign entry, and the first certificate
        # of a method takes each witness entry of the family it reaches
        report = build_report(member)
        got = links.involution_inventory(report)
        want = [row[:3] for row in pair.golden.link_column]
        if got != want:
            diff(f"link column computed {got} != catalog {want}")
        if report.uncovered:
            diff(f"uncovered centers: {report.birigid_summary}")
        taken = set()
        for cr in report.centers:
            q = cr.center.quotient
            no_sign = q is not None and q.locus not in signed  # named at the first branch that is no untwist
            for br in cr.branches:
                method = br.verdict.method
                if no_sign and method != "untwist":
                    no_sign = False
                    diff(f"B^3 at {q.locus} computed {rat_str(member.local[q.locus].b_cube)}, "
                         "table b_cube_signs has no entry")
                if method not in WITNESSES:
                    continue
                table, by_locus, label, value_of = WITNESSES[method]
                entry = table, ((family_id, cr.center.locus) if by_locus else family_id)
                if entry in taken:
                    continue
                taken.add(entry)
                got, want = value_of(br.certificate, br.verdict), golden.pop(entry, None)
                if want is None:
                    # the isolation certificate runs in every family, and
                    # the paper bounds it in four
                    if table != "isolation":
                        where = f" at {cr.center.locus}" if by_locus else ""
                        diff(f"{label}{where} computed {_witness_str(got)}, table {table} has no entry")
                elif _differ(got, want):
                    diff(f"{label} {_witness_str(got)} != table {_witness_str(want)}")
    except (ValueError, LookupError) as exc:
        # corrupt golden data can break a precondition mid-computation: a
        # verification failure, not a crash, and earlier mismatches stand
        diff(str(exc))
        why = dict.fromkeys(GOLDEN, "the checks stopped at the error above")
    for table, key in golden:
        diff(f"table {table}[{key!r}] unchecked: {why[table]}")
    return diffs


def verify_tables(catalog: Catalog) -> list[str]:
    # GOLDEN grouped afresh into one flat dict (table, key) -> value per
    # family, in table, then key order; each catalog family checks its own
    # entries, and an entry of any other family is a line after theirs
    golden: dict[int, dict] = {family_id: {} for family_id in catalog.ids()}
    outside: list[str] = []
    for table, entries in GOLDEN.items():
        for key, value in entries.items():
            family = key[0] if isinstance(key, tuple) else key
            if family in golden:
                golden[family][table, key] = value
            else:
                outside.append(f"family {family}: table {table}[{key!r}] unchecked: family not in the catalog")
    diffs = [line for family_id, entries in golden.items() for line in verify_family(catalog, family_id, entries)]
    return diffs + outside

