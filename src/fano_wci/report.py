"""Per-family analysis reports and the golden-table verification engine.

`GOLDEN` collects the classification numbers (degrees, blowup signs,
certificate witnesses, restriction-curve supports, isolation bounds).
`verify_tables` recomputes every one of them from weights and degrees alone
and reports any difference; it is the machine-checkable regression for the
whole catalog.
"""

from __future__ import annotations

from fractions import Fraction

from . import blowup, exclusion, links, singularities
from .catalog import BASKET_KEYS, LINK_KEYS, Catalog, FamilyPair, Member
from .exclusion import Center, Certificate, Verdict
from .wps import rat_str, record, wps_str

F = Fraction


@record
class GoldenNumbers:
    """Golden-table values, keyed by family (and locus)."""

    a_cube: dict[int, Fraction]
    b_cube_signs: dict[tuple[int, str], int]
    nef_witness: dict[int, Fraction]
    isolation: dict[int, tuple[int, Fraction]]
    curve_witness: dict[int, Fraction]
    matrices: dict[tuple[int, str], tuple[Fraction, Fraction, Fraction]]
    infinite_curves: dict[tuple[int, str], tuple[Fraction, Fraction]]
    gamma_rows: dict[int, frozenset[tuple[int, int, int]]]
    tower_cube: Fraction
    half_point_curve: Fraction


GOLDEN = GoldenNumbers(
    a_cube={
        17: F(1), 19: F(2, 3), 23: F(5, 12), 29: F(1, 2), 30: F(5, 12),
        41: F(1, 3), 42: F(3, 10), 49: F(1, 4), 50: F(7, 60), 55: F(1, 4),
        69: F(1, 5), 74: F(1, 12), 77: F(1, 6), 82: F(1, 20),
    },
    b_cube_signs={
        (23, "p2p4"): -1, (29, "p2p4"): 0, (30, "p2"): 1, (42, "p2p4"): -1,
        (49, "p2p4"): -1, (50, "p1p4"): -1, (50, "p2"): -1, (55, "p2"): 1,
        (55, "p2p4"): -1, (69, "p2"): 1, (74, "p1p4"): -1, (74, "p2p3"): -1,
        (77, "p2p3"): 0, (77, "p2p4"): -1, (82, "p1p4"): -1, (82, "p2"): 0,
    },
    nef_witness={50: F(-3, 20), 74: F(-1, 4), 82: F(-1, 4)},
    isolation={42: (10, F(40, 3)), 19: (6, F(6)), 50: (20, F(240, 7)), 23: (6, F(48, 5))},
    curve_witness={19: F(-1, 2), 23: F(-1, 4)},
    matrices={
        (50, "p1p4"): (F(1, 4), F(-2, 5), F(1)),
        (50, "p2"): (F(-1, 10), F(1, 60), F(1, 2)),
    },
    infinite_curves={
        (23, "p2p4"): (F(0), F(3)), (30, "p2"): (F(0), F(2)),
        (55, "p2"): (F(0), F(2)), (69, "p2"): (F(0), F(2)),
    },
    gamma_rows={
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
    tower_cube=F(-1, 12),
    half_point_curve=F(-1, 3),
)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@record
class BranchResult:
    condition: str
    tag: str  # golden third-column tag, "" for curve/smooth rows
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
    extractions: singularities.ExtractionDescriptor
    centers: tuple[CenterReport, ...]

    @property
    def uncovered(self) -> tuple[str, ...]:
        return tuple(reason for cr in self.centers for reason in cr.uncovered)

    @property
    def birigid_summary(self) -> str:
        return "all-centers-resolved" if not self.uncovered else f"uncovered-cases({', '.join(self.uncovered)})"


# the one branch of a curve, a nonsingular point or a locus without rules
UNCONDITIONAL = (("", ""),)


def build_report(catalog: Catalog, family_id: int) -> Report:
    """Every center of the family's general member with one result per
    branch: a point center runs each `exclusion.POINT_RULES` branch of its
    locus, under the branch's condition and with its link tag."""
    member = catalog.member(family_id)
    centers: list[CenterReport] = []

    def run(center: Center, branches) -> None:
        results = []
        uncovered = []
        for condition, tag in branches:
            try:
                earlier = tuple(br.certificate for br in results)
                cert, verdict = exclusion.dispatch(family_id, center, condition, catalog=catalog,
                                                   earlier=earlier)
                results.append(BranchResult(condition=condition, tag=tag,
                                            certificate=cert, verdict=verdict))
                if not verdict.resolved:
                    uncovered.append(f"{center.describe()} [{condition or 'unconditional'}]")
            except exclusion.UncoveredCaseError as exc:
                uncovered.append(str(exc))
        centers.append(CenterReport(center=center, branches=tuple(results), uncovered=tuple(uncovered)))

    run(Center.curve(exclusion.minimal_curve_degree(member)), UNCONDITIONAL)
    if family_id in exclusion.SPECIAL_CURVE_DEG:
        run(Center.curve(exclusion.SPECIAL_CURVE_DEG[family_id]), UNCONDITIONAL)
    run(Center.smooth_point(), UNCONDITIONAL)
    for center in (*map(Center.quotient_point, member.quotients), Center.cax_point(member.cax)):
        # dispatch reports a locus without rules as a center the family lacks
        rules = exclusion.POINT_RULES[family_id].get(center.locus)
        run(center, [(br.condition, br.tag) for br in rules] if rules else UNCONDITIONAL)

    return Report(member=member, extractions=singularities.extractions_at_cax(member.cax, member.link_data),
                  centers=tuple(centers))


def _describe_branch(br: BranchResult) -> str:
    v = br.verdict
    body = v.method
    if v.witness is not None:
        body += f" (witness {rat_str(v.witness)})"
    if br.condition:
        body += f" [{br.condition}]"
    return body


def render_markdown(report: Report) -> str:
    member = report.member
    g, gp, ld = member.g, member.gprime, member.link_data
    d1, d2 = g.degrees
    lines = [
        f"# Family No.{g.id}",
        "",
        f"- G:  X_{{{d1},{d2}}} in {wps_str(g.weights)}",
        f"- G': X'_{gp.degrees[0]} in {wps_str(gp.weights)}, A^3 = {rat_str(member.a_cube)}",
        f"- link: b = {ld.b}, {ld.equation_shape}, midpoint Z_{ld.z_degree},"
        f" extractions at cAx/{member.cax.modulus}: {report.extractions.count}",
        "",
        "| center | method | link |",
        "|---|---|---|",
    ]
    for cr in report.centers:
        if cr.center.kind not in ("quotient-point", "cax-point"):
            continue
        if not cr.branches:  # every branch failed to dispatch
            lines.append(f"| {cr.center.describe()} | uncovered: {'; '.join(cr.uncovered)} | uncovered |")
            continue
        methods = "; ".join(_describe_branch(br) for br in cr.branches)
        tags = "; ".join(
            (br.tag if br.tag != "link" else f"link to X_{{{d1},{d2}}} in G_{g.id}")
            or "excluded" for br in cr.branches
        )
        lines.append(f"| {cr.center.describe()} | {methods} | {tags} |")
    lines.append("")
    for cr in report.centers:
        if cr.center.kind in ("quotient-point", "cax-point"):
            continue
        for br in cr.branches:
            lines.append(f"- {cr.center.describe()}: {_describe_branch(br)}")
    lines.append(f"- summary: {report.birigid_summary}")
    lines.append("")
    return "\n".join(lines)


def _golden_record_json(pair: FamilyPair) -> dict:
    gp, golden = pair.gprime, pair.golden
    return {
        "id": gp.id,
        "kind": "Gprime",
        "weights": list(gp.weights),
        "degrees": list(gp.degrees),
        "subfamily": golden.subfamily,
        "a_cube": rat_str(golden.a_cube),
        "basket": [dict(zip(BASKET_KEYS, row)) for row in golden.basket],
        "links": [dict(zip(LINK_KEYS, row)) for row in golden.link_column],
    }


def render_json(report: Report) -> dict:
    member = report.member
    g, ld = member.g, member.link_data
    return {
        "family": g.id,
        "a_cube": rat_str(member.a_cube),
        "g_weights": list(g.weights),
        "g_degrees": list(g.degrees),
        "link": {
            "b": ld.b,
            "xprime_weights": list(ld.display_weights()),
            "xprime_degree": ld.xprime_degree,
            "z_degree": ld.z_degree,
            "equation_shape": ld.equation_shape,
            "extraction_count": report.extractions.count,
            "extraction_weights": [rat_str(x) for x in report.extractions.ambient_weights],
        },
        "basket": [dict(zip(BASKET_KEYS, row)) for row in member.basket],
        "centers": [
            {
                "center": cr.center.describe(),
                "branches": [
                    {
                        "condition": br.condition,
                        "tag": br.tag,
                        "excluded": br.verdict.excluded,
                        "method": br.verdict.method,
                        "witness": None if br.verdict.witness is None else rat_str(br.verdict.witness),
                        "certificate": exclusion.certificate_json(br.certificate),
                    }
                    for br in cr.branches
                ],
            }
            for cr in report.centers
        ],
        "birigid_summary": report.birigid_summary,
        "golden_record": _golden_record_json(member),
    }


# ---------------------------------------------------------------------------
# Golden-table verification
# ---------------------------------------------------------------------------

def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def verify_family(catalog: Catalog, family_id: int) -> list[str]:
    """All mismatches between recomputed quantities and golden data for one
    family; empty when everything agrees."""
    diffs: list[str] = []
    pair = catalog.pair(family_id)
    g, gp, golden = pair.g, pair.gprime, pair.golden

    def diff(msg: str) -> None:
        diffs.append(f"family {family_id}: {msg}")

    # degrees of the anticanonical models
    a_cube = gp.a_cube()
    if a_cube != GOLDEN.a_cube[family_id]:
        diff(f"A^3 computed {rat_str(a_cube)} != table {rat_str(GOLDEN.a_cube[family_id])}")
    if golden.a_cube != a_cube:
        diff(f"catalog a_cube {rat_str(golden.a_cube)} != computed {rat_str(a_cube)}")
    g_a_cube = g.a_cube()
    if golden.g_a_cube != g_a_cube:
        diff(f"catalog G a_cube {rat_str(golden.g_a_cube)} != computed {rat_str(g_a_cube)}")

    # link construction and round trip: deriving the Member checks that both
    # records solve to the stated subfamily and that the Gprime record is
    # the G record's counterpart; the Gprime record's form must give back
    # the G record
    member = catalog.member(family_id)
    back_weights, back_degrees = links.counterpart_inverse(member.shape)
    if back_weights.weights != g.weights.weights or back_degrees != g.degrees:
        diff(f"round trip gave {back_weights.weights} {back_degrees}, catalog has "
             f"{g.weights.weights} {g.degrees}")

    # basket, in singular-locus order with the cAx point last
    computed = list(member.basket)
    stated = list(golden.basket)
    if computed != stated:
        diff(f"basket computed {computed} != catalog {stated}")

    # blowup signs at every annotated quotient point
    for (fid, locus), sign in GOLDEN.b_cube_signs.items():
        if fid != family_id:
            continue
        match = [q for q in member.quotients if q.locus == locus]
        if not match:
            diff(f"no computed point at {locus} for B^3 sign check")
            continue
        val = blowup.b_cubed(a_cube, match[0])
        if _sign(val) != sign:
            diff(f"B^3 at {locus} computed {rat_str(val)}, table sign says {sign}")

    # every center of the report resolves, its point branches are the golden
    # link column, and each witness entry of the family in the golden tables
    # is compared with a certificate of its method
    report = build_report(catalog, family_id)
    got = links.involution_inventory(report)
    want = list(golden.link_column)
    if got != want:
        diff(f"link column computed {got} != catalog {want}")
    if report.uncovered:
        diff(f"uncovered centers: {report.birigid_summary}")
    entries = _witness_entries(family_id)
    unchecked = dict(entries)
    for cr in report.centers:
        for br in cr.branches:
            v, cert = br.verdict, br.certificate
            table = WITNESS_TABLES.get(v.method)
            key = (family_id, cr.center.locus) if table in LOCUS_TABLES else family_id
            if (table, key) not in entries:
                continue
            unchecked.pop((table, key), None)
            want = getattr(GOLDEN, table)[key]
            if table == "nef_witness":
                if v.witness != want:
                    diff(f"nef witness {rat_str(v.witness)} != table {rat_str(want)}")
                if not cert.certified:
                    diff("nef divisor not certified")
            elif table == "matrices":
                alpha, beta, floor = want
                if (cert.alpha, cert.beta, cert.parameter_floor) != want:
                    diff(f"matrix data ({rat_str(cert.alpha)}, {rat_str(cert.beta)}, "
                         f"{rat_str(cert.parameter_floor)}) != table "
                         f"({rat_str(alpha)}, {rat_str(beta)}, {rat_str(floor)})")
            elif table == "infinite_curves":
                b_dot, e_dot = want
                if (cert.b_dot_c, cert.e_dot_c) != want:
                    diff(f"infinite-curves data ({rat_str(cert.b_dot_c)}, "
                         f"{rat_str(cert.e_dot_c)}) != table ({rat_str(b_dot)}, {rat_str(e_dot)})")
            elif table == "isolation":
                bound, limit = want
                if (cert.bound, cert.limit) != want:
                    diff(f"isolation ({cert.bound}, {rat_str(cert.limit)}) != table "
                         f"({bound}, {rat_str(limit)})")
            elif v.witness != want:  # curve_witness
                diff(f"curve witness {rat_str(v.witness)} != table {rat_str(want)}")
    for (table, key), method in unchecked.items():
        diff(f"table {table}[{key!r}] unchecked: no {method} certificate ran")

    # restriction-curve supports
    if family_id in GOLDEN.gamma_rows:
        support = exclusion.gamma_polynomial(member)
        if support.monomials != GOLDEN.gamma_rows[family_id]:
            diff(f"restriction curve support {sorted(support.monomials)} != table "
                 f"{sorted(GOLDEN.gamma_rows[family_id])}")
    return diffs


# the golden table of each certificate method's witness; the tables in
# LOCUS_TABLES are keyed by (family, locus), the others by family
WITNESS_TABLES = {"nef-divisor": "nef_witness", "negdef-matrix": "matrices",
                  "infinite-curves": "infinite_curves", "isolation": "isolation",
                  "curve-gamma": "curve_witness"}
LOCUS_TABLES = ("matrices", "infinite_curves")


def _family_of(key) -> int:
    """The family of a golden-table key: the key, or its first entry."""
    return key[0] if isinstance(key, tuple) else key


def _witness_entries(family_id: int) -> dict[tuple[str, object], str]:
    """(table, key) -> method for every witness entry of one family."""
    entries = {}
    for method, table in WITNESS_TABLES.items():
        for key in getattr(GOLDEN, table):
            if _family_of(key) == family_id:
                entries[table, key] = method
    return entries


def verify_tables(catalog: Catalog) -> list[str]:
    diffs: list[str] = []
    ids = catalog.ids()
    for family_id in ids:
        try:
            diffs.extend(verify_family(catalog, family_id))
        except (ValueError, LookupError) as exc:
            # corrupt golden data can break a precondition mid-computation;
            # that is a verification failure, not a crash
            diffs.append(f"family {family_id}: {exc}")
    # verify_family reads only the entries of catalog families
    for table in ("a_cube", "b_cube_signs", *WITNESS_TABLES.values(), "gamma_rows"):
        for key in getattr(GOLDEN, table):
            family = _family_of(key)
            if family not in ids:
                diffs.append(f"family {family}: table {table}[{key!r}] unchecked: family not in the catalog")
    try:
        diffs.extend(_verify_towers(catalog))
    except ValueError as exc:  # the family 19 G record is not of index one
        diffs.append(f"family 19: blowup tower: {exc}")
    return diffs


def _verify_towers(catalog: Catalog) -> list[str]:
    """The two blowup-tower numbers quoted for family 19."""
    diffs = []
    g19 = catalog.g(19)
    half = singularities.QuotientSingularity(2, 1)
    quarter = singularities.QuotientSingularity(4, 1)
    lattice = blowup.BlowupLattice.over(g19.a_cube(), [half, quarter])
    k = lattice.anticanonical()
    tower = blowup.triple(lattice, k, k, k)
    if tower != GOLDEN.tower_cube:
        diffs.append(f"family 19: tower (-K)^3 = {rat_str(tower)} != {rat_str(GOLDEN.tower_cube)}")
    curve = Fraction(1, 6) - Fraction(1, 2)
    if curve != GOLDEN.half_point_curve:
        diffs.append(f"family 19: half-point curve pairing {rat_str(curve)} != "
                     f"{rat_str(GOLDEN.half_point_curve)}")
    return diffs
