"""Strata through the public path: a member of a family whose support lacks
one monomial of the general member's is a `Member` built from
`singular_locus` and the record's constructor, and `build_report` runs on it
as on any family's general member."""

import math
from collections import Counter

from fano_wci.catalog import FamilyRecord, GoldenRow, LinkRow, Member
from fano_wci.exclusion import SINGLE_BRANCH, Center, dispatch
from fano_wci.report import build_report
from fano_wci.singularities import NotQuasismoothError, singular_locus
from fano_wci.wps import MonomialSupport


def stratum(member: Member, monomial) -> Member:
    """The member whose support is the general member's without `monomial`."""
    support = MonomialSupport(member.support.degree, member.support.monomials - {monomial})
    quotients, cax = singular_locus(member.gprime, member.shape, support)
    return Member(g=member.g, gprime=member.gprime, golden=member.golden, a_cube=member.a_cube,
                  shape=member.shape, support=support, quotients=tuple(quotients), cax=cax)


def with_golden(member: Member, **fields) -> Member:
    """The member with `fields` of its golden row replaced."""
    golden = GoldenRow(*[fields.get(name, getattr(member.golden, name)) for name in GoldenRow.__record_fields__])
    return Member(*[golden if name == "golden" else getattr(member, name) for name in Member.__record_fields__])


def with_cited(member: Member, cited: frozenset | None) -> Member:
    """The member with its Gprime record's `cited` constants replaced by `cited`."""
    gp = member.gprime
    gprime = FamilyRecord(gp.id, gp.kind, gp.weights, gp.degrees, cited)
    return Member(*[gprime if name == "gprime" else getattr(member, name) for name in Member.__record_fields__])


def with_rows(member: Member, rows) -> Member:
    """The member with its link rows (point, tag, condition, method and
    optionally cited) replaced by `rows`."""
    return with_golden(member, link_column=tuple([LinkRow(*row) for row in rows]))


def dispatch_branch(member: Member, center: Center, condition: str = ""):
    """`dispatch` on the center's one branch under `condition`: the member's
    link row at a point center's locus, or a curve's or the nonsingular
    point's single branch."""
    if center.is_point:
        rows = [row for row in member.golden.link_column if row.point == center.locus]
    else:
        rows = SINGLE_BRANCH[center.kind]
    [row] = [row for row in rows if row.condition == condition]
    return dispatch(member, center, row)


def outcome(report) -> tuple:
    """What a report says: each center's branches as (center, condition,
    verdict), and the reasons of the uncovered ones."""
    return (tuple((cr.center.describe(), br.row.condition, br.verdict) for cr in report.centers for br in cr.branches),
            report.uncovered)


def sweep(catalog) -> tuple[Counter, list, list, list]:
    """Every one-monomial drop of every family through the public path: the
    count of each kind of outcome (not quasismooth, basket changed, report
    changed, same), and the drops that change the report, that change the
    number of extractions at the cAx point, or whose report names a locus of
    link rows where the stratum has no point (`Report.unplaced`), as
    (family, monomial)."""
    kinds, report_drops, extraction_drops, unplaced_drops = Counter(), [], [], []
    for fid in catalog.ids():
        member = catalog.member(fid)
        general = outcome(build_report(member))
        for monomial in member.support.sorted():
            try:
                dropped = stratum(member, monomial)
            except NotQuasismoothError:
                kinds["not quasismooth"] += 1
                continue
            report = build_report(dropped)
            if report.unplaced:
                unplaced_drops.append((fid, monomial))
            if dropped.cax.extraction_count != member.cax.extraction_count:
                extraction_drops.append((fid, monomial))
            if dropped.basket != member.basket:
                kinds["basket"] += 1
            elif outcome(report) != general:
                kinds["report"] += 1
                report_drops.append((fid, monomial))
            else:
                kinds["same"] += 1
    return kinds, report_drops, extraction_drops, unplaced_drops


def test_every_one_monomial_drop_runs_through_the_public_path(catalog):
    kinds, report_drops, extraction_drops, unplaced_drops = sweep(catalog)
    assert kinds == {"not quasismooth": 16, "basket": 19, "report": 4, "same": 1_245}
    # family 50 without x1^2 x3^2 holds the WCI curve {x0 = x2 = w = 0}, so
    # the nef divisor's sections (0, 2, 4) have an infinite locus there and
    # nef_numbers takes (0, 2, 3), whose (M . B^2) = 1/12 excludes nothing
    assert report_drops == [(23, (0, 0, 0, 2, 1)), (30, (0, 0, 2, 1, 0)), (41, (0, 0, 2, 1, 0)),
                            (50, (0, 2, 0, 2, 0))]
    # w^2 x0 x1 is family 23's only w^2 x0 f term: without it the cAx point
    # is of non-square type, with one extraction
    assert extraction_drops == [(23, (1, 1, 0, 0, 2))]
    assert unplaced_drops == UNPLACED_DROPS


# drops whose stratum has no point at a locus of link rows: each drops a
# monomial x_i^a w^b and changes the basket
UNPLACED_DROPS = [(23, (0, 0, 5, 0, 0)), (23, (0, 0, 3, 0, 1)), (42, (0, 0, 2, 0, 2)), (49, (0, 0, 7, 0, 0)),
                  (49, (0, 0, 5, 0, 1)), (50, (0, 7, 0, 0, 0)), (50, (0, 5, 0, 0, 1)), (55, (0, 0, 2, 0, 3)),
                  (74, (0, 9, 0, 0, 0)), (74, (0, 7, 0, 0, 1)), (77, (0, 0, 2, 0, 3)), (82, (0, 11, 0, 0, 0)),
                  (82, (0, 9, 0, 0, 1))]


def test_a_locus_the_stratum_lacks_is_named_once(catalog):
    # a locus with two conditional rows, such as family 23's p2p4 or family
    # 50's p1p4, is one reason, not one per row
    for fid, monomial in UNPLACED_DROPS:
        unplaced = build_report(stratum(catalog.member(fid), monomial)).unplaced
        assert unplaced and len(set(unplaced)) == len(unplaced), (fid, monomial)
    assert build_report(stratum(catalog.member(23), (0, 0, 5, 0, 0))).unplaced == (
        "family 23 link row at p2p4: the member has no point there",)


# drops that put a gcd-1 edge through p4 inside the member: family 19 without
# x3^2 w (edge p3p4) and family 82 without x2^2 w^3 (edge p2p4), with the
# partials that survive along the edge and the basket the stratum keeps
GCD_ONE_EDGE_DROPS = {
    (19, (0, 0, 0, 2, 1)): ((3, 4), {2: [(2, 0)]}, ["1/2(1,1,1)@p2p4", "1/3(1,1,2)@p3"]),
    (82, (0, 0, 2, 0, 3)): ((2, 4), {1: [(4, 0)]}, ["1/2(1,1,1)@p1p4", "1/5(1,1,4)@p2"]),
}


def test_a_gcd_one_edge_inside_a_stratum_is_quasismooth_off_p4(catalog):
    # singular_locus walks only the edges of gcd >= 2, so it passes over
    # these edges; the member is quasi-smooth along each open edge, and the
    # basket it returns stands.  p4 itself is the cAx point, where every
    # partial vanishes on every member
    for (fid, monomial), ((i, j), partials, basket) in GCD_ONE_EDGE_DROPS.items():
        member = catalog.member(fid)
        dropped = stratum(member, monomial)
        assert math.gcd(member.gprime.weights[i], member.gprime.weights[j]) == 1
        off_edge = [k for k in range(5) if k not in (i, j)]
        monomials = dropped.support.monomials
        # the edge lies in the member: F has no term in x_i and x_j alone, so
        # dF/dx_i and dF/dx_j vanish along it
        assert not [m for m in monomials if not any(m[k] for k in off_edge)]
        # dF/dx_k along the edge is the sum of F's terms x_k x_i^a x_j^b, as (a, b)
        along = {k: sorted((m[i], m[j]) for m in monomials if m[k] == 1 and sum(m[l] for l in off_edge) == 1)
                 for k in off_edge}
        assert {k: terms for k, terms in along.items() if terms} == partials, fid
        # one surviving partial, c x_i^a with a > 0: zero on the edge only where
        # x_i = 0, which is p4 (j = 4)
        [(_, [(a, b)])] = partials.items()
        assert (j, a > 0, b) == (4, True, 0)
        assert [f"{q.type_str()}@{q.locus}" for q in dropped.quotients] == basket
        assert dropped.basket == member.basket
