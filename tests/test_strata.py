"""Strata through the public path: a member of a family whose support lacks
one monomial of the general member's is a `Member` built from
`singular_locus` and the record's constructor, and `build_report` runs on it
as on any family's general member."""

from collections import Counter

from fano_wci.catalog import Member
from fano_wci.report import build_report
from fano_wci.singularities import NotQuasismoothError, singular_locus
from fano_wci.wps import MonomialSupport


def stratum(member: Member, monomial) -> Member:
    """The member whose support is the general member's without `monomial`."""
    support = MonomialSupport(member.support.degree, member.support.monomials - {monomial})
    quotients, cax = singular_locus(member.gprime, member.shape, support)
    return Member(g=member.g, gprime=member.gprime, golden=member.golden, a_cube=member.a_cube,
                  shape=member.shape, support=support, quotients=tuple(quotients), cax=cax)


def outcome(member: Member) -> tuple:
    """What a report says: each center's branches as (center, condition,
    verdict), and the reasons of the uncovered ones."""
    report = build_report(member)
    return (tuple((cr.center.describe(), br.condition, br.verdict) for cr in report.centers for br in cr.branches),
            report.uncovered)


def sweep(catalog) -> tuple[Counter, list, list]:
    """Every one-monomial drop of every family through the public path: the
    count of each kind of outcome (not quasismooth, basket changed, report
    changed, same), and the drops that change the report, or the number of
    extractions at the cAx point, as (family, monomial)."""
    kinds, report_drops, extraction_drops = Counter(), [], []
    for fid in catalog.ids():
        member = catalog.member(fid)
        general = outcome(member)
        for monomial in member.support.sorted():
            try:
                dropped = stratum(member, monomial)
            except NotQuasismoothError:
                kinds["not quasismooth"] += 1
                continue
            if dropped.cax.extraction_count != member.cax.extraction_count:
                extraction_drops.append((fid, monomial))
            if dropped.basket != member.basket:
                kinds["basket"] += 1
            elif outcome(dropped) != general:
                kinds["report"] += 1
                report_drops.append((fid, monomial))
            else:
                kinds["same"] += 1
    return kinds, report_drops, extraction_drops


def test_every_one_monomial_drop_runs_through_the_public_path(catalog):
    kinds, report_drops, extraction_drops = sweep(catalog)
    assert kinds == {"not quasismooth": 16, "basket": 19, "report": 3, "same": 1_246}
    assert report_drops == [(23, (0, 0, 0, 2, 1)), (30, (0, 0, 2, 1, 0)), (41, (0, 0, 2, 1, 0))]
    # w^2 x0 x1 is family 23's only w^2 x0 f term: without it the cAx point
    # is of non-square type, with one extraction
    assert extraction_drops == [(23, (1, 1, 0, 0, 2))]
