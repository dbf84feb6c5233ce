import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from fano_wci import exclusion
from fano_wci.blowup import BlowupRing, SectionLift, ambient_quadruple, b_cubed, triple, vanishing_order
from fano_wci.catalog import LINK_METHODS
from fano_wci.exclusion import (BUILDERS, Center, CurveCycle, CurveDegree, CurveGamma,
                                InfiniteCurves, Isolation, LocalModel, NefDivisor, NegDefMatrix, SurfacePair,
                                UncoveredCaseError, Untwist, _kawamata_weights, certificate_json, dispatch,
                                gamma_polynomial, point_vertex, qi_eligible)
from fano_wci.report import GOLDEN, build_report
from fano_wci.singularities import (NotQuasismoothError, QuotientSingularity, misses_vertex,
                                    support_with_point_at_vertex, tangent_coordinate)
from fano_wci.wps import MonomialSupport
from test_reference_equivalence import reference_negdef2
from test_strata import dispatch_branch, stratum, with_cited, with_rows

F = Fraction
HALF = QuotientSingularity(2, 1)


def test_curve_degree_examples():
    assert CurveDegree(F(1), F(1)).verdict().excluded
    assert not CurveDegree(F(1, 2), F(2, 3)).verdict().excluded
    assert CurveDegree(F(5, 12), F(5, 12)).verdict().excluded


def test_curve_gamma_examples():
    v19 = CurveGamma(F(2, 3), F(1, 2), F(-3, 2)).verdict()
    assert v19.excluded and v19.witness == F(-1, 2)
    v23 = CurveGamma(F(5, 12), F(1, 4), F(-1)).verdict()
    assert v23.excluded and v23.witness == F(-1, 4)
    assert not CurveGamma(F(2, 3), F(1, 2), F(-1, 2)).verdict().excluded


def test_curve_gamma_needs_negative_bound():
    with pytest.raises(ValueError):
        CurveGamma(F(2, 3), F(1, 2), F(0)).verdict()


def test_curve_cycle():
    assert CurveCycle(F(1), F(1, 2)).verdict().excluded
    assert CurveCycle(F(7, 4), F(1, 2)).verdict().excluded
    assert not CurveCycle(F(1, 4), F(1, 2)).verdict().excluded


def test_isolation_examples(catalog):
    # the vertex dropped and the bound of every family: 23 and 30 read
    # their cited `isolation_vertex`, the other 12 derive theirs
    # (`isolating_vertex`)
    cases = {17: (3, 2, F(4)), 19: (2, 6, F(6)), 23: (4, 6, F(48, 5)), 29: (3, 2, F(8)), 30: (3, 6, F(48, 5)),
             41: (3, 6, F(12)), 42: (2, 10, F(40, 3)), 49: (3, 4, F(16)), 50: (1, 20, F(240, 7)),
             55: (3, 4, F(16)), 69: (3, 10, F(20)), 74: (3, 12, F(48)), 77: (3, 6, F(24)), 82: (3, 20, F(80))}
    assert set(cases) == set(catalog.ids())
    for fid, (drop, bound, limit) in cases.items():
        cert, verdict = dispatch_branch(catalog.member(fid), Center.smooth_point())
        assert cert == Isolation(bound=bound, limit=limit, dropped_vertex=drop)
        assert F(4) / catalog.pair(fid).gprime.a_cube() == limit
        assert verdict.excluded


def isolation_vertices(catalog) -> dict[int, int]:
    """The `isolation_vertex` that a family's member cites, by family."""
    return {fid: vertex for fid in catalog.ids()
            if (vertex := dict(catalog.pair(fid).gprime.cited or ()).get("isolation_vertex")) is not None}


def test_the_cited_isolation_vertices_are_those_no_vertex_off_the_member_serves(catalog):
    # the cited vertex of families 23 and 30 lies on the member; without it,
    # the least bound from a vertex the member misses is 12 > 48/5, so the
    # rule excludes nothing
    cited = isolation_vertices(catalog)
    assert cited == {23: 4, 30: 3}
    for fid, vertex in ((23, 2), (30, 0)):
        member = catalog.member(fid)
        assert not misses_vertex(member.support, member.gprime.weights, cited[fid])
        member = with_cited(member, frozenset([(key, value) for key, value in member.gprime.cited
                                               if key != "isolation_vertex"]))
        cert, verdict = dispatch_branch(member, Center.smooth_point())
        assert (cert.dropped_vertex, cert.bound, cert.limit) == (vertex, 12, F(48, 5))
        assert not verdict.excluded


def test_a_curve_of_degree_one_over_b_is_special_exactly_below_the_cube(catalog):
    # curves through the cAx/b point have degree in (1/b) Z; where 1/b is
    # below (-K)^3 the plan has the special curve and the least curve of
    # degree 2/b, else only the curve of degree 1/b
    special = {fid for fid in catalog.ids()
               if F(1, catalog.member(fid).cax.modulus) < catalog.member(fid).a_cube}
    assert special == {17, 19, 23}
    for fid in catalog.ids():
        member = catalog.member(fid)
        step = F(1, member.cax.modulus)
        curves = [cr.center.degree for cr in build_report(member).centers if cr.center.kind == "curve"]
        assert curves == ([2 * step, step] if fid in special else [step]), fid


def test_the_isolating_vertex_of_every_stratum_keeps_its_bound(catalog):
    # every quasi-smooth one-monomial stratum of the 12 families that derive
    # their vertex keeps the general member's bound; two move the vertex,
    # since the stratum contains the general member's vertex: family 19
    # without x2^4 and family 50 without x1^7 drop p0 instead
    moved, strata = {}, 0
    for fid in catalog.ids():
        if fid in isolation_vertices(catalog):
            continue
        member = catalog.member(fid)
        general = dispatch_branch(member, Center.smooth_point())[0]
        vertex, bound = general.dropped_vertex, general.bound
        for monomial in member.support.sorted():
            try:
                dropped = stratum(member, monomial)
            except NotQuasismoothError:
                continue
            strata += 1
            cert, verdict = dispatch_branch(dropped, Center.smooth_point())
            assert cert.bound == bound and verdict.excluded, (fid, monomial)
            if cert.dropped_vertex != vertex:
                assert not misses_vertex(dropped.support, dropped.gprime.weights, vertex)
                moved[fid, monomial] = cert.dropped_vertex
    assert strata == 1_105
    assert moved == {(19, (0, 0, 4, 0, 0)): 0, (50, (0, 7, 0, 0, 0)): 0}


def test_surface_pair_examples(catalog):
    gamma29 = gamma_polynomial(catalog.member(29))
    v = SurfacePair(1, F(0), gamma29, True).verdict()
    assert v.excluded and v.witness == 0
    gamma50 = gamma_polynomial(catalog.member(50))
    v = SurfacePair(2, F(-1, 20), gamma50, True).verdict()
    assert v.excluded and v.witness == F(-1, 5)
    assert not SurfacePair(1, F(1, 6), gamma29, True).verdict().excluded


def test_surface_pair_flag_false_demands_fallback(catalog):
    gamma = gamma_polynomial(catalog.member(50))
    with pytest.raises(UncoveredCaseError, match="family-specific"):
        SurfacePair(2, F(-1, 20), gamma, False).verdict()


def test_gamma_polynomial_examples(catalog):
    assert gamma_polynomial(catalog.member(77)).monomials == {(2, 0, 3), (3, 0, 0), (0, 2, 0)}
    assert gamma_polynomial(catalog.member(82)).monomials == {(2, 0, 3), (0, 2, 0)}
    assert gamma_polynomial(catalog.member(42)).monomials == {(2, 0, 2), (0, 2, 1), (3, 0, 0)}


def test_gamma_rows_are_the_surface_pair_families(catalog):
    # the golden gamma_rows check reads the support off a surface-pair
    # certificate, so its entries are the nine surface-pair families
    surface_pair = {fid for fid in catalog.ids()
                    if any(row.method == "surface-pair" for row in catalog.pair(fid).golden.link_column)}
    assert surface_pair == set(GOLDEN["gamma_rows"]) == {23, 29, 42, 49, 50, 55, 74, 77, 82}


def test_nef_divisor_points_move_to_vertex_1(catalog):
    # the half points p1p4 of the nef-divisor families sit at the weight-2 end
    nef = [fid for fid in catalog.ids()
           if any(row.method == "nef-divisor" for row in catalog.pair(fid).golden.link_column)]
    assert nef == [50, 74, 82]
    assert [point_vertex(catalog.pair(fid).gprime.weights, "p1p4") for fid in nef] == [1, 1, 1]


# the point, its vertex, the sections S whose locus {x_S = 0} is the WCI
# curve its pair of rows names, and the one monomial of the general member
# free of S, with the point at its vertex
WCI_CONDITIONS = {(19, "p2p4"): (2, (0, 1, 4), (0, 0, 1, 2, 0)),
                  (23, "p2p4"): (2, (0, 1, 4), (0, 0, 2, 2, 0)),
                  (50, "p1p4"): (1, (0, 2, 4), (0, 2, 0, 2, 0))}


def test_one_rule_reads_the_three_wci_conditions(catalog):
    # {x_S = 0} is the WCI curve of the weights of S, and it lies in X
    # (`exists-wci`) exactly when no monomial of the support at the point's
    # vertex is free of S.  On the general member one monomial is, so the
    # locus is finite (`not-exists-wci`); striking it gives a quasi-smooth
    # stratum with the same basket, where the curve lies in X
    for (fid, locus), (vertex, s, monomial) in WCI_CONDITIONS.items():
        member = catalog.member(fid)
        degrees = ",".join(map(str, sorted(member.gprime.weights[i] for i in s)))
        assert [row.condition for row in member.golden.link_column if row.point == locus] == [
            f"not-exists-wci({degrees})", f"exists-wci({degrees})"]
        dropped = stratum(member, monomial)
        assert dropped.basket == member.basket
        free = [[m for m in x.local[locus].support.monomials if not any(m[i] for i in s)] for x in (member, dropped)]
        assert (member.local[locus].vertex, free) == (vertex, [[monomial], []]), fid
    # so at family 50's half point the nef divisor's sections are S on the
    # general member, and on the stratum (x0, x2, x3), which exclude nothing
    nef = stratum(catalog.member(50), (0, 2, 0, 2, 0)).local["p1p4"].nef
    assert ([lift.class_b for lift in nef.lifts], nef.c, nef.m_b2) == ([1, 3, 5], F(2, 5), F(1, 12))


def test_each_wci_condition_names_a_curve_of_its_degrees(catalog):
    # exists-wci(a,b,c) and its negation name the WCI curve of degrees
    # (a, b, c), of degree a b c / (w0 ... w4): 1/6 at families 19 and 23,
    # 1/10 at family 50.  Family 23's infinite-curves row takes that curve,
    # through its 1/2 point and meeting E once, off S . T, so its pairings
    # are those of S . T less (1/6 - 1/2, 1)
    for (fid, locus), degree in zip(WCI_CONDITIONS, (F(1, 6), F(1, 6), F(1, 10))):
        member = catalog.member(fid)
        for row in [row for row in member.golden.link_column if row.point == locus]:
            a, b, c = exclusion.wci_degrees(row.condition)
            assert F(a * b * c, math.prod(member.gprime.weights)) == degree
    for condition in ("", "monomial-absent(y^2 z)", "exists-wci(1,1)", "exists-wci(1,x,4)"):
        with pytest.raises(UncoveredCaseError, match="names no WCI curve"):
            exclusion.wci_degrees(condition)
    member = catalog.member(23)
    row = next(row for row in member.golden.link_column if row.method == "infinite-curves")
    assert row.cited == {("T", (4, F(-2))), ("residual", True)}
    whole = row._replace(cited=row.cited - {("residual", True)})
    residual, whole = (member.local["p2p4"].pairings(edited) for edited in (row, whole))
    assert residual == (F(0), F(3)) and (whole[0] - residual[0], whole[1] - residual[1]) == (F(1, 6) - F(1, 2), 1)


def test_family_50_negdef_matrix_reads_its_own_sections_where_the_wci_curve_lies_in_x(catalog):
    # on the stratum without x1^2 x3^2 the curve {x0 = x2 = w = 0} lies in X
    # (`exists-wci(1,3,4)`), so the nef divisor's sections move off (x0, x2,
    # w) and its branch excludes nothing; the negdef-matrix branch, the
    # paper's argument there, reads the curve pair cut by x0 and x2, whose
    # sum (B . x0 . x2) is the same -3/20, and still excludes the point
    general = catalog.member(50)
    for member, nef in ((general, (True, F(-3, 20))), (stratum(general, (0, 2, 0, 2, 0)), (False, F(1, 12)))):
        half = next(cr for cr in build_report(member).centers if cr.center.describe().startswith("p1p4"))
        nef_branch, negdef = half.branches
        assert (nef_branch.row.condition, nef_branch.verdict.excluded, nef_branch.verdict.witness) == (
            "not-exists-wci(1,3,4)", *nef)
        assert negdef.row.condition == "exists-wci(1,3,4)"
        assert negdef.certificate == NegDefMatrix(alpha=F(1, 4), beta=F(-2, 5), parameter_floor=F(1))
        assert negdef.verdict.excluded and negdef.verdict.witness == F(1, 20)
        assert member.local["p1p4"].pair_sum((0, 2)) == F(-3, 20)
    assert half.uncovered == ("p1p4 = 1/2(1,1,1) [not-exists-wci(1,3,4)]",)


def nef_outcomes(catalog) -> Counter:
    """Over the 14 general members and their quasi-smooth one-monomial
    strata, by (member, point) pair: whether an involution row untwists the
    point, and what the nef numbers give there, the certificate's verdict or
    "raises" where the point moves to no vertex."""
    got = Counter()
    for member in general_and_strata(catalog):
        for q in member.quotients:
            untwisted = any(row.point == q.locus and row.method == "untwist" and row.tag != "link"
                            for row in member.golden.link_column)
            try:
                lifts, c, certified, m_b2 = member.local[q.locus].nef
            except UncoveredCaseError:
                got[untwisted, "raises"] += 1
                continue
            excluded = NefDivisor(lifts=lifts, q=q, m_b2=m_b2, c=c, certified=certified).verdict().excluded
            got[untwisted, "excluded" if excluded else "not excluded"] += 1
    return got


def test_the_nef_numbers_never_exclude_a_point_an_involution_untwists(catalog):
    # an involution untwists a maximal center, so a nef divisor that
    # excluded such a point would be unsound
    assert nef_outcomes(catalog) == {(True, "not excluded"): 607, (False, "excluded"): 461,
                                     (False, "not excluded"): 809, (False, "raises"): 110}


def test_family_50_third_point_blowup_is_read_off_its_weights(catalog):
    # the Kawamata weights w_i mod r at the point's vertex give the blowup
    # weights (1, 2, 2, 1) on (x0, x1, x3, x4), and the sections x0, x1 and w
    # the classes (w_i, -(w_i mod r)/r); with B = (1, -1/r) they pair to
    # the golden alpha
    member = catalog.member(50)
    w = member.gprime.weights
    q = next(q for q in member.quotients if q.locus == "p2")
    vertex = point_vertex(w, q.locus)
    assert (vertex, q.r) == (2, 3)
    weights = tuple(w[i] % q.r for i in range(5) if i != vertex)
    assert weights == (1, 2, 2, 1)
    sections = [(w[i], F(-(w[i] % q.r), q.r)) for i in (0, 1, 4)]
    assert sections == [(1, F(-1, 3)), (2, F(-2, 3)), (4, F(-1, 3))]
    alpha = ambient_quadruple(w, q.r, weights, [(1, F(-1, q.r)), *sections])
    cert, verdict = dispatch_branch(member, Center.quotient_point(q), "monomial-absent(z^3 t)")
    assert alpha == cert.alpha == F(-1, 10) and verdict.excluded


def test_the_kawamata_unit_is_one_at_every_point_moved_to_a_vertex(catalog):
    # normalize_quotient scales the weights by the first unit u that gives
    # 1/r(1, a, r-a); the Kawamata weights are (u w_i mod r)/r, so w_i mod r
    # is the weight exactly where u = 1.  It is 1 at all 19 quotient points
    # that point_vertex and support_with_point_at_vertex reach; at the other
    # 4, the point moves to p4, where striking w's pure power leaves no
    # tangent monomial, or no end of the edge has the gcd weight
    reached, unreached = [], []
    for fid in catalog.ids():
        member = catalog.member(fid)
        w = member.gprime.weights
        for q in member.quotients:
            try:
                vertex = point_vertex(w, q.locus)
                support = support_with_point_at_vertex(member.support, vertex, w[vertex])
                j = tangent_coordinate(support, w, vertex)
            except (UncoveredCaseError, NotQuasismoothError):
                unreached.append(f"{fid} {q.locus}")
                continue
            reached.append(f"{fid} {q.locus}")
            assert w[vertex] == q.r
            local = sorted(w[i] % q.r for i in range(5) if i not in (vertex, j))
            assert local == [1, q.a, q.r - q.a], f"family {fid} {q.locus}"
    assert len(reached) == 19
    assert unreached == ["42 p2p4", "55 p2p4", "77 p2p3", "77 p2p4"]


def general_and_strata(catalog) -> list:
    """The 14 general members, each followed by its quasi-smooth one-monomial strata."""
    members = []
    for fid in catalog.ids():
        member = catalog.member(fid)
        members.append(member)
        for monomial in member.support.sorted():
            try:
                members.append(stratum(member, monomial))
            except NotQuasismoothError:
                continue
    return members


def per_call_nef_numbers(member, q) -> tuple:
    """The nef divisor's numbers by the rule, in plain Fraction arithmetic:
    (lifts, c, certified, (M . B^2)) of the first 3-subset S of the
    coordinates other than the point's vertex, in combinations order, of
    least c = max((d/r - order)/d) among those with a monomial of the support
    (the point at its vertex) free of S; certified is c <= 1/r, and M is the
    first lift that attains c, of degree d and order o, so (M . B^2) is
    d A^3 - o / (a (r - a))."""
    w, r = member.gprime.weights, q.r
    vertex = point_vertex(w, q.locus)
    support = support_with_point_at_vertex(member.support, vertex, w[vertex])
    k = _kawamata_weights(w, vertex, r)
    orders = {i: F(x, r) for i, x in enumerate(k)}
    orders[4] = vanishing_order(support, tuple(orders.values()), eliminated=4)
    best = None
    for s in combinations([i for i in range(5) if i != vertex], 3):
        if not any(all(m[i] == 0 for i in s) for m in support.monomials):
            continue
        ratios = [(F(w[i], r) - orders[i]) / w[i] for i in s]
        if best is None or max(ratios) < best[1]:
            best = s, max(ratios)
    if best is None:
        raise UncoveredCaseError(f"family {member.g.id} {q.locus}: no three sections with a finite locus on X")
    s, c = best
    lifts = tuple([SectionLift(w[i], F(w[i], r) - orders[i]) for i in s])
    i = next(i for i in s if (F(w[i], r) - orders[i]) / w[i] == c)
    return lifts, c, c <= F(1, r), member.a_cube * w[i] - orders[i] / (q.a * (r - q.a))


def per_call_pairings(member, q) -> tuple:
    """The infinite-curves builder's arithmetic as it ran on every call
    before the local model kept its pairings, with the constants it cited by
    family id before the catalog's rows held them: ((B . C), (E . C))."""
    r, fid = q.r, member.g.id
    ring = BlowupRing.kawamata_tower(member.a_cube, [q])
    b, e = (1, F(-1, r)), (0, 1)
    if fid == 23:
        s, t = b, (4, F(-4, r))
        return triple(ring, b, s, t) - F(r - 6, 6 * r), triple(ring, e, s, t) - 1
    if fid == 30:
        return F(2 * r - 6, 3 * r), F(2)
    if fid in (55, 69):
        s, t = b, {55: (2, F(-3, 2)), 69: (2, F(-12, 5))}[fid]
        return triple(ring, b, s, t), triple(ring, e, s, t)
    raise UncoveredCaseError(f"no infinite-curves data for family {fid} at {q.locus}")


def outcome_of(derive, *args):
    """derive(*args), or the type and message of what it raised."""
    try:
        return derive(*args)
    except ValueError as exc:  # UncoveredCaseError too
        return type(exc), str(exc)


def test_each_local_model_is_the_per_call_derivation(catalog):
    # every field of each quotient point's local model (`Member.local`) is
    # what the builders derived per call before the member kept it, and the
    # restriction support (`Member.gamma`) is gamma_polynomial's.  A point
    # that point_vertex moves to no vertex keeps its reason word for word;
    # every point it moves, also to the cAx vertex p4, has w's order.  The
    # kept nef numbers (`LocalModel.nef`), or the error they raise, and the
    # pairings kept for each infinite-curves row (`LocalModel.pairings`) are
    # the builders' per-call arithmetic, and so is each certificate
    # `dispatch` builds from them where a nef-divisor or infinite-curves row
    # runs.  The nef numbers raise at the 110 points that move to no vertex
    members = general_and_strata(catalog)
    points, unreached, runs, errors = 0, 0, {"nef-divisor": 0, "infinite-curves": 0}, Counter()
    for member in members:
        fid, w, a_cube = member.g.id, member.gprime.weights, member.a_cube
        assert member.gamma == gamma_polynomial(member)
        assert list(member.local) == [q.locus for q in member.quotients]
        for q in member.quotients:
            points += 1
            model = member.local[q.locus]
            nef = outcome_of(per_call_nef_numbers, member, q)
            assert outcome_of(lambda: model.nef) == nef
            if type(nef[0]) is type:
                errors[nef[1].split(" ")[0]] += 1
            for row in member.golden.link_column:
                if row.point == q.locus and row.method in runs:
                    runs[row.method] += 1
                    cert, _ = dispatch(member, Center.quotient_point(q), row)
                    if row.method == "nef-divisor":
                        lifts, c, certified, m_b2 = nef
                        assert cert == NefDivisor(lifts=lifts, q=q, m_b2=m_b2, c=c, certified=certified)
                    else:
                        pairings = per_call_pairings(member, q)
                        assert model.pairings(row) == pairings and cert == InfiniteCurves(*pairings)
            ring, b_cube = BlowupRing.kawamata_tower(a_cube, [q]), b_cubed(a_cube, q)
            try:
                vertex = point_vertex(w, q.locus)
            except UncoveredCaseError as exc:
                unreached += 1
                assert model == LocalModel(q, fid, w, ring, b_cube, unreached=str(exc))
                with pytest.raises(UncoveredCaseError, match=f"^edge {q.locus} point cannot be moved to a vertex$"):
                    model.at_vertex()
                continue
            support = support_with_point_at_vertex(member.support, vertex, w[vertex])
            k = _kawamata_weights(w, vertex, q.r)
            order = vanishing_order(support, tuple(F(x, q.r) for x in k), eliminated=4)
            assert model.at_vertex() == LocalModel(q, fid, w, ring, b_cube, vertex=vertex, support=support,
                                                   weights=k, quadratic=qi_eligible(member, q.locus),
                                                   w_order=order)
    assert (len(members), points, unreached) == (1_282, 1_987, 110)
    assert runs == {"nef-divisor": 229, "infinite-curves": 361}
    assert errors == {"edge": 110}


def test_negdef2_examples():
    m = NegDefMatrix(alpha=F(1, 4), beta=F(-2, 5), parameter_floor=F(1))
    assert reference_negdef2(m.entries_at(F(1)))
    assert m.verdict().excluded
    m = NegDefMatrix(alpha=F(-1, 10), beta=F(1, 60), parameter_floor=F(1, 2))
    assert reference_negdef2(m.entries_at(F(1, 2)))
    assert m.verdict().excluded
    assert not reference_negdef2([[F(1), F(0)], [F(0), F(1)]])


def grid_negdef(m):
    values = [F(p, q) for q in (1, 2, 3, 4) for p in range(-10 * q, 10 * q + 1)]
    axis = sorted(set(values))
    for v0 in axis:
        for v1 in (F(0), F(1)):
            if v0 == 0 and v1 == 0:
                continue
            # directions (1, t) and (t, 1) cover the projective line over the grid
            for v in ((v1, v0), (v0, v1)):
                q = v[0] * (m[0][0] * v[0] + m[0][1] * v[1]) + v[1] * (m[1][0] * v[0] + m[1][1] * v[1])
                if q >= 0:
                    return False
    return True


def test_negdef2_matches_grid_oracle():
    rng = random.Random(20240)
    for _ in range(200):
        a = F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        b = F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        c = F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        m = [[a, b], [b, c]]
        assert reference_negdef2(m) == grid_negdef(m), m


def test_infinite_curves_examples():
    assert InfiniteCurves(F(0), F(2)).verdict().excluded
    assert InfiniteCurves(F(0), F(3)).verdict().excluded
    assert not InfiniteCurves(F(1, 6), F(2)).verdict().excluded
    assert not InfiniteCurves(F(0), F(0)).verdict().excluded


def test_qi_eligibility(catalog):
    assert qi_eligible(catalog.member(19), "p3")
    assert qi_eligible(catalog.member(30), "p2")  # y^2 z in the generic member
    assert qi_eligible(catalog.member(50), "p3")
    assert qi_eligible(catalog.member(41), "p2p3")  # the edge point moves to the weight-3 vertex
    assert not qi_eligible(catalog.member(29), "p3")  # z^2 x_j would need degree 0


def test_dispatch_example_23(catalog):
    q = QuotientSingularity(2, 1, locus="p2p4")
    cert, verdict = dispatch_branch(catalog.member(23), Center.quotient_point(q), "not-exists-wci(1,1,4)")
    assert isinstance(cert, SurfacePair) and verdict.excluded
    cert, verdict = dispatch_branch(catalog.member(23), Center.quotient_point(q), "exists-wci(1,1,4)")
    assert isinstance(cert, InfiniteCurves) and verdict.excluded


def test_dispatch_example_19_third_point(catalog):
    q = QuotientSingularity(3, 1, locus="p3")
    cert, verdict = dispatch_branch(catalog.member(19), Center.quotient_point(q))
    assert isinstance(cert, Untwist) and cert.tag == "QI"
    assert not verdict.excluded and verdict.resolved


def test_dispatch_curve_special(catalog):
    cert, verdict = dispatch_branch(catalog.member(19), Center.curve(F(1, 2)))
    assert isinstance(cert, CurveGamma) and verdict.witness == F(-1, 2)
    cert, verdict = dispatch_branch(catalog.member(17), Center.curve(F(1, 2)))
    assert cert.method == "curve-cycle" and verdict.excluded


def test_dispatch_uncovered_cases(catalog):
    with pytest.raises(UncoveredCaseError, match="below"):
        dispatch_branch(catalog.member(17), Center.curve(F(1, 4)))


def test_every_link_method_has_a_point_builder():
    # a catalog row names a builder of BUILDERS; the curve and isolation
    # builders serve the single-branch centers only
    assert set(LINK_METHODS) == set(BUILDERS) - {"curve", "isolation"}


def edit_row(member, point, condition, **fields):
    """The member with the link row at (point, condition) given new `fields`."""
    return with_rows(member, [row._replace(**fields) if (row.point, row.condition) == (point, condition) else row
                              for row in member.golden.link_column])


def quotient_center(member, locus):
    return Center.quotient_point(next(q for q in member.quotients if q.locus == locus))


def test_an_involution_is_quadratic_exactly_where_it_can_be(catalog):
    # rule (c): the QI tag exactly where qi_eligible holds; family 19's p3
    # has its x^2 y monomial, so an elementary involution there is uncovered,
    # while its p2p4 lacks one and keeps EI and II, eligible printed as None
    member = edit_row(catalog.member(19), "p3", "", tag="EI")
    with pytest.raises(UncoveredCaseError, match="^family 19 p3: an x\\^2 y tangent monomial makes the "
                                                 "involution quadratic, not 'EI'$"):
        dispatch_branch(member, quotient_center(member, "p3"))
    member = catalog.member(19)
    for condition, tag in (("not-exists-wci(1,1,2)", "EI"), ("exists-wci(1,1,2)", "II")):
        cert, verdict = dispatch_branch(member, quotient_center(member, "p2p4"), condition)
        assert (cert.tag, cert.eligible, verdict.resolved) == (tag, None, True)


def test_a_builder_at_a_point_that_moves_to_no_vertex_is_uncovered(catalog):
    # family 77's p2p3 point: gcd(6, 9) = 3 is neither end's weight.  Its
    # surface-pair row needs no vertex; a nef divisor or an involution there
    # reads the point at its vertex, and is uncovered with point_vertex's reason
    reason = "edge p2p3 point cannot be moved to a vertex"
    member = catalog.member(77)
    assert dispatch_branch(member, quotient_center(member, "p2p3"))[1].excluded
    for fields in ({"method": "nef-divisor"}, {"method": "untwist", "tag": "QI"}):
        edited = edit_row(member, "p2p3", "", **fields)
        with pytest.raises(UncoveredCaseError, match=f"^{reason}$"):
            dispatch_branch(edited, quotient_center(edited, "p2p3"))
        assert build_report(edited).uncovered == (reason,)


def test_verdict_witness_reverifies(catalog):
    # recomputing a verdict's witness from the certificate inputs reproduces it
    q = QuotientSingularity(2, 1, locus="p2p4")
    cert, verdict = dispatch_branch(catalog.member(23), Center.quotient_point(q), "not-exists-wci(1,1,4)")
    assert verdict.witness == cert.a1 ** 2 * cert.b_cube
    cert, verdict = dispatch_branch(catalog.member(19), Center.curve(F(1, 2)))
    assert verdict.witness == 3 * cert.a_cube - 2 * cert.deg + cert.gamma_sq


def test_all_excluded_witnesses_reverify(catalog):
    """Recomputing every witness from the raw certificate inputs reproduces it."""
    from fano_wci.blowup import BlowupRing, triple
    from fano_wci.report import build_report

    for fid in catalog.ids():
        report = build_report(catalog.member(fid))
        a_cube = catalog.pair(fid).gprime.a_cube()
        for cr in report.centers:
            for br in cr.branches:
                cert, v = br.certificate, br.verdict
                if v.method == "curve-degree":
                    assert v.witness == cert.deg - cert.a_cube and (v.witness >= 0) == v.excluded
                elif v.method == "curve-gamma":
                    assert v.witness == 3 * cert.a_cube - 2 * cert.deg + cert.gamma_sq
                elif v.method == "curve-cycle":
                    assert v.witness == cert.gamma_dot_delta - cert.a_dot_delta
                elif v.method == "isolation":
                    assert v.witness == cert.bound and cert.limit == F(4) / a_cube
                elif v.method == "surface-pair":
                    assert v.witness == cert.a1 ** 2 * cert.b_cube
                elif v.method == "nef-divisor":
                    ring = BlowupRing.kawamata_tower(a_cube, [cert.q])
                    m_lift = max(cert.lifts, key=lambda l: F(l.class_e, l.class_b))
                    # M = d B + e E with B = A - E/r, in the (A, E) basis
                    m = (m_lift.class_b, m_lift.class_e - F(m_lift.class_b, cert.q.r))
                    b = (1, F(-1, cert.q.r))
                    assert v.witness == cert.m_b2 == triple(ring, m, b, b)
                elif v.method == "negdef-matrix":
                    e = cert.entries_at(cert.parameter_floor)
                    assert v.witness == e[0][0] * e[1][1] - e[0][1] * e[1][0]
                elif v.method == "infinite-curves":
                    assert v.witness == cert.b_dot_c
                if v.excluded:
                    assert v.witness is not None


def test_certificates_serialize(catalog):
    q = QuotientSingularity(2, 1, locus="p1p4")
    for condition in ("not-exists-wci(1,3,4)", "exists-wci(1,3,4)"):
        cert, _ = dispatch_branch(catalog.member(50), Center.quotient_point(q), condition)
        blob = certificate_json(cert)
        assert blob["paper_method"] == cert.method
