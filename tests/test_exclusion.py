import random
from fractions import Fraction

import pytest

from fano_wci.blowup import ambient_quadruple
from fano_wci.exclusion import (POINT_RULES, Center, CurveCycle, CurveDegree, CurveGamma, InfiniteCurves,
                                Isolation, NegDefMatrix, RuleBranch, SurfacePair, UncoveredCaseError, Untwist,
                                certificate_json, dispatch, gamma_polynomial, negdef2, negdef_for_all,
                                point_vertex, qi_eligible)
from fano_wci.report import GOLDEN
from fano_wci.singularities import (NotQuasismoothError, QuotientSingularity, support_with_point_at_vertex,
                                    tangent_coordinate)
from fano_wci.wps import MonomialSupport

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
    cases = {42: (2, 10, F(40, 3)), 19: (2, 6, F(6)), 50: (1, 20, F(240, 7)), 23: (4, 6, F(48, 5))}
    for fid, (drop, bound, limit) in cases.items():
        cert, verdict = dispatch(catalog.member(fid), Center.smooth_point())
        assert cert == Isolation(bound=bound, limit=limit, dropped_vertex=drop)
        assert F(4) / catalog.pair(fid).gprime.a_cube() == limit
        assert verdict.excluded


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


def test_gamma_rows_are_the_surface_pair_families():
    # the golden gamma_rows check reads the support off a surface-pair
    # certificate, so its entries are the nine surface-pair families
    surface_pair = {fid for fid, rules in POINT_RULES.items()
                    if any(br.method == "surface-pair" for branches in rules.values() for br in branches)}
    assert surface_pair == set(GOLDEN["gamma_rows"]) == {23, 29, 42, 49, 50, 55, 74, 77, 82}


def test_nef_divisor_points_move_to_vertex_1(catalog):
    # the half points p1p4 of the nef-divisor families sit at the weight-2 end
    nef = [fid for fid, rules in POINT_RULES.items()
           if any(br.method == "nef-divisor" for branches in rules.values() for br in branches)]
    assert nef == [50, 74, 82]
    assert [point_vertex(catalog.pair(fid).gprime.weights, "p1p4") for fid in nef] == [1, 1, 1]


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
    cert, verdict = dispatch(member, Center.quotient_point(q), "monomial-absent(z^3 t)")
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


def test_negdef2_examples():
    m = NegDefMatrix(alpha=F(1, 4), beta=F(-2, 5), parameter_floor=F(1))
    assert negdef2(m.entries_at(F(1)))
    assert negdef_for_all(m)
    m = NegDefMatrix(alpha=F(-1, 10), beta=F(1, 60), parameter_floor=F(1, 2))
    assert negdef2(m.entries_at(F(1, 2)))
    assert negdef_for_all(m)
    assert not negdef2([[F(1), F(0)], [F(0), F(1)]])


def test_negdef2_asymmetric():
    with pytest.raises(ValueError):
        negdef2([[F(-1), F(1)], [F(2), F(-1)]])


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
        assert negdef2(m) == grid_negdef(m), m


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
    cert, verdict = dispatch(catalog.member(23), Center.quotient_point(q), "not-exists-wci(1,1,4)")
    assert isinstance(cert, SurfacePair) and verdict.excluded
    cert, verdict = dispatch(catalog.member(23), Center.quotient_point(q), "exists-wci(1,1,4)")
    assert isinstance(cert, InfiniteCurves) and verdict.excluded


def test_dispatch_example_19_third_point(catalog):
    q = QuotientSingularity(3, 1, locus="p3")
    cert, verdict = dispatch(catalog.member(19), Center.quotient_point(q))
    assert isinstance(cert, Untwist) and cert.tag == "QI"
    assert not verdict.excluded and verdict.resolved


def test_dispatch_curve_special(catalog):
    cert, verdict = dispatch(catalog.member(19), Center.curve(F(1, 2)))
    assert isinstance(cert, CurveGamma) and verdict.witness == F(-1, 2)
    cert, verdict = dispatch(catalog.member(17), Center.curve(F(1, 2)))
    assert cert.method == "curve-cycle" and verdict.excluded


def test_dispatch_uncovered_cases(catalog):
    q = QuotientSingularity(2, 1, locus="p2p4")
    with pytest.raises(UncoveredCaseError, match="expected one of: 'not-exists-wci"):
        dispatch(catalog.member(23), Center.quotient_point(q))
    with pytest.raises(UncoveredCaseError, match="expected one of: ''"):
        dispatch(catalog.member(19), Center.quotient_point(QuotientSingularity(3, 1, locus="p3")),
                 "exists-wci(1,1,2)")
    with pytest.raises(UncoveredCaseError, match="no center"):
        dispatch(catalog.member(17), Center.quotient_point(QuotientSingularity(2, 1, locus="p1p2")))
    with pytest.raises(UncoveredCaseError, match="below"):
        dispatch(catalog.member(17), Center.curve(F(1, 4)))


def test_a_quotient_point_method_at_the_cax_point_is_uncovered(catalog, monkeypatch):
    # only an untwist applies at p4: a rule edited to another method leaves
    # the center uncovered instead of failing inside the builder
    member = catalog.member(17)
    for method in ("surface-pair", "infinite-curves", "nef-divisor", "negdef-matrix"):
        monkeypatch.setitem(POINT_RULES[17], "p4", (RuleBranch("", method, "link"),))
        with pytest.raises(UncoveredCaseError, match=f"^family 17 p4: {method} needs a quotient point$"):
            dispatch(member, Center.cax_point(member.cax))


def test_a_condition_on_a_single_branch_center_is_rejected(catalog):
    # a curve and the nonsingular point have one unconditional branch, so a
    # condition names no branch there, as at a point center
    with pytest.raises(UncoveredCaseError, match="family 17 nonsingular point: no branch under condition "
                                                 "'exists-wci\\(1,1,2\\)'; expected one of: ''$"):
        dispatch(catalog.member(17), Center.smooth_point(), "exists-wci(1,1,2)")
    with pytest.raises(UncoveredCaseError, match="family 19 curve of degree 1/2: no branch under condition "
                                                 "'monomial-absent\\(y\\^2 z\\)'; expected one of: ''$"):
        dispatch(catalog.member(19), Center.curve(F(1, 2)), "monomial-absent(y^2 z)")


def test_verdict_witness_reverifies(catalog):
    # recomputing a verdict's witness from the certificate inputs reproduces it
    q = QuotientSingularity(2, 1, locus="p2p4")
    cert, verdict = dispatch(catalog.member(23), Center.quotient_point(q), "not-exists-wci(1,1,4)")
    assert verdict.witness == cert.a1 ** 2 * cert.b_cube
    cert, verdict = dispatch(catalog.member(19), Center.curve(F(1, 2)))
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
        cert, _ = dispatch(catalog.member(50), Center.quotient_point(q), condition)
        blob = certificate_json(cert)
        assert blob["paper_method"] == cert.method
