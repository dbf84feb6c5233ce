import random
from fractions import Fraction

import pytest

from fano_wci.exclusion import (POINT_RULES, Center, CurveGamma, InfiniteCurves, NegDefMatrix,
                                SurfacePair, UncoveredCaseError, Untwist, certificate_json,
                                curve_cycle_test, curve_degree_test, curve_gamma_test, dispatch,
                                gamma_polynomial, infinite_curves_test, isolation_test, negdef2,
                                negdef_for_all, point_vertex, qi_eligible, surface_pair_test)
from fano_wci.report import GOLDEN
from fano_wci.singularities import QuotientSingularity
from fano_wci.wps import MonomialSupport

F = Fraction
HALF = QuotientSingularity(2, 1)


def test_curve_degree_examples():
    assert curve_degree_test(F(1), F(1)).excluded
    assert not curve_degree_test(F(1, 2), F(2, 3)).excluded
    assert curve_degree_test(F(5, 12), F(5, 12)).excluded


def test_curve_gamma_examples():
    v19 = curve_gamma_test(F(2, 3), F(1, 2), F(-3, 2))
    assert v19.excluded and v19.witness == F(-1, 2)
    v23 = curve_gamma_test(F(5, 12), F(1, 4), F(-1))
    assert v23.excluded and v23.witness == F(-1, 4)
    assert not curve_gamma_test(F(2, 3), F(1, 2), F(-1, 2)).excluded


def test_curve_gamma_needs_negative_bound():
    with pytest.raises(ValueError):
        curve_gamma_test(F(2, 3), F(1, 2), F(0))


def test_curve_cycle():
    assert curve_cycle_test(F(1), F(1, 2)).excluded
    assert curve_cycle_test(F(7, 4), F(1, 2)).excluded
    assert not curve_cycle_test(F(1, 4), F(1, 2)).excluded


def test_isolation_examples(catalog):
    cases = {42: (2, 10, F(40, 3)), 19: (2, 6, F(6)), 50: (1, 20, F(240, 7)), 23: (4, 6, F(48, 5))}
    for fid, (drop, bound, limit) in cases.items():
        record = catalog.gprime(fid)
        got_bound, verdict = isolation_test(record.weights, drop, record.a_cube())
        assert got_bound == bound
        assert F(4) / record.a_cube() == limit
        assert verdict.excluded


def test_surface_pair_examples(catalog):
    gamma29 = gamma_polynomial(catalog.member(29))
    v = surface_pair_test(1, F(0), gamma29, True)
    assert v.excluded and v.witness == 0
    gamma50 = gamma_polynomial(catalog.member(50))
    v = surface_pair_test(2, F(-1, 20), gamma50, True)
    assert v.excluded and v.witness == F(-1, 5)
    assert not surface_pair_test(1, F(1, 6), gamma29, True).excluded


def test_surface_pair_flag_false_demands_fallback(catalog):
    gamma = gamma_polynomial(catalog.member(50))
    with pytest.raises(UncoveredCaseError, match="family-specific"):
        surface_pair_test(2, F(-1, 20), gamma, False)


def test_gamma_polynomial_examples(catalog):
    assert gamma_polynomial(catalog.member(77)).monomials == {(2, 0, 3), (3, 0, 0), (0, 2, 0)}
    assert gamma_polynomial(catalog.member(82)).monomials == {(2, 0, 3), (0, 2, 0)}
    assert gamma_polynomial(catalog.member(42)).monomials == {(2, 0, 2), (0, 2, 1), (3, 0, 0)}


def test_gamma_rows_are_the_surface_pair_families():
    # gamma_polynomial serves the surface-pair certificate and the golden
    # gamma_rows check, so both reach it for the same nine families
    surface_pair = {fid for fid, rules in POINT_RULES.items()
                    if any(br.method == "surface-pair" for branches in rules.values() for br in branches)}
    assert surface_pair == set(GOLDEN["gamma_rows"]) == {23, 29, 42, 49, 50, 55, 74, 77, 82}


def test_nef_divisor_points_move_to_vertex_1(catalog):
    # the half points p1p4 of the nef-divisor families sit at the weight-2 end
    nef = [fid for fid, rules in POINT_RULES.items()
           if any(br.method == "nef-divisor" for branches in rules.values() for br in branches)]
    assert nef == [50, 74, 82]
    assert [point_vertex(catalog.gprime(fid).weights, "p1p4") for fid in nef] == [1, 1, 1]


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
    assert infinite_curves_test(F(0), F(2)).excluded
    assert infinite_curves_test(F(0), F(3)).excluded
    assert not infinite_curves_test(F(1, 6), F(2)).excluded
    assert not infinite_curves_test(F(0), F(0)).excluded


def test_qi_eligibility(catalog):
    assert qi_eligible(catalog.member(19), "p3")
    assert qi_eligible(catalog.member(30), "p2")  # y^2 z in the generic member
    assert qi_eligible(catalog.member(50), "p3")
    assert qi_eligible(catalog.member(41), "p2p3")  # the edge point moves to the weight-3 vertex
    assert not qi_eligible(catalog.member(29), "p3")  # z^2 x_j would need degree 0


def test_dispatch_example_23(catalog):
    q = QuotientSingularity(2, 1, locus="p2p4")
    cert, verdict = dispatch(23, Center.quotient_point(q), "not-exists-wci(1,1,4)", catalog=catalog)
    assert isinstance(cert, SurfacePair) and verdict.excluded
    cert, verdict = dispatch(23, Center.quotient_point(q), "exists-wci(1,1,4)", catalog=catalog)
    assert isinstance(cert, InfiniteCurves) and verdict.excluded


def test_dispatch_example_19_third_point(catalog):
    q = QuotientSingularity(3, 1, locus="p3")
    cert, verdict = dispatch(19, Center.quotient_point(q), catalog=catalog)
    assert isinstance(cert, Untwist) and cert.tag == "QI"
    assert not verdict.excluded and verdict.resolved


def test_dispatch_curve_special(catalog):
    cert, verdict = dispatch(19, Center.curve(F(1, 2)), catalog=catalog)
    assert isinstance(cert, CurveGamma) and verdict.witness == F(-1, 2)
    cert, verdict = dispatch(17, Center.curve(F(1, 2)), catalog=catalog)
    assert cert.method == "curve-cycle" and verdict.excluded


def test_dispatch_uncovered_cases(catalog):
    q = QuotientSingularity(2, 1, locus="p2p4")
    with pytest.raises(UncoveredCaseError, match="expected one of: 'not-exists-wci"):
        dispatch(23, Center.quotient_point(q), catalog=catalog)
    with pytest.raises(UncoveredCaseError, match="expected one of: ''"):
        dispatch(19, Center.quotient_point(QuotientSingularity(3, 1, locus="p3")), "exists-wci(1,1,2)",
                 catalog=catalog)
    with pytest.raises(UncoveredCaseError, match="no center"):
        dispatch(17, Center.quotient_point(QuotientSingularity(2, 1, locus="p1p2")), catalog=catalog)
    with pytest.raises(UncoveredCaseError, match="below"):
        dispatch(17, Center.curve(F(1, 4)), catalog=catalog)


def test_verdict_witness_reverifies(catalog):
    # recomputing a verdict's witness from the certificate inputs reproduces it
    q = QuotientSingularity(2, 1, locus="p2p4")
    cert, verdict = dispatch(23, Center.quotient_point(q), "not-exists-wci(1,1,4)", catalog=catalog)
    assert verdict.witness == cert.a1 ** 2 * cert.b_cube
    cert, verdict = dispatch(19, Center.curve(F(1, 2)), catalog=catalog)
    assert verdict.witness == 3 * cert.a_cube - 2 * cert.deg + cert.gamma_sq


def test_all_excluded_witnesses_reverify(catalog):
    """Recomputing every witness from the raw certificate inputs reproduces it."""
    from fano_wci.blowup import BlowupLattice, triple
    from fano_wci.report import build_report

    for fid in catalog.ids():
        report = build_report(catalog, fid)
        a_cube = catalog.gprime(fid).a_cube()
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
                    lat = BlowupLattice.over(a_cube, [cert.q])
                    m_lift = max(cert.lifts, key=lambda l: F(l.class_e, l.class_b))
                    m = m_lift.class_b * lat.anticanonical() + m_lift.class_e * lat.exceptional_class()
                    b = lat.anticanonical()
                    assert v.witness == cert.m_b2 == triple(lat, m, b, b)
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
        cert, _ = dispatch(50, Center.quotient_point(q), condition, catalog=catalog)
        blob = certificate_json(cert)
        assert blob["paper_method"] == cert.method
