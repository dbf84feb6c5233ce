import pytest

from fano_wci.catalog import FamilyRecord, is_double_cover_shape
from fano_wci.links import build_counterpart, counterpart_inverse, involution_inventory, to_standard_form
from fano_wci.singularities import StandardFormError, equation_shape, singular_locus
from fano_wci.wps import WeightSystem


def test_standard_forms(catalog):
    assert to_standard_form(catalog.g(17)).role_weights == (1, 4, 1, 1, 3, 5)
    assert to_standard_form(catalog.g(19)).role_weights == (2, 3, 1, 1, 4, 4)
    assert to_standard_form(catalog.g(82)).role_weights == (5, 11, 1, 2, 9, 13)


def test_standard_form_constraints(catalog):
    for fid in catalog.ids():
        form = to_standard_form(catalog.g(fid))
        a0, a1, a2, a3, a4, a5 = form.role_weights
        d1, d2 = form.degrees
        assert a2 <= a3
        if is_double_cover_shape(catalog.g(fid).subfamily):
            assert a5 == a4 and d1 == a0 + a5 == 2 * a1 and d2 == a4 + a5 == 2 * a4
        else:
            assert all(a5 > a for a in (a0, a1, a2, a3, a4))
            assert d1 == a0 + a5 == 2 * a4 and d2 == a4 + a5 == 2 * a1


def test_standard_form_unsolvable():
    broken = FamilyRecord(id=19, kind="G", weights=WeightSystem((1, 1, 2, 3, 4, 5)),
                          degrees=(6, 8), subfamily="I'2")
    with pytest.raises(StandardFormError):
        to_standard_form(broken)


def test_counterparts(catalog):
    ld = build_counterpart(catalog.g(17))
    assert ld.b == 2
    assert ld.display_weights().weights == (1, 1, 1, 4, 2) and ld.xprime_degree == 8
    ld = build_counterpart(catalog.g(50))
    assert ld.b == 4
    assert ld.display_weights().weights == (1, 2, 3, 5, 4) and ld.xprime_degree == 14
    ld = build_counterpart(catalog.g(19))
    assert ld.z_degree == 6 + 8 - 4


def test_counterparts_match_catalog(catalog):
    for fid in catalog.ids():
        ld = build_counterpart(catalog.g(fid))
        gp = catalog.gprime(fid)
        assert ld.display_weights().weights == gp.weights.weights, f"family {fid}"
        assert sorted(ld.xprime_weights.weights) == sorted(gp.weights.weights)
        assert ld.xprime_degree == gp.degrees[0]


def test_b_matches_subfamily(catalog):
    for fid in catalog.ids():
        ld = build_counterpart(catalog.g(fid))
        expected = 2 if catalog.g(fid).subfamily in ("I'2", "I''2") else 4
        assert ld.b == expected


def test_z_degree_identities(catalog):
    for fid in catalog.ids():
        form = to_standard_form(catalog.g(fid))
        ld = build_counterpart(catalog.g(fid))
        d1, d2 = form.degrees
        a4, a5 = form.role_weights[4], form.role_weights[5]
        assert ld.z_degree == d1 + d2 - a5
        if ld.equation_shape == "I'-shape":
            assert ld.z_degree == a4 + d1
        else:
            assert ld.z_degree == 3 * a4


def test_counterpart_inverse_examples(catalog):
    weights, degrees = counterpart_inverse(equation_shape(catalog.gprime(19)))
    assert weights.weights == (1, 1, 2, 3, 4, 4) and degrees == (6, 8)
    weights, degrees = counterpart_inverse(equation_shape(catalog.gprime(82)))
    assert weights.weights == (1, 2, 5, 9, 11, 13) and degrees == (18, 22)


def test_round_trip_is_identity(catalog):
    for fid in catalog.ids():
        g = catalog.g(fid)
        weights, degrees = counterpart_inverse(equation_shape(catalog.gprime(fid)))
        assert weights.weights == g.weights.weights
        assert degrees == tuple(sorted(g.degrees))


def test_involution_inventory_examples(catalog):
    pair = catalog.member(30)
    quotients, _ = singular_locus(pair.gprime)
    tags = involution_inventory(pair, quotients)
    p2 = {(t.condition, t.tag) for t in tags if t.point == "p2"}
    assert p2 == {("monomial-present(y^2 z)", "QI"), ("monomial-absent(y^2 z)", "none")}

    pair = catalog.member(19)
    quotients, _ = singular_locus(pair.gprime)
    tags = involution_inventory(pair, quotients)
    half = {(t.condition, t.tag) for t in tags if t.point == "p2p4"}
    assert half == {("not-exists-wci(1,1,2)", "EI"), ("exists-wci(1,1,2)", "II")}
    assert any(t.point == "p4" and t.tag == "link" for t in tags)


def test_inventory_matches_golden(catalog):
    for fid in catalog.ids():
        pair = catalog.member(fid)
        quotients, _ = singular_locus(pair.gprime)
        got = sorted((t.point, t.tag, t.condition) for t in involution_inventory(pair, quotients))
        want = sorted((l.point, l.tag, l.condition) for l in pair.golden.link_column)
        assert got == want, f"family {fid}"


def test_inventory_rejects_mismatched_basket(catalog):
    pair = catalog.member(50)
    quotients, _ = singular_locus(catalog.gprime(29))
    with pytest.raises(ValueError, match="do not match"):
        involution_inventory(pair, quotients)
