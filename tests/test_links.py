import pytest

from fano_wci.catalog import CatalogError, FamilyRecord
from fano_wci.links import (build_counterpart, check_counterpart, counterpart_inverse, involution_inventory,
                            to_standard_form)
from fano_wci.report import build_report
from fano_wci.singularities import StandardFormError, cax_classify, equation_shape
from fano_wci.wps import MonomialSupport

# the extraction weights are read off the form alone: no support is needed
NO_TERMS = MonomialSupport(0, frozenset())


def form(catalog, fid):
    """The standard form of family `fid`'s G record."""
    return to_standard_form(catalog.pair(fid).g, catalog.pair(fid).gprime.subfamily)


def test_standard_forms(catalog):
    assert form(catalog, 17).role_weights == (1, 4, 1, 1, 3, 5)
    assert form(catalog, 19).role_weights == (2, 3, 1, 1, 4, 4)
    assert form(catalog, 82).role_weights == (5, 11, 1, 2, 9, 13)


def test_standard_form_constraints(catalog):
    for fid in catalog.ids():
        shape = form(catalog, fid)
        a0, a1, a2, a3, a4, a5 = shape.role_weights
        d1, d2 = shape.degrees
        assert a2 <= a3
        if shape.double_cover:
            assert a5 == a4 and d1 == a0 + a5 == 2 * a1 and d2 == a4 + a5 == 2 * a4
        else:
            assert all(a5 > a for a in (a0, a1, a2, a3, a4))
            assert d1 == a0 + a5 == 2 * a4 and d2 == a4 + a5 == 2 * a1


def test_standard_form_unsolvable():
    # d2/2 = 5 must fill a4 = a5 (I') or a1 beside the top weight a5 = 5 (I''): one 5 does neither
    broken = FamilyRecord(id=19, kind="G", weights=(1, 1, 2, 3, 4, 5), degrees=(6, 10))
    with pytest.raises(StandardFormError, match="no standard form \\(I' shape: .*; I'' shape: .*a1 = d2/2 = 5"):
        equation_shape(broken)


def test_standard_form_in_both_shapes_is_an_error():
    # (a0..a5) = (2, 3, 1, 5, 4, 4) in the I' shape and (1, 4, 2, 4, 3, 5) in
    # the I'' shape; no G record of Fano index 1 solves both
    both = FamilyRecord(id=19, kind="G", weights=(1, 2, 3, 4, 4, 5), degrees=(6, 8))
    with pytest.raises(StandardFormError, match="solves in both the I' and the I'' shape"):
        equation_shape(both)


def test_standard_form_of_another_subfamily(catalog):
    with pytest.raises(CatalogError, match="the G record solves to subfamily I'2, the catalog states I''2"):
        to_standard_form(catalog.pair(19).g, "I''2")
    with pytest.raises(CatalogError, match="the Gprime record solves to subfamily I''4, the catalog states I''2"):
        to_standard_form(catalog.pair(82).gprime, "I''2")


def test_counterparts(catalog):
    assert form(catalog, 17).b == 2
    weights, degree = build_counterpart(form(catalog, 17))
    assert weights == (1, 1, 1, 4, 2) and degree == 8
    assert form(catalog, 50).b == 4
    weights, degree = build_counterpart(form(catalog, 50))
    assert weights == (1, 2, 3, 5, 4) and degree == 14
    assert form(catalog, 19).z_degree == 6 + 8 - 4


def test_counterparts_match_catalog(catalog):
    for fid in catalog.ids():
        g_form = form(catalog, fid)
        weights, degree = build_counterpart(g_form)
        gp = catalog.pair(fid).gprime
        assert weights == gp.weights and degree == gp.degrees[0], f"family {fid}"
        check_counterpart(gp, g_form)
        # the counterpart's form is the G form, role by role: what the
        # renderers read off the Gprime form is the G form's
        shape = equation_shape(FamilyRecord(fid, "Gprime", weights, (degree,)))
        assert shape.subfamily == g_form.subfamily
        assert ((shape.role_weights, shape.degrees, shape.z_degree, shape.shape_name)
                == (g_form.role_weights, g_form.degrees, g_form.z_degree, g_form.shape_name)), f"family {fid}"
        assert (cax_classify(shape, NO_TERMS).extraction_weights
                == cax_classify(g_form, NO_TERMS).extraction_weights)


def test_b_matches_subfamily(catalog):
    for fid in catalog.ids():
        assert str(form(catalog, fid).b) == catalog.pair(fid).gprime.subfamily.lstrip("I'")


def test_z_degree_identities(catalog):
    for fid in catalog.ids():
        shape = form(catalog, fid)
        d1, d2 = shape.degrees
        a4, a5 = shape.role_weights[4], shape.role_weights[5]
        assert shape.z_degree == d1 + d2 - a5
        if shape.shape_name == "I'-shape":
            assert shape.z_degree == a4 + d1
        else:
            assert shape.z_degree == 3 * a4


def test_counterpart_inverse_examples(catalog):
    weights, degrees = counterpart_inverse(equation_shape(catalog.pair(19).gprime))
    assert weights == (1, 1, 2, 3, 4, 4) and degrees == (6, 8)
    weights, degrees = counterpart_inverse(equation_shape(catalog.pair(82).gprime))
    assert weights == (1, 2, 5, 9, 11, 13) and degrees == (18, 22)


def test_round_trip_is_identity(catalog):
    for fid in catalog.ids():
        g = catalog.pair(fid).g
        weights, degrees = counterpart_inverse(equation_shape(catalog.pair(fid).gprime))
        assert weights == g.weights
        assert degrees == tuple(sorted(g.degrees))


def test_involution_inventory_examples(catalog):
    tags = involution_inventory(build_report(catalog.member(30)))
    p2 = {(condition, tag) for point, tag, condition in tags if point == "p2"}
    assert p2 == {("monomial-present(y^2 z)", "QI"), ("monomial-absent(y^2 z)", "none")}

    tags = involution_inventory(build_report(catalog.member(19)))
    half = {(condition, tag) for point, tag, condition in tags if point == "p2p4"}
    assert half == {("not-exists-wci(1,1,2)", "EI"), ("exists-wci(1,1,2)", "II")}
    assert ("p4", "link", "") in tags


def test_inventory_matches_golden(catalog):
    for fid in catalog.ids():
        got = involution_inventory(build_report(catalog.member(fid)))
        # every row ran: its point, tag and condition, in row order
        assert got == [row[:3] for row in catalog.pair(fid).gprime.links], f"family {fid}"
