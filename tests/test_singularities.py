import itertools
import math
from fractions import Fraction

import pytest

from fano_wci.singularities import (ClassificationError, NotQuasismoothError,
                                    NonIsolatedSingularityError, QuotientSingularity,
                                    cax_classify, edge_root_count, edge_singularities,
                                    equation_shape, family_support,
                                    normalize_quotient, singular_locus, support_with_point_at_vertex,
                                    tangent_coordinate, vertex_singularities)
from fano_wci.wps import MonomialSupport


def test_normalize_quotient_examples():
    assert normalize_quotient(3, (1, 2, 4)) == QuotientSingularity(3, 1)
    assert normalize_quotient(2, (1, 1, 1)) == QuotientSingularity(2, 1)
    assert normalize_quotient(5, (2, 1, 4)) == QuotientSingularity(5, 2)


def test_normalize_quotient_idempotent():
    for r in range(2, 12):
        for a in range(1, r):
            try:
                q = normalize_quotient(r, (1, a, r - a))
            except ClassificationError:
                continue
            again = normalize_quotient(q.r, (1, q.a, q.r - q.a))
            assert (again.r, again.a) == (q.r, q.a)


def test_normalize_quotient_rejects_non_terminal():
    with pytest.raises(ClassificationError):
        normalize_quotient(4, (1, 2, 2))
    with pytest.raises(ClassificationError):
        normalize_quotient(3, (1, 3, 2))  # zero weight mod 3


def record_and_support(catalog, fid):
    member = catalog.member(fid)
    return member.gprime, member.support


def test_vertex_examples(catalog):
    # weight-3 vertex of No.23 carries 1/3(1,1,2)
    quotients = vertex_singularities(*record_and_support(catalog, 23))
    assert [(q.locus, q.type_str()) for q in quotients] == [("p3", "1/3(1,1,2)")]
    # weight-4 vertex of No.30 carries 1/4(1,1,3)
    quotients = {q.locus: q.type_str() for q in vertex_singularities(*record_and_support(catalog, 30))}
    assert quotients == {"p2": "1/3(1,1,2)", "p3": "1/4(1,1,3)"}
    # No.17 has only the distinguished point
    assert vertex_singularities(*record_and_support(catalog, 17)) == []


def test_edge_examples(catalog):
    record, support = record_and_support(catalog, 29)
    q29 = edge_singularities(record, (2, 4), support)
    assert (q29.type_str(), q29.count) == ("1/2(1,1,1)", 3)
    record, support = record_and_support(catalog, 23)
    q23 = edge_singularities(record, (2, 4), support)
    assert (q23.type_str(), q23.count) == ("1/2(1,1,1)", 1)
    record, support = record_and_support(catalog, 19)
    q19 = edge_singularities(record, (2, 4), support)
    assert (q19.type_str(), q19.count) == ("1/2(1,1,1)", 2)


def test_edge_count_zero_when_member_avoids_interior(catalog):
    # the (z, w) edge of No.30 meets the member only at vertices
    record, support = record_and_support(catalog, 30)
    assert edge_singularities(record, (3, 4), support) is None


def test_baskets_match_golden(catalog):
    for fid in catalog.ids():
        member = catalog.member(fid)
        quotients, cax = singular_locus(member.gprime, member.shape, member.support)
        computed = [(q.type_str(), q.count, q.locus) for q in quotients] + [(cax.type_str(), 1, "p4")]
        assert computed == list(catalog.golden(fid).basket), f"family {fid}"


def test_cax_classify(catalog):
    shape19, shape49 = catalog.member(19).shape, catalog.member(49).shape
    p = cax_classify(shape19, f_is_zero=False, g1_is_zero=False)
    assert (p.modulus, p.square_type) == (2, True)
    p = cax_classify(shape19, f_is_zero=True, g1_is_zero=False)
    assert (p.modulus, p.square_type) == (2, False)
    p = cax_classify(shape49, f_is_zero=False, g1_is_zero=True)
    assert (p.modulus, p.square_type) == (4, False)


def test_extractions_at_cax(catalog):
    # No.17: weights (a4, a1, a2, a3)/b = (3, 4, 1, 1)/2
    p = cax_classify(catalog.member(17).shape, False, False)
    assert p.extraction_weights == (Fraction(3, 2), Fraction(2), Fraction(1, 2), Fraction(1, 2))
    assert p.extraction_count == 2 and p == catalog.member(17).cax
    # square vs non-square switches the number of extractions
    shape19 = catalog.member(19).shape
    assert cax_classify(shape19, f_is_zero=False, g1_is_zero=False).extraction_count == 2
    assert cax_classify(shape19, f_is_zero=True, g1_is_zero=False).extraction_count == 1


def test_equation_shape_resolves_roles(catalog):
    # a Gprime record's a0..a3 land on its x coordinates, a4 and a5 on the
    # lifted slots 4 and 5
    shape = equation_shape(catalog.gprime(29))
    assert shape.role_weights[:4] == (2, 5, 1, 1)
    assert shape.positions == (2, 3, 0, 1, 4, 5)
    shape = equation_shape(catalog.gprime(49))
    assert shape.role_weights[:4] == (1, 7, 1, 2)
    assert shape.positions == (0, 3, 1, 2, 4, 5)


def test_family_support_has_capped_w_powers(catalog):
    for fid in catalog.ids():
        member = catalog.member(fid)
        record, support = member.gprime, family_support(member.gprime, member.shape)
        cap = 3 if "''" in member.golden.subfamily else 2  # I'' is the triple-cover shape
        assert max(m[4] for m in support.monomials) == cap
        assert all(sum(e * a for e, a in zip(m, record.weights)) == support.degree
                   for m in support.monomials)


def test_tangent_coordinate_error():
    w = (1, 1, 2, 3, 2)
    bare = MonomialSupport(degree=8, monomials=frozenset({(8, 0, 0, 0, 0)}))
    with pytest.raises(NotQuasismoothError):
        tangent_coordinate(bare, w, 3)


def test_edge_inside_member_error():
    w = (1, 1, 2, 3, 2)
    bare = MonomialSupport(degree=8, monomials=frozenset({(8, 0, 0, 0, 0)}))
    with pytest.raises(NonIsolatedSingularityError):
        edge_root_count(bare, w, 2, 4)


def _edge_root_count_reference(support, w, i, j):
    """edge_root_count with the edge found by its definition: every exponent
    off the coordinates i, j is zero."""
    restricted = [m for m in support.monomials
                  if all(m[t] == 0 for t in range(len(w)) if t not in (i, j))]
    if not restricted:
        raise NonIsolatedSingularityError(f"edge p{i}p{j} lies inside the member")
    r = math.gcd(w[i], w[j])
    p, q = w[i] // r, w[j] // r
    interior = support.degree // r - p * min(m[i] for m in restricted) - q * min(m[j] for m in restricted)
    if interior % (p * q):
        raise ValueError(f"edge p{i}p{j}: residual degree {interior} not divisible by {p * q}")
    return interior // (p * q)


def _outcome(count, *args):
    try:
        return count(*args)
    except ValueError as exc:  # NonIsolatedSingularityError included
        return type(exc)


def test_edge_monomials_by_weighted_degree_match_the_definition(catalog):
    inside = 0
    for fid in catalog.ids():
        record, support = record_and_support(catalog, fid)
        w = record.weights
        supports = [support] + [support_with_point_at_vertex(support, v, w[v]) for v in range(5)]
        for s in supports:
            for i, j in itertools.combinations(range(5), 2):
                expected = _outcome(_edge_root_count_reference, s, w, i, j)
                assert _outcome(edge_root_count, s, w, i, j) == expected, (fid, i, j)
                inside += expected is NonIsolatedSingularityError
    assert inside  # some edges lie inside the member: the error branch is compared too
