import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano_wci.singularities import (ClassificationError, NotQuasismoothError,
                                    NonIsolatedSingularityError, QuotientSingularity,
                                    cax_classify, edge_root_count, equation_shape, family_support,
                                    normalize_quotient, singular_locus, support_with_point_at_vertex,
                                    tangent_coordinate, tangent_monomials)
from fano_wci.wps import MonomialSupport, monomials_of_degree


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


def points(catalog, fid, vertices):
    """The quotient points of family `fid`'s general member, vertex points
    (`vertices`) or edge points, as {locus: (type, count)}."""
    member = catalog.member(fid)
    quotients, _ = singular_locus(member.gprime, member.shape, member.support)
    return {q.locus: (q.type_str(), q.count) for q in quotients if (len(q.locus) == 2) == vertices}


def test_vertex_examples(catalog):
    # weight-3 vertex of No.23 carries 1/3(1,1,2)
    assert points(catalog, 23, vertices=True) == {"p3": ("1/3(1,1,2)", 1)}
    # weight-4 vertex of No.30 carries 1/4(1,1,3)
    assert points(catalog, 30, vertices=True) == {"p2": ("1/3(1,1,2)", 1), "p3": ("1/4(1,1,3)", 1)}
    # No.17 has only the distinguished point
    assert points(catalog, 17, vertices=True) == {}


def test_edge_examples(catalog):
    assert points(catalog, 29, vertices=False)["p2p4"] == ("1/2(1,1,1)", 3)
    assert points(catalog, 23, vertices=False)["p2p4"] == ("1/2(1,1,1)", 1)
    assert points(catalog, 19, vertices=False)["p2p4"] == ("1/2(1,1,1)", 2)


def test_edge_count_zero_when_member_avoids_interior(catalog):
    # the (z, w) edge of No.30 has a stabilizer but meets the member only at
    # vertices: it holds no point
    w = catalog.pair(30).gprime.weights
    assert math.gcd(w[3], w[4]) >= 2
    assert "p3p4" not in points(catalog, 30, vertices=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=5, max_size=5), st.integers(1, 24), st.data())
def test_edge_root_count_divides_exactly(w, d, data):
    # on any support, an empty edge raises NonIsolatedSingularityError and
    # nothing else is raised: the interior degree is q (b - m_j) = p (a - m_i)
    # for coprime p and q, so p q divides it
    w = tuple(w)
    i, j = data.draw(st.sampled_from([(i, j) for i in range(5) for j in range(i + 1, 5)]))
    kept = set()
    for variables in ((i, j), None):  # some monomials of the edge, then any
        found = sorted(monomials_of_degree(d, w, variables).monomials)
        kept |= data.draw(st.sets(st.sampled_from(found), max_size=6)) if found else set()
    try:
        count = edge_root_count(MonomialSupport(d, frozenset(kept)), w, i, j)
    except NonIsolatedSingularityError:
        return
    edge = [m for m in kept if m[i] * w[i] + m[j] * w[j] == d]
    r = math.gcd(w[i], w[j])
    p, q = w[i] // r, w[j] // r
    assert d % r == 0
    assert count * p * q == d // r - p * min(m[i] for m in edge) - q * min(m[j] for m in edge)


def test_baskets_match_golden(catalog):
    for fid in catalog.ids():
        member = catalog.member(fid)
        quotients, cax = singular_locus(member.gprime, member.shape, member.support)
        computed = [(q.type_str(), q.count, q.locus) for q in quotients] + [(cax.type_str(), 1, "p4")]
        assert computed == list(catalog.pair(fid).gprime.basket), f"family {fid}"


def dropped(member, *monomials):
    """The member's support with the given monomials struck."""
    support = member.support
    assert all(m in support for m in monomials)
    return MonomialSupport(support.degree, support.monomials - set(monomials))


# No.19's three terms w^2 x0 f: without them f = 0
F19 = [(0, 2, 1, 0, 2), (1, 1, 1, 0, 2), (2, 0, 1, 0, 2)]


def test_cax_classify(catalog):
    m19, m49 = catalog.member(19), catalog.member(49)
    p = cax_classify(m19.shape, m19.support)
    assert (p.modulus, p.square_type) == (2, True)
    p = cax_classify(m19.shape, dropped(m19, *F19))
    assert (p.modulus, p.square_type) == (2, False)
    # No.49: non-square once both x1-linear terms of g on x0 = 0 are struck
    g1 = [(0, 1, 1, 1, 1), (0, 3, 0, 1, 1)]
    p = cax_classify(m49.shape, dropped(m49, *g1))
    assert (p.modulus, p.square_type) == (4, False)
    for term in g1:
        assert cax_classify(m49.shape, dropped(m49, term)).square_type
    # every general member is of square type
    for fid in catalog.ids():
        member = catalog.member(fid)
        assert cax_classify(member.shape, member.support).square_type, f"family {fid}"


def test_extractions_at_cax(catalog):
    # No.17: weights (a4, a1, a2, a3)/b = (3, 4, 1, 1)/2
    m17 = catalog.member(17)
    p = cax_classify(m17.shape, m17.support)
    assert p.extraction_weights == (Fraction(3, 2), Fraction(2), Fraction(1, 2), Fraction(1, 2))
    assert p.extraction_count == 2 and p == m17.cax
    # square vs non-square switches the number of extractions
    m19 = catalog.member(19)
    assert cax_classify(m19.shape, m19.support).extraction_count == 2
    assert cax_classify(m19.shape, dropped(m19, *F19)).extraction_count == 1


def test_cax_point_of_the_f_zero_stratum_of_23(catalog):
    # w^2 x0 x1 is No.23's only w^2 x0 f term: on the stratum without it the
    # singular locus finds one extraction at the cAx point, not two
    m23 = catalog.member(23)
    _, cax = singular_locus(m23.gprime, m23.shape, dropped(m23, (1, 1, 0, 0, 2)))
    assert (cax.modulus, cax.square_type, cax.extraction_count) == (4, False, 1)
    assert m23.cax.extraction_count == 2


def test_equation_shape_resolves_roles(catalog):
    # a Gprime record's a0..a3 land on its x coordinates, a4 and a5 on the
    # lifted slots 4 and 5
    shape = equation_shape(catalog.pair(29).gprime)
    assert shape.role_weights[:4] == (2, 5, 1, 1)
    assert shape.positions == (2, 3, 0, 1, 4, 5)
    shape = equation_shape(catalog.pair(49).gprime)
    assert shape.role_weights[:4] == (1, 7, 1, 2)
    assert shape.positions == (0, 3, 1, 2, 4, 5)


def test_family_support_has_capped_w_powers(catalog):
    for fid in catalog.ids():
        member = catalog.member(fid)
        record, support = member.gprime, family_support(member.gprime, member.shape)
        cap = 3 if "''" in member.gprime.subfamily else 2  # I'' is the triple-cover shape
        assert max(m[4] for m in support.monomials) == cap
        assert all(sum(e * a for e, a in zip(m, record.weights)) == support.degree
                   for m in support.monomials)


def test_tangent_coordinate_error():
    w = (1, 1, 2, 3, 2)
    bare = MonomialSupport(degree=8, monomials=frozenset({(8, 0, 0, 0, 0)}))
    with pytest.raises(NotQuasismoothError):
        tangent_coordinate(bare, w, 3)


def test_a_coordinate_of_the_full_degree_is_no_tangent_monomial():
    # x2 has weight 3, the degree, so x0^0 x2 is no tangent monomial at the
    # x0 vertex; x0^2 x1 is
    w = (1, 1, 3)
    support = MonomialSupport(degree=3, monomials=frozenset({(0, 0, 1), (2, 1, 0)}))
    assert tangent_monomials(support, w, 0) == [(2, 1)]


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
