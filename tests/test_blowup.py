import random
from fractions import Fraction

import pytest

from fano_wci.blowup import (BlowupLattice, DivisorClass, SectionLift, ambient_quadruple,
                             b_cubed, kawamata_numbers, nef_bound_check, triple,
                             vanishing_order)
from fano_wci.singularities import QuotientSingularity, family_support, support_with_point_at_vertex
from fano_wci.wps import MonomialSupport

HALF = QuotientSingularity(2, 1)
THIRD = QuotientSingularity(3, 1)
QUARTER = QuotientSingularity(4, 1)


def test_kawamata_numbers():
    assert kawamata_numbers(HALF) == (Fraction(1, 2), Fraction(4))
    assert kawamata_numbers(THIRD) == (Fraction(1, 3), Fraction(9, 2))
    assert kawamata_numbers(QUARTER) == (Fraction(1, 4), Fraction(16, 3))


def test_b_cubed_examples():
    assert b_cubed(Fraction(1, 2), HALF) == 0
    assert b_cubed(Fraction(1, 4), QUARTER) == Fraction(1, 6)
    assert b_cubed(Fraction(1, 6), THIRD) == 0


def test_triple_examples():
    lat23 = BlowupLattice.over(Fraction(5, 12), [HALF])
    b = lat23.anticanonical()
    assert triple(lat23, b, b, b) == Fraction(-1, 12)

    lat50 = BlowupLattice.over(Fraction(7, 60), [HALF])
    b = lat50.anticanonical()
    m = 3 * b + 1 * lat50.exceptional_class()
    assert triple(lat50, m, b, b) == Fraction(-3, 20)

    tower = BlowupLattice.over(Fraction(1, 2), [HALF, QuotientSingularity(4, 1)])
    k = tower.anticanonical()
    assert triple(tower, k, k, k) == Fraction(-1, 12)


def test_b_cubed_agrees_with_triple():
    for a_cube in (Fraction(5, 12), Fraction(7, 60), Fraction(1, 6)):
        for q in (HALF, THIRD, QUARTER, QuotientSingularity(5, 2)):
            lat = BlowupLattice.over(a_cube, [q])
            b = lat.anticanonical()
            assert triple(lat, b, b, b) == b_cubed(a_cube, q)


def random_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def random_class(rng, rank):
    return DivisorClass(tuple(random_rational(rng) for _ in range(rank)))


def test_triple_symmetric_and_multilinear():
    rng = random.Random(2024)
    lat = BlowupLattice.over(Fraction(5, 12), [HALF, THIRD])
    for _ in range(200):
        c1, c2, c3, c4 = (random_class(rng, lat.rank) for _ in range(4))
        s, t = random_rational(rng), random_rational(rng)
        base = triple(lat, c1, c2, c3)
        assert base == triple(lat, c2, c1, c3) == triple(lat, c3, c2, c1)
        combo = DivisorClass(tuple(s * a + t * b for a, b in zip(c1.coefficients, c4.coefficients)))
        assert triple(lat, combo, c2, c3) == s * base + t * triple(lat, c4, c2, c3)


def test_triple_rank_mismatch():
    lat = BlowupLattice.over(Fraction(1, 2), [HALF])
    short = DivisorClass((Fraction(1),))
    with pytest.raises(ValueError):
        triple(lat, short, short, short)


def test_ambient_quadruple_half_point_pairing():
    # (B . Gamma) for the weight-3 point of the P(1,2,3,5,4) member
    val = ambient_quadruple(
        (1, 2, 3, 5, 4), 3, (1, 2, 2, 1),
        [(Fraction(1), Fraction(-1, 3)), (Fraction(1), Fraction(-1, 3)),
         (Fraction(2), Fraction(-2, 3)), (Fraction(4), Fraction(-1, 3))])
    assert val == Fraction(-1, 10)


def section_orders(catalog, fid, vertex, sections):
    member = catalog.member(fid)
    record = member.gprime
    w = record.weights
    support = support_with_point_at_vertex(family_support(record, member.shape), vertex, w[vertex])
    local = tuple(Fraction(0) if i == vertex else Fraction(w[i] % 2, 2) for i in range(5))
    out = {}
    for i in sections:
        if i == 4:
            out[i] = vanishing_order(support, local, eliminated=4)
        else:
            out[i] = local[i]
    return record, out


def test_vanishing_orders_reproduce_stated_lifts(catalog):
    # sections x, z, w at the half point lift to B, 3B+E, 4B+E
    record, orders = section_orders(catalog, 50, 1, (0, 2, 4))
    lifts = [SectionLift.of(record.weights[i], orders[i], 2) for i in (0, 2, 4)]
    assert [(l.class_b, l.class_e) for l in lifts] == [(1, 0), (3, 1), (4, 1)]
    # and to B, 5B+2E, 4B+E on the bigger family
    record, orders = section_orders(catalog, 82, 1, (0, 2, 4))
    lifts = [SectionLift.of(record.weights[i], orders[i], 2) for i in (0, 2, 4)]
    assert [(l.class_b, l.class_e) for l in lifts] == [(1, 0), (5, 2), (4, 1)]


def test_vanishing_order_single_monomial():
    support = MonomialSupport(degree=1, monomials=frozenset({(1, 0, 0, 0, 0)}))
    weights = (Fraction(1, 3), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    assert vanishing_order(support, weights) == Fraction(1, 3)


def test_vanishing_order_matches_fraction_sums(catalog):
    # the integer evaluation equals the minimum of the exact rational sums
    rng = random.Random(5)
    for fid in catalog.ids():
        support = catalog.member(fid).support
        for _ in range(5):
            weights = tuple(Fraction(rng.randrange(0, 12), rng.randrange(1, 7)) for _ in range(5))
            want = min(sum((e * a for e, a in zip(m, weights)), Fraction(0)) for m in support.monomials)
            assert vanishing_order(support, weights) == want
            rest = [m for m in support.monomials if m[4] == 0]
            want = min(sum((e * a for e, a in zip(m, weights)), Fraction(0)) for m in rest)
            assert vanishing_order(support, weights, eliminated=4) == want


def test_vanishing_order_empty_residual():
    support = MonomialSupport(degree=4, monomials=frozenset({(0, 0, 0, 0, 1)}))
    with pytest.raises(ValueError):
        vanishing_order(support, (Fraction(0),) * 5, eliminated=4)


def test_nef_bound_check_examples():
    lifts50 = [SectionLift.of(1, Fraction(1, 2), 2), SectionLift.of(3, Fraction(1, 2), 2),
               SectionLift.of(4, Fraction(1), 2)]
    c, ok = nef_bound_check(lifts50, HALF)
    assert (c, ok) == (Fraction(1, 3), True)
    lifts82 = [SectionLift.of(1, Fraction(1, 2), 2), SectionLift.of(5, Fraction(1, 2), 2),
               SectionLift.of(4, Fraction(1), 2)]
    c, ok = nef_bound_check(lifts82, HALF)
    assert (c, ok) == (Fraction(2, 5), True)
    single = [SectionLift.of(1, Fraction(-1, 2), 2)]
    c, ok = nef_bound_check(single, HALF)
    assert (c, ok) == (Fraction(1), False)


def test_nef_bound_check_empty():
    with pytest.raises(ValueError):
        nef_bound_check([], HALF)
