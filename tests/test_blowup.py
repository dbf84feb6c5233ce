import math
import random
import sys
from fractions import Fraction

import pytest

from fano_wci import exclusion
from fano_wci.blowup import (BlowupRing, SectionLift, ambient_quadruple, b_cubed, exceptional_power,
                             nef_bound_check, triple, vanishing_order)
from fano_wci.catalog import load_catalog
from fano_wci.report import verify_tables
from fano_wci.singularities import (NotQuasismoothError, QuotientSingularity, family_support,
                                    support_with_point_at_vertex)
from fano_wci.wps import MonomialSupport
from test_strata import dispatch_branch, stratum

HALF = QuotientSingularity(2, 1)
THIRD = QuotientSingularity(3, 1)
QUARTER = QuotientSingularity(4, 1)


def anticanonical(points):
    """-K on the Kawamata tower over `points`: (1, -1/r_1, ...)."""
    return (Fraction(1), *(Fraction(-1, q.r) for q in points))


def test_kawamata_numbers():
    # E^3 of the Kawamata blowup of 1/r(1, a, r-a), the formula the ring's
    # E^n replaced: r^2 / (a (r - a)), at every r < 12
    for r in range(2, 12):
        for a in range(1, r):
            assert exceptional_power(r, (1, a, r - a)) == Fraction(r * r, a * (r - a))
    assert BlowupRing.kawamata_tower(Fraction(1, 2), [HALF, THIRD, QUARTER]).powers == (
        Fraction(1, 2), Fraction(4), Fraction(9, 2), Fraction(16, 3))


def test_exceptional_power_of_a_vertex_blowup():
    # family 50's F^4 = -r^3 / prod(b), with b = (1, 2, 2, 1) and r = 3
    assert exceptional_power(3, (1, 2, 2, 1)) == Fraction(-27, 4)
    assert BlowupRing.vertex_blowup((1, 2, 3, 5, 4), 3, (1, 2, 2, 1)).powers == (Fraction(1, 120), Fraction(-27, 4))
    # and the sign alternates with the dimension: E^n = (-1)^(n-1) r^(n-1) / prod(b)
    assert [exceptional_power(2, (1,) * n) for n in range(1, 6)] == [1, -2, 4, -8, 16]


def test_b_cubed_examples():
    assert b_cubed(Fraction(1, 2), HALF) == 0
    assert b_cubed(Fraction(1, 4), QUARTER) == Fraction(1, 6)
    assert b_cubed(Fraction(1, 6), THIRD) == 0


def test_triple_examples():
    ring23 = BlowupRing.kawamata_tower(Fraction(5, 12), [HALF])
    b = anticanonical([HALF])
    assert triple(ring23, b, b, b) == Fraction(-1, 12)

    # M = 3B + E is (3, -1/2) in the (A, E) basis
    ring50 = BlowupRing.kawamata_tower(Fraction(7, 60), [HALF])
    assert triple(ring50, (3, Fraction(-1, 2)), b, b) == Fraction(-3, 20)

    tower = BlowupRing.kawamata_tower(Fraction(1, 2), [HALF, QUARTER])
    k = anticanonical([HALF, QUARTER])
    assert triple(tower, k, k, k) == Fraction(-1, 12)


def test_b_cubed_agrees_with_triple():
    for a_cube in (Fraction(5, 12), Fraction(7, 60), Fraction(1, 6)):
        for q in (HALF, THIRD, QUARTER, QuotientSingularity(5, 2)):
            b = anticanonical([q])
            assert triple(BlowupRing.kawamata_tower(a_cube, [q]), b, b, b) == b_cubed(a_cube, q)


def test_ring_cube_is_b_cubed_at_every_quotient_point_of_the_members_and_their_strata(catalog):
    # every quotient point of the 14 general members and of the 1,268
    # quasi-smooth strata among the 1,284 without one monomial of a
    # member's support
    members = []
    for fid in catalog.ids():
        member = catalog.member(fid)
        members.append(member)
        for monomial in member.support.sorted():
            try:
                members.append(stratum(member, monomial))
            except NotQuasismoothError:
                continue
    points = [(m, q) for m in members for q in m.quotients]
    assert (len(members), len(points)) == (14 + 1_268, 1_987)
    for m, q in points:
        b = anticanonical([q])
        assert triple(BlowupRing.kawamata_tower(m.a_cube, [q]), b, b, b) == b_cubed(m.a_cube, q), (m.g.id, q)


def random_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def random_class(rng, rank):
    return tuple(random_rational(rng) for _ in range(rank))


def test_triple_symmetric_and_multilinear():
    rng = random.Random(2024)
    ring = BlowupRing.kawamata_tower(Fraction(5, 12), [HALF, THIRD])
    for _ in range(200):
        c1, c2, c3, c4 = (random_class(rng, 3) for _ in range(4))
        s, t = random_rational(rng), random_rational(rng)
        base = triple(ring, c1, c2, c3)
        assert base == triple(ring, c2, c1, c3) == triple(ring, c3, c2, c1)
        combo = tuple(s * a + t * b for a, b in zip(c1, c4))
        assert triple(ring, combo, c2, c3) == s * base + t * triple(ring, c4, c2, c3)


def test_triple_rank_mismatch():
    ring = BlowupRing.kawamata_tower(Fraction(1, 2), [HALF])
    short = (Fraction(1),)
    with pytest.raises(ValueError):
        triple(ring, short, short, short)
    with pytest.raises(ValueError):
        ring.product((1, 0), (1, 0), (1, 0, 0))


def old_ambient_quadruple(ambient_weights, blowup_r, blowup_weights, classes):
    """The arithmetic the ring replaced: A^4 = 1 / prod(ambient weights),
    F^4 = -r^3 / prod(blowup weights), mixed products zero."""
    a4 = Fraction(1, math.prod(ambient_weights))
    f4 = -Fraction(blowup_r ** 3, math.prod(blowup_weights))
    return math.prod(alpha for alpha, _ in classes) * a4 + math.prod(beta for _, beta in classes) * f4


def test_ambient_quadruple_half_point_pairing():
    # (B . Gamma) for the weight-3 point of the P(1,2,3,5,4) member
    args = ((1, 2, 3, 5, 4), 3, (1, 2, 2, 1),
            [(Fraction(1), Fraction(-1, 3)), (Fraction(1), Fraction(-1, 3)),
             (Fraction(2), Fraction(-2, 3)), (Fraction(4), Fraction(-1, 3))])
    assert ambient_quadruple(*args) == old_ambient_quadruple(*args) == Fraction(-1, 10)
    rng = random.Random(4)
    for _ in range(200):
        args = (tuple(rng.randint(1, 9) for _ in range(5)), rng.randint(1, 7), tuple(rng.randint(1, 6) for _ in range(4)),
                [(random_rational(rng), random_rational(rng)) for _ in range(4)])
        got = ambient_quadruple(*args)
        assert type(got) is Fraction and got == old_ambient_quadruple(*args)
    with pytest.raises(ValueError):
        ambient_quadruple((1, 2, 3, 5, 4), 3, (1, 2, 2), args[3])


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


def fraction_triple(ring, c1, c2, c3):
    """The triple product as a sum of Fraction products, as the deleted
    lattice computed it: the reference that the integer kernel must equal in
    type and value."""
    return sum(Fraction(c1[i]) * c2[i] * c3[i] * ring.powers[i] for i in range(len(ring.powers)))


def triples_of_one_verify_tables(catalog):
    """The (ring, c1, c2, c3) of every triple product one verify-tables
    computes, and (NefDivisor, its triple's arguments) per nef-divisor build
    on a `catalog` whose Members have not yet derived their nef numbers."""
    triples, nefs = [], []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is triple.__code__:
            triples.append(tuple(frame.f_locals[name] for name in ("ring", "c1", "c2", "c3")))
        elif event == "return" and frame.f_code is exclusion._nef_divisor.__code__:
            nefs.append((arg, triples[-1]))

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        assert verify_tables(catalog) == []
    finally:
        sys.setprofile(previous)
    return triples, nefs


def test_triple_matches_fraction_sums(empty_load_cache):
    # ranks 1 to 3; coefficients zero, negative, plain ints, and fractions
    # whose products are not in lowest terms before the sum; the catalog is
    # loaded afresh, so its Members derive the nef-divisor numbers, the
    # pairings and family 50's curve-pair sum (`LocalModel.pair_sum`) that
    # they keep, with their triple products, in this run
    rng = random.Random(19)
    points = [HALF, THIRD, QUARTER, QuotientSingularity(5, 2)]

    def coefficient():
        return rng.choice([0, rng.randint(-4, 4), Fraction(rng.randint(-12, 12), rng.randint(1, 12))])

    cases = []
    for _ in range(500):
        ring = BlowupRing.kawamata_tower(Fraction(rng.randint(-6, 12), rng.randint(1, 12)),
                                         rng.sample(points, rng.randint(0, 2)))
        classes = [tuple(coefficient() for _ in ring.powers) for _ in range(3)]
        cases.append((ring, *classes))
    triples, nefs = triples_of_one_verify_tables(load_catalog())
    assert len(triples) == 11
    for args in cases + triples:
        got = triple(*args)
        assert type(got) is Fraction and got == fraction_triple(*args)
    # at each nef-divisor center, M is the lift of largest class_e / class_b,
    # the first on a tie: the first argument of the builder's triple product,
    # class_b B + class_e E with B = A - E/r
    assert len(nefs) == 3
    for cert, (ring, m_class, b_class, _) in nefs:
        lift = max(cert.lifts, key=lambda l: Fraction(l.class_e, l.class_b))
        assert b_class == anticanonical([cert.q])
        assert m_class == (lift.class_b, lift.class_e - Fraction(lift.class_b, cert.q.r))


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


def test_vanishing_order_rejects_weights_of_another_length():
    support = MonomialSupport(degree=1, monomials=frozenset({(1, 0, 0, 0, 0)}))
    for weights in ((Fraction(1, 3),) * 4, (Fraction(1, 3),) * 6):
        with pytest.raises(ValueError):
            vanishing_order(support, weights)


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


def test_nef_bound_is_one_over_r_less_the_least_order_per_degree(catalog):
    # c = max over lifts of (d/r - order)/d = 1/r - min(order/d), and every
    # order is >= 0, so c <= 1/r: the certificate's `certified` cannot fail
    got = {}
    for fid in (50, 74, 82):
        record, orders = section_orders(catalog, fid, 1, (0, 2, 4))
        degrees = {i: record.weights[i] for i in orders}
        lifts = [SectionLift.of(degrees[i], orders[i], 2) for i in (0, 2, 4)]
        c, certified = nef_bound_check(lifts, HALF)
        assert c == Fraction(1, 2) - min(orders[i] / degrees[i] for i in orders), fid
        assert min(orders.values()) >= 0 and certified, fid
        q = next(q for q in catalog.member(fid).quotients if q.locus == "p1p4")
        condition = "not-exists-wci(1,3,4)" if fid == 50 else ""
        cert, _ = dispatch_branch(catalog.member(fid), exclusion.Center.quotient_point(q), condition)
        assert (cert.c, cert.certified) == (c, True), fid
        got[fid] = c
    assert got == {50: Fraction(1, 3), 74: Fraction(1, 3), 82: Fraction(2, 5)}


def test_nef_bound_check_empty():
    with pytest.raises(ValueError):
        nef_bound_check([], HALF)
