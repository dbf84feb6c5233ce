import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fano_wci.wps import (MonomialSupport, anticanonical_cube, max_pair_lcm,
                          monomials_of_degree, rat, rat_str)

W5 = (1, 1, 2, 3, 2)


def weighted_degree(m, w):
    """Sum of exponent_i * weight_i."""
    if len(m) != len(w):
        raise ValueError(f"exponent vector {m} does not match weights {w}")
    return sum(e * a for e, a in zip(m, w))


def brute_force_monomials(d, w):
    boxes = [range(d // a + 1) for a in w]
    return {
        exps for exps in itertools.product(*boxes)
        if sum(e * a for e, a in zip(exps, w)) == d
    }


def brute_force_by_degree(dmax, w):
    """One depth-first scan of the exponent box {e_i <= dmax / a_i}, bucketing
    every vector by its weighted degree (prefixes beyond dmax cannot recover,
    weights being positive, so they are cut)."""
    buckets = {d: set() for d in range(dmax + 1)}
    n = len(w)
    vec = [0] * (n - 1)
    a_last = w[n - 1]

    def scan(i, deg):
        if i == n - 1:
            head = tuple(vec)
            for e in range((dmax - deg) // a_last + 1):
                buckets[deg + e * a_last].add(head + (e,))
            return
        a = w[i]
        e = 0
        while deg + e * a <= dmax:
            vec[i] = e
            scan(i + 1, deg + e * a)
            e += 1
        vec[i] = 0

    scan(0, 0)
    return buckets


def test_weighted_degree_examples():
    assert weighted_degree((2, 0, 0, 0, 3), W5) == 8
    assert weighted_degree((0, 0, 0, 0, 0), W5) == 0
    assert weighted_degree((0, 0, 1, 2, 0), W5) == 8


def test_weighted_degree_length_mismatch():
    with pytest.raises(ValueError):
        weighted_degree((1, 2), W5)


def test_weighted_degree_linear():
    rng = random.Random(7)
    for _ in range(50):
        m1 = tuple(rng.randrange(5) for _ in range(5))
        m2 = tuple(rng.randrange(5) for _ in range(5))
        both = tuple(a + b for a, b in zip(m1, m2))
        assert weighted_degree(both, W5) == weighted_degree(m1, W5) + weighted_degree(m2, W5)


def test_monomials_of_degree_examples():
    w3 = (1, 1, 2)
    assert len(monomials_of_degree(4, w3).monomials) == 9
    zero = monomials_of_degree(0, W5)
    assert zero.monomials == frozenset({(0, 0, 0, 0, 0)})
    deg2 = monomials_of_degree(2, W5)
    assert len(deg2.monomials) == 5
    assert (0, 0, 1, 0, 0) in deg2 and (0, 0, 0, 0, 1) in deg2


def test_monomials_vs_product_box():
    for w in ((1, 1, 2), W5, (1, 2, 3, 5, 4)):
        for d in range(0, 13):
            assert monomials_of_degree(d, w).monomials == brute_force_monomials(d, w)


def test_monomials_vs_brute_force_all_catalog_systems(catalog):
    systems = {catalog.pair(i).gprime.weights for i in catalog.ids()}
    systems |= {catalog.pair(i).g.weights for i in catalog.ids()}
    for w in systems:
        buckets = brute_force_by_degree(30, w)
        for d in range(0, 31):
            assert monomials_of_degree(d, w).monomials == buckets[d]


def test_monomials_restricted_variables():
    only = monomials_of_degree(4, W5, variables=(2, 4))
    assert only.monomials == {(0, 0, 2, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 0, 2)}


@st.composite
def systems_degrees_variables(draw):
    """Unsorted, repeated weights; a degree; None or an out-of-order subset
    (possibly empty) of the coordinates; None or an offset vector."""
    weights = draw(st.lists(st.integers(1, 9), min_size=2, max_size=6))
    d = draw(st.integers(0, 30))
    variables = draw(st.none() | st.permutations(range(len(weights))).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda k: tuple(order[:k]))))
    offset = draw(st.none() | st.lists(st.integers(0, 3), min_size=len(weights),
                                       max_size=len(weights)).map(tuple))
    return tuple(weights), d, variables, offset


def brute_force_support(d, w, variables, offset, limit=2000):
    """Every vector of the exponent box of the allowed coordinates with
    weighted degree d, plus the offset; None when the box holds more than
    `limit` vectors."""
    allowed = range(len(w)) if variables is None else variables
    boxes = [range(d // a + 1) if i in allowed else range(1) for i, a in enumerate(w)]
    if math.prod(map(len, boxes)) > limit:  # keeps the brute force small
        return None
    shift = offset or (0,) * len(w)
    return {tuple(e + s for e, s in zip(exps, shift))
            for exps in itertools.product(*boxes) if weighted_degree(exps, w) == d}


@settings(max_examples=200, deadline=None)
@given(systems_degrees_variables())
def test_monomials_vs_brute_force_random_systems(case):
    w, d, variables, offset = case
    brute = brute_force_support(d, w, variables, offset)
    assume(brute is not None)
    support = monomials_of_degree(d, w, variables, offset)
    assert support.monomials == brute
    assert support.degree == d + (0 if offset is None else weighted_degree(offset, w))


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_monomials_vs_brute_force_on_1_to_5_coordinates(count):
    # the enumerated coordinates are the first `count` of six, in reverse
    # order, so a sixth coordinate is always left out; with and without an
    # offset on every coordinate
    w = (2, 1, 3, 1, 4, 2)
    variables = tuple(reversed(range(count)))
    for offset in (None, (1, 0, 2, 0, 3, 1)):
        for d in range(0, 13):
            expected = brute_force_support(d, w, variables, offset, limit=30_000)
            assert monomials_of_degree(d, w, variables, offset).monomials == expected, (d, offset)


def test_monomials_offset_must_match_the_weights():
    with pytest.raises(ValueError, match="does not match"):
        monomials_of_degree(2, W5, offset=(1, 0))


def test_monomials_degree_must_not_be_negative():
    with pytest.raises(ValueError) as exc:
        monomials_of_degree(-1, W5)
    assert str(exc.value) == "degree must be >= 0, got -1"


def test_sorted_is_deterministic():
    s = monomials_of_degree(4, (1, 1, 2))
    assert s.sorted() == sorted(s.monomials, reverse=True)
    assert s.sorted()[0] == (4, 0, 0)


def test_anticanonical_cube_examples():
    assert anticanonical_cube((1, 1, 2, 3, 2), (8,)) == Fraction(2, 3)
    assert anticanonical_cube((1, 2, 5, 11, 4), (22,)) == Fraction(1, 20)
    assert anticanonical_cube((1, 1, 2, 3, 4, 4), (6, 8)) == Fraction(1, 2)


def test_anticanonical_cube_rejects_wrong_index():
    with pytest.raises(ValueError, match="index 1"):
        anticanonical_cube((1, 1, 2, 3, 2), (7,), label="No.19")


def test_max_pair_lcm_examples():
    assert max_pair_lcm((1, 1, 4, 5, 2), (0, 1, 3, 4)) == 10
    assert max_pair_lcm((1, 1, 2, 3, 2), (0, 1, 3, 4)) == 6
    assert max_pair_lcm((1, 1, 1), (0, 1, 2)) == 1


def test_max_pair_lcm_needs_two_indices():
    with pytest.raises(ValueError):
        max_pair_lcm(W5, (2,))


def test_rat_round_trip():
    assert rat("7/60") == Fraction(7, 60)
    assert rat_str(Fraction(7, 60)) == "7/60"
    assert rat_str(Fraction(4)) == "4"


@pytest.mark.parametrize("text", ["1e-9", "1e-3000000", " 1/2", "-1/2", "0.5", "1/2/3", "\u0663"])
def test_rat_reads_only_ascii_p_over_q(text):
    with pytest.raises(ValueError, match='expected "p/q" or "p" in ASCII digits'):
        rat(text)
