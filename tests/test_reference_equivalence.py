"""The load-and-solve and support fast paths against slow references that
state the same rule directly.

`equation_shape` solves without raising inside and tracks the weights left
on a plain list; `reference_equation_shape` below is the Counter-and-raise
solve it replaced, kept verbatim apart from names.  `rat` reads ASCII digits
with int(); the reference on a "p/q" or "p" string of ASCII digits is
`Fraction`, and every other string must raise ValueError.  Each pair must
agree on the value, or on the exception's type and message.

`family_support` takes its f, g and h pieces from `monomials_of_degree`,
enumerated from their fixed factors as offsets;
`reference_family_support` is the enumeration without offsets and the
shift pass they replaced, kept verbatim apart from names and annotations.

`tangent_coordinate` and `exclusion.qi_eligible` read the tangent
monomials x_v^k x_j at a vertex v off `tangent_monomials`;
`reference_tangent_coordinate` and `reference_qi_loop` are the two loops
that each built and looked up those monomials, kept verbatim apart from
names, and the loop of `qi_eligible` taking the support, weights and vertex
that `qi_eligible` read off the member.
"""

import itertools
import re
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fano_wci.catalog import FamilyRecord, Member
from fano_wci.exclusion import qi_eligible
from fano_wci.links import build_counterpart
from fano_wci.singularities import (NotQuasismoothError, StandardForm, StandardFormError, cax_classify,
                                    equation_shape, family_support, tangent_coordinate)
from fano_wci.wps import MonomialSupport, rat


def reference_equation_shape(record):
    forms, reasons = [], []
    for double_cover, name in ((True, "I'"), (False, "I''")):
        try:
            forms.append(reference_solve(record, double_cover))
        except StandardFormError as exc:
            reasons.append(f"{name} shape: {exc}")
    if len(forms) == 2:
        raise StandardFormError(f"No.{record.id}: solves in both the I' and the I'' shape")
    if not forms:
        raise StandardFormError(f"No.{record.id}: no standard form ({'; '.join(reasons)})")
    return forms[0]


def reference_solve(record, double_cover):
    weights, degrees = record.weights, record.degrees
    if record.kind == "Gprime":
        d, b = degrees[0], weights[4]
        twice_a0 = d - 2 * b if double_cover else d - 3 * b
        if twice_a0 <= 0 or twice_a0 % 2:
            raise StandardFormError(f"degree {d} and b={b} admit no lift to six weights")
        a4 = twice_a0 // 2 + b
        weights = weights[:4] + (a4, d - a4)
        degrees = (d - b, d)
    d1, d2 = sorted(degrees)
    if d1 % 2 or d2 % 2:
        raise StandardFormError(f"degrees d1, d2 = {d1}, {d2} are not both even")
    pool = Counter(weights)

    def take(value, what):
        if value <= 0 or pool[value] == 0:
            raise StandardFormError(f"needs {what} = {value} in weights {weights}")
        pool[value] -= 1
        return value

    if double_cover:
        a5 = take(d2 // 2, "a5 = d2/2")
        a4 = take(d2 // 2, "a4 = d2/2")
        a1 = take(d1 // 2, "a1 = d1/2")
        a0 = take(d1 - a5, "a0 = d1 - a5")
    else:
        a5 = take(max(weights), "a5 = max weight")
        if pool[a5]:
            raise StandardFormError("the top weight must be unique")
        a0 = take(d1 - a5, "a0 = d1 - a5")
        a4 = take(d1 // 2, "a4 = d1/2")
        a1 = take(d2 // 2, "a1 = d2/2")
        if a4 + a5 != d2:
            raise StandardFormError("d2 != a4 + a5")
    if a4 <= a0:
        raise StandardFormError(f"b = a4 - a0 = {a4 - a0} is not positive")
    a2, a3 = sorted(pool.elements())

    role_weights = (a0, a1, a2, a3, a4, a5)
    positions = []
    for value in role_weights:
        positions.append(next(i for i, a in enumerate(weights) if a == value and i not in positions))
    return StandardForm(role_weights=role_weights, degrees=(d1, d2), positions=tuple(positions))


def reference_monomials_of_degree(d, w, variables=None):
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    weights = w
    order = sorted(range(len(weights)) if variables is None else variables,
                   key=weights.__getitem__, reverse=True)
    found = []
    vec = [0] * len(weights)
    if not order:
        if d == 0:
            found.append(tuple(vec))
        return MonomialSupport(degree=d, monomials=frozenset(found))
    *head, last = order
    a_last = weights[last]
    depth = len(head)

    def extend(pos, remaining):
        if pos == depth:
            if remaining % a_last == 0:
                vec[last] = remaining // a_last
                found.append(tuple(vec))
            return
        i = head[pos]
        a = weights[i]
        for e in range(remaining // a + 1):
            vec[i] = e
            extend(pos + 1, remaining - e * a)

    extend(0, d)
    return MonomialSupport(degree=d, monomials=frozenset(found))


def reference_family_support(record, shape):
    w = record.weights
    d = record.degrees[0]
    b = shape.b
    a0, a4 = shape.role_weights[0], shape.role_weights[4]
    i0, _, i2, i3 = shape.positions[:4]
    x_vars = (0, 1, 2, 3)

    def shift(ms, extra):
        out = set()
        for m in ms.monomials:
            vec = list(m)
            for pos, e in extra.items():
                vec[pos] += e
            out.add(tuple(vec))
        return out

    monos = set()
    if shape.double_cover:
        lead = [0] * 5
        lead[i0] = 2
        lead[4] = 2
        monos.add(tuple(lead))
        f_supp = reference_monomials_of_degree(a0, w, variables=(i2, i3))
        monos |= shift(f_supp, {i0: 1, 4: 2})
    else:
        lead = [0] * 5
        lead[i0] = 2
        lead[4] = 3
        monos.add(tuple(lead))
        f_supp = reference_monomials_of_degree(a4, w, variables=x_vars)
        monos |= shift(f_supp, {i0: 1, 4: 2})
    g_supp = reference_monomials_of_degree(d - b, w, variables=x_vars)
    monos |= shift(g_supp, {4: 1})
    monos |= reference_monomials_of_degree(d, w, variables=x_vars).monomials
    return MonomialSupport(degree=d, monomials=frozenset(monos))


def reference_tangent_coordinate(support, w, vertex):
    d = support.degree
    candidates = []
    for j in range(len(w)):
        if j == vertex:
            continue
        rem = d - w[j]
        if rem <= 0 or rem % w[vertex]:
            continue
        k = rem // w[vertex]
        vec = [0] * len(w)
        vec[vertex] = k
        vec[j] = 1
        if tuple(vec) in support:
            candidates.append((w[j], j))
    if not candidates:
        raise NotQuasismoothError(f"no tangent monomial at vertex p{vertex}: not quasismooth there")
    return min(candidates)[1]


def reference_qi_loop(support, w, vertex):
    d = support.degree
    for j in range(5):
        if j == vertex or d - 2 * w[vertex] != w[j]:
            continue
        vec = [0] * 5
        vec[vertex] = 2
        vec[j] = 1
        if tuple(vec) in support:
            return True
    return False


def outcome(function, *args):
    try:
        return "value", function(*args)
    except Exception as exc:  # the type and the text are what is compared
        return type(exc), str(exc)


def index_one_g_records(max_weight):
    """Every G record with ascending weights at most `max_weight` and degrees
    d1 <= d2 of Fano index one; the degrees run in steps of two from the
    even split, and the odd splits go in once per weight system."""
    for weights in itertools.combinations_with_replacement(range(1, max_weight + 1), 6):
        total = sum(weights) - 1
        splits = [(d1, total - d1) for d1 in range(2 - total % 2, total // 2 + 1, 2)]
        if total % 2 == 0 and total >= 4:
            splits.append((1, total - 1))  # odd degrees
        for degrees in splits:
            yield FamilyRecord(0, "G", weights, degrees)


def test_equation_shape_matches_the_reference_on_a_grid():
    solved = checked = 0
    for g in index_one_g_records(12):
        expected = outcome(reference_equation_shape, g)
        assert outcome(equation_shape, g) == expected, g
        checked += 1
        if expected[0] != "value":
            continue
        solved += 1
        # the G record's Gprime lift: its counterpart, in display order
        g_form = expected[1]
        weights, degree = build_counterpart(g_form)
        gprime = FamilyRecord(0, "Gprime", weights, (degree,))
        lifted = outcome(equation_shape, gprime)
        assert lifted == outcome(reference_equation_shape, gprime), gprime
        # whose form is the G form, role by role
        assert lifted[0] == "value", gprime
        shape = lifted[1]
        assert shape.subfamily == g_form.subfamily, g
        assert ((shape.role_weights, shape.degrees, shape.z_degree, shape.shape_name)
                == (g_form.role_weights, g_form.degrees, g_form.z_degree, g_form.shape_name)), g
        assert (cax_classify(shape, False, False).extraction_weights
                == cax_classify(g_form, False, False).extraction_weights), g
        # and the same weights with b among the x-weights, which rarely solve
        *x, b = gprime.weights
        for i in range(4):
            swapped = x[:i] + [b] + x[i + 1:] + [x[i]]
            other = FamilyRecord(0, "Gprime", tuple(swapped), gprime.degrees)
            assert outcome(equation_shape, other) == outcome(reference_equation_shape, other), other
    # few weight systems of index one solve: 56 in this grid
    assert checked > 100_000 and solved == 56


def test_equation_shape_matches_the_reference_at_any_index():
    # a non-strict load lets a record of the wrong Fano index reach the
    # solve, so small weights meet every pair of degrees up to 12 (G) and
    # every degree up to 20 (Gprime)
    for weights in itertools.combinations_with_replacement(range(1, 6), 6):
        for degrees in itertools.combinations_with_replacement(range(1, 13), 2):
            g = FamilyRecord(0, "G", weights, degrees)
            assert outcome(equation_shape, g) == outcome(reference_equation_shape, g), g
    for x in itertools.combinations_with_replacement(range(1, 6), 4):
        for b in range(1, 6):
            for d in range(1, 21):
                gprime = FamilyRecord(0, "Gprime", (*x, b), (d,))
                assert outcome(equation_shape, gprime) == outcome(reference_equation_shape, gprime), gprime


def test_family_support_matches_the_reference(catalog):
    gprimes = [catalog.gprime(i) for i in catalog.ids()]
    # the Gprime counterparts of the solvable G records of the grid above
    for g in index_one_g_records(12):
        solved = outcome(equation_shape, g)
        if solved[0] == "value":
            weights, degree = build_counterpart(solved[1])
            gprimes.append(FamilyRecord(0, "Gprime", weights, (degree,)))
    assert len(gprimes) == 14 + 56
    for gprime in gprimes:
        shape = equation_shape(gprime)
        support = family_support(gprime, shape)
        assert support == reference_family_support(gprime, shape), gprime
        assert type(support.monomials) is frozenset


def test_tangent_monomials_match_the_two_loops_they_replaced(catalog):
    # every vertex of each family's support and of each support with one
    # monomial dropped, which takes a tangent monomial away at some vertex
    checked = 0
    for fid in catalog.ids():
        member = catalog.member(fid)
        w = member.gprime.weights
        full = member.support
        for support in (full, *(MonomialSupport(full.degree, full.monomials - {m}) for m in full.monomials)):
            dropped = Member(**{**{name: getattr(member, name) for name in Member.__record_fields__},
                                "support": support})
            for vertex in range(5):
                assert (outcome(tangent_coordinate, support, w, vertex)
                        == outcome(reference_tangent_coordinate, support, w, vertex)), (fid, vertex, support)
                assert qi_eligible(dropped, f"p{vertex}") == reference_qi_loop(support, w, vertex), (fid, vertex)
            checked += 1
    assert checked == 14 + 1_284


RATIONAL_TEXT = st.text(alphabet="0123456789/+-.e_ \t٣²", max_size=12)


@settings(max_examples=400, deadline=None)
@given(st.one_of(RATIONAL_TEXT, st.from_regex(r"\A[0-9]{1,6}(/[0-9]{1,6})?\Z")))
def test_rat_matches_fraction(text):
    if re.fullmatch(r"[0-9]+(/[0-9]+)?", text, re.ASCII):
        assert outcome(rat, text) == outcome(Fraction, text)
    else:
        assert outcome(rat, text) == (ValueError, 'expected "p/q" or "p" in ASCII digits')
