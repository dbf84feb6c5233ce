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

`singular_locus` finds the vertex and edge points in one walk;
`reference_singular_locus` is the walk it replaced, through
`reference_vertex_singularities`, `reference_edge_singularities` and
`reference_vertex_on_member`, kept verbatim apart from names and docstrings.

Each certificate's `verdict()`, `Center.curve` and `nef_bound_check` read
the sign of a witness's numerator, or compare one integer cross-product;
`REFERENCE_VERDICTS`, `reference_curve` and `reference_nef_bound_check` are
the `Fraction` comparisons they replaced, kept verbatim apart from names
(each method a function of `self`).  Each pair must agree on the value, or
on the exception's type and message, on every branch of the 14 members'
reports, of the reports of their one-monomial strata, and on drawn
rationals that sit on each comparison's equality boundary.

The witnesses of `CurveDegree`, `CurveGamma` and `SurfacePair`,
`NegDefMatrix.verdict` (the determinant at the floor written alpha beta -
m (alpha + beta), and the slope) and `nef_bound_check`'s c (the max by
integer cross-products) are each built as one `Fraction` over a common
denominator; on drawn signed rationals each must equal, in lowest terms,
the `Fraction` expression it replaced: `negdef2` on `entries_at(floor)`
for the matrix, and `max` of the ratios, which keeps the first on a tie,
for c.
"""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fano_wci.blowup import SectionLift, nef_bound_check
from fano_wci.catalog import FamilyRecord, Member
from fano_wci.exclusion import (Center, CurveCycle, CurveDegree, CurveGamma, InfiniteCurves, Isolation, NefDivisor,
                                NegDefMatrix, SurfacePair, UncoveredCaseError, Verdict, negdef2, qi_eligible)
from fano_wci.report import build_report
from fano_wci.links import build_counterpart
from fano_wci.singularities import (NotQuasismoothError, QuotientSingularity, StandardForm, StandardFormError,
                                    _pure_power, cax_classify, edge_root_count, equation_shape, family_support,
                                    normalize_quotient, singular_locus, tangent_coordinate)
from fano_wci.wps import MonomialSupport, rat
from test_strata import stratum

# the extraction weights are read off the form alone: no support is needed
NO_TERMS = MonomialSupport(0, frozenset())


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


def reference_vertex_on_member(support: MonomialSupport, w: tuple[int, ...], vertex: int) -> bool:
    pure = _pure_power(support.degree, w[vertex], vertex, len(w))
    return pure is None or pure not in support


def reference_vertex_singularities(record: FamilyRecord, support: MonomialSupport) -> list[QuotientSingularity]:
    w = record.weights
    out: list[QuotientSingularity] = []
    for i in range(4):
        if w[i] < 2 or not reference_vertex_on_member(support, w, i):
            continue
        j = tangent_coordinate(support, w, i)
        transverse = tuple(w[m] for m in range(5) if m not in (i, j))
        out.append(normalize_quotient(w[i], transverse, locus=f"p{i}"))
    return out


def reference_edge_singularities(record: FamilyRecord, edge: tuple[int, int],
                                 support: MonomialSupport) -> QuotientSingularity | None:
    i, j = sorted(edge)
    w = record.weights
    r = math.gcd(w[i], w[j])
    if r < 2:
        raise ValueError(f"edge p{i}p{j} has trivial stabilizer (gcd {r})")
    count = edge_root_count(support, w, i, j)
    if count == 0:
        return None
    transverse = tuple(w[m] for m in range(5) if m not in (i, j))
    return normalize_quotient(r, transverse, locus=f"p{i}p{j}", count=count)


def reference_singular_locus(record, shape, support):
    quotients = reference_vertex_singularities(record, support)
    w = record.weights
    for i in range(5):
        for j in range(i + 1, 5):
            if math.gcd(w[i], w[j]) < 2:
                continue
            found = reference_edge_singularities(record, (i, j), support)
            if found is not None:
                quotients.append(found)
    quotients.sort(key=lambda q: (q.locus, q.r))
    return quotients, cax_classify(shape, support)


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
        assert (cax_classify(shape, NO_TERMS).extraction_weights
                == cax_classify(g_form, NO_TERMS).extraction_weights), g
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
    gprimes = [catalog.pair(i).gprime for i in catalog.ids()]
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


def stratum_locus(member, monomial):
    """The quotient points and cAx point of a one-monomial stratum, read off
    the `Member` that the public path builds."""
    dropped = stratum(member, monomial)
    return list(dropped.quotients), dropped.cax


def edge_strikes(member):
    """Each support that strikes every monomial on one edge of gcd >= 2."""
    support, w = member.support, member.gprime.weights
    for i, j in itertools.combinations(range(5), 2):
        if math.gcd(w[i], w[j]) >= 2:
            on_edge = {m for m in support.monomials if m[i] * w[i] + m[j] * w[j] == support.degree}
            yield MonomialSupport(support.degree, support.monomials - on_edge)


def test_singular_locus_matches_the_walk_it_replaced(catalog):
    raised = Counter()
    strata = strikes = 0
    for fid in catalog.ids():
        member = catalog.member(fid)
        record, shape, full = member.gprime, member.shape, member.support
        assert (outcome(singular_locus, record, shape, full)
                == outcome(reference_singular_locus, record, shape, full)), fid
        for monomial in full.sorted():
            expected = outcome(reference_singular_locus, record, shape,
                               MonomialSupport(full.degree, full.monomials - {monomial}))
            assert outcome(stratum_locus, member, monomial) == expected, (fid, monomial)
            if expected[0] != "value":
                raised[expected[0]] += 1
            strata += 1
        for support in edge_strikes(member):
            expected = outcome(reference_singular_locus, record, shape, support)
            assert outcome(singular_locus, record, shape, support) == expected, (fid, support)
            # the vertices are walked first: theirs is the error raised
            assert expected[0] is NotQuasismoothError, (fid, expected)
            strikes += 1
    assert (strata, strikes) == (1_284, 17)
    assert raised == {NotQuasismoothError: 16}


RATIONAL_TEXT = st.text(alphabet="0123456789/+-.e_ \t٣²", max_size=12)


@settings(max_examples=400, deadline=None)
@given(st.one_of(RATIONAL_TEXT, st.from_regex(r"\A[0-9]{1,6}(/[0-9]{1,6})?\Z")))
def test_rat_matches_fraction(text):
    if re.fullmatch(r"[0-9]+(/[0-9]+)?", text, re.ASCII):
        assert outcome(rat, text) == outcome(Fraction, text)
    else:
        assert outcome(rat, text) == (ValueError, 'expected "p/q" or "p" in ASCII digits')


def reference_curve(degree):
    if degree <= 0:
        raise ValueError("curve degree must be positive")
    return Center("curve", degree)


def reference_curve_degree(self):
    if self.deg <= 0 or self.a_cube <= 0:
        raise ValueError("degree and (-K)^3 must be positive")
    return Verdict(self.deg >= self.a_cube, self.method, self.deg - self.a_cube)


def reference_curve_gamma(self):
    if self.gamma_sq >= 0:
        raise ValueError("the self-intersection bound must be negative")
    witness = 3 * self.a_cube - 2 * self.deg + self.gamma_sq
    return Verdict(witness <= 0, self.method, witness)


def reference_curve_cycle(self):
    witness = self.gamma_dot_delta - self.a_dot_delta
    return Verdict(witness >= 0 and self.a_dot_delta > 0, self.method, witness)


def reference_isolation(self):
    return Verdict(self.bound <= self.limit, self.method, Fraction(self.bound))


def reference_surface_pair(self):
    if not self.irreducibility_flag:
        raise UncoveredCaseError(
            "surface-pair certificate needs the irreducibility condition; "
            "fall back to the family-specific certificate")
    if not self.gamma_support.monomials:
        raise ValueError("empty restriction support")
    witness = self.a1 * self.a1 * self.b_cube
    return Verdict(witness <= 0, self.method, witness)


def reference_nef_divisor(self):
    return Verdict(self.certified and self.m_b2 <= 0, self.method, self.m_b2)


def reference_negdef2(m):
    if m[0][1] != m[1][0]:
        raise ValueError("matrix is not symmetric")
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return m[0][0] < 0 and det > 0


def reference_negdef_for_all(cert):
    at_floor = reference_negdef2(cert.entries_at(cert.parameter_floor))
    slope_ok = -(cert.alpha + cert.beta) >= 0
    return at_floor and slope_ok


def reference_negdef_matrix(self):
    e = self.entries_at(self.parameter_floor)
    witness = e[0][0] * e[1][1] - e[0][1] * e[1][0]
    return Verdict(reference_negdef_for_all(self), self.method, witness)


def reference_infinite_curves(self):
    return Verdict(self.b_dot_c <= 0 and self.e_dot_c > 0, self.method, self.b_dot_c)


# the verdict of each certificate class whose verdict reads a sign
REFERENCE_VERDICTS = {
    CurveDegree: reference_curve_degree, CurveGamma: reference_curve_gamma, CurveCycle: reference_curve_cycle,
    Isolation: reference_isolation, SurfacePair: reference_surface_pair, NefDivisor: reference_nef_divisor,
    NegDefMatrix: reference_negdef_matrix, InfiniteCurves: reference_infinite_curves,
}


def reference_nef_bound_check(lifts, q):
    if not lifts:
        raise ValueError("need at least one section lift")
    for lift in lifts:
        if lift.class_b <= 0 or lift.class_e < 0:
            raise ValueError(f"lift {lift} is not of the form bB + eE with b > 0, e >= 0")
    c = max(Fraction(lift.class_e, lift.class_b) for lift in lifts)
    return c, c <= Fraction(1, q.r)


def verdicts_agree(member) -> Counter:
    """Check every branch of the member's report against the reference
    verdict of its certificate; the branches checked, by method."""
    checked = Counter()
    for cr in build_report(member).centers:
        for br in cr.branches:
            cert = br.certificate
            reference = REFERENCE_VERDICTS.get(type(cert))
            if reference is None:  # an untwist, whose verdict compares nothing
                continue
            assert outcome(cert.verdict) == outcome(reference, cert) == ("value", br.verdict), cert
            if isinstance(cert, Isolation):
                assert cert.limit == Fraction(4) / member.a_cube, cert
            checked[cert.method] += 1
    return checked


def test_verdicts_match_the_fraction_comparisons_they_replaced(catalog):
    # every branch of one verify-tables, then of every one-monomial stratum
    members = [catalog.member(fid) for fid in catalog.ids()]
    assert sum(map(verdicts_agree, members), Counter()) == {
        "isolation": 14, "curve-degree": 14, "surface-pair": 10, "infinite-curves": 4, "nef-divisor": 3,
        "curve-gamma": 2, "negdef-matrix": 2, "curve-cycle": 1}
    strata, checked = 0, Counter()
    for member in members:
        for monomial in member.support.sorted():
            try:
                dropped = stratum(member, monomial)
            except NotQuasismoothError:
                continue
            checked += verdicts_agree(dropped)
            strata += 1
    assert strata == 1_284 - 16
    assert checked == {"curve-degree": 1_268, "isolation": 1_268, "surface-pair": 934, "infinite-curves": 357,
                       "nef-divisor": 226, "curve-gamma": 160, "negdef-matrix": 122, "curve-cycle": 105}


F = Fraction
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
ONE_MONOMIAL = MonomialSupport(0, frozenset({(0, 2, 0)}))


@st.composite
def certificates(draw):
    """A certificate of each class that `REFERENCE_VERDICTS` covers, on drawn
    rationals; on `tie`, the drawn values are moved onto the comparison's
    equality boundary (witness 0, bound == limit, a zero entry, slope or
    determinant)."""
    a, b, c = draw(RATIONALS), draw(RATIONALS), draw(RATIONALS)
    tie = draw(st.booleans())
    kind = draw(st.sampled_from(sorted(REFERENCE_VERDICTS, key=lambda cls: cls.__name__)))
    if kind is CurveDegree:
        return CurveDegree(deg=a, a_cube=a if tie else b)
    if kind is CurveGamma:
        return CurveGamma(a_cube=a, deg=b, gamma_sq=2 * b - 3 * a if tie else c)
    if kind is CurveCycle:
        return CurveCycle(gamma_dot_delta=b if tie else a, a_dot_delta=b)
    if kind is Isolation:
        bound = draw(st.integers(-2, 40))
        return Isolation(bound=bound, limit=F(bound) if tie else a, dropped_vertex=3)
    if kind is SurfacePair:
        return SurfacePair(a1=draw(st.integers(-3, 3)), b_cube=F(0) if tie else a,
                           gamma_support=draw(st.sampled_from([ONE_MONOMIAL, NO_TERMS])),
                           irreducibility_flag=draw(st.booleans()))
    if kind is NefDivisor:
        return NefDivisor(lifts=(), q=QuotientSingularity(2, 1), m_b2=F(0) if tie else a, c=b,
                          certified=draw(st.booleans()))
    if kind is NegDefMatrix:
        boundary = draw(st.sampled_from(["entry", "slope", "det"])) if tie else ""
        if boundary == "entry":
            c = a  # alpha - m = 0 at the floor
        elif boundary == "slope":
            b = -a
        elif boundary == "det" and a + b:
            c = a * b / (a + b)  # (alpha - m)(beta - m) - m^2 = 0 at the floor
        return NegDefMatrix(alpha=a, beta=b, parameter_floor=c)
    return InfiniteCurves(b_dot_c=F(0) if tie else a, e_dot_c=F(0) if draw(st.booleans()) else b)


@settings(max_examples=400, deadline=None)
@given(certificates())
@example(CurveDegree(F(1, 2), F(1, 2)))
@example(CurveDegree(F(0), F(1, 2)))
@example(CurveGamma(F(1), F(1), F(-1)))
@example(CurveGamma(F(1), F(1), F(0)))
@example(CurveCycle(F(1, 2), F(1, 2)))
@example(CurveCycle(F(1), F(0)))
@example(Isolation(6, F(6), 2))
@example(Isolation(7, F(20, 3), 2))
@example(SurfacePair(2, F(0), ONE_MONOMIAL, True))
@example(NefDivisor((), QuotientSingularity(2, 1), F(0), F(1, 2), True))
@example(NegDefMatrix(F(1, 2), F(-1, 2), F(1, 2)))
@example(NegDefMatrix(F(-1, 2), F(-1, 2), F(-1, 4)))
@example(InfiniteCurves(F(0), F(0)))
def test_verdicts_match_the_fraction_comparisons_on_drawn_rationals(cert):
    assert outcome(cert.verdict) == outcome(REFERENCE_VERDICTS[type(cert)], cert)


@settings(max_examples=200, deadline=None)
@given(RATIONALS)
@example(F(0))
def test_curve_center_matches_its_fraction_check(degree):
    assert outcome(Center.curve, degree) == outcome(reference_curve, degree)


@st.composite
def lifts_at_points(draw):
    """Drawn section lifts at a drawn quotient point; on `tie`, every lift
    is clamped to class_e / class_b <= 1/r and the first attains it, so
    c == 1/r."""
    r, a = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (5, 2), (7, 3)]))
    lifts = draw(st.lists(st.builds(SectionLift, st.integers(-1, 12), RATIONALS), max_size=4))
    if lifts and draw(st.booleans()):
        lifts = [SectionLift(lift.class_b, F(lift.class_b, r) if i == 0 else min(lift.class_e, F(lift.class_b, r)))
                 for i, lift in enumerate(lifts)]
    return lifts, QuotientSingularity(r, a)


@settings(max_examples=400, deadline=None)
@given(lifts_at_points())
@example(([SectionLift(2, F(1)), SectionLift(4, F(1, 2))], QuotientSingularity(2, 1)))
def test_nef_bound_check_matches_its_fraction_comparisons(drawn):
    lifts, q = drawn
    assert outcome(nef_bound_check, lifts, q) == outcome(reference_nef_bound_check, lifts, q)


# Each number a verdict or `nef_bound_check` returns is one Fraction over a
# common denominator; the references are the Fraction expressions it replaced
SIGNED = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
POSITIVE = SIGNED.map(abs).filter(bool)


def same_number(got, want) -> bool:
    """`got` is a Fraction in lowest terms equal to `want`."""
    return type(got) is Fraction and got.as_integer_ratio() == want.as_integer_ratio()


@settings(max_examples=200, deadline=None)
@given(POSITIVE, POSITIVE)
@example(F(1, 2), F(1, 2))
def test_curve_degree_witness_is_the_fraction_difference(deg, a_cube):
    assert same_number(CurveDegree(deg=deg, a_cube=a_cube).verdict().witness, deg - a_cube)


@settings(max_examples=200, deadline=None)
@given(SIGNED, SIGNED, POSITIVE)
@example(F(1), F(1), F(1))
@example(F(1, 6), F(1, 4), F(1))
def test_curve_gamma_witness_is_the_fraction_sum(a_cube, deg, bound):
    gamma_sq = -bound
    witness = CurveGamma(a_cube=a_cube, deg=deg, gamma_sq=gamma_sq).verdict().witness
    assert same_number(witness, 3 * a_cube - 2 * deg + gamma_sq)


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), SIGNED)
@example(0, F(-1, 3))
def test_surface_pair_witness_is_the_fraction_product(a1, b_cube):
    cert = SurfacePair(a1=a1, b_cube=b_cube, gamma_support=ONE_MONOMIAL, irreducibility_flag=True)
    assert same_number(cert.verdict().witness, a1 * a1 * b_cube)


@st.composite
def negdef_matrices(draw):
    """A NegDefMatrix on drawn rationals; on `tie`, moved onto a boundary of
    the verdict: a zero leading entry, slope or determinant at the floor."""
    alpha, beta, floor = draw(SIGNED), draw(SIGNED), draw(SIGNED)
    boundary = draw(st.sampled_from(["", "entry", "slope", "det"]))
    if boundary == "entry":
        floor = alpha
    elif boundary == "slope":
        beta = -alpha
    elif boundary == "det" and alpha + beta:
        floor = alpha * beta / (alpha + beta)
    return NegDefMatrix(alpha=alpha, beta=beta, parameter_floor=floor)


@settings(max_examples=300, deadline=None)
@given(negdef_matrices())
@example(NegDefMatrix(F(1, 4), F(-2, 5), F(1)))
@example(NegDefMatrix(F(-1, 10), F(1, 60), F(1, 2)))
@example(NegDefMatrix(F(-1, 2), F(-1, 2), F(-1, 4)))
def test_negdef_verdict_is_negdef2_at_the_floor_and_the_slope(cert):
    entries = cert.entries_at(cert.parameter_floor)
    verdict = cert.verdict()
    assert verdict.excluded == (negdef2(entries) and (cert.alpha + cert.beta) <= 0)
    assert same_number(verdict.witness, entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0])


@st.composite
def valid_lifts(draw):
    """Drawn lifts of the form bB + eE with b > 0 and e >= 0 at a drawn
    point; on `tie`, the first lift's ratio e / b is repeated at a later
    lift with another b."""
    r, a = draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (5, 2), (7, 3)]))
    lifts = draw(st.lists(st.builds(SectionLift, st.integers(1, 40), SIGNED.map(abs)), min_size=1, max_size=5))
    if draw(st.booleans()):
        k = draw(st.integers(2, 5))
        lifts.insert(draw(st.integers(1, len(lifts))), SectionLift(k * lifts[0].class_b, k * lifts[0].class_e))
    return lifts, QuotientSingularity(r, a)


@settings(max_examples=300, deadline=None)
@given(valid_lifts())
@example(([SectionLift(2, F(1)), SectionLift(4, F(2))], QuotientSingularity(2, 1)))
@example(([SectionLift(1, F(0)), SectionLift(3, F(1, 4)), SectionLift(6, F(1, 2))], QuotientSingularity(5, 2)))
def test_nef_bound_is_the_largest_fraction_ratio_first_on_a_tie(drawn):
    lifts, q = drawn
    c, certified = nef_bound_check(lifts, q)
    ratios = [Fraction(lift.class_e, lift.class_b) for lift in lifts]
    first = max(range(len(lifts)), key=ratios.__getitem__)  # max keeps the first of equal ratios
    assert same_number(c, ratios[first])
    assert certified == (c <= Fraction(1, q.r))
