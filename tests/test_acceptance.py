"""Acceptance suite: every catalog-wide guarantee, exact arithmetic, zero
tolerance.  Run with `pytest -s tests/test_acceptance.py` to see the per-item
pass lines."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from fano_wci import blowup, exclusion, links, singularities
from fano_wci.catalog import default_catalog_path, load_catalog
from fano_wci.cli import main
from fano_wci.exclusion import Center, dispatch, negdef2, negdef_for_all, NegDefMatrix
from fano_wci.report import GOLDEN, build_report, verify_tables
from fano_wci.singularities import QuotientSingularity, normalize_quotient
from fano_wci.wps import monomials_of_degree, rat_str

F = Fraction


def ok(n, message):
    print(f"ACCEPTANCE {n:>2} PASS: {message}")


def test_01_a_cube_table(catalog):
    for fid in catalog.ids():
        assert catalog.pair(fid).gprime.a_cube() == GOLDEN["a_cube"][fid], f"family {fid}"
    ok(1, "all 14 A^3 values reproduced exactly from weights and degrees")


def test_02_link_construction(catalog):
    for fid in catalog.ids():
        g, gp = catalog.pair(fid).g, catalog.pair(fid).gprime
        form = links.to_standard_form(g, catalog.pair(fid).golden.subfamily)
        weights, degree = links.build_counterpart(form)
        assert weights == gp.weights and degree == gp.degrees[0]
        back_w, back_d = links.counterpart_inverse(catalog.member(fid).shape)
        assert back_w == g.weights and back_d == tuple(sorted(g.degrees))
    assert links.build_counterpart(catalog.member(82).shape)[0] == (1, 2, 5, 11, 4)
    ok(2, "all 14 counterparts and degrees match; round trip G -> G' -> G is the identity")


def test_03_baskets(catalog):
    for fid in catalog.ids():
        member = catalog.member(fid)
        quotients, cax = member.quotients, member.cax
        computed = [(q.type_str(), q.count, q.locus) for q in quotients] + [(cax.type_str(), 1, "p4")]
        assert computed == list(catalog.pair(fid).golden.basket), f"family {fid}"
    q29 = [q for q in catalog.member(29).quotients if q.locus == "p2p4"]
    assert q29[0].count == 3
    for fid in (41, 74):
        counts = [q.count for q in catalog.member(fid).quotients if q.r == 3]
        assert counts == [2], f"family {fid}"
    ok(3, "all 14 baskets (vertex + edge counting) equal the golden first columns")


def test_04_b_cube_signs(catalog):
    for (fid, locus), sign in GOLDEN["b_cube_signs"].items():
        q = next(q for q in catalog.member(fid).quotients if q.locus == locus)
        val = blowup.b_cubed(catalog.pair(fid).gprime.a_cube(), q)
        assert (val > 0) - (val < 0) == sign, f"family {fid} at {locus}"
    positives = [(fid, locus) for (fid, locus), s in GOLDEN["b_cube_signs"].items() if s > 0]
    assert sorted(positives) == [(30, "p2"), (55, "p2"), (69, "p2")]
    ok(4, "every annotated blowup sign matches; the three positive cases are 30, 55, 69")


def test_05_nef_certificates(catalog):
    expected = {50: (F(-3, 20), [(1, 0), (3, 1), (4, 1)]),
                74: (F(-1, 4), [(1, 0), (3, 1), (4, 1)]),
                82: (F(-1, 4), [(1, 0), (5, 2), (4, 1)])}
    for fid, (witness, lift_classes) in expected.items():
        locus = "p1p4"
        q = QuotientSingularity(2, 1, locus=locus)
        condition = "not-exists-wci(1,3,4)" if fid == 50 else ""
        cert, verdict = dispatch(catalog.member(fid), Center.quotient_point(q), condition)
        assert cert.method == "nef-divisor"
        assert verdict.excluded and verdict.witness == witness
        assert [(l.class_b, l.class_e) for l in cert.lifts] == lift_classes
        assert cert.certified and cert.c <= F(1, 2)
    ok(5, "nef witnesses -3/20, -1/4, -1/4 with c <= 1/2 from the stated lifts")


def test_06_isolation_bounds(catalog):
    for fid, (bound, limit) in GOLDEN["isolation"].items():
        record = catalog.pair(fid).gprime
        cert, verdict = dispatch(catalog.member(fid), Center.smooth_point())
        assert (cert.bound, cert.limit) == (bound, limit), f"family {fid}"
        assert verdict.excluded
    for fid in catalog.ids():
        _, verdict = dispatch(catalog.member(fid), Center.smooth_point())
        assert verdict.excluded, f"family {fid}"
    ok(6, "isolation pairs (10,40/3), (6,6), (20,240/7), (6,48/5), and all 14 families pass")


def test_07_curve_tests(catalog):
    for fid, witness in GOLDEN["curve_witness"].items():
        deg = exclusion.SPECIAL_CURVE_DEG[fid]
        cert, verdict = dispatch(catalog.member(fid), Center.curve(deg))
        assert verdict.excluded and verdict.witness == witness, f"family {fid}"
    ok(7, "curve witnesses -1/2 (No.19) and -1/4 (No.23) from 3A^3 - 2deg + Gamma^2")


def test_08_matrices(catalog):
    for (fid, locus), (alpha, beta, floor) in GOLDEN["matrices"].items():
        cert = NegDefMatrix(alpha=alpha, beta=beta, parameter_floor=floor)
        assert negdef2(cert.entries_at(floor))
        assert negdef_for_all(cert)
        q = next(q for q in catalog.member(fid).quotients if q.locus == locus)
        condition = "exists-wci(1,3,4)" if locus == "p1p4" else "monomial-absent(z^3 t)"
        got, verdict = dispatch(catalog.member(fid), Center.quotient_point(q), condition)
        assert (got.alpha, got.beta, got.parameter_floor) == (alpha, beta, floor)
        assert verdict.excluded
    ok(8, "both parametric matrices negative-definite at floors 1 and 1/2 and for all larger m")


def test_09_tower_numerics(catalog):
    half = QuotientSingularity(2, 1)
    quarter = QuotientSingularity(4, 1)
    tower = blowup.BlowupRing.kawamata_tower(catalog.pair(19).g.a_cube(), [half, quarter])
    k = (1, F(-1, 2), F(-1, 4))
    assert blowup.triple(tower, k, k, k) == F(-1, 12)

    # pairing of -K with the half-point curve on the blown-up hypersurface side
    lat = blowup.BlowupRing.kawamata_tower(catalog.pair(19).gprime.a_cube(), [half])
    b = (1, F(-1, 2))
    # the 1/6 is cited from the paper; ROADMAP item 2 derives it
    curve_pairing = F(1, 6) - F(1, 2) * 1
    assert curve_pairing == F(-1, 3)
    # consistency: the residual pencil balances 2B^3 = (B . Gamma) + (B . C)
    assert 2 * blowup.triple(lat, b, b, b) == curve_pairing + F(2, 3)
    ok(9, "tower (-K)^3 = -1/12 and the 2B^3 balance, via triple products, with the cited "
          "half-point curve pairing -1/3")


def test_10_table_supports(catalog):
    assert len(GOLDEN["gamma_rows"]) == 9
    for fid, rows in GOLDEN["gamma_rows"].items():
        support = exclusion.gamma_polynomial(catalog.member(fid))
        assert support.monomials == rows, f"family {fid}"
    ok(10, "all 9 restriction-curve supports reproduced")


def test_11_property_suites(catalog):
    # the ring's symmetry and multilinearity suite is
    # tests/test_blowup.py::test_triple_symmetric_and_multilinear

    # monomial enumeration against brute force at every catalog degree
    for fid in catalog.ids():
        for record in (catalog.pair(fid).g, catalog.pair(fid).gprime):
            w = record.weights
            for d in record.degrees:
                boxes = [range(d // a + 1) for a in w]
                brute = {e for e in itertools.product(*boxes)
                         if sum(x * a for x, a in zip(e, w)) == d}
                assert monomials_of_degree(d, w).monomials == brute

    # negative-definiteness against the grid oracle, 200 cases
    from test_exclusion import grid_negdef
    rng = random.Random(20240)
    for _ in range(200):
        a = F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        b = F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        c = F(rng.randint(-8, 8), rng.choice((1, 2, 3, 4)))
        m = [[a, b], [b, c]]
        assert negdef2(m) == grid_negdef(m)

    # normalization is idempotent
    for r in range(2, 9):
        for a in range(1, r):
            try:
                q = normalize_quotient(r, (1, a, r - a))
            except singularities.ClassificationError:
                continue
            assert normalize_quotient(q.r, (1, q.a, q.r - q.a)) == q
    ok(11, "property suites: enumeration, negdef grid (200), idempotence")


def test_12_end_to_end(catalog, capsys, tmp_path):
    assert main(["verify-tables"]) == 0
    capsys.readouterr()

    with open(default_catalog_path(), encoding="utf-8") as fh:
        pristine = json.dumps(json.load(fh))

    def inject(fid, kind, mutate):
        raw = json.loads(pristine)
        mutate(next(o for o in raw if o["id"] == fid and o["kind"] == kind))
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(raw))
        code = main(["--catalog", str(bad), "verify-tables"])
        out = capsys.readouterr().out
        assert code == 1, f"fault in family {fid} not detected"
        assert f"family {fid}" in out

    inject(19, "Gprime", lambda o: o.update(a_cube="1/2"))
    inject(29, "Gprime", lambda o: o["basket"][0].update(count=2))
    inject(19, "Gprime", lambda o: o["links"][0].update(tag="QI"))
    inject(74, "Gprime", lambda o: o.update(degrees=[16]))
    inject(82, "G", lambda o: o.update(weights=[1, 2, 5, 9, 13, 11]))

    assert main(["--catalog", str(tmp_path / "absent.json"), "verify-tables"]) == 2
    capsys.readouterr()

    # every center of every family resolves to excluded-or-untwisted
    for fid in catalog.ids():
        report = build_report(catalog.member(fid))
        assert report.birigid_summary == "all-centers-resolved", f"family {fid}"
        for cr in report.centers:
            for br in cr.branches:
                assert br.verdict.resolved
    assert verify_tables(load_catalog()) == []
    ok(12, "verify-tables exits 0; the injected fault flips it to 1 naming family 19")
