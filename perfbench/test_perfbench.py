"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json

import pytest

import checks
import mutations
import run
import spans


def _span(name, parent, start, end):
    span = spans.Span(name, parent)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_child_intervals():
    tree = [
        _span("root", -1, 0, 100),
        _span("a", 0, 10, 40),
        _span("a1", 1, 20, 30),
        _span("b", 0, 50, 90),
        _span("b1", 3, 60, 95),  # runs past its parent: only the covered part counts
    ]
    assert spans.self_times(tree) == [30, 20, 10, 10, 35]


def test_self_time_counts_overlapping_children_once():
    tree = [_span("p", -1, 0, 100), _span("c1", 0, 10, 40), _span("c2", 0, 30, 50)]
    assert spans.self_times(tree)[0] == 60


def test_totals_fold_counts_calls_and_distinct_inputs():
    tree = [_span("op", -1, 0, 10), _span("f", 0, 1, 2), _span("f", 0, 3, 4), _span("f", 0, 5, 6)]
    tree[1].key, tree[2].key, tree[3].key = "x", "x", "y"
    tree[3].error = "ValueError"
    totals = spans.Totals()
    totals.fold(tree)
    assert totals.calls["f"] == 3 and totals.self_ns["op"] == 7
    assert totals.distinct_in_op["f"] == 2
    assert totals.errors["f:ValueError"] == 1


@pytest.fixture(scope="module")
def entries():
    return run.load_entries()


def test_mutation_generator_is_deterministic(entries):
    first = list(mutations.generate(entries, 7, 48))
    assert first == list(mutations.generate(entries, 7, 48))
    assert first != list(mutations.generate(entries, 8, 48))
    for k in range(0, 48, len(mutations.CLASSES)):
        assert {m.cls for m in first[k:k + len(mutations.CLASSES)]} == set(mutations.CLASSES)


def test_each_mutation_changes_exactly_one_entry(entries):
    for m in mutations.generate(entries, 3, 64):
        mutated = json.loads(m.text)
        changed = [k for k, (a, b) in enumerate(zip(entries, mutated)) if a != b]
        assert len(mutated) == len(entries) and len(changed) == 1, m.cls
        assert entries[changed[0]]["id"] == m.family


@pytest.fixture(scope="module")
def outputs():
    """Correct output of every command for every family, from the package."""
    cli = run.fresh_import()
    ref = checks.Reference(run.load_entries())
    out = {}
    for command in run.COMMANDS:
        for family in sorted(ref.g):
            call = run.invoke(cli.main, command, run.cli_argv(command, family))
            assert call.code == 0
            out[command, family] = call.out
    return ref, out


def test_checkers_accept_the_shipped_catalog(outputs):
    ref, out = outputs
    for (command, family), text in out.items():
        assert checks.CHECKS[command](ref, family, text) is None, (command, family)


def _corrupt(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


def test_checkers_reject_wrong_outputs(outputs):
    ref, out = outputs
    wrong = {
        "verify-tables": _corrupt(out["verify-tables", 19], "all 14", "all 13"),
        "basket": _corrupt(out["basket", 19], "2 x 1/2(1,1,1)", "3 x 1/2(1,1,1)"),
        "analyze-md": _corrupt(out["analyze-md", 19], "A^3 = 2/3", "A^3 = 1/3"),
        "links": _corrupt(out["links", 19], "P(1,1,2,3,2)", "P(1,1,3,2,2)"),
    }
    for command, text in wrong.items():
        assert checks.CHECKS[command](ref, 19, text) is not None, command
    payload = json.loads(out["analyze-json", 19])
    payload["basket"][0]["count"] += 1
    assert checks.check_analyze_json(ref, 19, json.dumps(payload)) is not None
    payload = json.loads(out["analyze-json", 19])
    payload["birigid_summary"] = "uncovered-cases(p3)"
    assert checks.check_analyze_json(ref, 19, json.dumps(payload)) is not None


def test_exit_contract():
    assert checks.check_exit_contract("verify-tables", 1, "family 17: x\nverify-tables: 1 mismatch(es)\n", "") is None
    assert checks.check_exit_contract("verify-tables", 1, "", "") is not None
    assert checks.check_exit_contract("analyze-json", 1, "", "") is not None
    assert checks.check_exit_contract("analyze-json", 2, "", "error: bad\n") is None
    assert checks.check_exit_contract("analyze-json", 3, "", "") is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    times = list(range(1, 201))
    assert run.tail_percentile(times) == (180, 0.9)
    value, used = run.tail_percentile(list(range(1, 51)))
    assert value == 40 and used == 0.8


def test_wrappers_see_every_call():
    # binding_check fails when the profiler sees a call that bypassed a wrapper.
    # 139 is verify-tables' family_support call count for the shipped catalog
    # at the commit that introduced this benchmark.
    run.fresh_import()
    assert run.binding_check() == 139
