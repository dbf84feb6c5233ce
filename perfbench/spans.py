"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: `install` replaces every public
function of the fano_wci modules, at every module binding that refers to it,
with a wrapper that records a `perf_counter_ns` span.  A span's parent is
taken from a `contextvars` stack, so nesting follows the call stack.  Spans
are kept in memory for one op; `Totals.fold` then turns them into per-name
aggregates (calls, self time, distinct inputs, errors).

A span's self time is its duration minus the part of that interval covered by
its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("wps", "catalog", "singularities", "blowup", "exclusion", "links", "report", "cli")

# functions whose inputs are recorded, for the distinct-inputs ratio
KEYED = frozenset({"singularities.family_support", "singularities.singular_locus",
                   "wps.monomials_of_degree"})

# dispatch is split by the certificate method of the verdict it returns
RENAMED = {"exclusion.dispatch": lambda result: f"exclusion.dispatch.{result[1].method}"}

_parent: contextvars.ContextVar[int] = contextvars.ContextVar("perfbench_parent", default=-1)


class Span:
    __slots__ = ("name", "parent", "start", "end", "key", "error")

    def __init__(self, name: str, parent: int, key=None):
        self.name = name
        self.parent = parent
        self.key = key
        self.start = self.end = 0
        self.error = ""


class Recorder:
    """Holds the spans of the op being traced, in start order."""

    def __init__(self):
        self.spans: list[Span] = []

    def call(self, name: str, fn, args=(), kwargs=None, key=None, rename=None):
        span = Span(name, _parent.get(), key)
        token = _parent.set(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter_ns()
            _parent.reset(token)
        if rename is not None:
            span.name = rename(result)
        return result


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the union of its children's intervals."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0
        reach = span.start
        for child in sorted(kids, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


class Totals:
    """Aggregates over many ops; `ops` counts the folded ops."""

    def __init__(self):
        self.ops = 0
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()  # "name:ErrorClass"
        self.distinct_in_op: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)

    def fold(self, spans: list[Span]) -> None:
        self.ops += 1
        op_keys: defaultdict[str, set] = defaultdict(set)
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] += 1
            self.self_ns[span.name] += own
            if span.error:
                self.errors[f"{span.name}:{span.error}"] += 1
            if span.key is not None:
                op_keys[span.name].add(repr(span.key))
        for name, keys in op_keys.items():
            self.distinct_in_op[name] += len(keys)
            self.keys[name] |= keys

    def to_json(self) -> dict:
        return {"ops": self.ops, "calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "errors": dict(self.errors), "distinct_in_op": dict(self.distinct_in_op),
                "keys": {name: sorted(keys) for name, keys in self.keys.items()}}

    def merge_json(self, data: dict) -> None:
        """Add the totals another process wrote with `to_json`."""
        self.ops += data["ops"]
        self.calls.update(data["calls"])
        self.self_ns.update(data["self_ns"])
        self.errors.update(data["errors"])
        self.distinct_in_op.update(data["distinct_in_op"])
        for name, keys in data["keys"].items():
            self.keys[name].update(keys)


def public_functions():
    """(module, attribute, function, span name) for every binding, in the
    package and its modules, of a public function defined in the package."""
    package = importlib.import_module("fano_wci")
    modules = [package] + [importlib.import_module(f"fano_wci.{m}") for m in MODULES]
    out = []
    for module in modules:
        for attr, value in vars(module).items():
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if not value.__module__.startswith("fano_wci."):
                continue
            name = f"{value.__module__.removeprefix('fano_wci.')}.{value.__name__}"
            out.append((module, attr, value, name))
    return out


def _wrap(recorder: Recorder, fn, name: str):
    keyed = name in KEYED
    rename = RENAMED.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = (args, tuple(sorted(kwargs.items()))) if keyed else None
        return recorder.call(name, fn, args, kwargs, key, rename)

    return wrapper


def install(recorder: Recorder):
    """Wrap every public function at every binding; returns the undo callable."""
    bindings = public_functions()
    wrappers = {}
    for module, attr, fn, name in bindings:
        if fn not in wrappers:
            wrappers[fn] = _wrap(recorder, fn, name)
        setattr(module, attr, wrappers[fn])

    def restore() -> None:
        for module, attr, fn, _ in bindings:
            setattr(module, attr, fn)

    return restore


def profile_calls(run) -> Counter[str]:
    """Calls of the package's public functions during `run()`, counted by the
    interpreter's profiler rather than by wrappers."""
    names = {}
    for _, _, fn, name in public_functions():
        names[getattr(fn, "__wrapped__", fn).__code__] = name
    counts: Counter[str] = Counter()

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts
