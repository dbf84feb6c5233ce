"""Benchmark of the fano-wci command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is warm-cli, cold-cli, mutated-catalogs, or all (each in turn).  Every
workload is a closed loop with one client: the next op starts when the last
one has finished.  Inputs come from --seed; the program sees only the
generated argv and catalog files.  Every op's output is checked against the
catalog file's own data (see checks.py).

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 is the separate traced run: it alternates untraced rounds of ops
with rounds during which every public function of the package is wrapped
(spans.py), spawns fresh interpreters under -X importtime for interpreter
start and import times, and reports the per-layer metrics.

Timings are steadied for a shared machine, whose core other tenants slow by
up to 1.8x in bursts of 40 ms to a few seconds: a fixed stdlib-only
`calibration` runs just before every op and every set-up, and each time is
scaled by CALIBRATION_REF_MS over that calibration's time, so it reads as
milliseconds on a core as fast as the one the benchmark was defined on.  The
raw_* statistics over the times as measured are printed and recorded
alongside.

BENCHMARK.json at the repository root lists warm-cli and cold-cli only: on
mutated-catalogs about half the ops crash today (the defect the catalog-
hardening roadmap item is to remove), and a benchmark workload must be one on
which no op fails.  mutated-catalogs still runs here and reports every crash.

Metric names and units come from BENCHMARK.json at the repository root.  The
last stdout line is {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable report and an "env" JSON line, and the full record
is written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import mutations
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CATALOG = SRC / "fano_wci" / "data" / "catalog.json"
OUT = ROOT / ".perfbench_out"

COMMANDS = ("verify-tables", "analyze-md", "analyze-json", "links", "basket")
SETUP_REPS = 9
IMPORT_PROBES = 10
DIGEST_OPS = 70  # the stdout digest covers the first ops, a fixed set for a seed
# mutated catalogs written per measured second: about 1.5x the op rate when
# the benchmark was defined (a run ends early if a faster program uses them up)
MUTATIONS_PER_SECOND = 64
CHILD_TIMEOUT_S = 60
# `calibration` time on an uncontended core of the machine the benchmark was
# defined on (Intel Xeon vCPU, Python 3.11)
CALIBRATION_REF_MS = 0.84



@dataclass
class Op:
    command: str  # one of COMMANDS, or "mutated" (verify-tables then analyze --format json)
    family: int
    argv: list[str]
    cls: str = ""  # mutation class
    path: str = ""  # mutated catalog file


@dataclass
class Call:
    """One cli invocation: its exit code, or the class of the exception that escaped."""

    command: str
    ms: float
    code: int | None
    crash: str
    out: str
    err: str


@dataclass
class Result:
    op: Op
    ms: float
    calls: list[Call]
    traced: bool
    scale: float  # CALIBRATION_REF_MS / the calibration run just before the op
    problem: str | None = None

    @property
    def crashed(self) -> bool:
        return any(c.crash for c in self.calls)

    @property
    def failed(self) -> bool:
        return self.crashed or self.problem is not None


def cli_argv(command: str, family: int) -> list[str]:
    if command == "verify-tables":
        return ["verify-tables"]
    if command.startswith("analyze-"):
        return ["analyze", "--family", str(family), "--format", command.removeprefix("analyze-")]
    return [command, "--family", str(family)]


def load_entries() -> list[dict]:
    with open(CATALOG, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_import():
    """Import fano_wci.cli from this checkout as a new interpreter would."""
    for name in [m for m in sys.modules if m == "fano_wci" or m.startswith("fano_wci.")]:
        del sys.modules[name]
    module = importlib.import_module("fano_wci.cli")
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported fano_wci from {module.__file__}, not from {SRC}")
    return module


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FANO_WCI_CATALOG"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(main, command: str, argv: list[str]) -> Call:
    """Run cli.main in process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, ""
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an escaping exception is an outcome this benchmark counts
            crash = type(exc).__name__
    ms = (time.perf_counter_ns() - start) / 1e6
    return Call(command, ms, code, crash, out.getvalue(), err.getvalue())


def subprocess_call(command: str, cmd: list[str], env: dict) -> tuple[Call, str]:
    """Run one child to completion; returns the call and the child's report line."""
    start = time.perf_counter_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    ms = (time.perf_counter_ns() - start) / 1e6
    lines = proc.stderr.splitlines(keepends=True)
    report = ""
    if lines and lines[-1].startswith("perfbench-child "):
        report = lines.pop().removeprefix("perfbench-child ")
    err = "".join(lines)
    crash = ""
    if "Traceback (most recent call last)" in err:
        crash = err.strip().splitlines()[-1].split(":")[0]
    elif proc.returncode not in (0, 1, 2):
        crash = f"exit-{proc.returncode}"
    return Call(command, ms, None if crash else proc.returncode, crash, proc.stdout, err), report


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class CliMix:
    """Rounds of the five commands in seeded order.  Each command draws its
    family from its own shuffled deck of all families, so every command and
    every family has an equal share of a run."""

    def __init__(self, seed: int, families: list[int]):
        self.rng = random.Random(seed)
        self.families = families
        self.decks: dict[str, list[int]] = {c: [] for c in COMMANDS}

    def next_round(self) -> list[Op]:
        order = list(COMMANDS)
        self.rng.shuffle(order)
        ops = []
        for command in order:
            deck = self.decks[command]
            if not deck:
                deck.extend(self.families)
                self.rng.shuffle(deck)
            family = deck.pop()
            argv = cli_argv(command, family)
            ops.append(Op(command, family, argv))
        return ops


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds

    def setup(self) -> None:
        """One set-up; repeated to time it."""
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        return self.mix.next_round()

    def run(self, op: Op, recorder: spans.Recorder | None = None) -> list[Call]:
        raise NotImplementedError

    def run_traced(self, op: Op, totals: spans.Totals) -> list[Call]:
        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            calls = self.run(op, recorder)
        finally:
            restore()
        totals.fold(recorder.spans)
        return calls

    def check(self, op: Op, calls: list[Call]) -> str | None:
        call = calls[0]
        if call.code != 0:
            return f"exit {call.code}: {call.err[:200]!r}"
        return checks.CHECKS[op.command](self.ref, op.family, call.out)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


class WarmCli(Workload):
    name = "warm-cli"

    def setup(self) -> None:
        self.cli = fresh_import()
        self.ref = checks.Reference(load_entries())
        families = sorted(self.ref.g)
        warmup = families[self.seed % len(families)]
        for command in COMMANDS[1:]:  # verify-tables would only double the set-up time
            invoke(self.cli.main, command, cli_argv(command, warmup))
        self.mix = CliMix(self.seed, families)

    def run(self, op: Op, recorder: spans.Recorder | None = None) -> list[Call]:
        if recorder is None:
            return [invoke(self.cli.main, op.command, op.argv)]
        return [recorder.call("op", invoke, (self.cli.main, op.command, op.argv))]


class ColdCli(Workload):
    name = "cold-cli"

    def setup(self) -> None:
        self.env = child_env()
        self.ref = checks.Reference(load_entries())
        families = sorted(self.ref.g)
        subprocess_call("basket", [sys.executable, "-m", "fano_wci.cli", "basket", "--family",
                                   str(families[self.seed % len(families)])], self.env)
        self.mix = CliMix(self.seed, families)

    def run(self, op: Op, recorder=None) -> list[Call]:
        call, _ = subprocess_call(op.command, [sys.executable, "-m", "fano_wci.cli", *op.argv], self.env)
        return [call]

    def run_traced(self, op: Op, totals: spans.Totals) -> list[Call]:
        call, report = subprocess_call(
            op.command, [sys.executable, str(HERE / "child.py"), "--trace", *op.argv], self.env)
        if report:
            totals.merge_json(json.loads(report)["totals"])
        return [call]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class MutatedCatalogs(Workload):
    name = "mutated-catalogs"
    why = ("each op runs verify-tables and analyze json on a new single-field mutation of "
           "the catalog: load, validation and error paths")
    pool_dir: Path | None = None

    def setup(self) -> None:
        self.cli = fresh_import()
        entries = load_entries()
        self.ref = checks.Reference(entries)
        self.pool_dir = OUT / f"mutations-{os.getpid()}"
        self.pool_dir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for k, m in enumerate(mutations.generate(entries, self.seed, MUTATIONS_PER_SECOND * self.seconds)):
            path = self.pool_dir / f"{k:05d}-{m.cls}.json"
            path.write_text(m.text, encoding="utf-8")
            self.pool.append(Op("mutated", m.family, [], m.cls, str(path)))
        family = sorted(self.ref.g)[self.seed % len(self.ref.g)]
        invoke(self.cli.main, "analyze-json", cli_argv("analyze-json", family))

    def next_round(self) -> list[Op]:
        ops = self.pool[:len(mutations.CLASSES)]
        del self.pool[:len(ops)]
        return ops

    def _both(self, op: Op) -> list[Call]:
        return [invoke(self.cli.main, "verify-tables", ["--catalog", op.path, "verify-tables"]),
                invoke(self.cli.main, "analyze-json", ["--catalog", op.path, "analyze", "--family",
                                                       str(op.family), "--format", "json"])]

    def run(self, op: Op, recorder: spans.Recorder | None = None) -> list[Call]:
        return self._both(op) if recorder is None else recorder.call("op", self._both, (op,))

    def check(self, op: Op, calls: list[Call]) -> str | None:
        for call in calls:
            problem = checks.check_exit_contract(call.command, call.code, call.out, call.err)
            if problem:
                return f"{call.command}: {problem}"
        return None

    def close(self) -> None:
        if self.pool_dir is not None:
            shutil.rmtree(self.pool_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (WarmCli, ColdCli, MutatedCatalogs)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def calibration() -> float:
    """Milliseconds for a fixed stdlib-only computation in the package's style
    (exact fractions, exponent tuples in dicts, sorting, string building)."""
    start = time.perf_counter_ns()
    total = Fraction(0)
    seen: dict[tuple, int] = {}
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 11 + 2)
        vec = tuple((i * k) % 5 for k in range(5))
        seen[vec] = seen.get(vec, 0) + 1
    _ = ",".join(f"{v}:{n}" for v, n in sorted(seen.items())) + str(total)
    return (time.perf_counter_ns() - start) / 1e6


def measure(workload: Workload, seconds: int, totals: spans.Totals | None, digest) -> list[Result]:
    """Whole rounds until `seconds` have passed; with `totals`, every second
    round is traced into it (a round holds each command or mutation class
    once, so traced and untraced ops have the same mix)."""
    results: list[Result] = []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline:
        ops = workload.next_round()
        if not ops:
            break
        traced = totals is not None and rounds % 2 == 1
        rounds += 1
        for op in ops:
            scale = CALIBRATION_REF_MS / calibration()
            calls = workload.run_traced(op, totals) if traced else workload.run(op)
            result = Result(op, sum(c.ms for c in calls), calls, traced, scale)
            if not result.crashed:
                result.problem = workload.check(op, calls)
            for c in calls:
                if len(results) < DIGEST_OPS:
                    digest.update(f"{c.command} {op.family} {op.cls} {c.code} {c.crash}\n{c.out}\n".encode())
                c.out = c.err = ""  # checked; keeps the benchmark's memory flat
            results.append(result)
    return results


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """The 90th percentile (nearest rank), or the highest percentile that still
    has ten samples beyond it; returns (value, percentile used)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        raise RuntimeError(f"only {n} ops: too few for a tail percentile")
    rank = min(math.ceil(0.9 * n), n - 10)
    return ordered[rank - 1], rank / n


def import_probe(env: dict) -> dict[str, float]:
    """Interpreter start and import times from fresh children under -X
    importtime; the fastest child, since contention only ever slows one."""
    starts, imports = [], []
    selfs: defaultdict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_PROBES):
        spawn = time.perf_counter_ns()
        call, report = subprocess_call("import", [sys.executable, "-X", "importtime",
                                                  str(HERE / "child.py")], env)
        if call.code != 0 or not report:
            raise RuntimeError(f"import probe failed: {call.err[-500:]}")
        data = json.loads(report)
        starts.append((data["start_ns"] - spawn) / 1e6)
        imports.append(data["import_ns"] / 1e6)
        for line in call.err.splitlines():
            cells = line.removeprefix("import time:").split("|")
            if line.startswith("import time:") and cells[0].strip().isdigit():
                module = cells[2].strip()
                if module == "fano_wci" or module.startswith("fano_wci."):
                    selfs[module].append(int(cells[0]) / 1000)
    out = {"interp.start_ms": min(starts), "import.fano_wci.cli_ms": min(imports)}
    for module, values in sorted(selfs.items()):
        out[f"import.{module}.self_ms"] = min(values)
    return out


def binding_check() -> int:
    """Run one op of each command with the wrappers installed and the
    profiler on; every call the profiler sees must have gone through a
    wrapper.  Returns the family_support calls of the verify-tables op."""
    cli = importlib.import_module("fano_wci.cli")
    family_support_calls = 0
    for command in COMMANDS:
        recorder = spans.Recorder()
        restore = spans.install(recorder)
        try:
            profiled = spans.profile_calls(lambda: invoke(cli.main, command, cli_argv(command, 50)))
        finally:
            restore()
        wrapped = Counter()
        for span in recorder.spans:
            base = next((b for b in spans.RENAMED if span.name.startswith(b + ".")), span.name)
            wrapped[base] += 1
        missed = {n: (profiled[n], wrapped[n]) for n in profiled if profiled[n] != wrapped[n]}
        if missed:
            raise RuntimeError(f"{command}: calls that bypassed the span wrappers "
                               f"(profiled, wrapped): {missed}")
        if command == "verify-tables":
            family_support_calls = wrapped["singularities.family_support"]
    return family_support_calls


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(results: list[Result], setups: list[tuple[float, float]], workload: Workload) -> dict:
    """Timings are calibration-scaled (see the module docstring); the raw_*
    entries are the same statistics over the times as measured.  `setups`
    holds (seconds, scale) per set-up."""
    metrics = {
        "setup_s": (statistics.median(s * scale for s, scale in setups), "s"),
        "failed_share": (sum(r.failed for r in results) / len(results), "share"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        "raw_setup_s": (statistics.median(s for s, _ in setups), "s"),
    }
    for prefix, times in (("", [r.ms * r.scale for r in results]), ("raw_", [r.ms for r in results])):
        p90, used = tail_percentile(times)
        metrics[prefix + "ops_per_s"] = (len(times) / (sum(times) / 1000), "1/s")
        metrics[prefix + "op_ms_p50"] = (statistics.median(times), "ms")
        metrics[prefix + "op_ms_p90"] = (p90, "ms", f"p{100 * used:.1f}")
    return metrics


def outcome(call: Call) -> str:
    return f"crash:{call.crash}" if call.crash else f"exit {call.code}"


def mutation_table(results: list[Result]) -> dict[str, dict]:
    """Per mutation class: op count, crash share and the outcome of each command."""
    table: dict[str, dict] = {}
    for cls in mutations.CLASSES:
        mine = [r for r in results if r.op.cls == cls]
        if not mine:
            continue
        row = {"ops": len(mine), "crash_share": sum(r.crashed for r in mine) / len(mine)}
        for k, command in enumerate(("verify-tables", "analyze-json")):
            row[command] = dict(sorted(Counter(outcome(r.calls[k]) for r in mine).items()))
        table[cls] = row
    return table


def per_layer(results: list[Result], totals: spans.Totals, probe: dict) -> dict:
    metrics = {name: (value, "ms") for name, value in probe.items()}
    by_command: defaultdict[str, list[float]] = defaultdict(list)
    for r in results:
        if not r.traced:
            for c in r.calls:
                by_command[c.command].append(c.ms * r.scale)
    for command, times in sorted(by_command.items()):
        metrics[f"cli.{command}.ms_p50"] = (statistics.median(times), "ms")
    ops = totals.ops
    for name in sorted(totals.calls):
        if name == "op":
            continue
        metrics[f"{name}.calls"] = (totals.calls[name] / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (totals.self_ns[name] / 1e6 / ops, "ms/op")
        if name in totals.distinct_in_op:
            metrics[f"{name}.distinct_ratio"] = (totals.distinct_in_op[name] / totals.calls[name], "ratio")
            metrics[f"{name}.distinct_ratio_run"] = (len(totals.keys[name]) / totals.calls[name], "ratio")
    loads = totals.calls["catalog.load_catalog"]
    rejected = totals.errors["catalog.load_catalog:CatalogError"]
    metrics["catalog.load_catalog.rejected_share"] = (rejected / loads if loads else 0.0, "share")
    verifies = [c for r in results for c in r.calls if c.command == "verify-tables"]
    metrics["report.verify_tables.detected_share"] = (
        sum(c.code != 0 for c in verifies) / len(verifies), "share")
    traced = [r.ms * r.scale for r in results if r.traced]
    plain = [r.ms * r.scale for r in results if not r.traced]
    metrics["trace.overhead_ratio"] = (statistics.mean(traced) / statistics.mean(plain), "ratio")
    for cls, row in mutation_table(results).items():
        metrics[f"mutated.crash_share.{cls}"] = (row["crash_share"], "share")
    return metrics


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(args, workload: Workload, why: str, results: list[Result], digest) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "catalog_sha256": hashlib.sha256(CATALOG.read_bytes()).hexdigest(),
        "workload": workload.name,
        "why": why,
        "ops": len(results),
        "stdout_sha256": digest.hexdigest(),
        "stdout_sha256_ops": min(len(results), DIGEST_OPS),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args) -> dict:
    workload = WORKLOADS[name](args.seed, args.seconds)
    try:
        setups = []
        for _ in range(SETUP_REPS):
            scale = CALIBRATION_REF_MS / calibration()
            start = time.perf_counter()
            workload.setup()
            setups.append((time.perf_counter() - start, scale))
            gc.collect()  # frees the previous set-up's modules, so peak RSS stays flat
        digest = hashlib.sha256()
        totals = spans.Totals() if args.trace else None
        results = measure(workload, args.seconds, totals, digest)
    finally:
        workload.close()

    spec = load_spec()
    listed = next((w for w in spec["workloads"] if w["name"] == name), None)
    why = listed["why"] if listed else workload.why
    record = {"env": environment(args, workload, why, results, digest)}
    if args.trace:
        record["verify_tables_family_support_calls"] = binding_check()
        metrics = per_layer(results, totals, import_probe(child_env()))
        record["span_errors"] = dict(totals.errors)
    else:
        metrics = end_to_end(results, setups, workload)
    if name == "mutated-catalogs":
        record["mutation_outcomes"] = mutation_table(results)
    record["metrics"] = {k: {"value": v[0], "unit": v[1], **({"note": v[2]} if len(v) > 2 else {})}
                         for k, v in metrics.items()}
    problems = [f"{r.op.command} {r.op.family} {r.op.cls}: {r.problem}" for r in results if r.problem]
    record["problems"] = problems[:20]

    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print_report(record, results, args)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and listed:
        raise RuntimeError(f"{name}: no measurement for {missing}")
    wanted = [m for m in wanted if m["name"] in metrics]
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }


def print_report(record: dict, results: list[Result], args) -> None:
    env = record["env"]
    failed = sum(r.failed for r in results)
    print(f"{env['workload']} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{len(results)} ops, {failed} failed")
    shown = record["metrics"]
    if args.trace:
        names = [n for n in shown if not n.endswith((".calls", ".self_ms", "distinct_ratio_run"))]
        busiest = sorted((n for n in shown if n.endswith(".self_ms")),
                         key=lambda n: -shown[n]["value"])[:15]
        names += busiest
        print(f"  family_support calls in one verify-tables op: {record['verify_tables_family_support_calls']}")
    else:
        names = list(shown)
    for name in names:
        m = shown[name]
        note = f" ({m['note']})" if "note" in m else ""
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}{note}")
    for cls, row in record.get("mutation_outcomes", {}).items():
        print(f"  {cls:<20} ops={row['ops']:<4} crash_share={row['crash_share']:.2f} "
              f"verify-tables {row['verify-tables']} analyze-json {row['analyze-json']}")
    for problem in record["problems"][:5]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(env))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (CATALOG, SRC / "fano_wci" / "cli.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a checkout of the repository",
                  file=sys.stderr)
            return 2
    if args.workload == "all":
        # one process per workload, so that peak RSS is each workload's own
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return 0
    os.environ.pop("FANO_WCI_CATALOG", None)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(args.workload, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
