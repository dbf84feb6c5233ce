"""Fresh-interpreter child for the traced cold paths of the benchmark.

    python [-X importtime] perfbench/child.py            # import probe
    python perfbench/child.py --trace <cli arguments>    # one traced cli op

It imports `fano_wci.cli` first, timing the import, then (with --trace)
wraps the package's functions and runs `cli.main`.  Its last stderr line is
"perfbench-child <json>" with its start timestamp, the import time and the
span totals.  `perf_counter_ns` reads CLOCK_MONOTONIC on Linux, so the
parent can subtract its own spawn timestamp from the start timestamp.
"""

import time

START_NS = time.perf_counter_ns()

import sys  # noqa: E402

MARKER = "perfbench-child "


def main() -> int:
    t = time.perf_counter_ns()
    import fano_wci.cli
    import_ns = time.perf_counter_ns() - t

    import json

    report = {"start_ns": START_NS, "import_ns": import_ns}
    code = 0
    if sys.argv[1:2] == ["--trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
        argv = sys.argv[2:]
        try:
            code = recorder.call("op", fano_wci.cli.main, (argv,))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        totals = spans.Totals()
        totals.fold(recorder.spans)
        report["totals"] = totals.to_json()
    sys.stdout.flush()
    print(MARKER + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
