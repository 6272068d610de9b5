"""One benchmark pass, started by run.py in a fresh interpreter.

It imports folinv from the checkout's ``src``, builds one workload's inputs
in the order of pass ``--pass``, and records the set-up time and a few probes of machine speed once they are
ready.  It then runs every op once, in order, in a closed loop with one
client.  It writes one line per op as the op finishes,
``op <key> <start_ns> <elapsed_ns> <ok>``, so that ops finished before a
kill still count.  Every 25 ms it also times a fixed probe between ops,
``probe <start_ns> <elapsed_ns>``; run.py scales op times by it.  The last
line is ``done <json>``.  A traced pass writes its spans to
``tracing.spans_path(workload)``.

    python3 perfbench/worker.py --workload ksweep --seed 1 --pass 0 --trace 0 \
        --spawned-ns <CLOCK_MONOTONIC at spawn>
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_NS = 25_000_000
SETUP_PROBES = 5


def probe_ns() -> int:
    """Time a fixed pure-Python computation: the yardstick of machine speed.

    Dict updates on tuple keys and Fraction arithmetic, the kind of work
    folinv does, so that it slows down with the machine as folinv does.  The
    collector is off while it runs, so the program's heap does not bill it.
    """
    gc.disable()
    start = time.perf_counter_ns()
    acc = {}
    for i in range(300):
        key = (i % 37, i % 29)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    elapsed = time.perf_counter_ns() - start
    gc.enable()
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import folinv
    import workloads

    if src.resolve() not in Path(folinv.__file__).resolve().parents:
        print(f"folinv imported from {folinv.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[args.workload](args.seed, args.pass_index)
    ready_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    record = {"setup_s": (ready_ns - args.spawned_ns) / 1e9, "n_ops": len(ops)}
    print(f"ready {len(ops)}", flush=True)
    record["setup_probe_ns"] = statistics.median(probe_ns() for _ in range(SETUP_PROBES))
    values = {}
    clock = time.perf_counter_ns
    out = sys.stdout
    next_probe = 0
    for i, op in enumerate(ops):
        if clock() >= next_probe:
            out.write(f"probe {clock()} {probe_ns()}\n")
            next_probe = clock() + PROBE_EVERY_NS
        if tracer is not None:
            tracer.op = i
        start = clock()
        try:
            value = op.call()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            elapsed = clock() - start
            value = f"error: {exc!r}"
            ok = False
        else:
            elapsed = clock() - start
            try:
                ok = bool(op.check(value, values))
            except Exception:  # noqa: BLE001 - a gate that cannot compare fails
                ok = False
        values[op.key] = value
        out.write(f"op {op.key} {start} {elapsed} {int(ok)}\n")
        out.flush()
    out.write(f"probe {clock()} {probe_ns()}\n")
    record["digest"] = workloads.digest(values)
    record["fallback_seen"] = "sympy" in sys.modules
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.op = -1
        tracer.dump(tracing.spans_path(args.workload))
    print("done " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
