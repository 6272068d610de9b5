#!/usr/bin/env python3
"""folinv benchmark: times one workload, or all of them, and checks every result.

    python3 perfbench/run.py --workload ksweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--trace 1]

Every pass is a fresh interpreter that imports folinv from ``src/`` of this
checkout, so the standard-basis cache starts empty, as in a user's process.
Passes run one at a time over the workload's ops.  After one untimed pass,
a run times passes until ``--seconds`` have gone by.  Times are scaled by a
probe of the machine's speed and reported as medians.  With ``--trace 1``
every other pass is traced, and the per-layer metrics of the traced passes
are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
record the environment and each metric with its unit; each result is also
appended to ``perfbench/.runs/results.jsonl``.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = tracing.RUNS
WORKLOADS = ("registry", "ksweep", "fallback")
DEFAULT_SEED = 1
# Workloads whose seed only draws the op order, so that their value digest
# is the same at every seed.  The ksweep seed draws signs and lambda,
# so its digest is checked at DEFAULT_SEED only.
ORDER_ONLY_SEED = ("registry", "fallback")
ROUNDS = 3  # of --all

# Hang guard: a pass that runs past its ceiling is killed and its unfinished
# ops count as failed.  Known slow neighbours of the corpora take minutes per
# op, so a regression of that kind must end as a failure, not a stalled run.
PASS_CEILING_S = 45.0
# A run launches a pass only while the pass's whole ceiling fits before this
# deadline, so that no pass is cut short by it and a run ends within 180 s.
RUN_DEADLINE_S = 150.0
# Op times are reported at the speed where the worker's probe takes 1 ms,
# about its median on the machine the benchmark was tuned on.
PROBE_NOMINAL_NS = 1_000_000
PROBE_WINDOW = 8  # probes on each side of an op: about 0.2 s

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Child(NamedTuple):
    n_ops: int  # ops of the pass, once its inputs were ready; 0 before
    ops: list  # (key, start_ns, elapsed_ns, ok) for every op that finished
    probes: list  # (start_ns, elapsed_ns) of the speed probe, interleaved with the ops
    done: "dict | None"  # the final record, None when killed or crashed
    error: str


def spawn(workload: str, seed: int, pass_index: int, traced: bool, timeout: float) -> Child:
    """Run one pass to completion, or kill it at ``timeout`` seconds."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--pass", str(pass_index),
        "--trace", str(int(traced)),
    ]
    # The workers' own seeding must not be overridden from outside.
    env = {k: v for k, v in os.environ.items() if k != "FOLINV_SEED"}
    cmd += ["--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    killed = False
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        killed = True
        proc.kill()
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    n_ops, ops, probes, done = 0, [], [], None
    for line in out.splitlines():
        if line.startswith("ready "):
            n_ops = int(line.split()[1])
        elif line.startswith("op "):
            _, key, start, ns, ok = line.split()
            ops.append((key, int(start), int(ns), ok == "1"))
        elif line.startswith("probe "):
            _, start, ns = line.split()
            probes.append((int(start), int(ns)))
        elif line.startswith("done "):
            done = json.loads(line[5:])
    error = ""
    if killed:
        error = f"pass killed after {timeout:g} s"
    elif proc.returncode != 0 or done is None:
        error = f"pass exited {proc.returncode}: {err.strip()[-2000:]}"
    return Child(n_ops, ops, probes, None if killed else done, error)


def scaled_times(child: Child) -> dict:
    """Each op's time scaled to the reference machine speed, by op key.

    The machine this was tuned on alternates between states whose speeds
    differ by up to 40 %, for stretches from under a second to about 45 s,
    so a whole run can fall into a slow one.  The worker times a fixed probe
    every 25 ms; an op's time is multiplied by PROBE_NOMINAL_NS over the
    median probe time around it.
    """
    starts = [t for t, _ in child.probes]
    costs = [ns for _, ns in child.probes]
    scaled = {}
    for key, start, elapsed, _ in child.ops:
        j = bisect.bisect_left(starts, start)
        local = statistics.median(costs[max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW])
        scaled[key] = elapsed * PROBE_NOMINAL_NS / local
    return scaled


def run_metrics(children: list, scale: bool = True) -> dict:
    """End-to-end metrics of a run's passes.

    Every pass runs the same ops on the same inputs from an empty cache, each
    in its own order.  Throughput is the ops of a pass over the median of
    the passes' summed op times, so it includes the costs that fall on
    whichever op comes first, such as the sympy import or the first use of a
    standard basis.  An op's latency is its median over the passes, and so
    over orders; the percentiles are taken over the ops.
    """
    per_pass = [
        scaled_times(c) if scale else {key: ns for key, _, ns, _ in c.ops} for c in children
    ]
    times_ms = [statistics.median(p[key] for p in per_pass) / 1e6 for key in per_pass[0]]
    pass_s = statistics.median(sum(p.values()) for p in per_pass) / 1e9
    return {
        "ops_per_s": len(times_ms) / pass_s,
        "op_p50_ms": tracing.percentile(times_ms, 0.50),
        "op_p95_ms": tracing.percentile(times_ms, 0.95),
        "peak_rss_mb": statistics.median(c.done["maxrss_kb"] for c in children) / 1024,
    }


def _median_of(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]} if dicts else {}


def _expected_digest(workload: str) -> str:
    return json.loads((HERE / "digests.json").read_text())[workload]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: an untimed pass, then timed passes for ``seconds``; returns the result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    errors, setup, plain, traced, layers = [], [], [], [], []
    attempted = failed = 0
    started = None
    while time.monotonic() + PASS_CEILING_S <= deadline:
        # The first pass compiles bytecode and warms the file cache; it is
        # gated but not timed.
        warm = started is None
        is_traced = trace and not warm and len(plain) > len(traced)
        pass_index = len(plain) + len(traced) + (not warm)
        child = spawn(workload, seed, pass_index, is_traced, PASS_CEILING_S)
        attempted += child.n_ops
        failed += sum(1 for *_, ok in child.ops if not ok) + child.n_ops - len(child.ops)
        if child.done is None:
            errors.append(child.error)
            break
        if (seed == DEFAULT_SEED or workload in ORDER_ONLY_SEED) and (
            child.done["digest"] != _expected_digest(workload)
        ):
            errors.append(f"value digest {child.done['digest']} differs from digests.json")
        if warm:
            started = time.monotonic()
            continue
        if is_traced:
            m = tracing.layer_metrics(tracing.spans_path(workload), child.done["fallback_seen"])
            m["trace.work_s"] = sum(ns for _, _, ns, _ in child.ops) / 1e9
            layers.append(m)
            traced.append(child)
        else:
            done = child.done
            setup.append(done["setup_s"] * PROBE_NOMINAL_NS / done["setup_probe_ns"])
            plain.append(child)
        if time.monotonic() - started >= seconds and (traced or not trace):
            break

    e2e = run_metrics(plain) if plain else {}
    e2e["setup_s"] = statistics.median(setup) if setup else 0.0
    result_metrics = e2e
    if trace:
        result_metrics = _median_of(layers)
        result_metrics["trace.overhead_ratio"] = (
            run_metrics(traced)["ops_per_s"] / e2e["ops_per_s"] if traced and plain else 0.0
        )
    units = tracing.LAYER_UNITS if trace else E2E_UNITS
    metrics = {name: {"value": result_metrics.get(name, 0.0), "unit": units[name]} for name in units}
    return {
        "correct": failed == 0 and not errors and bool(plain),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
        "errors": errors,
        "passes": len(plain) + len(traced),
        "unscaled_ops_per_s": run_metrics(plain, scale=False)["ops_per_s"] if plain else 0.0,
    }


def environment(seed: int) -> dict:
    src = ROOT / "src" / "folinv"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy_version,
        "machine": platform.machine(),
        "git_commit": commit,
        "source_sha256": h.hexdigest(),
        "seed": seed,
    }


def _record(env: dict, workload: str, seconds: float, trace: bool, result: dict) -> None:
    RUNS.mkdir(exist_ok=True)
    entry = {"env": env, "workload": workload, "seconds": seconds, "trace": trace, **result}
    with open(RUNS / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def run_one(args) -> int:
    env = environment(args.seed)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _record(env, args.workload, args.seconds, bool(args.trace), result)
    print("# env " + json.dumps(env))
    for error in result["errors"]:
        print(f"# error: {error}")
    print(f"# {args.workload}: {result['passes']} passes, failed_ratio "
          f"{result['failed'] / result['attempted']} ratio, unscaled ops_per_s "
          f"{result['unscaled_ops_per_s']} 1/s")
    for name, m in result["metrics"].items():
        print(f"# {args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload, interleaved over rounds; medians per workload and metric."""
    env = environment(args.seed)
    print("# env " + json.dumps(env))
    results = {w: [] for w in WORKLOADS}
    for r in range(ROUNDS):
        shift = r % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
            _record(env, workload, args.seconds, bool(args.trace), result)
            results[workload].append(result)
            for error in result["errors"]:
                print(f"# error in {workload}: {error}")
    ok = True
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, {attempted} ops attempted, "
              f"correct={all(r['correct'] for r in runs)}")
        print(f"  {'failed_ratio':36} {failed / attempted:>14.6g} ratio")
        for name in runs[0]["metrics"]:
            value = statistics.median(r["metrics"][name]["value"] for r in runs)
            print(f"  {name:36} {value:>14.6g} {runs[0]['metrics'][name]['unit']}")
        if args.trace:
            work = statistics.median(r["metrics"]["trace.work_s"]["value"] for r in runs)
            for name in ("cli.build_parser.self_s", "stdbasis.standard_basis.self_s"):
                own = statistics.median(r["metrics"][name]["value"] for r in runs)
                print(f"  share of traced work in {name}: {own / work:.3f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOADS)
    group.add_argument(
        "--all", action="store_true", help=f"run every workload, interleaved over {ROUNDS} rounds"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "folinv" / "__init__.py").is_file():
        print(f"no folinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
