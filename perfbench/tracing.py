"""Spans around folinv's public functions, recorded from outside the package.

:class:`Tracer` wraps each traced function and rebinds every name the
function is bound to in folinv's modules and classes.  That matters because
``folinv.invariants`` and ``folinv.cli`` import stdbasis and invariants
functions by name: patching only the defining module would miss those calls.

A span is ``(name, start_ns, end_ns, parent, op, tag)``.  ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the index of the op
being timed (-1 during set-up) and ``tag`` a per-name count: the input terms
of a standard-basis call whose generators were not seen before (a cache miss
seen from outside), and the finite value of a colength call.  Spans stay in
memory and are written once, when the pass ends, to :func:`spans_path`;
:func:`layer_metrics` turns the file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

RUNS = Path(__file__).resolve().parent / ".runs"

# Per-layer metric -> unit.  README.md says which end-to-end metric and
# workload each one should move.
LAYER_UNITS = {
    "cli.build_parser.calls": "count",
    "cli.build_parser.self_s": "s",
    "cli.parse_poly.calls": "count",
    "cli.parse_poly.self_s": "s",
    "cli.evaluate.self_s": "s",
    "cli.canonical.self_s": "s",
    "scenarios.load_registry.s": "s",
    "scenarios.run_scenario.self_s": "s",
    "invariants.self_s": "s",
    "ring.Poly.mul.calls": "count",
    "ring.Poly.mul.self_s": "s",
    "ring.Poly.partial.self_s": "s",
    "stdbasis.ideal_build.self_s": "s",
    "stdbasis.standard_basis.calls": "count",
    "stdbasis.standard_basis.distinct": "count",
    "stdbasis.standard_basis.hit_ratio": "ratio",
    "stdbasis.standard_basis.self_s": "s",
    "stdbasis.standard_basis.miss_p50_ms": "ms",
    "stdbasis.standard_basis.miss_p99_ms": "ms",
    "stdbasis.standard_basis.tail_share": "ratio",
    "stdbasis.fallback_seen": "flag",
    "stdbasis.colength.self_s": "s",
    "stdbasis.contains.calls": "count",
    "stdbasis.contains.self_s": "s",
    "stdbasis.input_terms": "count",
    "stdbasis.colength_sum": "count",
    "trace.work_s": "s",
    "trace.overhead_ratio": "ratio",
}


def spans_path(workload: str) -> Path:
    """Where a traced pass of ``workload`` writes its spans."""
    return RUNS / f"{workload}.spans.json"


def percentile(values: list, q: float) -> float:
    """Nearest-rank q-quantile of a non-empty list."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _targets():
    """(span name, function) for every traced function."""
    from folinv import cli, invariants, ring, scenarios, stdbasis

    targets = [
        ("cli.build_parser", cli.build_parser),
        ("cli.parse_poly", cli.parse_poly),
        ("cli.evaluate", cli.evaluate),
        ("cli.canonical", cli.canonical),
        ("scenarios.load_registry", scenarios.load_registry),
        ("scenarios.run_scenario", scenarios.run_scenario),
        ("ring.Poly.mul", ring.Poly.__mul__),
        ("ring.Poly.partial", ring.Poly.partial_x),
        ("ring.Poly.partial", ring.Poly.partial_y),
        ("stdbasis.ideal_build", stdbasis.ideal_product),
        ("stdbasis.ideal_build", stdbasis.ideal_sum),
        ("stdbasis.ideal_build", stdbasis.maximal_ideal_power),
        ("stdbasis.ideal_build", stdbasis.Ideal.__mul__),
        ("stdbasis.ideal_build", stdbasis.Ideal.__add__),
        ("stdbasis.standard_basis", stdbasis.standard_basis),
        ("stdbasis.colength", stdbasis.colength),
        ("stdbasis.contains", stdbasis.contains),
    ]
    for name, fn in vars(invariants).items():
        if inspect.isfunction(fn) and fn.__module__ == invariants.__name__:
            if not name.startswith("_"):
                targets.append((f"invariants.{name}", fn))
    return targets


def rebind(fn, replacement) -> None:
    """Bind ``replacement`` to every name that folinv's modules and classes bind ``fn`` to."""
    from folinv import ring, stdbasis

    namespaces = [m for n, m in sys.modules.items() if n == "folinv" or n.startswith("folinv.")]
    for ns in namespaces + [ring.Poly, stdbasis.Ideal]:
        for attr, value in list(vars(ns).items()):
            if value is fn:
                setattr(ns, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self._seen: set = set()

    def _tag(self, name: str, args: tuple, result) -> int:
        if name == "stdbasis.standard_basis":
            gens = args[0].generators
            if gens in self._seen:
                return 0
            self._seen.add(gens)
            return sum(len(g.terms) for g in gens)
        if name == "stdbasis.colength" and isinstance(result, int):
            return result
        return 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        tagged = name in ("stdbasis.standard_basis", "stdbasis.colength")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tag = self._tag(name, args, result) if tagged else 0
                spans[index] = (name, start, end, parent, self.op, tag)

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever folinv binds it."""
        for name, fn in _targets():
            rebind(fn, self._wrap(name, fn))

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], *s[1:]] for s in self.spans]
        Path(path).write_text(json.dumps({"names": names, "spans": rows}))


def layer_metrics(path, fallback_seen: bool) -> dict:
    """Per-layer metrics of one traced pass from its span file.

    Self time is a span's duration minus the durations of its direct
    children.  Only spans inside an op count, so that the metrics track op
    work: set-up spans (op -1) are skipped, except ``scenarios.load_registry``,
    which is the set-up metric.  ``trace.work_s`` and
    ``trace.overhead_ratio`` come from the op timings, and are filled in by
    the caller.
    """
    doc = json.loads(Path(path).read_text())
    names = doc["names"]
    rows = doc["spans"]
    child_ns = [0] * len(rows)
    for _, start, end, parent, _, _ in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    sb_self, miss_ms = [], []
    distinct = input_terms = colength_sum = 0
    for i, (n, start, end, _, op, tag) in enumerate(rows):
        name = names[n]
        if op < 0 and name != "scenarios.load_registry":
            continue
        own = end - start - child_ns[i]
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += own
        if name == "stdbasis.standard_basis":
            sb_self.append(own)
            if tag:
                distinct += 1
                input_terms += tag
                miss_ms.append((end - start) / 1e6)
        elif name == "stdbasis.colength":
            colength_sum += tag

    def s(name):
        return self_ns[name] / 1e9

    sb_calls = calls["stdbasis.standard_basis"]
    tail = sorted(sb_self, reverse=True)[: math.ceil(len(sb_self) / 100)]
    return {
        "cli.build_parser.calls": calls["cli.build_parser"],
        "cli.build_parser.self_s": s("cli.build_parser"),
        "cli.parse_poly.calls": calls["cli.parse_poly"],
        "cli.parse_poly.self_s": s("cli.parse_poly"),
        "cli.evaluate.self_s": s("cli.evaluate"),
        "cli.canonical.self_s": s("cli.canonical"),
        "scenarios.load_registry.s": total_ns["scenarios.load_registry"] / 1e9,
        "scenarios.run_scenario.self_s": s("scenarios.run_scenario"),
        "invariants.self_s": sum(v for k, v in self_ns.items() if k.startswith("invariants.")) / 1e9,
        "ring.Poly.mul.calls": calls["ring.Poly.mul"],
        "ring.Poly.mul.self_s": s("ring.Poly.mul"),
        "ring.Poly.partial.self_s": s("ring.Poly.partial"),
        "stdbasis.ideal_build.self_s": s("stdbasis.ideal_build"),
        "stdbasis.standard_basis.calls": sb_calls,
        "stdbasis.standard_basis.distinct": distinct,
        "stdbasis.standard_basis.hit_ratio": 1 - distinct / sb_calls if sb_calls else 0.0,
        "stdbasis.standard_basis.self_s": s("stdbasis.standard_basis"),
        "stdbasis.standard_basis.miss_p50_ms": percentile(miss_ms, 0.50) if miss_ms else 0.0,
        "stdbasis.standard_basis.miss_p99_ms": percentile(miss_ms, 0.99) if miss_ms else 0.0,
        "stdbasis.standard_basis.tail_share": sum(tail) / sum(sb_self) if sum(sb_self) else 0.0,
        "stdbasis.fallback_seen": int(fallback_seen),
        "stdbasis.colength.self_s": s("stdbasis.colength"),
        "stdbasis.contains.calls": calls["stdbasis.contains"],
        "stdbasis.contains.self_s": s("stdbasis.contains"),
        "stdbasis.input_terms": input_terms,
        "stdbasis.colength_sum": colength_sum,
    }
