"""Named reproduction scenarios: a versioned registry of expected values.

The registry is a line-oriented text file bundled as package data
(``folinv/data/scenarios.txt``).  Each non-comment line has five
pipe-separated fields::

    id | description | location | expression | expected

``expression`` is a ``folinv`` command line (without the program name) that is
re-evaluated through ``cli.evaluate``, the dispatch of the CLI, which refuses
the ``scenarios`` verb; ``expected`` is the frozen canonical value (integer,
``true``/``false``, ``infinite``, comma-joined tuple) or the marker
``property`` meaning "the command must report boolean true".  Reports are
bit-stable runs by construction: scenarios execute in id order, no value
depends on a seed or on the environment, and only the ``elapsed_ms`` fields
may vary between runs.
"""

from __future__ import annotations

import shlex
import time
from typing import NamedTuple


class RegistryError(ValueError):
    """An unreadable registry file, malformed registry content or an unknown
    scenario id."""


class Scenario(NamedTuple):
    id: str
    description: str
    paper_location: str
    expression: str
    expected: str


class RunReport(NamedTuple):
    scenario_id: str
    computed: str
    expected: str
    passed: bool
    elapsed_ms: int


def _bundled_registry_text() -> str:
    from importlib import resources  # only the bundled registry needs it

    return resources.files("folinv").joinpath("data/scenarios.txt").read_text(
        encoding="utf-8"
    )


def parse_registry(text: str) -> tuple:
    """Parse registry text into scenarios sorted by id; reject duplicates."""
    scenarios = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [part.strip() for part in line.split("|")]
        if len(fields) != 5:
            raise RegistryError(
                f"line {lineno}: expected 5 pipe-separated fields, got {len(fields)}"
            )
        sid, description, location, expression, expected = fields
        if not sid or not expression or not expected:
            raise RegistryError(f"line {lineno}: empty id, expression, or expected")
        if sid in scenarios:
            raise RegistryError(f"line {lineno}: duplicate scenario id {sid!r}")
        scenarios[sid] = Scenario(sid, description, location, expression, expected)
    return tuple(scenarios[sid] for sid in sorted(scenarios))


def load_registry(path=None) -> tuple:
    """Load the bundled registry, or the one at ``path`` if given.

    A path that cannot be read, or whose content is not UTF-8, raises
    RegistryError.
    """
    if path is None:
        text = _bundled_registry_text()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise RegistryError(
                f"cannot read registry {str(path)!r}: {reason}"
            ) from None
    return parse_registry(text)


def _resolve(scenario_or_id, registry) -> Scenario:
    if isinstance(scenario_or_id, Scenario):
        return scenario_or_id
    if registry is None:
        registry = load_registry()
    for sc in registry:
        if sc.id == scenario_or_id:
            return sc
    raise RegistryError(f"unknown scenario id {scenario_or_id!r}")


def run_scenario(scenario_or_id, registry=None) -> RunReport:
    """Evaluate one scenario's expression and compare against its expectation.

    An expression that raises is reported as a failure (never propagated), so
    one bad row cannot abort a batch run.
    """
    from . import cli  # deferred: cli imports this module at load time

    sc = _resolve(scenario_or_id, registry)
    start = time.perf_counter()
    try:
        outcome = cli.evaluate(shlex.split(sc.expression))
        computed = cli.canonical(outcome.result)
    except Exception as exc:  # noqa: BLE001 - report, don't abort the batch
        computed = f"error: {exc}"
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    if sc.expected == "property":
        passed = computed == "true"
    else:
        passed = computed == sc.expected
    return RunReport(sc.id, computed, sc.expected, passed, elapsed_ms)


def select(registry, filter=None) -> tuple:
    """The scenarios of ``registry`` whose id or location contains the
    substring ``filter``; all of them when ``filter`` is None."""
    return tuple(
        sc
        for sc in registry
        if filter is None or filter in sc.id or filter in sc.paper_location
    )


def run_all(filter=None, registry=None) -> tuple:
    """Run the scenarios :func:`select` keeps, in id order; returns
    (reports, summary).  An empty selection is a successful empty run.
    """
    if registry is None:
        registry = load_registry()
    reports = tuple(run_scenario(sc, registry) for sc in select(registry, filter))
    failed = sum(1 for r in reports if not r.passed)
    summary = {"total": len(reports), "passed": len(reports) - failed, "failed": failed}
    return reports, summary
