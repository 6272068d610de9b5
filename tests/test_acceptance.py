"""Acceptance gate: every shipped claim, re-verified end to end.

Each test prints exactly one line ``ACCEPTANCE <name>: PASS`` or
``ACCEPTANCE <name>: FAIL`` (bypassing capture so the verdicts always appear
in the terminal), compares exact values, and enforces the wall-clock budget
for its criterion.
"""

import time
from fractions import Fraction

from folinv.ring import X, Y
from folinv.invariants import (
    Foliation,
    ReducedSingularityKind,
    curve,
    ell_k,
    foliation_milnor_k,
    foliation_tjurina_k,
    gsv_index,
    gsv_theorem_check,
    hamiltonian,
    intersection_number,
    milnor_k,
    polar_intersection_k,
    reduced_singularity_invariants,
    teissier_k_check,
    tjurina_k,
)
from folinv.stdbasis import Ideal, colength, ideal_sum, maximal_ideal_power
from folinv import cli

from test_properties import SUITES


def _report(capsys, name, ok, elapsed, limit):
    ok = ok and elapsed < limit
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"{name}: values_ok={ok}, elapsed={elapsed:.2f}s (limit {limit}s)"


def test_intersection_table(capsys):
    f = X**4 - Y**3
    g = Y**5 - X**7 + X**4 * Y**4
    col1 = [20, 22, 26, 32, 39, 47, 56, 66, 77, 89, 102]
    col3 = [0, 1, 3, 6, 9, 12, 15, 18, 21, 24, 27]
    start = time.perf_counter()
    ok = True
    fg = Ideal.of(f, g)
    for k in range(11):
        mk = maximal_ideal_power(k)
        ok &= colength(fg * mk) == col1[k]
        ok &= colength(mk) == k * (k + 1) // 2
        ok &= colength(ideal_sum(mk, Ideal.of(f))) == col3[k]
        ok &= intersection_number(f, g) == 20
    ok &= colength(fg * maximal_ideal_power(4)) == 39
    ok &= colength(maximal_ideal_power(10)) == 55
    ok &= colength(ideal_sum(maximal_ideal_power(5), Ideal.of(f))) == 12
    _report(capsys, "intersection-table", ok, time.perf_counter() - start, 5.0)


def test_tjurina_deformation_pair(capsys):
    f = Y**3 - X**7
    g = Y**3 - X**7 + X**5 * Y
    start = time.perf_counter()
    ok = (
        tjurina_k(f, 0) == 12
        and tjurina_k(g, 0) == 11
        and tjurina_k(f, 1) == 14
        and tjurina_k(g, 1) == 13
    )
    _report(capsys, "tjurina-deformation-pair", ok, time.perf_counter() - start, 1.0)


def test_ratio_counterexample(capsys):
    f = X**5 + Y**5 + X**3 * Y**3
    start = time.perf_counter()
    mu8 = milnor_k(f, 8)
    tau8 = tjurina_k(f, 8)
    ok = mu8 == 78 and tau8 == 50 and Fraction(mu8, tau8) > Fraction(4, 3)
    _report(capsys, "ratio-counterexample", ok, time.perf_counter() - start, 10.0)


def test_gsv_indices(capsys):
    start = time.perf_counter()
    pairs = [
        (Foliation(4 * X * Y, Y - 2 * X**2), curve(Y), 2),
        (Foliation(2 * Y + X**2, -X), curve(X), 1),
    ]
    for n, m in ((2, 2), (3, 2), (5, 3), (7, 4)):
        pairs.append(
            (Foliation(-n * Y, m * X), curve(Y**m - X**n), m + n - m * n)
        )
    ok = True
    for F, C, expected in pairs:
        ok &= gsv_index(F, C) == expected
        ok &= gsv_theorem_check(F, C, 5)
    _report(capsys, "gsv-indices", ok, time.perf_counter() - start, 10.0)


def test_teissier_polar(capsys):
    start = time.perf_counter()
    ok = True
    for f in (X**2 + Y**2, X**4 - Y**3, X**5 + Y**5 + X**3 * Y**3):
        for k in range(7):
            ok &= teissier_k_check(f, k)
    f = X**2 + Y**2
    F, C = hamiltonian(f), curve(f)
    ok &= milnor_k(f, 0) == 1
    ok &= polar_intersection_k(F, C, 0) == 2
    for k in range(6):
        mu = (k + 1) * (k + 2) // 2
        ok &= milnor_k(f, k) == mu
        ok &= tjurina_k(f, k) == 2 * k + 1
        ok &= polar_intersection_k(F, C, k) == mu + 1
    _report(capsys, "teissier-polar", ok, time.perf_counter() - start, 20.0)


def test_property_suites(capsys):
    start = time.perf_counter()
    ok = True
    for name, suite in SUITES.items():
        cases, failures = suite()
        ok &= cases >= 200 and failures == 0
    _report(capsys, "property-suites", ok, time.perf_counter() - start, 120.0)


def test_reduced_closed_forms(capsys):
    start = time.perf_counter()
    ok = True
    nd = Foliation(3 * Y - X * Y, 2 * X + X * Y)
    axes = curve(X * Y)
    for k in range(4):
        mu, tau = reduced_singularity_invariants(
            ReducedSingularityKind.non_degenerate(), k
        )
        ok &= foliation_milnor_k(nd, k) == mu
        ok &= foliation_tjurina_k(nd, axes, k) == tau
        for ell in (1, 2, 3):
            mu, tau = reduced_singularity_invariants(
                ReducedSingularityKind.saddle_node(ell), k
            )
            sn = Foliation(-1 * Y - X**ell * Y, X ** (ell + 1))
            ok &= foliation_milnor_k(sn, k) == mu
            ok &= foliation_tjurina_k(sn, axes, k) == tau
    ok &= ell_k(3, 7, 1) == 14 == tjurina_k(Y**3 - X**7, 1)
    _report(capsys, "reduced-closed-forms", ok, time.perf_counter() - start, 10.0)


def test_scenario_registry(capsys):
    start = time.perf_counter()
    code = cli.main(["scenarios", "run", "--all"])
    capsys.readouterr()  # drop the per-scenario report lines
    _report(capsys, "scenario-registry", code == 0, time.perf_counter() - start, 300.0)
