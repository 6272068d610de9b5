"""Randomized property suites over seeded polynomial corpora.

Each suite returns (cases, failures) so the acceptance gate can re-run it
with its own timing; the pytest wrappers assert zero failures and a minimum
case count.  All randomness is seeded: reruns are bit-identical.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from folinv import invariants, stdbasis
from folinv.ring import Poly, X, Y, _decode
from folinv.stdbasis import (
    Ideal,
    colength,
    ideal_sum,
    is_finite,
    maximal_ideal_power,
)
from folinv.invariants import (
    Foliation,
    PreconditionError,
    curve,
    foliation_milnor_k,
    foliation_tjurina_k,
    gsv_index,
    hamiltonian,
    intersection_number,
    milnor_bound_check,
    milnor_k,
    milnor_k_closed,
    polar_intersection_k,
    quasihomogeneous_identity_check,
    ratio_check,
    tjurina_k,
    weighted_homogeneous_weights,
)

from oracle import oracle_colength, rand_poly


def _finite(*values):
    return all(is_finite(v) for v in values)


def _rand_coprime_pair(rng, tries=50):
    for _ in range(tries):
        f, g = rand_poly(rng), rand_poly(rng)
        if is_finite(colength(Ideal.of(f, g))):
            return f, g
    raise AssertionError("corpus draw failed to find a coprime pair")


def run_lemma_31_suite(seed=101, target=200):
    """Multiplying the pair of ideal generators by g adds the colength of g
    on the curve, corrected by the colength of J on the curve:

        colen(<gP,gQ>J + <f>) = colen(<P,Q>J + <f>) + colen(<g>J + <f>)
                                 - colen(J + <f>)

    for f, g coprime at the origin and all terms finite (length additivity
    on O/<f>, where g is a nonzerodivisor).  The correction term vanishes
    exactly when J is the unit ideal, i.e. k = 0, and for k = 0 the first
    three terms alone are additionally asserted to balance.
    """
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        f, g = _rand_coprime_pair(rng)
        P, Q = rand_poly(rng), rand_poly(rng)
        k = rng.randint(0, 3)
        J = maximal_ideal_power(k)
        fid = Ideal.of(f)
        lhs = colength(Ideal.of(g * P, g * Q) * J + fid)
        a = colength(Ideal.of(P, Q) * J + fid)
        b = colength(Ideal.of(g) * J + fid)
        c = colength(ideal_sum(J, fid))
        if not _finite(lhs, a, b, c):
            continue
        cases += 1
        if lhs != a + b - c or (k == 0 and lhs != a + b):
            failures += 1
    return cases, failures


def run_lemma_32_suite(seed=102, target=200):
    """colen(<f>J + <g>) = colen(J + <g>) + colen(<f,g>)."""
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        f, g = _rand_coprime_pair(rng)
        k = rng.randint(0, 4)
        J = maximal_ideal_power(k)
        gid = Ideal.of(g)
        lhs = colength(Ideal.of(f) * J + gid)
        a = colength(ideal_sum(J, gid))
        b = colength(Ideal.of(f, g))
        if not _finite(lhs, a, b):
            continue
        cases += 1
        if lhs != a + b:
            failures += 1
    return cases, failures


def run_lemma_33_suite(seed=103, target=200):
    """nu(psi) <= nu(phi): colen(<psi,phi>J) = i(psi,phi) + colen(<psi>+J) + colen(J)."""
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        psi, phi = _rand_coprime_pair(rng)
        if psi.multiplicity() > phi.multiplicity():
            psi, phi = phi, psi
        k = rng.randint(0, 4)
        J = maximal_ideal_power(k)
        lhs = colength(Ideal.of(psi, phi) * J)
        a = intersection_number(psi, phi)
        b = colength(ideal_sum(Ideal.of(psi), J))
        c = colength(J)
        if not _finite(lhs, a, b, c):
            continue
        cases += 1
        if lhs != a + b + c:
            failures += 1
    return cases, failures


def run_milnor_closed_form_suite(seed=104, target=200):
    """Engine mu^k(f) agrees with the closed form in mu, nu(f), k for k=0..10."""
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        f = rand_poly(rng)
        mu = milnor_k(f, 0)
        if not is_finite(mu):
            continue
        m = f.multiplicity()
        for k in range(11):
            cases += 1
            if milnor_k(f, k) != milnor_k_closed(mu, m, k):
                failures += 1
    return cases, failures


def run_foliation_milnor_decomposition_suite(seed=105, target=200):
    """mu^k(F) = mu(F) + k(k+1)/2 + colen(<P> + m^k), nu(P) <= nu(Q)."""
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        P, Q = _rand_coprime_pair(rng)
        if P.multiplicity() > Q.multiplicity():
            P, Q = Q, P
        F = Foliation(P, Q)
        mu0 = foliation_milnor_k(F, 0)
        if not is_finite(mu0):
            continue
        for k in range(0, 8):
            lhs = foliation_milnor_k(F, k)
            rhs = mu0 + k * (k + 1) // 2 + colength(
                ideal_sum(Ideal.of(P), maximal_ideal_power(k))
            )
            cases += 1
            if lhs != rhs:
                failures += 1
    return cases, failures


def run_multiplicity_bound_suite(seed=106, target=200):
    """mu^k(F) >= (m+k)(m+k+1)/2 with m = nu(F)."""
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        P, Q = _rand_coprime_pair(rng)
        F = Foliation(P, Q)
        m = F.multiplicity
        for k in range(0, 8):
            v = foliation_milnor_k(F, k)
            if not is_finite(v):
                continue
            cases += 1
            if v < (m + k) * (m + k + 1) // 2:
                failures += 1
    return cases, failures


def _weighted_homogeneous_corpus(rng, n):
    out = []
    while len(out) < n:
        shape = rng.randint(0, 2)
        c1 = rng.choice([1, -1]) * rng.randint(1, 3)
        c2 = rng.choice([1, -1]) * rng.randint(1, 3)
        if shape == 0:
            a, b = rng.randint(2, 5), rng.randint(2, 5)
            f = c1 * X**a + c2 * Y**b
        elif shape == 1:
            a, c = rng.randint(2, 4), rng.randint(2, 4)
            f = c1 * X**a + c2 * X * Y**c
        else:
            a, c = rng.randint(2, 4), rng.randint(2, 4)
            f = c1 * Y**a + c2 * Y * X**c
        if weighted_homogeneous_weights(f) is None:
            continue
        if not is_finite(milnor_k(f, 0)):
            continue
        out.append(f)
    return out


def run_weighted_homogeneous_gap_suite(seed=107, target=200):
    """Weighted-homogeneous f: mu^k(f) - tau^k(f) = k(k-1)/2 for k >= 1."""
    rng = random.Random(seed)
    cases = failures = 0
    germs = max(25, -(-target // 9))
    for f in _weighted_homogeneous_corpus(rng, germs):
        for k in range(0, 9):
            gap = k * (k - 1) // 2
            cases += 1
            if milnor_k(f, k) - tjurina_k(f, k) != gap:
                failures += 1
    return cases, failures


def _second_type_corpus(rng, n_wh):
    """(foliation, balanced-divisor zero part) pairs asserted second type:
    Hamiltonians of reduced germs, linear foliations, and a non-degenerate
    reduced representative."""
    pairs = []
    for f in _weighted_homogeneous_corpus(rng, n_wh):
        pairs.append((hamiltonian(f), curve(f)))
    for n_, m_ in [(2, 3), (3, 2), (2, 5), (5, 3), (3, 4)]:
        pairs.append((Foliation(-n_ * Y, m_ * X), curve(Y**m_ - X**n_)))
    pairs.append((Foliation(3 * Y - X * Y, 2 * X + X * Y), curve(X * Y)))
    return pairs


def run_bound_chain_suite(seed=108, target=200):
    """Second-type corpus: the three-term bound chain holds for k=0..6."""
    rng = random.Random(seed)
    cases = failures = 0
    pairs = _second_type_corpus(rng, max(24, -(-target // 7) - 6))
    for F, B0 in pairs:
        for k in range(0, 7):
            lhs, mid, rhs, holds = milnor_bound_check(F, B0, k)
            cases += 1
            if not (holds and lhs <= mid <= rhs):
                failures += 1
    return cases, failures


def run_qh_identity_suite(seed=109, target=200):
    """Hamiltonians of weighted-homogeneous germs (generalized curves with
    f in the jacobian ideal): mu^k(F) = tau^k(F,C) + k(k-1)/2 for k >= 1."""
    rng = random.Random(seed)
    cases = failures = 0
    germs = max(25, -(-target // 8))
    for f in _weighted_homogeneous_corpus(rng, germs):
        F, C = hamiltonian(f), curve(f)
        for k in range(1, 9):
            mu, tau, holds = quasihomogeneous_identity_check(F, C, k)
            cases += 1
            if not holds:
                failures += 1
    return cases, failures


def _then_saddles(corpus, ks, seed, target):
    """The (F, C) pairs of the corpus, then saddles along C = xy, until the
    pairs give at least ``target`` cases at one case per k in ``ks``.

    A saddle is P = a*y + y*h1, Q = b*x + x*h2 with 1 <= a, b <= 4 and
    random h1, h2.  The axes are invariant, since P*f_y - Q*f_x =
    xy(a - b + h1 - h2) for f = xy.  The linear part has eigenvalues b and
    -a, so the singularity is a reduced non-dicritical saddle and xy is its
    whole separatrix set.
    """
    yield from corpus
    rng = random.Random(seed)
    axes = curve(X * Y)
    pairs = len(corpus)
    while pairs * len(ks) < target:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        try:
            F = Foliation(a * Y + Y * rand_poly(rng), b * X + X * rand_poly(rng))
        except PreconditionError:
            continue
        pairs += 1
        yield F, axes


def run_tjurina_difference_suite(seed=110, target=200):
    """tau^k(F,C) - tau(F,C) = tau^k(C) - tau(C) on the example corpus and
    on saddles along xy."""
    cases = failures = 0
    ks = range(0, 7)
    corpus = [
        (Foliation(4 * X * Y, Y - 2 * X**2), curve(Y)),
        (Foliation(3 * Y + X**3, -X), curve(X)),
        (Foliation(-2 * Y, 2 * X), curve(Y**2 - X**2)),
        (Foliation(-3 * Y, 2 * X), curve(Y**2 - X**3)),
        (Foliation(-5 * Y, 3 * X), curve(Y**3 - X**5)),
        (hamiltonian(X**4 - Y**3), curve(X**4 - Y**3)),
    ]
    for F, C in _then_saddles(corpus, ks, seed, target):
        t0f = foliation_tjurina_k(F, C, 0)
        t0c = tjurina_k(C.f, 0)
        for k in ks:
            lhs = foliation_tjurina_k(F, C, k) - t0f
            rhs = tjurina_k(C.f, k) - t0c
            cases += 1
            if lhs != rhs:
                failures += 1
    return cases, failures


def run_nondicritical_tjurina_bound_suite(seed=111, target=200):
    """Non-dicritical pairs (C the full separatrix set): tau^k(F,C) >= tau^k(C),
    on the example corpus and on saddles along xy.

    The linear foliations with first integral y^m/x^n are excluded: they are
    dicritical, their GSV index is negative, and the bound genuinely fails
    for them.
    """
    cases = failures = 0
    ks = range(0, 7)
    corpus = [
        (Foliation(4 * X * Y, Y - 2 * X**2), curve(Y)),
        (Foliation(3 * Y + X**3, -X), curve(X)),
        (Foliation(3 * Y - X * Y, 2 * X + X * Y), curve(X * Y)),
        (hamiltonian(Y**3 - X**5), curve(Y**3 - X**5)),
        (hamiltonian(X**4 - Y**3), curve(X**4 - Y**3)),
        (hamiltonian(X**2 + Y**2), curve(X**2 + Y**2)),
    ]
    for F, C in _then_saddles(corpus, ks, seed, target):
        for k in ks:
            cases += 1
            if foliation_tjurina_k(F, C, k) < tjurina_k(C.f, k):
                failures += 1
    return cases, failures


def run_polar_teissier_zero_suite(seed=112, target=200):
    """Polar numbers of the Hamiltonian pencil: i^k = mu^k + nu - 1, k = 0, 1, 2."""
    rng = random.Random(seed)
    cases = failures = 0
    for f in _weighted_homogeneous_corpus(rng, target):
        F = hamiltonian(f)
        C = curve(f)
        cases += 1
        if any(
            polar_intersection_k(F, C, k)
            != milnor_k(f, k) + f.multiplicity() - 1
            for k in range(3)
        ):
            failures += 1
    return cases, failures


def run_ratio_theorem_suite(seed=113, target=200):
    """Weighted-homogeneous f and k < nu(f): mu^k/tau^k <= 4/3."""
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        (f,) = _weighted_homogeneous_corpus(rng, 1)
        if tjurina_k(f, 0) == 0:
            continue
        for k in range(0, f.multiplicity()):
            mu, tau, exceeds = ratio_check(f, k)
            cases += 1
            if exceeds or Fraction(mu, tau) > Fraction(4, 3):
                failures += 1
    return cases, failures


def run_gsv_branch_consistency_suite(seed=114, target=200):
    """GSV from the decomposition equals the Tjurina-difference telescopes,
    on the example corpus and on saddles along xy."""
    cases = failures = 0
    ks = range(0, 5)
    corpus = [
        (Foliation(4 * X * Y, Y - 2 * X**2), curve(Y)),
        (Foliation(3 * Y + X**3, -X), curve(X)),
        (Foliation(-2 * Y, 2 * X), curve(Y**2 - X**2)),
        (Foliation(-3 * Y, 2 * X), curve(Y**2 - X**3)),
        (Foliation(-5 * Y, 3 * X), curve(Y**3 - X**5)),
        (Foliation(-7 * Y, 4 * X), curve(Y**4 - X**7)),
    ]
    for F, C in _then_saddles(corpus, ks, seed, target):
        g = gsv_index(F, C)
        for k in ks:
            cases += 1
            if foliation_tjurina_k(F, C, k) - tjurina_k(C.f, k) != g:
                failures += 1
    return cases, failures


def run_sweep_step_suite(seed=115, target=200):
    """A sweep over k gives the colengths of the expanded ideals m^k J + P,
    and each step stays within the bound

        0 <= colen(m^k J + P) - colen(m^(k-1) J + P) <= ord(J) + k.

    The difference is the dimension of a quotient of m^(k-1) J / m^k J,
    which by Nakayama is the minimal number of generators of m^(k-1) J, at
    most its order plus one in a two-dimensional regular local ring (Huneke
    1988).  Each value must equal the one of the expanded ideal computed with
    the basis cache cleared; ascending, descending and shuffled orders of k
    give the same values.  A case is a step with both colengths finite.
    """
    rng = random.Random(seed)
    cases = failures = 0
    ks = range(7)
    while cases < target:
        J = Ideal(tuple(rand_poly(rng) for _ in range(rng.randint(2, 3))))
        P = Ideal.of(rand_poly(rng)) if rng.random() < 0.5 else None
        cold = {}
        for k in ks:
            stdbasis._standard_basis_cached.cache_clear()
            cold[k] = colength(J * maximal_ideal_power(k) + (P or Ideal()))
        for order in (list(ks), list(reversed(ks)), rng.sample(ks, len(ks))):
            stdbasis._standard_basis_cached.cache_clear()
            if {k: colength(J, k, P) for k in order} != cold:
                failures += 1
        order_J = min(g.multiplicity() for g in J.generators)
        for k in ks[1:]:
            if _finite(cold[k - 1], cold[k]):
                cases += 1
                if not 0 <= cold[k] - cold[k - 1] <= order_J + k:
                    failures += 1
    return cases, failures


def run_koszul_identity_suite(seed=116, target=200):
    """For a, b coprime at the origin, I = (a, b) is a complete intersection
    with syzygies generated by (b, -a), and

        colen(m^k I) = colen(I) + k(k+1) - j(j+1)/2,  j = max(k - m0, 0),

    m0 = min(nu(a), nu(b)): tensoring the Koszul resolution with O/m^k
    leaves (m^k : a) cap (m^k : b) = m^j (Eisenbud 1995, ch. 17).  The
    docstring of polar_intersection_k relies on it; the engine computes
    each colength by its sweep over k, not by the identity.
    """
    rng = random.Random(seed)
    cases = failures = 0
    while cases < target:
        a, b = _rand_coprime_pair(rng)
        ideal = Ideal.of(a, b)
        c0 = colength(ideal)
        m0 = min(a.multiplicity(), b.multiplicity())
        for k in range(7):
            j = max(k - m0, 0)
            cases += 1
            if colength(ideal, k) != c0 + k * (k + 1) - j * (j + 1) // 2:
                failures += 1
    return cases, failures


SUITES = {
    "lemma-3-1": run_lemma_31_suite,
    "lemma-3-2": run_lemma_32_suite,
    "lemma-3-3": run_lemma_33_suite,
    "milnor-closed-form": run_milnor_closed_form_suite,
    "foliation-milnor-decomposition": run_foliation_milnor_decomposition_suite,
    "multiplicity-bound": run_multiplicity_bound_suite,
    "weighted-homogeneous-gap": run_weighted_homogeneous_gap_suite,
    "bound-chain": run_bound_chain_suite,
    "qh-identity": run_qh_identity_suite,
    "sweep-step": run_sweep_step_suite,
    "polar-teissier-zero": run_polar_teissier_zero_suite,
    "ratio-theorem": run_ratio_theorem_suite,
    "tjurina-difference": run_tjurina_difference_suite,
    "nondicritical-tjurina-bound": run_nondicritical_tjurina_bound_suite,
    "gsv-branch-consistency": run_gsv_branch_consistency_suite,
    "koszul-identity": run_koszul_identity_suite,
}


def test_lemma_31():
    cases, failures = run_lemma_31_suite()
    assert cases >= 200 and failures == 0


def test_lemma_32():
    cases, failures = run_lemma_32_suite()
    assert cases >= 200 and failures == 0


def test_lemma_33():
    cases, failures = run_lemma_33_suite()
    assert cases >= 200 and failures == 0


def test_milnor_closed_form():
    cases, failures = run_milnor_closed_form_suite()
    assert cases >= 200 and failures == 0


def test_foliation_milnor_decomposition():
    cases, failures = run_foliation_milnor_decomposition_suite()
    assert cases >= 200 and failures == 0


def test_multiplicity_bound():
    cases, failures = run_multiplicity_bound_suite()
    assert cases >= 200 and failures == 0


def test_weighted_homogeneous_gap():
    cases, failures = run_weighted_homogeneous_gap_suite()
    assert cases >= 200 and failures == 0


def test_bound_chain():
    cases, failures = run_bound_chain_suite()
    assert cases >= 200 and failures == 0


def test_qh_identity():
    cases, failures = run_qh_identity_suite()
    assert cases >= 200 and failures == 0


def test_sweep_step():
    cases, failures = run_sweep_step_suite()
    assert cases >= 200 and failures == 0


def test_tjurina_difference():
    cases, failures = run_tjurina_difference_suite()
    assert cases >= 200 and failures == 0


def test_nondicritical_tjurina_bound():
    cases, failures = run_nondicritical_tjurina_bound_suite()
    assert cases >= 200 and failures == 0


def test_polar_teissier_zero():
    cases, failures = run_polar_teissier_zero_suite()
    assert cases >= 200 and failures == 0


def test_ratio_theorem():
    cases, failures = run_ratio_theorem_suite()
    assert cases >= 200 and failures == 0


def test_gsv_branch_consistency():
    cases, failures = run_gsv_branch_consistency_suite()
    assert cases >= 200 and failures == 0


def test_koszul_identity():
    cases, failures = run_koszul_identity_suite()
    assert cases >= 200 and failures == 0


# Routes taken by test_suites_without_mora, per suite.
_FALLBACK_ROUTES: dict = {}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_without_mora(monkeypatch, name):
    # With no Mora steps every walk gives up at once, so each standard basis
    # comes from capped elimination or from the common-factor split; the
    # suites must hold all the same, and each accepted capped basis has the
    # oracle's colength.
    routes = Counter()
    accepted = []
    capped_std, split_common_factor = stdbasis._capped_std, stdbasis._split_common_factor

    def capped(gens, cap):
        routes["capped"] += 1
        out = capped_std(gens, cap)
        if out is not None:
            accepted.append((gens, out))
        return out

    def split(gens):
        # the basis route only: a basis that Mora finished splits its own
        # elements once, for membership
        out = split_common_factor(gens)
        if sys._getframe(1).f_code.co_name != "_factor":
            routes["split"] += out is not None
        return out

    monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 0)
    monkeypatch.setattr(stdbasis, "_capped_std", capped)
    monkeypatch.setattr(stdbasis, "_split_common_factor", split)
    stdbasis._standard_basis_cached.cache_clear()
    invariants.is_invariant.cache_clear()
    try:
        cases, failures = SUITES[name](target=10)
    finally:
        stdbasis._standard_basis_cached.cache_clear()
        invariants.is_invariant.cache_clear()
    assert cases >= 10 and failures == 0
    for gens, basis in accepted:
        c = stdbasis._chain([_decode(t[0][0]) for t in basis])[2]
        if c <= 40:
            polys = [stdbasis._to_poly(t) for t in gens]
            assert oracle_colength(polys, nmax=c + 2) == c, polys
    _FALLBACK_ROUTES[name] = routes
    if len(_FALLBACK_ROUTES) == len(SUITES):
        total = sum(_FALLBACK_ROUTES.values(), Counter())
        assert total["capped"] and total["split"], total


# Bases accepted by test_suites_at_the_swell_mark, per suite.
_SWELL_MARK_ACCEPTED: dict = {}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_at_the_swell_mark(monkeypatch, name):
    # With the swell mark at 0 bits, every walk without a truncation degree
    # reaches the mark at its first step, so every run that has such a walk
    # tries the small caps of _std there; the suites must hold all the same,
    # and each accepted capped basis has the oracle's colength.
    accepted = []
    capped_std = stdbasis._capped_std

    def capped(gens, cap):
        out = capped_std(gens, cap)
        if out is not None:
            accepted.append((gens, out))
        return out

    monkeypatch.setattr(stdbasis, "_SWELL_BITS", 0)
    monkeypatch.setattr(stdbasis, "_capped_std", capped)
    stdbasis._standard_basis_cached.cache_clear()
    invariants.is_invariant.cache_clear()
    try:
        cases, failures = SUITES[name](target=10)
    finally:
        stdbasis._standard_basis_cached.cache_clear()
        invariants.is_invariant.cache_clear()
    assert cases >= 10 and failures == 0
    for gens, basis in accepted:
        c = stdbasis._chain([_decode(t[0][0]) for t in basis])[2]
        if c <= 40:
            polys = [stdbasis._to_poly(t) for t in gens]
            assert oracle_colength(polys, nmax=c + 2) == c, polys
    _SWELL_MARK_ACCEPTED[name] = len(accepted)
    if len(_SWELL_MARK_ACCEPTED) == len(SUITES):
        assert sum(_SWELL_MARK_ACCEPTED.values()), _SWELL_MARK_ACCEPTED
