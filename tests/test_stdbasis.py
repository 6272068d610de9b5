"""Standard-basis engine: normal forms, colengths, membership, degeneracies."""

import copy
import importlib.abc
import pickle
import random
import sys
from fractions import Fraction
from functools import reduce

import pytest

from folinv.ring import Poly, X, Y, _product, _strip
from folinv import stdbasis
from folinv.invariants import (
    Foliation,
    ReducedSingularityKind,
    curve,
    dim_mk_plus_f_closed,
    foliation_milnor_k,
    foliation_tjurina_k,
    milnor_k,
    milnor_k_closed,
    reduced_singularity_invariants,
    tjurina_k,
)
from folinv.stdbasis import (
    INFINITE,
    Ideal,
    StandardBasis,
    colength,
    contains,
    ideal_product,
    ideal_sum,
    is_finite,
    leading_ideal,
    maximal_ideal_power,
    mora_normal_form,
    standard_basis,
)

from oracle import PRIMES, dim_below, oracle_colength, quotient_dim_modp, rand_poly

F_RUN = X**4 - Y**3
G_RUN = Y**5 - X**7 + X**4 * Y**4

# I = h*(a, b) has an infinite staircase, while h and x^4 y^6 share no factor
# through the origin: I + (x^4 y^6) is zero-dimensional, so x^4 y^6 is not in I
H_APART = -3 * Y - 2 * X * Y - X**3 * Y - X**5
A_APART = -2 * X**3 - 3 * X * Y**2 - 3 * Y**4 + X**2 * Y**3
B_APART = 3 * X - 2 * Y + 2 * X**3 * Y + 3 * X**4 * Y
NON_MEMBER_IDEAL = Ideal.of(H_APART * A_APART, H_APART * B_APART)


class TestNormalForm:
    def test_self_membership(self):
        assert mora_normal_form(F_RUN, [F_RUN]).is_zero

    def test_y3_against_cusp_gives_x4(self):
        # y^3 = -(x^4 - y^3) + x^4 and x^4 is irreducible by LM y^3,
        # so the normal form is x^4 (hence y^3 is not in the ideal).
        r = mora_normal_form(Y**3, [F_RUN])
        assert r == X**4

    def test_multiple_of_generator(self):
        g = 3 * Y + X**3
        assert mora_normal_form(X * g, [g]).is_zero

    def test_zero_basis_element_rejected(self):
        with pytest.raises(ValueError):
            mora_normal_form(X, [Poly.zero()])

    def test_remainder_irreducible(self):
        rng = random.Random(4)
        done = 0
        while done < 25:
            basis = [rand_poly(rng) for _ in range(2)]
            lms = [g.leading_monomial() for g in basis]
            if not any(m[1] == 0 for m in lms) or not any(m[0] == 0 for m in lms):
                continue  # no truncation degree: covered by hand cases instead
            f = rand_poly(rng)
            r = mora_normal_form(f, basis)
            if not r.is_zero:
                lm = r.leading_monomial()
                for g in basis:
                    glm = g.leading_monomial()
                    assert not (
                        lm[0] >= glm[0] and lm[1] >= glm[1]
                    ), f"{r} still reducible by {g}"
            done += 1

    def test_remainder_irreducible_no_truncation(self):
        # bases whose staircase is infinite: short walks, exact remainders
        r = mora_normal_form(Y**2 + X**3, [X**2 + Y**5, X * Y - Y**7])
        assert r == Y**2 + X**3  # leading monomial y^2 is already irreducible
        # x^4*y walks down to x*y^4, whose leading monomial escapes x^2
        r = mora_normal_form(X**4 * Y, [X * (X + Y)])
        assert r == X * Y**4
        # and a true member of the principal ideal reduces to zero
        assert mora_normal_form(X**3 + X**2 * Y, [X * (X + Y)]).is_zero

    @pytest.mark.parametrize(
        "f, basis",
        [
            (
                Fraction(1, 2) * X * Y**2 - Fraction(7, 3) * Y**3 + 5 * X**4,
                [Fraction(-2, 3) * (X**2 - Y**3), 4 * Y + 6 * X**3],
            ),
            (
                Fraction(-3, 4) * Y**2 + Fraction(2, 9) * X**3 - X * Y**4,
                [-6 * Y**2 + 9 * X**3 * Y, Fraction(1, 5) * X**2 - Y**5],
            ),
            (3 * Y**3, [X**4 - Y**3]),
            (Poly.zero(), [Fraction(-2, 3) * (X**2 - Y**3), 4 * Y + 6 * X**3]),
            (Fraction(5, 7) * X**2 - 4 * Y, []),
        ],
        ids=["rational-basis", "non-primitive-basis", "scaled-f", "zero-f", "empty"],
    )
    def test_scaled_inputs_give_the_same_form(self, f, basis):
        # Negative, rational and non-primitive coefficients: the walk reads
        # only the primitive parts, so no nonzero rational factor on f or on
        # a basis element changes the normal form.
        r = mora_normal_form(f, basis)
        for c in (Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
            scaled = [g.scale(c * (i + 2)) for i, g in enumerate(basis)]
            assert mora_normal_form(f.scale(c), scaled) == r

    def test_walk_truncated_at_one(self):
        # the leading monomials x and y bound the staircase at 1: m lies in
        # the ideal, so the walk drops every term of f at once
        f = -X + 3 * Y**2 + 2 * Y**3
        basis = [-2 * X - Y + X**2 + 2 * X * Y**2, 2 * Y + 3 * X**3 - 2 * X**2 * Y]
        assert mora_normal_form(f, basis).is_zero

    def test_walk_without_truncation_is_bounded(self, monkeypatch):
        # h*a and h*b share the factor h through the origin, so their leading
        # monomials have no staircase bound and the walk keeps no truncation
        # degree.  Unbounded, its coefficients passed 60 000 bits by step
        # 200.  It stops at the coefficient limit, or at the step budget,
        # and membership divides out h and decides at once
        h = -3 * X + 3 * X**2 * Y - X**2 * Y**2 + 3 * X * Y**4
        a = -2 * X**3 - 2 * X * Y**3 - 2 * Y**4 - 2 * X**2 * Y**3
        b = 2 * X + 2 * X**3 - 3 * X**2 * Y**2
        f = 2 * X**2 * Y + 3 * X**3 * Y + 2 * X**5
        limits = f"{stdbasis._NF_STEP_BUDGET} steps .* {stdbasis._COEFF_BIT_LIMIT} bits"
        with pytest.raises(RuntimeError, match=limits):
            mora_normal_form(f, [h * a, h * b])
        assert contains(Ideal.of(h * a, h * b), f)
        monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 5)
        with pytest.raises(RuntimeError, match="5 steps"):
            mora_normal_form(f, [h * a, h * b])


class TestStandardBasis:
    def test_already_standard(self):
        sb = standard_basis(Ideal.of(X, Y))
        assert set(sb.leading_monomials) == {(1, 0), (0, 1)}

    def test_principal_monomial(self):
        sb = standard_basis(Ideal.of(X**2))
        assert sb.elements == (X**2,)

    def test_jacobian_staircase_colength_16(self):
        f = X**5 + Y**5 + X**3 * Y**3
        assert colength(Ideal.of(f.partial_x(), f.partial_y())) == 16

    def test_spoly_criterion(self):
        rng = random.Random(21)
        done = 0
        while done < 10:
            ideal = Ideal.of(rand_poly(rng), rand_poly(rng))
            if not is_finite(colength(ideal)):
                continue
            done += 1
            _assert_spolys_reduce(standard_basis(ideal))

    def test_spoly_criterion_many_generators(self):
        # m^k * j(f) and m^k * j(f) + (f) have 2(k+1) and 2k+3 generators,
        # whose pairs the chain criterion mostly settles without a reduction
        for f in _sweep_germs():
            for ideal in _sweep_ideals(f):
                _assert_spolys_reduce(standard_basis(ideal))

    def test_many_generator_colengths(self):
        for f, mu, m in _family():
            for k in range(9):
                ideal = Ideal.of(f.partial_x(), f.partial_y()) * maximal_ideal_power(k)
                assert colength(ideal) == milnor_k_closed(mu, m, k), (f, k)
        for f in _sweep_germs():
            for ideal in _sweep_ideals(f):
                expect = oracle_colength(list(ideal.generators), nmax=20)
                assert expect is not None, ideal
                assert colength(ideal) == expect, ideal
        # (f, g) * m^k: the shifts of each generator share leading-monomial
        # lcms, the chains that the chain criterion settles
        rng = random.Random(1)
        checked = 0
        for _ in range(60):
            f, g = rand_poly(rng), rand_poly(rng)
            ideal = Ideal.of(f, g) * maximal_ideal_power(rng.randint(1, 4))
            expect = oracle_colength(list(ideal.generators), nmax=20)
            if expect is None:
                continue
            assert colength(ideal) == expect, ideal
            checked += 1
        assert checked >= 20

    def test_chain_criterion_saves_reductions(self, monkeypatch):
        # m^12 * j(f) of x^5 + y^7 + 2x^2y^3, expanded into 26 generators,
        # took 34 normal forms with the product criterion alone and takes 13
        # with the divisor and neighbour pairs of the chain
        calls = []
        nf = stdbasis._mora_nf

        def counted(*args):
            calls.append(1)
            return nf(*args)

        monkeypatch.setattr(stdbasis, "_mora_nf", counted)
        stdbasis._standard_basis_cached.cache_clear()
        f, mu, m = next(_family())
        jac = Ideal.of(f.partial_x(), f.partial_y())
        assert colength(jac * maximal_ideal_power(12)) == milnor_k_closed(mu, m, 12)
        stdbasis._standard_basis_cached.cache_clear()
        assert 0 < len(calls) <= 20

    def test_chain_queues_few_pairs(self, monkeypatch):
        # the same expanded ideal queued 326 pairs when every pair that
        # truncation and the product criterion left entered the queue; the
        # pairs of the chain queue 26, and 13 of them are neighbouring shifts
        # of one generator, whose s-polynomial is zero
        pushed = []
        push = stdbasis.heappush

        def counted(heap, item):
            pushed.append(item)
            push(heap, item)

        monkeypatch.setattr(stdbasis, "heappush", counted)
        stdbasis._standard_basis_cached.cache_clear()
        f, mu, m = next(_family())
        jac = Ideal.of(f.partial_x(), f.partial_y())
        assert colength(jac * maximal_ideal_power(12)) == milnor_k_closed(mu, m, 12)
        stdbasis._standard_basis_cached.cache_clear()
        assert 0 < len(pushed) <= 40

    def test_chain_pairs_save_work(self, monkeypatch):
        # mu^k and tau^k ideals of the FAMILY germs, k <= 12: the chain
        # queues 2191 pairs and makes 1141 s-polynomials, 200 of them zero.
        # Without the truncation test when a pair is made, 2802 pairs;
        # without the truncation break, 1791 s-polynomials.  (No pair with
        # coprime leading monomials x^a, y^b is queued here: its lcm has
        # degree a + b, beyond the staircase bound.)
        counts = {"queued": 0, "spoly": 0}
        push, spoly = stdbasis.heappush, stdbasis._spoly

        def counted_push(heap, item):
            counts["queued"] += 1
            push(heap, item)

        def counted_spoly(*args):
            counts["spoly"] += 1
            return spoly(*args)

        monkeypatch.setattr(stdbasis, "heappush", counted_push)
        monkeypatch.setattr(stdbasis, "_spoly", counted_spoly)
        stdbasis._standard_basis_cached.cache_clear()
        try:
            for f, mu, m in _family():
                jac = Ideal.of(f.partial_x(), f.partial_y())
                for k in range(13):
                    ideal = jac * maximal_ideal_power(k)
                    assert colength(ideal) == milnor_k_closed(mu, m, k)
                    colength(ideal + Ideal.of(f))
        finally:
            stdbasis._standard_basis_cached.cache_clear()
        assert counts["queued"] <= 2200 and counts["spoly"] <= 1200, counts

    def test_public_operations_build_no_poly(self, monkeypatch):
        # colength, leading_ideal and contains read the packed elements; only
        # StandardBasis.elements turns them into Polys
        def refuse(t):
            raise AssertionError("_to_poly called")

        monkeypatch.setattr(stdbasis, "_to_poly", refuse)
        stdbasis._standard_basis_cached.cache_clear()
        try:
            for ideal in (
                Ideal.of(F_RUN, G_RUN),
                Ideal.of(X * F_RUN, X * G_RUN),
                Ideal.of(F_RUN.partial_x(), F_RUN.partial_y()) * maximal_ideal_power(3),
            ):
                colength(ideal)
                leading_ideal(ideal)
                contains(ideal, X**7 * Y**7)
                contains(ideal, X * Y)
        finally:
            stdbasis._standard_basis_cached.cache_clear()


def _assert_chain(basis):
    """The leading exponents of the term lists strictly rise in x and fall in y."""
    lms = [stdbasis._decode(t[0][0]) for t in basis]
    assert lms, basis
    for (a1, b1), (a2, b2) in zip(lms, lms[1:]):
        assert a1 < a2 and b1 > b2, lms


class TestChain:
    def test_bound_and_colength_count_the_staircase(self):
        # exponent sets with duplicates and repeated x-exponents, against a
        # count of the monomials outside the ideal they generate
        rng = random.Random(17)
        finite = 0
        for _ in range(400):
            lms = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 6))]
            lms += [(lms[0][0], rng.randint(0, 6))] + rng.choices(lms, k=rng.randint(0, 3))
            if rng.random() < 0.8:
                lms += [(rng.randint(0, 8), 0), (0, rng.randint(0, 8))]
            rng.shuffle(lms)
            chain, bound, length = stdbasis._chain(lms)
            _assert_chain([[(stdbasis._encode(lms[i]), 1)] for i in chain])
            for a, b in lms:
                assert any(lms[i][0] <= a and lms[i][1] <= b for i in chain), lms
            if not any(b == 0 for _, b in lms) or not any(a == 0 for a, _ in lms):
                assert bound is None and length is None, lms
                continue
            finite += 1
            outside = [
                (a, b)
                for a in range(9)
                for b in range(9)
                if not any(c <= a and d <= b for c, d in lms)
            ]
            assert length == len(outside), lms
            assert bound == max((a + b + 1 for a, b in outside), default=0), lms
        assert finite >= 250

    def test_every_route_returns_a_chain(self):
        # x^2y^3 arrives after x^2y^5, which has the same x-exponent and
        # leaves the chain
        gens = [(X**2 * Y**5).prim, (X**2 * Y**3 + Y**6).prim, (X**6).prim, (Y**7).prim]
        basis, _ = stdbasis._std(gens)
        _assert_chain(basis)
        assert [stdbasis._decode(t[0][0]) for t in basis] == [(0, 7), (2, 3), (6, 0)]
        for f in _sweep_germs()[:4]:
            for n, ideal in enumerate(_sweep_ideals(f)):
                packed = stdbasis._pack(ideal)
                _assert_chain(stdbasis._std(packed)[0])
                if n < 4:  # k <= 1, whose staircases lie below degree 24
                    _assert_chain(stdbasis._capped_std(list(packed), 24))
        stdbasis._standard_basis_cached.cache_clear()
        try:
            _assert_chain(standard_basis(Ideal.of(X * F_RUN, X * G_RUN)).packed)
            _assert_chain(stdbasis._capped_std([F_RUN.prim, G_RUN.prim], 16))
        finally:
            stdbasis._standard_basis_cached.cache_clear()


class TestCaches:
    def test_basis_cache_is_bounded_and_counts(self):
        cached = stdbasis._standard_basis_cached
        size = cached.cache_info().maxsize
        assert size is not None and size >= 4096
        cached.cache_clear()
        try:
            first = Ideal.of(F_RUN, G_RUN)
            expect = colength(first)
            assert colength(first) == expect
            assert cached.cache_info()[:2] == (1, 1)  # hits, misses
            for i in range(size):  # evicts the least recently used: first
                standard_basis(Ideal.of(X, Y ** (i + 2)))
            info = cached.cache_info()
            assert (info.misses, info.currsize) == (size + 1, size)
            assert colength(first) == expect
            assert cached.cache_info()[:2] == (1, size + 2)
        finally:
            cached.cache_clear()

    def test_tails_share_the_bound_and_the_clear(self, monkeypatch):
        # J = (x), P = (y): colength k + 1, whose step at k = 1 is ord(y) = 1.
        # The tail is one entry of the cache: an answer from it is a hit that
        # refreshes it, it is evicted as the least recently used entry, and
        # cache_clear drops it
        cached = stdbasis._BasisCache(maxsize=4)
        monkeypatch.setattr(stdbasis, "_standard_basis_cached", cached)
        J, P = Ideal.of(X), Ideal.of(Y)
        tail = (stdbasis._pack(J), None, stdbasis._pack(P))
        assert colength(J, 5, P) == 6
        assert cached._entries[tail] == (1, 2)
        assert cached.cache_info()[:2] == (1, 2) and cached.cache_info().currsize == 3
        assert colength(J, 9, P) == 10
        assert cached.cache_info()[:2] == (2, 2)  # read off the tail
        for i in range(3):  # evicts the bases for k = 0 and 1
            standard_basis(Ideal.of(X, Y ** (i + 2)))
        assert colength(J, 9, P) == 10 and cached.cache_info().misses == 5
        for i in range(3, 7):
            standard_basis(Ideal.of(X, Y ** (i + 2)))
        assert tail not in cached._entries
        assert colength(J, 9, P) == 10 and cached.cache_info().misses == 11
        assert tail in cached._entries
        cached.cache_clear()
        assert cached.cache_info() == (0, 0, 4, 0)
        assert colength(J, 9, P) == 10 and cached.cache_info()[:2] == (1, 2)

    def test_sweep_seeds_from_the_previous_k(self, monkeypatch):
        # a basis request for a cold k fills the entries for 0..k - 1 first:
        # the entry for 0 is the basis of J + (f), and each k > 0 starts from
        # the distinct elements of x*G and y*G, in the chain order of G, then
        # (f), G the basis for k - 1.  m^k * J is never expanded.  (colength
        # stops the fill at the first certified step instead.)
        calls = []
        from_gens = stdbasis._standard_basis_from_gens

        def counted(gens):
            sb = from_gens(gens)
            calls.append((gens, sb))
            return sb

        monkeypatch.setattr(stdbasis, "_standard_basis_from_gens", counted)
        cached = stdbasis._standard_basis_cached
        cached.cache_clear()
        try:
            f, mu, m = next(_family())
            jac, plus = Ideal.of(f.partial_x(), f.partial_y()), Ideal.of(f)
            J, P = stdbasis._pack(jac), stdbasis._pack(plus)
            tau = stdbasis._dim(cached(J, 5, P))
            assert cached.cache_info()[:2] == (4, 6)  # k - 1 hits, k + 1 misses
            assert len(calls) == 6 and calls[0][0] == J + P
            assert colength(jac, 5, plus) == tau
            repeats = 0
            for (_, prev), (gens, _) in zip(calls, calls[1:]):
                shifts = gens[:-1]
                assert gens[-1:] == P and len(set(shifts)) == len(shifts)
                assert set(shifts) == {stdbasis._shift(t, s) for s in (stdbasis._X, stdbasis._Y)
                                       for t in prev.packed}
                lms = [stdbasis._decode(t[0][0]) for t in shifts]  # by x up, then y down
                assert lms == sorted(lms, key=lambda e: (e[0], -e[1]))
                repeats += 2 * len(prev.packed) - len(shifts)
            assert repeats  # x*g_i = y*g_(i+1) for some neighbours of some G
            assert [cached(J, k, P) for k in range(6)] == [sb for _, sb in calls]
            assert tau == colength(jac * maximal_ideal_power(5) + plus)
        finally:
            cached.cache_clear()

    def test_infinite_order_zero_answers_every_order(self):
        # m^k (x) + P with P in (x): every order is infinite, and colength
        # reads that off the basis for order 0 without computing any other,
        # cold or with order 0 cached; a basis request still fills every
        # order.  (The split of the shared factor x keeps its cofactors'
        # basis as an entry for order 0 too.)
        cached = stdbasis._standard_basis_cached

        def orders():
            return sorted(key[1] for key in cached._entries)

        cached.cache_clear()
        try:
            for plus in (Ideal(), Ideal.of(X * Y), Ideal.of(X * Y, X**2)):
                J, P = stdbasis._pack(Ideal.of(X)), stdbasis._pack(plus)
                assert colength(Ideal.of(X), 100, plus) is INFINITE
                assert colength(Ideal.of(X), 50, plus) is INFINITE
                assert set(orders()) == {0}
                assert stdbasis._dim(cached(J, 5, P)) is INFINITE
                assert orders()[-5:] == [1, 2, 3, 4, 5]
                misses = cached.cache_info().misses
                assert colength(Ideal.of(X), 5, plus) is INFINITE  # a hit
                assert cached.cache_info().misses == misses
                cached.cache_clear()
        finally:
            cached.cache_clear()

    def test_deep_cold_order_does_not_recurse(self):
        # the entries below a cold k are filled in a loop: a call for k - 1
        # inside the call for k would nest 1500 deep, past the recursion limit.
        # colength reads k = 1500 off the tail certified at k = 1, so the
        # basis request is the one that fills every order
        cached = stdbasis._standard_basis_cached
        cached.cache_clear()
        try:
            assert colength(Ideal.of(X), 1500, Ideal.of(Y)) == 1501  # (x^1501, y)
            J, P = stdbasis._pack(Ideal.of(X)), stdbasis._pack(Ideal.of(Y))
            assert stdbasis._dim(cached(J, 1500, P)) == 1501
        finally:
            cached.cache_clear()

    def test_cold_orders_match_the_sweep(self, monkeypatch):
        # a basis request for a cold k fills the orders from 0, so no basis
        # is computed from more than 2|G| + |P| generators: a Mora run on the
        # 82 generators of m^40 * j(f) and (f) takes seconds on these germs
        sizes = []
        from_gens = stdbasis._standard_basis_from_gens

        def counted(gens):
            sizes.append(len(gens))
            return from_gens(gens)

        monkeypatch.setattr(stdbasis, "_standard_basis_from_gens", counted)
        cached = stdbasis._standard_basis_cached
        try:
            for f in ((X**2 + Y**3) * (X**3 + Y**2), (X + Y**2 + 3 * X * Y) ** 3 + 7 * X**7):
                cached.cache_clear()
                sizes.clear()
                jac, plus = Ideal.of(f.partial_x(), f.partial_y()), Ideal.of(f)
                J, P = stdbasis._pack(jac), stdbasis._pack(plus)
                cold = stdbasis._dim(cached(J, 40, P))
                assert len(sizes) == 41 and sizes[0] == len(J) + len(P)
                for k in range(1, 41):
                    assert sizes[k] <= 2 * len(cached(J, k - 1, P).packed) + len(P)
                assert tjurina_k(f, 40) == cold
                cached.cache_clear()
                assert cold == [stdbasis._dim(cached(J, k, P)) for k in range(41)][-1]
        finally:
            cached.cache_clear()

    def test_k_zero_entries_serve_the_expanded_ideal(self):
        cached = stdbasis._standard_basis_cached
        cached.cache_clear()
        try:
            J, P = Ideal.of(F_RUN), Ideal.of(G_RUN)
            assert colength(J, 0, P) == colength(J + P) == 20
            assert colength(Ideal(), 3, P) == colength(P) is INFINITE
            assert cached.cache_info()[:2] == (2, 2)
            assert colength(Ideal(), 2) is INFINITE
            with pytest.raises(ValueError):
                colength(J, -1, P)
            # a non-int order is refused before the cache, cold or warm: a
            # walk down from 1.5 steps past 0, 2.0 keys the entry of 2, and
            # True and False would key those of 1 and 0
            square = Ideal.of(X**2, Y**3)
            for _cache in ("cold", "warm"):
                for k in (1.5, 2.0, True, False):
                    with pytest.raises(ValueError, match="must be an int >= 0"):
                        colength(square, k)
                    with pytest.raises(ValueError, match="must be an int >= 0"):
                        maximal_ideal_power(k)
                assert colength(square, 2) == 12
        finally:
            cached.cache_clear()

    def test_step_outside_the_bound_raises(self):
        # colength(m^k) - colength(m^(k-1)) = k for J = m = (x, y), whose
        # order plus k is k + 1: a basis of m^(k+1) in place of m^k, or one
        # of m^(k-1), is a step outside the bound
        J = stdbasis._pack(Ideal.of(X, Y))
        basis = {k: standard_basis(maximal_ideal_power(k)) for k in (2, 3, 4)}
        stdbasis._check_step(basis[2], basis[3], J, 3, ())
        with pytest.raises(RuntimeError):
            stdbasis._check_step(basis[2], basis[4], J, 3, ())
        with pytest.raises(RuntimeError):
            stdbasis._check_step(basis[3], basis[2], J, 3, ())
        # with P = (x), colength(m^k + P) = k: one generator f bounds a step
        # by ord(f) = 1 too, so a step of 2 fits ord(J) + k and still raises
        P = stdbasis._pack(Ideal.of(X))
        cut = {k: standard_basis(maximal_ideal_power(k) + Ideal.of(X)) for k in (1, 2, 3)}
        stdbasis._check_step(cut[2], cut[3], J, 3, P)
        stdbasis._check_step(cut[1], cut[3], J, 3, ())
        with pytest.raises(RuntimeError):
            stdbasis._check_step(cut[1], cut[3], J, 3, P)

    def test_maximal_ideal_powers_are_memoized(self):
        info = maximal_ideal_power.cache_info()
        assert info.maxsize is not None
        assert maximal_ideal_power(7) is maximal_ideal_power(7)
        assert maximal_ideal_power.cache_info().hits > info.hits
        with pytest.raises(ValueError):
            maximal_ideal_power(-1)
        # a float k is refused whether or not its int is cached
        maximal_ideal_power.cache_clear()
        for _cache in ("cold", "warm"):
            for k in (1.5, 2.0):
                with pytest.raises(ValueError):
                    maximal_ideal_power(k)
            assert maximal_ideal_power(2) == Ideal.of(X**2, X * Y, Y**2)


# x^a + y^b + lam * x^c * y^d, with (c, d) off the segment from (a, 0) to (0, b)
FAMILY = [
    (5, 7, 2, 3, 2),
    (4, 6, 1, 3, -1),
    (3, 4, 2, 2, 1),
    (6, 6, 1, 4, -2),
    (2, 5, 1, 2, 1),
]


def _family():
    """(f, mu, multiplicity) of each FAMILY germ, a Newton non-degenerate one.

    Kouchnirenko: mu = 2V - a - b + 1, V the area under the Newton polygon;
    (c, d) is a vertex only when it lies below the segment from (a, 0) to
    (0, b).
    """
    for a, b, c, d, lam in FAMILY:
        f = X**a + Y**b + lam * X**c * Y**d
        if c * b + d * a < a * b:
            mu = a * d + b * c - a - b + 1
        else:
            mu = (a - 1) * (b - 1)
        yield f, mu, min(a, c + d)


def _sweep_germs():
    """The FAMILY germs, then six random germs with an isolated singularity."""
    germs = [f for f, _, _ in _family()]
    rng = random.Random(8)
    while len(germs) < len(FAMILY) + 6:
        f = rand_poly(rng, max_extra_deg=6)
        jac = Ideal.of(f.partial_x(), f.partial_y())
        if is_finite(colength(jac)):
            germs.append(f)
    return germs


def _sweep_ideals(f):
    """m^k * j(f) and m^k * j(f) + (f) for k = 0..8."""
    jac = Ideal.of(f.partial_x(), f.partial_y())
    for k in range(9):
        ideal = jac * maximal_ideal_power(k)
        yield ideal
        yield ideal + Ideal.of(f)


def _assert_spolys_reduce(sb):
    """Every s-polynomial of a pair of basis elements reduces to zero."""
    els = list(sb.elements)
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            mi, mj = els[i].leading_monomial(), els[j].leading_monomial()
            lcm = (max(mi[0], mj[0]), max(mi[1], mj[1]))
            a = Poly.from_dict({(lcm[0] - mi[0], lcm[1] - mi[1]): 1})
            b = Poly.from_dict({(lcm[0] - mj[0], lcm[1] - mj[1]): 1})
            ci, cj = els[i].leading_coefficient(), els[j].leading_coefficient()
            spoly = a * els[i] * Poly.constant(1 / ci) - b * els[j] * Poly.constant(1 / cj)
            assert mora_normal_form(spoly, els).is_zero, (els[i], els[j])


class TestColength:
    def test_running_pair_is_20(self):
        assert colength(Ideal.of(F_RUN, G_RUN)) == 20

    def test_unit_ideal(self):
        assert colength(Ideal.of(Poly.one())) == 0

    def test_principal_is_infinite(self):
        c = colength(Ideal.of(X))
        assert c is INFINITE
        assert not is_finite(c)
        assert is_finite(7)

    def test_maximal_ideal_powers(self):
        assert colength(maximal_ideal_power(0)) == 0
        assert set(
            g.leading_monomial() for g in maximal_ideal_power(2).generators
        ) == {(2, 0), (1, 1), (0, 2)}
        assert colength(maximal_ideal_power(2)) == 3
        assert colength(maximal_ideal_power(10)) == 55

    def test_product_with_unit_ideal(self):
        ideal = Ideal.of(F_RUN, G_RUN)
        assert colength(ideal_product(ideal, Ideal.of(Poly.one()))) == 20

    def test_sum(self):
        assert colength(ideal_sum(Ideal.of(X), Ideal.of(Y))) == 1

    def test_jacobian_times_m_is_8(self):
        f = F_RUN
        j = Ideal.of(f.partial_x(), f.partial_y())
        assert colength(ideal_product(j, maximal_ideal_power(1))) == 8

    def test_presentation_independence(self):
        base = colength(Ideal.of(F_RUN, G_RUN))
        assert colength(Ideal.of(G_RUN, F_RUN)) == base
        assert colength(Ideal.of(F_RUN, G_RUN + X**2 * F_RUN)) == base
        assert colength(Ideal.of(F_RUN - G_RUN, G_RUN)) == base
        assert colength(Ideal.of(F_RUN, G_RUN, F_RUN * G_RUN)) == base

    def test_oracle_cross_check(self):
        rng = random.Random(314159)
        checked = 0
        for _ in range(40):
            gens = [rand_poly(rng) for _ in range(rng.randint(1, 3))]
            got = colength(Ideal(tuple(gens)))
            expect = oracle_colength(gens, nmax=20, prime=PRIMES[0])
            if expect is None:
                # oracle could not certify below its cap: engine must say
                # either infinite or a colength at least as large as the cap
                # allows us to see
                if got is not INFINITE:
                    assert got > 0
                continue
            if got != expect:
                # rule out an unlucky prime before failing
                expect2 = oracle_colength(gens, nmax=20, prime=PRIMES[1])
                assert got == expect2, (gens, got, expect, expect2)
            checked += 1
        assert checked >= 15

    def test_no_spoly_from_coprime_leading_monomials(self, monkeypatch):
        # _std has no product criterion: in the plane truncation drops a pair
        # with coprime leading monomials x^a, y^b before it is queued, since
        # they bound the staircase below degree a + b.  These runs make 1152
        # s-polynomials.
        count = 0
        spoly = stdbasis._spoly

        def checked(t1, t2, lcm):
            nonlocal count
            (a1, b1), (a2, b2) = stdbasis._decode(t1[0][0]), stdbasis._decode(t2[0][0])
            assert min(a1, a2) or min(b1, b2), "s-polynomial of a coprime pair"
            count += 1
            return spoly(t1, t2, lcm)

        monkeypatch.setattr(stdbasis, "_spoly", checked)
        stdbasis._standard_basis_cached.cache_clear()
        try:
            rng = random.Random(2718)
            for _ in range(12):
                colength(Ideal(tuple(rand_poly(rng) for _ in range(2))))
            for f, mu, m in _family():
                jac = Ideal.of(f.partial_x(), f.partial_y())
                for k in range(13):
                    ideal = jac * maximal_ideal_power(k)
                    assert colength(ideal) == milnor_k_closed(mu, m, k)
                    colength(ideal + Ideal.of(f))
        finally:
            stdbasis._standard_basis_cached.cache_clear()
        assert count >= 1000, count

    def test_large_sweep_stays_on_mora(self, monkeypatch):
        # m^400 * j(f) of x^5 + y^7 + 2x^2y^3 has 802 generators and needs many
        # short normal forms; the step budget of a run grows with its
        # generators, so the run stays on Mora.  Capped elimination does not
        # finish on this ideal.  Its walks pass the swell mark, but the run
        # skips every small cap at or below the least order of its
        # generators, 400 here, since elimination has no rows there.
        def refuse(*args):
            raise AssertionError("left Mora")

        monkeypatch.setattr(stdbasis, "_split_common_factor", refuse)
        monkeypatch.setattr(stdbasis, "_capped_std", refuse)
        stdbasis._standard_basis_cached.cache_clear()
        try:
            f, mu, m = next(_family())
            expanded = Ideal.of(f.partial_x(), f.partial_y()) * maximal_ideal_power(400)
            assert colength(expanded) == milnor_k_closed(mu, m, 400) == 81812
        finally:
            stdbasis._standard_basis_cached.cache_clear()

    def test_walks_share_the_run_budget(self, monkeypatch):
        # the basis of these two generators takes three walks of at most 2
        # reduction steps each, 5 in all.  The walks of a run share a budget
        # per generator: 2 per generator gives up and 3 does not, so the
        # number of walks does not raise the cost of giving up
        gens = [
            g.prim
            for g in (
                -3 * X**3 - 3 * X**2 * Y - 3 * Y**4,
                2 * X**3 + 3 * Y**3 - 3 * X**3 * Y**2,
            )
        ]
        monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 2)
        assert stdbasis._std(gens)[0] is None
        monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 3)
        assert stdbasis._std(gens)[0] is not None


class TestDegenerateIdeals:
    """Inputs that defeat a naive Mora loop: common factors and slow staircases."""

    def test_zero_ideal_takes_the_engine_path(self):
        assert standard_basis(Ideal()) == StandardBasis(())
        assert standard_basis(Ideal()).elements == ()
        assert leading_ideal(Ideal()) == ()
        for k in range(4):
            assert colength(Ideal(), k) is INFINITE
            assert colength(Ideal(), k, Ideal()) is INFINITE
        assert contains(Ideal(), Poly.zero())
        assert not contains(Ideal(), Poly.one())

    def test_empty_basis_has_no_split(self):
        # the staircase of the zero ideal is infinite, but there is no
        # common factor to split off its empty basis
        assert standard_basis(Ideal())._factor is None
        assert StandardBasis(())._factor is None

    def test_common_factor_is_infinite(self):
        g = X + Y + X * Y
        ideal = Ideal.of(g * (X**2 - Y**3), g * (X * Y + Y**4), g * X**3)
        assert colength(ideal) is INFINITE

    def test_common_factor_times_finite(self):
        # <x*f, x*g> has colength infinite even though <f,g> is finite
        ideal = Ideal.of(X * F_RUN, X * G_RUN)
        assert colength(ideal) is INFINITE
        lis = leading_ideal(ideal)
        assert all(m[0] >= 1 for m in lis), "every LM keeps the factor x"

    def test_unit_times_ideal_keeps_colength(self):
        u = Poly.one() + X + Y**2
        assert u.is_unit()
        assert colength(Ideal.of(u * F_RUN, u * G_RUN)) == 20

    def test_slow_staircase_budget_reroute(self):
        # zero-dimensional and gcd 1, with no pure y-power among the leading
        # monomials of the generators; Mora finds one in a single short walk
        # and needs no fallback route
        u = Poly.constant(2) - X + Y
        v = Poly.one() + 3 * X * Y
        gens = (
            X * (X**2) * u + X**2 * Y * v,
            X * (X * Y) * u - Y**3 * v + X**5,
            X * (Y**2) * u + X**4 * v,
            Y**4 + X**3 * Y,
        )
        c = colength(Ideal(gens))
        assert is_finite(c)
        expect = oracle_colength(list(gens), nmax=20, prime=PRIMES[0])
        if expect is not None:
            assert c == expect

    def test_capped_route_without_forced_budget(self, monkeypatch):
        # a lemma-3.1 ideal (g*P, g*Q)*m^k + (f) of small random germs: with
        # the default limits Mora gives up as its coefficients grow, and the
        # generators share no factor through the origin, so capped
        # elimination computes the basis
        calls = []
        capped = stdbasis._capped_std

        def counted(gens, cap):
            calls.append(cap)
            return capped(gens, cap)

        monkeypatch.setattr(stdbasis, "_capped_std", counted)
        gens = (
            3 * X**5 + X**4 * Y - 2 * X**5 * Y**2,
            3 * X**4 * Y + X**3 * Y**2 - 2 * X**4 * Y**3,
            3 * X**3 * Y**2 + X**2 * Y**3 - 2 * X**3 * Y**4,
            3 * X**2 * Y**3 + X * Y**4 - 2 * X**2 * Y**5,
            -(X**5) - 2 * X**6 - 3 * X**7,
            -(X**4) * Y - 2 * X**5 * Y - 3 * X**6 * Y,
            -(X**3) * Y**2 - 2 * X**4 * Y**2 - 3 * X**5 * Y**2,
            -(X**2) * Y**3 - 2 * X**3 * Y**3 - 3 * X**4 * Y**3,
            -2 * X**2 * Y - 2 * X * Y**2 - X**4 + 2 * Y**5,
        )
        stdbasis._standard_basis_cached.cache_clear()
        try:
            got = colength(Ideal(gens))
        finally:
            stdbasis._standard_basis_cached.cache_clear()
        assert calls
        assert got == oracle_colength(list(gens), nmax=20) == 14

    def test_membership_by_the_split_matches_oracle(self):
        # I = h*(a, b) has an infinite staircase, so contains divides out the
        # shared factor h, kept on the basis, and walks in the
        # zero-dimensional (a, b).  The oracle sees membership degree by
        # degree: f in I leaves dim O/(I + m^n) unchanged, and a monomial of
        # degree below n outside L(I) lowers it, since L(I + m^n) = L(I)
        # below degree n
        rng = random.Random(4242)
        n = 8
        outside = 0
        for _ in range(12):
            h, a, b = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            gens = [h * a, h * b]
            ideal = Ideal(tuple(gens))
            assert colength(ideal) is INFINITE
            base = quotient_dim_modp(gens, n, PRIMES[0])
            u = Poly.constant(rng.choice([1, -2, 3])) + rand_poly(rng)
            member = h * (u * a + rand_poly(rng) * b)
            assert contains(ideal, member)
            assert quotient_dim_modp(gens + [member], n, PRIMES[0]) == base
            lms = leading_ideal(ideal)
            monos = [
                (i, d - i)
                for d in range(n)
                for i in range(d + 1)
                if not any(i >= p and d - i >= q for p, q in lms)
            ]
            for i, j in rng.sample(monos, min(2, len(monos))):
                mono = Poly.term((i, j))
                assert not contains(ideal, mono)
                assert quotient_dim_modp(gens + [mono], n, PRIMES[0]) < base
                outside += 1
            assert vars(standard_basis(ideal)).get("_factor") is not None
        assert outside >= 12

    def test_non_member_without_common_factor_through_the_origin(self, monkeypatch):
        # h and f share no factor through the origin, so h does not divide f
        # in the local ring and f is not in I = h*(a, b).  Deciding it by the
        # leading ideal of I + (f) took capped elimination up to cap 64 and
        # more than a minute
        def refuse(*args):
            raise AssertionError("capped elimination")

        monkeypatch.setattr(stdbasis, "_capped_std", refuse)
        assert contains(NON_MEMBER_IDEAL, X**4 * Y**6) is False

    def test_membership_localized_unit(self):
        # x = (1-x)^{-1} * (x - x^2) in the local ring
        assert contains(Ideal.of(X - X**2), X)
        assert contains(Ideal.of(X - X**2), X**5)
        assert not contains(Ideal.of(X - X**2), Y)

    def test_membership_common_factor_route(self):
        g = X + Y
        ideal = Ideal.of(g * X**2, g * Y**2, g * X * Y)
        assert contains(ideal, g * (X**2 + 3 * X * Y))
        assert not contains(ideal, g)
        assert not contains(ideal, X**2)

    def test_membership_known_cases(self):
        assert not contains(Ideal.of(X, Y), Poly.one())
        n = 3
        assert contains(Ideal.of(n * Y + X**n, -X), X)
        assert contains(Ideal.of(-3 * Y, 2 * X), Y**2 - X**3)


class TestForcedRoutes:
    """A zero Mora work budget sends every basis that needs a reduction to a
    fallback: the common-factor split when the generators share a factor
    through the origin, capped elimination otherwise."""

    @pytest.fixture(autouse=True)
    def routes(self, monkeypatch):
        calls = {"split": 0, "capped": 0, "membership": 0}
        split, capped = stdbasis._split_common_factor, stdbasis._capped_std
        monomial = stdbasis._monomial_split

        def counted_split(gens):
            # "split" counts the basis route; a basis that Mora finished
            # splits its own elements once, for membership, counted apart
            out = split(gens)
            in_factor = sys._getframe(1).f_code.co_name == "_factor"
            calls["membership" if in_factor else "split"] += out is not None
            return out

        def counted_monomial(gens):
            # a monomial common factor is split off before any walk
            out = monomial(gens)
            calls["split"] += out is not None
            return out

        def counted_capped(gens, cap):
            calls["capped"] += 1
            return capped(gens, cap)

        monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 0)
        monkeypatch.setattr(stdbasis, "_split_common_factor", counted_split)
        monkeypatch.setattr(stdbasis, "_monomial_split", counted_monomial)
        monkeypatch.setattr(stdbasis, "_capped_std", counted_capped)
        stdbasis._standard_basis_cached.cache_clear()
        yield calls
        stdbasis._standard_basis_cached.cache_clear()

    def test_capped_route_matches_oracle(self, routes):
        rng = random.Random(314159)
        checked = 0
        for _ in range(40):
            gens = [rand_poly(rng) for _ in range(rng.randint(2, 3))]
            got = colength(Ideal(tuple(gens)))
            expect = oracle_colength(gens, nmax=20, prime=PRIMES[0])
            if expect is None:
                continue
            if got != expect:
                expect = oracle_colength(gens, nmax=20, prime=PRIMES[1])
            assert got == expect, gens
            checked += 1
        assert checked >= 15
        assert routes["capped"] > 0

    def test_split_route_matches_oracle(self, routes):
        # (h*a, h*b) has infinite colength; its staircase is checked degree
        # by degree: dim O/(I + m^n) counts the monomials below degree n
        # outside the leading ideal
        rng = random.Random(2024)
        for _ in range(15):
            h, a, b = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            gens = [h * a, h * b]
            ideal = Ideal(tuple(gens))
            assert colength(ideal) is INFINITE
            assert oracle_colength(gens, nmax=12) is None
            lms = leading_ideal(ideal)
            for n in (4, 8, 11):
                assert dim_below(lms, n) == quotient_dim_modp(gens, n, PRIMES[0])
        assert routes["split"] >= 15

    def test_mk_plus_f_closed_form(self, routes):
        # the redundant generator (1+x)*f gives the s-polynomial x*f, of
        # order m+1 below the truncation degree k, so the zero budget forces
        # capped elimination
        rng = random.Random(77)
        for _ in range(20):
            f = rand_poly(rng)
            m = f.multiplicity()
            for k in range(m + 2, m + 5):
                ideal = Ideal.of(f, (Poly.one() + X) * f) + maximal_ideal_power(k)
                before = routes["capped"]
                assert colength(ideal) == dim_mk_plus_f_closed(m, k)
                assert routes["capped"] > before

    def test_capped_route_matches_milnor_k_closed(self, routes):
        for f, mu, m in _family():
            for k in range(6):
                assert milnor_k(f, k) == milnor_k_closed(mu, m, k), (f, k)
        assert routes["capped"] > 0 and routes["split"] == 0

    def test_capped_route_matches_reduced_singularities(self, routes):
        # normal forms of a non-degenerate singularity and of saddle-nodes of
        # index l, with separatrices xy, pulled back by the shear y -> y + x:
        # the normal forms are already standard bases, the sheared ones are not
        def shear(p):
            return sum(
                (Poly.term((a, 0), c) * (Y + X) ** b for (a, b), c in p.terms), Poly.zero()
            )

        cases = [(3 * Y - X * Y, 2 * X + X * Y, ReducedSingularityKind.non_degenerate())]
        for ell in (1, 2, 3):
            cases.append((-Y - X**ell * Y, X ** (ell + 1), ReducedSingularityKind.saddle_node(ell)))
        separatrices = curve(shear(X * Y))
        for p, q, kind in cases:
            # P dx + Q dy pulls back to (P' + Q') dx + Q' dy
            fol = Foliation(shear(p) + shear(q), shear(q))
            for k in range(5):
                # a basis seeded from the one for k - 1 can already be a
                # standard basis, which the zero budget does not send anywhere
                stdbasis._standard_basis_cached.cache_clear()
                before = routes["capped"]
                got = (foliation_milnor_k(fol, k), foliation_tjurina_k(fol, separatrices, k))
                assert got == reduced_singularity_invariants(kind, k), (kind, k)
                assert routes["capped"] > before

    def test_zero_budget_sweep(self, routes, monkeypatch):
        # a sweep of basis requests over k seeds each basis from the one for
        # k - 1, and the zero budget sends every seeded set that needs a
        # reduction to capped elimination; the seeded steps of mu^k and tau^k
        # are counted apart
        seeded = {"mu": 0, "tau": 0}
        check = stdbasis._check_step

        def counted(prev, sb, gens, k, plus):
            seeded[invariant] += 1
            return check(prev, sb, gens, k, plus)

        monkeypatch.setattr(stdbasis, "_check_step", counted)
        cached = stdbasis._standard_basis_cached
        for f, mu, m in _family():
            jac = Ideal.of(f.partial_x(), f.partial_y())
            J, P = stdbasis._pack(jac), stdbasis._pack(Ideal.of(f))
            for k in range(7):
                invariant = "mu"
                assert milnor_k(f, k) == milnor_k_closed(mu, m, k), (f, k)
                invariant = "tau"
                tau = stdbasis._dim(cached(J, k, P))
                assert tjurina_k(f, k) == tau, (f, k)
                if k <= 3:
                    gens = list((jac * maximal_ideal_power(k) + Ideal.of(f)).generators)
                    assert tau == oracle_colength(gens, nmax=20), (f, k)
        assert seeded["mu"] == 6 * len(FAMILY)
        assert seeded["tau"] == 6 * len(FAMILY)
        assert routes["capped"] > 0 and routes["split"] == 0

    def test_membership_through_a_unit_factor(self, routes):
        # the gcd (x + y^2)(1+x) of the generators does not divide
        # (x + y^2)*y^2, but its part vanishing at the origin does: 1+x is a
        # unit.  The factor is not a monomial, so the basis Mora finishes
        # splits its own elements for membership
        c = X + Y**2
        g = c * (Poly.one() + X)
        ideal = Ideal.of(g * X**2, g * Y**2, g * X * Y)
        assert contains(ideal, c * Y**2) is True
        assert contains(ideal, c * X * Y * (Poly.one() + Y)) is True
        assert contains(ideal, c * Y) is False
        assert contains(ideal, Y**3) is False
        assert routes["membership"] == 1

    def test_routes_import_nothing(self, routes, monkeypatch):
        # neither route has a lazy import, of a computer-algebra system or
        # anything else: every import not already loaded is refused
        class Refuse(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                raise ImportError(f"import of {name} in a fallback route")

        monkeypatch.setattr(sys, "meta_path", [Refuse(), *sys.meta_path])
        loaded = set(sys.modules)
        # a shared factor that is not a monomial, which the exact gcd splits
        c = X + Y**2
        g = c * (Poly.one() + X)
        assert colength(Ideal.of(g * F_RUN, g * G_RUN)) is INFINITE
        assert contains(Ideal.of(g * F_RUN, g * G_RUN), c * (Y**3 - X**4)) is True
        assert colength(Ideal.of(F_RUN, (Poly.one() + Y) * F_RUN, G_RUN)) == 20
        assert routes["split"] > 0 and routes["capped"] > 0
        assert set(sys.modules) == loaded


# the shared-factor ideal h*(a, b) of the membership measurements in CHANGES.md
H_SWELL = 3 * X * Y - 2 * X**2 * Y - 2 * Y**4 - X**5
A_SWELL = -2 * X - 3 * Y + X**2 * Y**2
B_SWELL = X - 3 * Y + X * Y**2 + 3 * Y**3


# Lemma-3.1 ideals (g*P, g*Q)*m^3 + (f) of perfbench's `fallback` workload,
# seed 1, pass 0, whose generators share no factor.  A Mora run on either
# passes the swell mark.  Cap 8 settles the first, colength 7, whose walk
# went on to the coefficient limit before the run tried small caps; the
# second, colength 23, needs cap 16, and Mora finishes it.
SWELL_CAP_8 = Ideal.of(
    3 * X * Y + X**4 - X**3 * Y - 2 * X**5, 2 * X + 3 * X**2 - 3 * X * Y**3
) * maximal_ideal_power(3) + Ideal.of(2 * X - 3 * X**2 * Y**2 + 2 * Y**4)
SWELL_CAP_16 = Ideal.of(
    9 * X**3 * Y + 3 * X**2 * Y**2 + 9 * X**4 * Y + 3 * X**3 * Y**2 - 6 * X**3 * Y**3
    - 6 * X**7 - 2 * X**6 * Y - 6 * X**4 * Y**3 + 4 * X**7 * Y**2,
    3 * X**3 * Y + 9 * X**4 * Y + 15 * X**5 * Y - 2 * X**7 + 9 * X**6 * Y - 4 * X**8 - 6 * X**9,
) * maximal_ideal_power(3) + Ideal.of(2 * X**2 * Y + 2 * X * Y**2 + X**4 - 2 * Y**5)


def _counted_caps(monkeypatch) -> list:
    """Record (cap, accepted) of every capped elimination from now on."""
    calls = []
    capped = stdbasis._capped_std

    def counted(gens, cap):
        out = capped(gens, cap)
        calls.append((cap, out is not None))
        return out

    monkeypatch.setattr(stdbasis, "_capped_std", counted)
    return calls


class TestRouteChoice:
    """A Mora run on shared-factor generators stops at the first sign of swell
    and takes the split; a run without a shared factor tries two small caps
    of capped elimination there and otherwise goes on, and if it still gives
    up, capped elimination runs, with a bounded cap."""

    def test_certificate_refuses_shared_factors(self):
        rng = random.Random(1010)
        hs = [rand_poly(rng) for _ in range(20)]
        hs += [Y + 2 * Y**2 - Y**3, X - 3 * X**4, Y, X * Y, Y**2]
        for h in hs:
            assert h.multiplicity() >= 1
            for n in (1, 2, 3):
                gens = [(h * rand_poly(rng)).prim for _ in range(n)]
                assert not stdbasis._coprime(gens), (h, gens)

    def test_certificate_skips_a_vanishing_leading_coefficient(self):
        # h = (y - r)x + y drops to the constant r at y = r, so the
        # specialisations at r share nothing: r is not used, and the next
        # point sees the factor.  When every point is a root of the leading
        # coefficient, no point is used
        a, b = Poly.one() + X + 2 * Y**2, X - Y + X * Y
        first = Y - Poly.constant(stdbasis._POINTS[0])
        every = Poly.one()
        for r in stdbasis._POINTS:
            every = every * (Y - Poly.constant(r))
        for lc in (first, every):
            h = lc * X + Y
            assert not stdbasis._coprime_in([(h * a).prim, (h * b).prim], 0)

    def test_certificate_agrees_with_the_exact_gcd(self):
        rng = random.Random(2020)
        accepted = 0
        for _ in range(60):
            gens = [rand_poly(rng) + Poly.constant(rng.choice([0, 0, 1])) for _ in range(2)]
            g = stdbasis._gcd(*(p.prim for p in gens))
            if stdbasis._coprime([p.prim for p in gens]):
                assert [code for code, _ in g] == [0], gens
                accepted += 1
            else:
                assert [code for code, _ in g] != [0], gens
        assert accepted >= 40
        assert stdbasis._coprime([F_RUN.prim, G_RUN.prim])

    def test_unit_common_factor_stays_on_mora(self, monkeypatch):
        # 1 + x is a common factor that the certificate sees; the exact gcd
        # finds it does not vanish at the origin, and the run goes on
        asked = []
        split = stdbasis._split_common_factor

        def counted(gens):
            out = split(gens)
            asked.append(out)
            return out

        monkeypatch.setattr(stdbasis, "_split_common_factor", counted)
        monkeypatch.setattr(stdbasis, "_SWELL_BITS", 0)
        u = Poly.one() + X
        gens = [(u * F_RUN).prim, (u * G_RUN).prim]
        assert not stdbasis._coprime(gens)
        basis, reason = stdbasis._std(gens)
        assert asked == [None] and reason is None
        assert stdbasis._dim(stdbasis.StandardBasis(tuple(map(tuple, basis)))) == 20

    @pytest.mark.parametrize("k, parent_steps", [(2, 205), (8, 295), (32, 751)])
    def test_swelling_run_ends_on_the_split(self, monkeypatch, k, parent_steps):
        # the run on h*(a, b)*m^k took parent_steps reduction steps when
        # it stopped at the coefficient limit; it now stops at the swell mark
        steps = []
        reduce_step = stdbasis._reduce_step

        def counted(h, g):
            out = reduce_step(h, g)
            steps.append(max(h[0][1].bit_length(), out[0][1].bit_length() if out else 0))
            return out

        monkeypatch.setattr(stdbasis, "_reduce_step", counted)
        gens = ideal_product(Ideal.of(H_SWELL * A_SWELL, H_SWELL * B_SWELL), maximal_ideal_power(k))
        basis, reason = stdbasis._std([g.prim for g in gens.generators])
        assert basis is None and reason is not stdbasis._SWELL
        g, cofactors = reason
        assert g == list(H_SWELL.prim) and len(cofactors) == 2 * (k + 1)
        assert len(steps) < parent_steps
        assert max(steps) < stdbasis._COEFF_BIT_LIMIT

    def test_colength_bound_holds(self):
        rng = random.Random(3030)
        checked = 0
        for _ in range(40):
            gens = [rand_poly(rng) for _ in range(rng.randint(2, 3))]
            c = colength(Ideal(tuple(gens)))
            if c is INFINITE:
                continue
            bound = stdbasis._colength_bound(tuple(g.prim for g in gens))
            assert c <= bound, gens
            checked += 1
        assert checked >= 15

    def test_cap_doubling_is_bounded(self, monkeypatch):
        # capped elimination accepts every cap above the colength; one that
        # refuses a cap past the Bezout bound is wrong, and raises
        caps = []

        def refusing(gens, cap):
            caps.append(cap)
            assert len(caps) < 10, "unbounded cap doubling"
            return None

        monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 0)
        monkeypatch.setattr(stdbasis, "_capped_std", refusing)
        gens = (F_RUN, (Poly.one() + Y) * F_RUN, G_RUN)
        bound = stdbasis._colength_bound(tuple(g.prim for g in gens))
        assert bound == 4 * 8
        stdbasis._standard_basis_cached.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="colength bound"):
                colength(Ideal(gens))
        finally:
            stdbasis._standard_basis_cached.cache_clear()
        assert caps == [4, 8, 16, 32, 33]

    def test_swell_run_ends_at_the_mark_on_a_small_cap(self, monkeypatch):
        # no shared factor at the mark, and cap 8 is accepted there: the run
        # ends with that basis and no walk comes near the coefficient limit.
        # With the mark moved to the limit the walk gives up there instead,
        # and the doubling from cap 4 gives the same staircase
        calls = _counted_caps(monkeypatch)
        bits = []
        reduce_step = stdbasis._reduce_step

        def measured(h, g):
            out = reduce_step(h, g)
            bits.append(max(h[0][1].bit_length(), out[0][1].bit_length() if out else 0))
            return out

        monkeypatch.setattr(stdbasis, "_reduce_step", measured)
        packed = tuple(g.prim for g in SWELL_CAP_8.generators)
        basis, reason = stdbasis._std(packed)
        assert basis is not None and reason is None
        assert calls == [(4, False), (8, True)]
        assert max(bits) < stdbasis._COEFF_BIT_LIMIT
        early = stdbasis._standard_basis_from_gens(packed)

        monkeypatch.setattr(stdbasis, "_SWELL_BITS", stdbasis._COEFF_BIT_LIMIT)
        calls.clear()
        bits.clear()
        assert stdbasis._std(packed) == (None, stdbasis._SWELL)
        assert max(bits) > stdbasis._COEFF_BIT_LIMIT and calls == []
        late = stdbasis._standard_basis_from_gens(packed)
        assert calls == [(4, False), (8, True)]
        assert early.leading_monomials == late.leading_monomials
        gens = list(SWELL_CAP_8.generators)
        assert stdbasis._dim(early) == stdbasis._dim(late) == oracle_colength(gens, nmax=12) == 7

    def test_an_input_that_needs_cap_16_ends_on_mora(self, monkeypatch):
        calls = _counted_caps(monkeypatch)
        packed = tuple(g.prim for g in SWELL_CAP_16.generators)
        basis, reason = stdbasis._std(packed)
        assert basis is not None and reason is None
        assert calls == [(4, False), (8, False)]
        assert stdbasis._capped_std(packed, 16) is not None
        sb = StandardBasis(tuple(map(tuple, basis)))
        gens = list(SWELL_CAP_16.generators)
        assert stdbasis._dim(sb) == oracle_colength(gens, nmax=25) == 23

    def test_small_caps_are_tried_once_per_run(self, monkeypatch):
        # with the mark at 0 bits every walk without a truncation degree
        # reaches it; the run tries the small caps at the first mark only
        calls = _counted_caps(monkeypatch)
        marks = []
        mora_nf = stdbasis._mora_nf

        def counted(h, basis, trunc=None, budget=None, swelling=None):
            if swelling is not None:
                inner = swelling

                def swelling():
                    marks.append(len(calls))
                    return inner()

            return mora_nf(h, basis, trunc, budget, swelling)

        monkeypatch.setattr(stdbasis, "_mora_nf", counted)
        monkeypatch.setattr(stdbasis, "_SWELL_BITS", 0)
        packed = tuple(g.prim for g in SWELL_CAP_16.generators)
        basis, reason = stdbasis._std(packed)
        assert reason is None and len(marks) >= 3
        assert marks[0] == 0 and set(marks[1:]) == {2}
        assert calls == [(4, False), (8, False)]
        assert stdbasis._dim(StandardBasis(tuple(map(tuple, basis)))) == 23

    def test_non_member_by_a_vanishing_cofactor_takes_no_walk(self, monkeypatch):
        # h*(a, b) against x^4 y^6: h vanishes at the origin and shares
        # nothing with f, so g/d = h is no unit and contains answers False
        # before any normal form
        standard_basis(NON_MEMBER_IDEAL)

        def refuse(*args, **kwargs):
            raise AssertionError("walk")

        monkeypatch.setattr(stdbasis, "_mora_nf", refuse)
        assert contains(NON_MEMBER_IDEAL, X**4 * Y**6) is False

    def test_membership_reads_the_split_kept_on_the_basis(self, monkeypatch):
        # Mora gives up on h*(a, b) and the split route builds its basis;
        # the first membership question splits that basis's elements into
        # (h, basis of (a, b)), and the basis keeps the split, so the other
        # ten questions never split again
        stdbasis._standard_basis_cached.cache_clear()
        try:
            assert "_factor" not in vars(standard_basis(NON_MEMBER_IDEAL))
            split, splits = stdbasis._split_common_factor, []

            def counted(gens):
                splits.append(gens)
                return split(gens)

            monkeypatch.setattr(stdbasis, "_split_common_factor", counted)
            h, a, b = H_APART, A_APART, B_APART
            cofactors = [
                (Poly.one(), Poly.zero()),
                (Poly.one() + X, Y),
                (Poly.constant(3) + X * Y, Poly.one() - Y**2),
            ]
            for u, v in cofactors:
                assert contains(NON_MEMBER_IDEAL, h * (u * a + v * b)) is True, (u, v)
            assert contains(NON_MEMBER_IDEAL, h * Y**3) is True
            outside = [X**4 * Y**6, h, h * X, h * X**2, h * h, Y**2, h * (a + X * b) + X**9]
            for f in outside:
                assert contains(NON_MEMBER_IDEAL, f) is False, f
            assert len(splits) == 1
        finally:
            stdbasis._standard_basis_cached.cache_clear()

    def test_membership_walks_are_truncated(self, monkeypatch):
        # contains decides a shared-factor ideal by dividing out the factor:
        # h*(a, b) against x^4 y^6, where h is no unit and shares nothing
        # with f, needs no walk, and the ideal with the factor x(1+x) walks
        # against the basis of the zero-dimensional cofactor ideal
        truncs = []
        mora_nf = stdbasis._mora_nf

        def counted(h, basis, trunc=None, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "contains":
                truncs.append(trunc)
            return mora_nf(h, basis, trunc, *args, **kwargs)

        monkeypatch.setattr(stdbasis, "_mora_nf", counted)
        g = X * (Poly.one() + X)
        ideal = Ideal.of(g * X**2, g * Y**2, g * X * Y)
        cases = [
            (NON_MEMBER_IDEAL, X**4 * Y**6, False),
            (ideal, X * Y**2, True),
            (ideal, X**2 * Y * (Poly.one() + Y), True),
            (ideal, X * Y, False),
            (ideal, Y**3, False),
        ]
        for member_of, f, expect in cases:
            assert contains(member_of, f) is expect, f
        assert truncs and None not in truncs


def test_gcd_of_products():
    rng = random.Random(99)
    cases = []
    for _ in range(60):
        h = rand_poly(rng) + Poly.constant(rng.choice([0, 0, 1, -2]))
        a, b = rand_poly(rng), rand_poly(rng) + Poly.constant(rng.choice([0, 3]))
        cases.append((h, a, b))
    # a shared factor whose content in x, y*(1 + 2y), lies in Z[y]
    cases.append((Y * (Poly.one() + 2 * Y) * (X - Y), X + Y**2, Poly.one() + X * Y))
    for h, a, b in cases:
        p, q = (h * a).prim, (h * b).prim
        g = stdbasis._gcd(p, q)
        assert stdbasis._quo(g, h.prim) is not None
        assert _product(stdbasis._quo(p, g), g) == p
        assert _product(stdbasis._quo(q, g), g) == q
        # p is primitive, so 2*g does not divide it
        assert stdbasis._quo(p, [(code, 2 * c) for code, c in g]) is None


def test_split_matches_the_gcd_of_all_generators():
    # the split reads the generators shortest first and skips the gcd with
    # a generator that the gcd so far divides; it gives the factor and the
    # cofactors of the gcd of all generators, in the order given
    rng = random.Random(515)
    found = 0
    for _ in range(60):
        h = rand_poly(rng) + Poly.constant(rng.choice([0, 0, 0, 1]))
        gens = [h * rand_poly(rng) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            gens.append(h * h)
        prims = [p.prim for p in gens]
        g = reduce(stdbasis._gcd, prims)
        split = stdbasis._split_common_factor(tuple(prims))
        if g[0][0] == 0:
            assert split is None
            continue
        found += 1
        expect = list(_strip(g))
        assert split == (expect, tuple(tuple(_strip(stdbasis._quo(t, g))) for t in prims))
    assert found >= 30


class TestLeadingIdeal:
    def test_cusp_jacobian(self):
        j = Ideal.of(F_RUN.partial_x(), F_RUN.partial_y())
        assert set(leading_ideal(j)) == {(3, 0), (0, 2)}

    def test_infinite_flag_matches_pure_powers(self):
        rng = random.Random(5)
        for _ in range(20):
            gens = [rand_poly(rng) for _ in range(rng.randint(1, 2))]
            ideal = Ideal(tuple(gens))
            lms = leading_ideal(ideal)
            has_x = any(m[1] == 0 for m in lms)
            has_y = any(m[0] == 0 for m in lms)
            assert is_finite(colength(ideal)) == (has_x and has_y)


class TestIdealType:
    def test_zero_generators_dropped(self):
        ideal = Ideal.of(Poly.zero(), X, Poly.zero())
        assert ideal.generators == (X,)

    def test_zero_ideal(self):
        assert Ideal.of(Poly.zero()).generators == ()
        assert Ideal.of(X).generators == (X,)

    def test_operators(self):
        s = Ideal.of(X) + Ideal.of(Y)
        assert set(s.generators) == {X, Y}
        p = Ideal.of(X, Y) * Ideal.of(X)
        assert set(p.generators) == {X**2, X * Y}

    def test_repr(self):
        assert repr(Ideal.of(X, Y)) == "Ideal(x, y)"

    def test_value_semantics(self):
        one, two = Ideal.of(X, Y), Ideal.of(X, Poly.zero(), Y)
        assert one is not two and one == two and hash(one) == hash(two)
        assert one != Ideal.of(X) and one != (X, Y)
        with pytest.raises(AttributeError):
            one.generators = (X,)
        with pytest.raises(AttributeError):
            del one.generators
        assert one.generators == (X, Y)


class TestStandardBasisType:
    def test_value_semantics(self):
        ideal = Ideal.of(X**2 - Y**3, X * Y)
        one, two = standard_basis(ideal), StandardBasis(standard_basis(ideal).packed)
        assert one is not two and one == two and hash(one) == hash(two)
        assert one != StandardBasis(())
        with pytest.raises(AttributeError):
            one.packed = ()
        assert copy.copy(one) == one == pickle.loads(pickle.dumps(one))

    def test_cached_properties(self):
        sb = StandardBasis(standard_basis(Ideal.of(X**2, Y**3)).packed)
        assert vars(sb) == {"packed": sb.packed}
        assert sb.elements == (Y**3, X**2)
        assert sb.leading_monomials == ((0, 3), (2, 0))
        assert sb._staircase == (4, 6) and sb._factor is None
        cached = {"elements", "leading_monomials", "_staircase", "_factor"}
        assert set(vars(sb)) == {"packed"} | cached
        assert sb == StandardBasis(sb.packed)  # the cache is not part of the value

    def test_split_route_presets_the_factor(self, monkeypatch):
        # with no Mora budget, a shared factor g sends the run to the split
        # route, which keeps no split on the basis: its first use splits the
        # basis's own elements into (g, basis of the cofactor ideal)
        monkeypatch.setattr(stdbasis, "_NF_STEP_BUDGET", 0)
        stdbasis._standard_basis_cached.cache_clear()
        try:
            g = X + Y + X * Y
            ideal = Ideal.of(g * (X**2 - Y**3), g * (X * Y + Y**4), g * X**3)
            sb = standard_basis(ideal)
            assert "_factor" not in vars(sb)
            h, inner = sb._factor
            assert stdbasis._to_poly(h) == g
            assert stdbasis._dim(inner) == 5
            assert contains(ideal, g * X**3) and not contains(ideal, X**3)
        finally:
            stdbasis._standard_basis_cached.cache_clear()


def test_infinite_is_one_value():
    # pickle and copy hand back the module's INFINITE, so `is` tests hold
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INFINITE, protocol=protocol)) is INFINITE
    assert copy.copy(INFINITE) is INFINITE
    assert copy.deepcopy(INFINITE) is INFINITE
    assert repr(INFINITE) == "infinite"
