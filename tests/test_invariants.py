"""Invariants layer: frozen values, closed forms, preconditions, checks."""

import copy
import pickle
import re
import time
from fractions import Fraction
from math import gcd

import pytest

from folinv import invariants, stdbasis
from folinv.ring import Poly, X, Y
from folinv.stdbasis import INFINITE, Ideal, colength, maximal_ideal_power
from folinv.invariants import (
    CurveGerm,
    Foliation,
    PreconditionError,
    ReducedSingularityKind,
    WeightData,
    check_conjecture1,
    curve,
    dim_mk_plus_f_closed,
    ell_k,
    foliation_milnor_k,
    foliation_tjurina_k,
    gsv_index,
    gsv_theorem_check,
    hamiltonian,
    intersection_number,
    is_invariant,
    is_quasihomogeneous_foliation,
    jacobian_ideal,
    milnor_bound_check,
    milnor_k,
    milnor_k_closed,
    polar_gsv_check,
    polar_intersection_k,
    quasihomogeneous_identity_check,
    ratio_check,
    reduced_singularity_invariants,
    second_type_milnor_check,
    teissier_k_check,
    tjurina_k,
    weighted_homogeneous_weights,
)

F_RUN = X**4 - Y**3
G_RUN = Y**5 - X**7 + X**4 * Y**4
F_TOP = Y**3 - X**7
G_TOP = Y**3 - X**7 + X**5 * Y
F_CEX = X**5 + Y**5 + X**3 * Y**3
NODE = X**2 + Y**2

COL1 = [20, 22, 26, 32, 39, 47, 56, 66, 77, 89, 102]
COL3 = [0, 1, 3, 6, 9, 12, 15, 18, 21, 24, 27]


class TestCurveAndFoliationTypes:
    def test_curve_validation(self):
        c = curve(F_RUN)
        assert c.multiplicity == 3
        with pytest.raises(PreconditionError):
            CurveGerm(Poly.zero())
        with pytest.raises(PreconditionError):
            CurveGerm(X + Poly.one())  # does not pass through the origin

    def test_values_pickle_and_copy(self):
        # a Poly is immutable, so each copy is rebuilt from its terms
        fol = Foliation(4 * X * Y, Y - Fraction(2, 3) * X**2)
        for value in (X + Y, Poly.zero(), Ideal.of(F_RUN, X * Y), curve(F_RUN), fol):
            for copied in (
                pickle.loads(pickle.dumps(value)),
                copy.copy(value),
                copy.deepcopy(value),
            ):
                assert copied == value and hash(copied) == hash(value)
                assert type(copied) is type(value)

    def test_foliation_validation(self):
        fol = Foliation(4 * X * Y, Y - 2 * X**2)
        assert fol.multiplicity == 1
        with pytest.raises(PreconditionError):
            Foliation(Poly.zero(), Poly.zero())
        with pytest.raises(PreconditionError):
            Foliation(X * Y, X * Y**2)  # common factor through the origin

    def test_hamiltonian(self):
        fol = hamiltonian(F_RUN)
        assert fol.P == 4 * X**3
        assert fol.Q == -3 * Y**2

    def test_reduced_singularity_kind(self):
        nd = ReducedSingularityKind.non_degenerate()
        sn = ReducedSingularityKind.saddle_node(2)
        assert nd.saddle_node_index is None
        assert sn.saddle_node_index == 2
        with pytest.raises(PreconditionError):
            ReducedSingularityKind.saddle_node(0)
        assert repr(sn) == "ReducedSingularityKind(saddle_node_index=2)"
        assert repr(curve(X * Y)) == "CurveGerm(f=Poly(x*y))"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CurveGerm(F_RUN),
            lambda: Foliation(4 * X**3, -3 * Y**2),
            lambda: ReducedSingularityKind(2),
            lambda: WeightData(Fraction(1, 4), Fraction(1, 3), Fraction(1)),
        ],
        ids=["CurveGerm", "Foliation", "ReducedSingularityKind", "WeightData"],
    )
    def test_value_semantics(self, make):
        one, two = make(), make()
        assert one is not two and one == two and hash(one) == hash(two)
        name = one._fields[0]
        with pytest.raises(AttributeError):
            setattr(one, name, None)
        assert getattr(one, name) == getattr(two, name)

    def test_values_differ_by_field(self):
        assert CurveGerm(F_RUN) != CurveGerm(NODE)
        assert Foliation(X, Y) != Foliation(Y, X)
        assert ReducedSingularityKind(1) != ReducedSingularityKind.non_degenerate()
        assert CurveGerm(X) != Ideal.of(X)

    def test_equal_pairs_share_one_invariance_check(self):
        # registry rows build equal but distinct foliations and curves;
        # value equality makes the second pair a hit of is_invariant's cache
        is_invariant.cache_clear()
        assert is_invariant(hamiltonian(F_RUN), curve(F_RUN))
        assert is_invariant(hamiltonian(F_RUN), curve(F_RUN))
        assert is_invariant.cache_info()[:2] == (1, 1)  # hits, misses


# One-field and two-field values, with and without kept forms.
KEPT_VALUES = [
    lambda: Ideal.of(F_RUN, X * Y),
    lambda: curve(F_RUN),
    lambda: Foliation(4 * X * Y, Y - Fraction(2, 3) * X**2),
    lambda: ReducedSingularityKind(2),
]
KEPT_IDS = ["Ideal", "CurveGerm", "Foliation", "ReducedSingularityKind"]


def _kept(value) -> list:
    """The slots of a value that keep forms made from its fields."""
    return [name for name in type(value).__slots__ if name not in value._fields]


@pytest.mark.parametrize("make", KEPT_VALUES, ids=KEPT_IDS)
class TestKeptForms:
    def test_kept_forms_never_reach_the_value(self, make):
        one, two = make(), make()
        for name in _kept(two):
            object.__setattr__(two, name, None)
        assert one == two and hash(one) == hash(two) and repr(one) == repr(two)
        assert one.__reduce__() == two.__reduce__()
        for copied in (
            pickle.loads(pickle.dumps(two)),
            copy.copy(two),
            copy.deepcopy(two),
        ):
            assert copied == one and type(copied) is type(one)
            for name in _kept(one):  # each copy builds its own
                assert getattr(copied, name) == getattr(one, name)

    def test_no_attribute_can_be_set_or_deleted(self, make):
        value = make()
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_a_warm_sweep_builds_nothing(monkeypatch):
    # along a sweep over k, a second pass is all cache hits: it computes no
    # basis, and tau^k(F, C) builds no ideal but hands colength the ideals
    # that F and C keep
    f = X**5 - Y**7 + 2 * X**2 * Y**3
    F, C = hamiltonian(f), curve(f)
    cached = stdbasis._standard_basis_cached
    cached.cache_clear()
    try:
        cold = [
            (milnor_k(f, k), tjurina_k(f, k), foliation_tjurina_k(F, C, k))
            for k in range(13)
        ]
        misses = cached.cache_info().misses
        built, handed = [], []
        init, entry = Ideal.__init__, invariants.colength

        def counted_init(self, *args):
            built.append(self)
            init(self, *args)

        def handed_on(ideal, k=0, plus=None):
            handed.append((ideal, plus))
            return entry(ideal, k, plus)

        monkeypatch.setattr(Ideal, "__init__", counted_init)
        monkeypatch.setattr(invariants, "colength", handed_on)
        for k in range(13):
            assert (milnor_k(f, k), tjurina_k(f, k)) == cold[k][:2]
            before = len(built)
            assert foliation_tjurina_k(F, C, k) == cold[k][2]
            assert len(built) == before
            assert handed[-1][0] is F._ideal and handed[-1][1] is C._ideal
        assert cached.cache_info().misses == misses
    finally:
        cached.cache_clear()


class TestCurveInvariants:
    def test_milnor_examples(self):
        assert milnor_k(F_RUN, 0) == 6
        assert milnor_k(F_RUN, 2) == 12
        assert milnor_k(F_CEX, 0) == 16
        assert milnor_k(F_CEX, 8) == 78
        assert milnor_k(NODE, 0) == 1
        assert milnor_k(NODE, 1) == 3
        assert milnor_k(NODE, 8) == 45

    def test_tjurina_examples(self):
        assert tjurina_k(F_TOP, 0) == 12
        assert tjurina_k(G_TOP, 0) == 11
        assert tjurina_k(F_TOP, 1) == 14
        assert tjurina_k(G_TOP, 1) == 13
        assert tjurina_k(F_CEX, 8) == 50
        assert tjurina_k(NODE, 8) == 17

    def test_smooth_curve(self):
        for k in range(5):
            assert tjurina_k(Y, k) == k
            assert milnor_k(Y, k) == (k * k + k) // 2  # m^k j(y) = m^k

    def test_zero_and_smooth_degenerations(self):
        # the engine answers the zero ideal; no invariant tests for it first
        for k in range(4):
            assert milnor_k(Poly.zero(), k) is INFINITE
            assert milnor_k(Poly.constant(5), k) is INFINITE  # jacobian is zero
            assert tjurina_k(Poly.zero(), k) is INFINITE
        assert intersection_number(Poly.zero(), Poly.zero()) is INFINITE
        # mu(0) is infinite, so the closed form of mu^k has no input
        with pytest.raises(PreconditionError):
            milnor_k_closed(milnor_k(Poly.zero(), 0), 1, 2)

    def test_jacobian_ideal(self):
        j = jacobian_ideal(F_RUN)
        assert set(j.generators) == {4 * X**3, -3 * Y**2}

    def test_intersection_number(self):
        assert intersection_number(F_RUN, G_RUN) == 20
        assert intersection_number(X, Y) == 1
        assert intersection_number(X, X + Y**4) == 4
        # tangential pair: i exceeds the product of multiplicities
        assert intersection_number(Y, Y - X**3) == 3

    def test_intersection_common_factor_infinite(self):
        assert intersection_number(X * Y, X * (Y + X)) is INFINITE


class TestSection3Table:
    def test_all_columns(self):
        ideal_fg = Ideal.of(F_RUN, G_RUN)
        for k in range(11):
            mk = maximal_ideal_power(k)
            assert colength(ideal_fg * mk) == COL1[k]
            assert colength(mk) == k * (k + 1) // 2
            assert colength(mk + Ideal.of(F_RUN)) == COL3[k]
        assert intersection_number(F_RUN, G_RUN) == 20


class TestFoliationInvariants:
    def test_example_8_1(self):
        fol = Foliation(4 * X * Y, Y - 2 * X**2)
        c = curve(Y)
        assert is_invariant(fol, c)
        assert gsv_index(fol, c) == 2
        for k in range(6):
            assert foliation_tjurina_k(fol, c, k) == k + 2
        assert gsv_theorem_check(fol, c, 5)

    def test_example_8_2_dulac(self):
        n = 3
        fol = Foliation(n * Y + X**n, -X)
        c = curve(X)
        assert gsv_index(fol, c) == 1
        for k in range(6):
            assert foliation_milnor_k(fol, k) == (k + 1) * (k + 2) // 2
            assert foliation_tjurina_k(fol, c, k) == k + 1
        assert gsv_theorem_check(fol, c, 5)

    def test_example_8_3_family(self):
        for n, m in [(2, 2), (3, 2), (5, 3), (7, 4)]:
            fol = Foliation(-n * Y, m * X)
            c = curve(Y**m - X**n)
            assert gsv_index(fol, c) == m + n - m * n
            assert gsv_theorem_check(fol, c, 5)

    def test_gsv_theorem_check_reports_a_mismatch(self, monkeypatch, capsys):
        # an index one off at every k makes the check false, and the check
        # verb prints false with exit code 1
        from folinv.cli import main

        index = invariants.gsv_index
        monkeypatch.setattr(invariants, "gsv_index", lambda F, C: index(F, C) + 1)
        assert gsv_theorem_check(Foliation(4 * X * Y, Y - 2 * X**2), curve(Y), 2) is False
        argv = "check gsv-theorem --P 4*x*y --Q y-2*x^2 --f y --k-max 2".split()
        assert main(argv) == 1
        assert capsys.readouterr() == ("false\n", "")

    def test_gsv_with_coordinate_axis_branches(self):
        # f_x = y and f_y = x are both branches of xy, so the first two
        # decompositions (f_y, Q) and (f_x, P) fail; (x + y, P + Q) does not
        axes = curve(X * Y)
        saddle = Foliation(3 * Y - X * Y, 2 * X + X * Y)
        for fol in (saddle, Foliation(Y, 2 * X)):
            assert gsv_index(fol, axes) == 0
        for k in range(4):
            assert foliation_tjurina_k(saddle, axes, k) == tjurina_k(X * Y, k)

    def test_non_invariant_curve_rejected(self):
        fol = Foliation(4 * X * Y, Y - 2 * X**2)
        with pytest.raises(PreconditionError):
            foliation_tjurina_k(fol, curve(X + Y), 0)

    def test_invariance_predicate(self):
        fol = Foliation(-3 * Y, 2 * X)
        assert is_invariant(fol, curve(Y**2 - X**3))
        assert not is_invariant(fol, curve(Y - X**2))

    def test_gsv_requires_reduced_curve(self):
        fol = Foliation(-2 * Y, 2 * X)
        with pytest.raises(PreconditionError):
            gsv_index(fol, curve(X**2))  # non-reduced: repeated factor


class TestPolar:
    def test_example_9_1(self):
        fol = hamiltonian(NODE)
        c = curve(NODE)
        for k in range(6):
            mu = (k + 1) * (k + 2) // 2
            assert polar_intersection_k(fol, c, k) == mu + 1

    def test_teissier_check(self):
        for f in (NODE, F_RUN, F_CEX):
            for k in range(7):
                assert teissier_k_check(f, k), (f, k)

    def test_generic_polar_is_chosen_once_per_pair(self, monkeypatch):
        # a sweep over k walks the directions once per distinct (F, C); the
        # values equal those of a cache cleared before every call
        walks = []
        polars = invariants._polars

        def counted(F):
            walks.append(F)
            return polars(F)

        fol, c = Foliation(-2 * Y, 3 * X), curve(Y**3 - X**2)
        pairs = [(hamiltonian(F_RUN), curve(F_RUN)), (fol, c), (hamiltonian(c.f), c)]

        def cold(call, *args):
            invariants._generic_polar.cache_clear()
            return call(*args)

        want_teissier = [cold(teissier_k_check, F_RUN, k) for k in range(7)]
        want_gsv = cold(polar_gsv_check, fol, c, 3)
        want_values = [cold(polar_intersection_k, F, C, k) for F, C in pairs for k in range(7)]
        monkeypatch.setattr(invariants, "_polars", counted)
        invariants._generic_polar.cache_clear()
        try:
            assert [teissier_k_check(F_RUN, k) for k in range(7)] == want_teissier
            assert len(walks) == 1
            assert polar_gsv_check(fol, c, 3) == want_gsv
            assert len(walks) == 3
            values = [polar_intersection_k(F, C, k) for F, C in pairs for k in range(7)]
            assert values == want_values
            assert len(walks) == 3
        finally:
            invariants._generic_polar.cache_clear()
        assert all(want_teissier) and want_gsv

    def test_refusal_is_not_kept(self):
        # lru_cache keeps no exception: the refusal raises on every call
        fol, c = Foliation(2 * X, 2 * Y), curve(X**2 + Y**3)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="^the curve is not invariant"):
                polar_intersection_k(fol, c, 1)

    def test_more_samples_than_directions_refused_at_once(self):
        # nu(f) = 511 needs 512 directions, but (0:1) gives the polar 512y^511
        # of multiplicity 511 > nu(F) = 510, so only 511 directions qualify
        f = X**511 + Y**512
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="only 511 of the 512"):
            polar_intersection_k(hamiltonian(f), curve(f), 0)
        assert time.perf_counter() - start < 0.1

    def test_direction_count_matches_the_box(self):
        directions = set()
        for a in range(-20, 21):
            for b in range(-20, 21):
                if a or b:
                    g = gcd(a, b)
                    if a < 0 or (a == 0 and b < 0):
                        g = -g
                    directions.add((a // g, b // g))
        assert invariants._DIRECTIONS == len(directions)
        assert len(invariants._BOX) == len(directions)
        assert set(invariants._BOX) == directions
        assert set(invariants._BOX[:4]) == {(0, 1), (1, 0), (1, 1), (1, -1)}

    def test_polars_through_a_branch_are_outvoted(self):
        # f = xy(x - y): the polars of (0:1), (1:0) and (1:1) are x(x - 2y),
        # y(2x - y) and x^2 - y^2, each through a branch of f, and a walk from
        # position 0 meets them among its first four directions
        f = X * Y * (X - Y)
        fol, c = hamiltonian(f), curve(f)
        for a, b in ((0, 1), (1, 0), (1, 1)):
            assert intersection_number(a * fol.P + b * fol.Q, f) is INFINITE
        values = [polar_intersection_k(fol, c, k) for k in range(4)]
        assert values == [6, 8, 12, 17]
        assert values == [milnor_k(f, k) + 3 - 1 for k in range(4)]

    @pytest.mark.parametrize(
        "fol, f",
        [
            # nu(f) = 1: the walk keeps two directions
            (Foliation(4 * X * Y, Y - 2 * X**2), Y),
            (hamiltonian(NODE), NODE),
            (hamiltonian(F_RUN), F_RUN),
            (hamiltonian(X * Y * (X - Y)), X * Y * (X - Y)),
            (hamiltonian(F_CEX), F_CEX),
        ],
    )
    def test_certified_polar_is_the_least(self, fol, f):
        # brute force over every direction of the box: i^0 is the least finite
        # i(p, f), and i^k agrees with every polar p that attains it
        c = curve(f)
        polars = [a * fol.P + b * fol.Q for a, b in invariants._BOX]
        polars = [
            p for p in polars if not p.is_zero and p.multiplicity() == fol.multiplicity
        ]
        i0 = [intersection_number(p, f) for p in polars]
        least = min(v for v in i0 if v is not INFINITE)
        assert polar_intersection_k(fol, c, 0) == least
        generic = [p for p, v in zip(polars, i0) if v == least]
        for k in (1, 2):
            value = polar_intersection_k(fol, c, k)
            assert all(colength(Ideal.of(p, f), k) == value for p in generic), k


class TestGsvPolarDifference:
    def test_example_8_1_true_difference(self):
        # polar difference along {y=0}: i^k grows, so the k-th differences
        # are (2,3,4,5), NOT constant; the hypotheses of the polar-GSV
        # identity fail for this pairing and the check reports that honestly.
        fol = Foliation(4 * X * Y, Y - 2 * X**2)
        c = curve(Y)
        diffs = [
            polar_intersection_k(fol, c, k)
            - polar_intersection_k(hamiltonian(Y), c, k)
            for k in range(4)
        ]
        assert diffs == [2, 3, 4, 5]
        assert not polar_gsv_check(fol, c, 3)

    def test_linear_family_difference_constant(self):
        fol = Foliation(-2 * Y, 3 * X)
        c = curve(Y**3 - X**2)
        assert gsv_index(fol, c) == -1
        diffs = [
            polar_intersection_k(fol, c, k)
            - polar_intersection_k(hamiltonian(Y**3 - X**2), c, k)
            for k in range(4)
        ]
        assert diffs == [-1, -1, -1, -1]
        assert polar_gsv_check(fol, c, 3)


class TestClosedForms:
    def test_milnor_k_closed_agreement(self):
        for f in (F_RUN, F_CEX, NODE, F_TOP):
            mu = milnor_k(f, 0)
            m = f.multiplicity()
            for k in range(11):
                assert milnor_k(f, k) == milnor_k_closed(mu, m, k), (f, k)

    def test_dim_mk_plus_f_closed(self):
        for k in range(11):
            assert dim_mk_plus_f_closed(3, k) == COL3[k]

    def test_prop_2_2(self):
        nd = ReducedSingularityKind.non_degenerate()
        for k in range(4):
            assert reduced_singularity_invariants(nd, k) == (
                (k + 1) * (k + 2) // 2,
                2 * k + 1,
            )
        for ell in (1, 2, 3):
            sn = ReducedSingularityKind.saddle_node(ell)
            for k in range(4):
                assert reduced_singularity_invariants(sn, k) == (
                    (k + 1) * (k + 2) // 2 + ell,
                    2 * k + 1 + ell,
                )
        assert reduced_singularity_invariants(
            ReducedSingularityKind.saddle_node(1), 0
        ) == (2, 2)

    def test_prop_2_2_engine_agreement(self):
        # normal-form representatives realize the closed forms
        nd = Foliation(3 * Y - X * Y, 2 * X + X * Y)
        c = curve(X * Y)
        for k in range(4):
            assert foliation_milnor_k(nd, k) == (k + 1) * (k + 2) // 2
            assert foliation_tjurina_k(nd, c, k) == 2 * k + 1
        for ell in (1, 2, 3):
            sn = Foliation(-Y - X**ell * Y, X ** (ell + 1))
            for k in range(4):
                assert foliation_milnor_k(sn, k) == (k + 1) * (k + 2) // 2 + ell
                assert foliation_tjurina_k(sn, c, k) == 2 * k + 1 + ell

    def test_ell_k(self):
        assert ell_k(3, 7, 1) == 14
        assert ell_k(3, 7, 1) == tjurina_k(F_TOP, 1)
        assert ell_k(2, 2, 8) == 17
        assert ell_k(2, 2, 0) == 1
        with pytest.raises(PreconditionError):
            ell_k(1, 5, 0)
        with pytest.raises(PreconditionError):
            ell_k(4, 3, 0)


class TestWeights:
    def test_cusp_weights(self):
        w = weighted_homogeneous_weights(F_RUN)
        assert w == WeightData(Fraction(1, 4), Fraction(1, 3), 1)

    def test_mixed_weights(self):
        w = weighted_homogeneous_weights(X**3 + X * Y**3)
        assert (w.w1, w.w2) == (Fraction(1, 3), Fraction(2, 9))

    def test_single_monomial_gets_the_symmetric_weights(self):
        w = weighted_homogeneous_weights(X**2 * Y**3)
        assert (w.w1, w.w2) == (Fraction(1, 5), Fraction(1, 5))

    def test_not_weighted_homogeneous(self):
        assert weighted_homogeneous_weights(G_TOP) is None
        assert weighted_homogeneous_weights(F_CEX) is None
        assert weighted_homogeneous_weights(Poly.one()) is None  # degree 0
        assert weighted_homogeneous_weights(X**2 + X**4) is None  # collinear
        # the first two monomials give (1/2, 1), which x*y^5 does not fit
        assert weighted_homogeneous_weights(X**2 - Y + X * Y**5) is None
        # y and x*y^3 give w1 = -2: no positive solution
        assert weighted_homogeneous_weights(Y + X * Y**3) is None


class TestChecks:
    def test_conjecture1(self):
        assert check_conjecture1(F_RUN, 2) == (11, 11, True)
        assert check_conjecture1(X**3 + X * Y**3, 2) == (12, 12, True)
        with pytest.raises(PreconditionError):
            check_conjecture1(G_TOP, 1)  # not weighted homogeneous

    def test_ratio(self):
        mu, tau, exceeds = ratio_check(F_CEX, 8)
        assert (mu, tau, exceeds) == (78, 50, True)
        assert Fraction(mu, tau) > Fraction(4, 3)
        mu, tau, exceeds = ratio_check(F_RUN, 2)
        assert (mu, tau) == (12, 11)
        assert not exceeds
        with pytest.raises(PreconditionError):
            ratio_check(X, 0)  # smooth germ: tau = 0

    def test_quasihomogeneous_membership(self):
        assert is_quasihomogeneous_foliation(
            hamiltonian(F_RUN), curve(F_RUN)
        )
        assert is_quasihomogeneous_foliation(
            Foliation(3 * Y + X**3, -X), curve(X)
        )
        assert not is_quasihomogeneous_foliation(
            hamiltonian(G_TOP), curve(G_TOP)
        )

    def test_qh_identity(self):
        fol = Foliation(-3 * Y, 2 * X)
        c = curve(Y**2 - X**3)
        for k in range(1, 6):
            mu, tau, holds = quasihomogeneous_identity_check(fol, c, k)
            assert holds
            assert mu == tau + k * (k - 1) // 2
        with pytest.raises(PreconditionError):
            quasihomogeneous_identity_check(fol, c, 0)
        with pytest.raises(PreconditionError):
            quasihomogeneous_identity_check(
                hamiltonian(G_TOP), curve(G_TOP), 1
            )  # f not in (P, Q)

    def test_bound(self):
        fol = hamiltonian(NODE)
        b0 = curve(NODE)
        lhs, mid, rhs, holds = milnor_bound_check(fol, b0, 1)
        assert (lhs, mid, rhs, holds) == (3, 3, 7, True)
        for k in range(6):
            assert milnor_bound_check(fol, b0, k)[3]

    def test_second_type(self):
        assert second_type_milnor_check(
            Foliation(-3 * Y, 2 * X), curve(Y**2 - X**3), 4
        )
        # mu^k(F) - mu^k(xy) over k = 0..3 is 3, 3, 4, 5
        F, C = Foliation(X**2, Y**2), curve(X * Y)
        diffs = [foliation_milnor_k(F, k) - milnor_k(C.f, k) for k in range(4)]
        assert diffs == [3, 3, 4, 5]
        assert second_type_milnor_check(F, C, 1)
        assert not second_type_milnor_check(F, C, 3)

    def test_milnor_k_matches_its_closed_form(self):
        mu, m = milnor_k(F_RUN, 0), F_RUN.multiplicity()
        assert milnor_k(F_RUN, 2) == milnor_k_closed(mu, m, 2) == 12


class TestRefusals:
    """Each refusal that some input reaches, with the message it gives."""

    NOT_INVARIANT = "the curve is not invariant by the foliation"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: milnor_k(F_RUN, -1), "k must be a nonnegative integer"),
            (lambda: milnor_k(F_RUN, True), "k must be a nonnegative integer"),
            # the k of the checks is refused by milnor_k and foliation_tjurina_k
            (lambda: ratio_check(F_RUN, -1), "k must be a nonnegative integer"),
            (
                lambda: milnor_bound_check(hamiltonian(F_RUN), curve(F_RUN), -1),
                "k must be a nonnegative integer",
            ),
            (
                lambda: polar_intersection_k(Foliation(2 * X, 2 * Y), curve(X**2 + Y**3), 1),
                NOT_INVARIANT,
            ),
            (
                lambda: is_quasihomogeneous_foliation(
                    Foliation(2 * X, 2 * Y), curve(X**2 + Y**3)
                ),
                NOT_INVARIANT,
            ),
            (lambda: milnor_k_closed(4, 0, 1), "the multiplicity m must be an integer >= 1"),
            (lambda: dim_mk_plus_f_closed(0, 1), "the multiplicity m must be an integer >= 1"),
            # True is an int, but no integer >= 1 is a bool
            (lambda: milnor_k_closed(4, True, 1), "the multiplicity m must be an integer >= 1"),
            (lambda: dim_mk_plus_f_closed(True, 1), "the multiplicity m must be an integer >= 1"),
            (
                lambda: quasihomogeneous_identity_check(
                    hamiltonian(F_RUN), curve(F_RUN), True
                ),
                "k must be an integer >= 1",
            ),
            (lambda: ReducedSingularityKind(True), "a saddle-node index must be an integer >= 1"),
            (lambda: weighted_homogeneous_weights(Poly.zero()), "the zero germ has no weight type"),
            (lambda: check_conjecture1(X**2 * Y**3, 1), "the singularity is not isolated"),
            (lambda: ratio_check(X**2 * Y, 1), "the singularity is not isolated"),
            (
                lambda: second_type_milnor_check(Foliation(X, Y), curve(X**2), 1),
                "the curve singularity is not isolated",
            ),
        ],
        ids=[
            "milnor-negative-k",
            "milnor-bool-k",
            "ratio-negative-k",
            "bound-negative-k",
            "polar-not-invariant",
            "qh-not-invariant",
            "milnor-closed-m-0",
            "dim-closed-m-0",
            "milnor-closed-bool-m",
            "dim-closed-bool-m",
            "qh-identity-bool-k",
            "saddle-node-bool-index",
            "weights-zero",
            "conjecture1-not-isolated",
            "ratio-not-isolated",
            "second-type-not-isolated",
        ],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            call()
