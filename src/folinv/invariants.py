"""Numeric invariants of plane-curve germs and foliation germs at the origin.

A curve germ is C = {f = 0}; a foliation germ is given by a 1-form
w = P dx + Q dy with P, Q coprime at the origin.  Everything here reduces to
colengths of explicit ideals in the local ring (the engine in
:mod:`folinv.stdbasis`), plus closed-form counterparts computed independently
so that each route can check the other:

* k-th Milnor number of a curve        mu^k(f)   = dim O/(m^k * j(f))
* k-th Tjurina number of a curve       tau^k(f)  = dim O/(m^k * j(f) + (f))
* k-th Milnor number of a foliation    mu^k(F)   = dim O/((P,Q) * m^k)
* k-th Tjurina number along a curve    tau^k(F,C)= dim O/((P,Q) * m^k + (f))
* intersection number                  i(f,g)    = dim O/(f,g)
* GSV index along an invariant curve, via explicit 1-form decompositions
* k-th polar intersection number, certified generic by its least i^0

All arithmetic is exact; every dimension is an exact natural number or the
value INFINITE.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd
from typing import NamedTuple

from .ring import Poly
from .stdbasis import (
    Ideal,
    _Value,
    colength,
    contains,
    is_finite,
)


class PreconditionError(ValueError):
    """A documented hypothesis of an operation fails for the given input."""


def _natural(value, name: str, least: int = 0) -> int:
    """value, when it is an int of at least ``least`` and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        rule = "a nonnegative integer" if least == 0 else f"an integer >= {least}"
        raise PreconditionError(f"{name} must be {rule}")
    return value


# -- domain types -------------------------------------------------------------


class CurveGerm(_Value):
    """The germ of a curve C = {f = 0} through the origin.

    ``_ideal`` keeps the ideal (f), which the queries along C read.
    """

    _fields = ("f",)
    __slots__ = ("f", "_ideal")

    def __init__(self, f: Poly):
        if f.is_zero:
            raise PreconditionError("a curve germ needs a nonzero equation")
        if f.constant_term() != 0:
            raise PreconditionError("a curve germ must pass through the origin")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "_ideal", Ideal.of(f))

    @property
    def multiplicity(self) -> int:
        return self.f.multiplicity()


def curve(f: Poly) -> CurveGerm:
    return CurveGerm(f)


class Foliation(_Value):
    """w = P dx + Q dy with P and Q coprime at the origin.

    Coprimality (equivalently: the singular point is isolated) is part of the
    definition and is verified on construction -- colength((P,Q)) must be
    finite.  ``_ideal`` keeps the ideal (P, Q) it was verified with, which
    the queries of F read.
    """

    _fields = ("P", "Q")
    __slots__ = ("P", "Q", "_ideal")

    def __init__(self, P: Poly, Q: Poly):
        if P.is_zero and Q.is_zero:
            raise PreconditionError("a foliation needs P, Q not both zero")
        ideal = Ideal.of(P, Q)
        if not is_finite(colength(ideal)):
            raise PreconditionError(
                "P and Q share a factor through the origin (singularity not isolated)"
            )
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "_ideal", ideal)

    @property
    def multiplicity(self) -> int:
        """nu(F) = min(nu(P), nu(Q))."""
        if self.P.is_zero:
            return self.Q.multiplicity()
        if self.Q.is_zero:
            return self.P.multiplicity()
        return min(self.P.multiplicity(), self.Q.multiplicity())


def hamiltonian(f: Poly) -> Foliation:
    """The foliation of the exact form df = f_x dx + f_y dy."""
    return Foliation(f.partial_x(), f.partial_y())


class ReducedSingularityKind(_Value):
    """Reduced-singularity type: non-degenerate, or a saddle-node with index l >= 1.

    The saddle-node index l is the parameter of the normal form
    x^(l+1) dy - y(1 + c x^l) dx.
    """

    _fields = __slots__ = ("saddle_node_index",)

    def __init__(self, saddle_node_index: "int | None" = None):
        if saddle_node_index is not None:
            _natural(saddle_node_index, "a saddle-node index", 1)
        object.__setattr__(self, "saddle_node_index", saddle_node_index)

    @classmethod
    def non_degenerate(cls) -> "ReducedSingularityKind":
        return cls(None)

    @classmethod
    def saddle_node(cls, index: int) -> "ReducedSingularityKind":
        return cls(index)


class WeightData(NamedTuple):
    """Weights (w1, w2; d) with a*w1 + b*w2 = d for every monomial x^a y^b of f."""

    w1: Fraction
    w2: Fraction
    d: Fraction


# -- ideal-route invariants ---------------------------------------------------


def jacobian_ideal(f: Poly) -> Ideal:
    return Ideal.of(f.partial_x(), f.partial_y())


def milnor_k(f: Poly, k: int):
    """mu^k(f) = dim O/(m^k * j(f)); INFINITE when the singularity is not isolated."""
    _natural(k, "k")
    return colength(jacobian_ideal(f), k)


def tjurina_k(f: Poly, k: int):
    """tau^k(f) = dim O/(m^k * j(f) + (f)); INFINITE when f is not reduced."""
    _natural(k, "k")
    return colength(jacobian_ideal(f), k, Ideal.of(f))


def foliation_milnor_k(F: Foliation, k: int):
    """mu^k(F) = dim O/((P,Q) * m^k); always finite for a valid foliation."""
    _natural(k, "k")
    return colength(F._ideal, k)


def foliation_tjurina_k(F: Foliation, C: CurveGerm, k: int):
    """tau^k(F,C) = dim O/((P,Q) * m^k + (f)) for C invariant by F."""
    _natural(k, "k")
    _require_invariant(F, C)
    return colength(F._ideal, k, C._ideal)


def intersection_number(f: Poly, g: Poly):
    """i(f,g) = dim O/(f,g); INFINITE signals a common branch through the origin."""
    return colength(Ideal.of(f, g))


@lru_cache(maxsize=1024)
def is_invariant(F: Foliation, C: CurveGerm) -> bool:
    """Whether C = {f=0} is invariant by F: f divides P*f_y - Q*f_x in the local ring.

    Memoized: a sweep over k checks the same pair at every k.
    """
    f = C.f
    w = F.P * f.partial_y() - F.Q * f.partial_x()
    return contains(C._ideal, w)


def _require_invariant(F: Foliation, C: CurveGerm) -> None:
    if not is_invariant(F, C):
        raise PreconditionError("the curve is not invariant by the foliation")


def _require_reduced(C: CurveGerm) -> None:
    if not is_finite(tjurina_k(C.f, 0)):
        raise PreconditionError("the curve is not reduced")


def gsv_index(F: Foliation, C: CurveGerm) -> int:
    """GSV index of F along the invariant reduced curve C.

    For every direction (a:b), (g, h) = (a*f_x + b*f_y, a*P + b*Q) is an
    explicit decomposition g*w = h*df + f*eta, found without solving any
    syzygy: g*w - h*df = (P*f_y - Q*f_x)(b dx - a dy), and f divides
    P*f_y - Q*f_x.  The index is i(f,h) - i(f,g) for the first direction
    with both intersection numbers finite.  (0:1) and (1:0) come first;
    then (1:t) for t = 1 .. 2*nu(f) - 1.  Each branch of f makes at most one
    direction fail for g and at most one for h, so one of these 2*nu(f) + 1
    directions gives finite numbers.
    """
    _require_invariant(F, C)
    _require_reduced(C)
    f = C.f
    fx, fy = f.partial_x(), f.partial_y()
    directions = [(0, 1), (1, 0)] + [(1, t) for t in range(1, 2 * f.multiplicity())]
    for a, b in directions:
        g = a * fx + b * fy
        h = a * F.P + b * F.Q
        ih = intersection_number(f, h)
        ig = intersection_number(f, g)
        if is_finite(ih) and is_finite(ig):
            return ih - ig
    raise RuntimeError(
        f"no direction of {len(directions)} gives a finite decomposition,"
        " but a reduced curve with at most nu(f) branches rules out at most"
        " 2*nu(f) of them"
    )


# The directions _generic_polar walks: (a:b) with a, b in [-20, 20], not
# both zero, divided by their gcd and with the first nonzero entry positive,
# lowest height max(|a|, |b|) first.
_BOX = [
    (a, b)
    for a in range(21)
    for b in range(-20, 21)
    if gcd(a, b) == 1 and (a > 0 or b > 0)
]
_BOX.sort(key=lambda d: (max(abs(d[0]), abs(d[1])), d))
_DIRECTIONS = len(_BOX)


def _polars(F: Foliation):
    """The polars a*P + b*Q with nu = nu(F), in the order of _BOX."""
    nu = F.multiplicity
    for a, b in _BOX:
        p = a * F.P + b * F.Q
        if not p.is_zero and p.multiplicity() == nu:
            yield p


@lru_cache(maxsize=1024)
def _generic_polar(F: Foliation, C: CurveGerm) -> Ideal:
    """(p, f) for a polar p = aP + bQ of F at a generic direction (a:b).

    Walks the directions of the box [-20, 20]^2 from position 0, lowest
    height first, and keeps the first nu(f) + 1 with nu(a*P + b*Q) = nu(F);
    at most one direction fails that, the one where the degree-nu parts of
    P and Q cancel.  Then it returns (p, f) for a kept polar p with the
    least i^0 = i(p, f).  That is the generic polar:

    * along each branch of f, the order of (aP + bQ) restricted to the branch
      exceeds its generic value for at most one (a:b), and f has at most
      nu(f) branches, so one of the nu(f) + 1 kept directions has the
      generic, least, i^0 (Teissier 1973; Casas-Alvero 2000);
    * (p, f) is a complete intersection, so i^k is fixed by i^0 and
      min(nu(p), nu(f)), and grows with i^0 (the Koszul identity; Eisenbud
      1995, ch. 17); every kept p has nu(p) = nu(F).

    The choice does not depend on k, so it is memoized like
    :func:`is_invariant`: a sweep over k makes it once per (F, C).  A
    refusal is not memoized and raises on every call.
    """
    _require_invariant(F, C)
    needed = C.f.multiplicity() + 1
    polars = list(islice(_polars(F), needed))
    if len(polars) < needed:
        raise PreconditionError(
            f"{needed} directions are needed, but only {len(polars)} of the"
            f" {_DIRECTIONS} keep nu(aP + bQ) = nu(F)"
        )
    ideals = [Ideal.of(p, C.f) for p in polars]
    i0 = [colength(J) for J in ideals]
    least = min(v for v in i0 if is_finite(v))
    return ideals[i0.index(least)]


def polar_intersection_k(F: Foliation, C: CurveGerm, k: int):
    """i^k of the polar curve of F against C: dim O/((aP+bQ, f) * m^k) at generic (a:b).

    The generic polar is chosen once per (F, C), by its least i^0 (see
    :func:`_generic_polar`), and i^k is the colength of its ideal at k.
    """
    _natural(k, "k")
    return colength(_generic_polar(F, C), k)


# -- closed forms -------------------------------------------------------------


def milnor_k_closed(mu: int, m: int, k: int) -> int:
    """mu^k of an isolated curve singularity from mu = mu(f) and m = nu(f).

    mu + k(k+1), minus (k-m+2)(k-m+1)/2 once k >= m.
    """
    _natural(mu, "mu")
    _natural(k, "k")
    _natural(m, "the multiplicity m", 1)
    value = mu + k * (k + 1)
    if k >= m:
        value -= (k - m + 2) * (k - m + 1) // 2
    return value


def dim_mk_plus_f_closed(m: int, k: int) -> int:
    """dim O/((f) + m^k) for any f with nu(f) = m: k(k+1)/2, corrected once k >= m."""
    _natural(k, "k")
    _natural(m, "the multiplicity m", 1)
    value = k * (k + 1) // 2
    if k >= m:
        value -= (k + 1 - m) * (k - m) // 2
    return value


def reduced_singularity_invariants(
    kind: ReducedSingularityKind, k: int
) -> tuple[int, int]:
    """(mu^k, tau^k-along-the-separatrix) of a reduced foliation singularity.

    Non-degenerate: ((k+1)(k+2)/2, 2k+1); a saddle-node of index l adds l to
    both.
    """
    _natural(k, "k")
    mu = (k + 1) * (k + 2) // 2
    tau = 2 * k + 1
    if kind.saddle_node_index is not None:
        mu += kind.saddle_node_index
        tau += kind.saddle_node_index
    return mu, tau


def weighted_homogeneous_weights(f: Poly) -> "WeightData | None":
    """Positive rational weights (w1, w2) with a*w1 + b*w2 = 1 on every monomial of f.

    None when the linear system is inconsistent or admits no positive
    solution.  A single-monomial germ is underdetermined; by convention the
    symmetric solution w1 = w2 = 1/(a+b) is returned.
    """
    if f.is_zero:
        raise PreconditionError("the zero germ has no weight type")
    exps = [m for m, _ in f.terms]
    one = Fraction(1)
    if len(set(exps)) == 1:
        a, b = exps[0]
        if a + b == 0:
            return None
        w = Fraction(1, a + b)
        return WeightData(w, w, one)
    pair = None
    a0, b0 = exps[0]
    for a, b in exps[1:]:
        if a0 * b - b0 * a != 0:
            pair = (a, b)
            break
    if pair is None:
        return None  # collinear distinct exponents: inconsistent
    a1, b1 = pair
    det = a0 * b1 - b0 * a1
    w1 = Fraction(b1 - b0, det)
    w2 = Fraction(a0 - a1, det)
    if w1 <= 0 or w2 <= 0:
        return None
    for a, b in exps:
        if a * w1 + b * w2 != one:
            return None
    return WeightData(w1, w2, one)


def ell_k(a1: int, a2: int, k: int) -> int:
    """The binomial-model lower bound: (a1-1)(a2-1) + k(k+3)/2, corrected once k >= a1.

    Only integer exponents a1 <= a2 are accepted; rational weight reciprocals
    are handled internally by :func:`check_conjecture1`.
    """
    _natural(k, "k")
    if not isinstance(a1, int) or not isinstance(a2, int) or not 2 <= a1 <= a2:
        raise PreconditionError("exponents must be integers with 2 <= a1 <= a2")
    return int(_ell_k_rational(a1, a2, k))


def _ell_k_rational(a1: Fraction, a2: Fraction, k: int) -> Fraction:
    """The formula of :func:`ell_k`, exact for rational exponents as well."""
    value = (a1 - 1) * (a2 - 1) + Fraction(k * (k + 3), 2)
    if k >= a1:
        value -= (k - a1 + 2) * (k - a1 + 1) / Fraction(2)
    return value


# -- identity checks ----------------------------------------------------------


def check_conjecture1(f: Poly, k: int):
    """(tau^k(f), the weight bound, holds) for weighted-homogeneous f.

    The bound is computed with exact rational reciprocal weights, so
    non-integer 1/w_i are handled; ``holds`` is tau^k >= bound.
    """
    _natural(k, "k")
    weights = weighted_homogeneous_weights(f)
    if weights is None:
        raise PreconditionError("the germ is not weighted homogeneous")
    tau = tjurina_k(f, k)
    if not is_finite(tau):
        raise PreconditionError("the singularity is not isolated")
    a1, a2 = sorted((1 / weights.w1, 1 / weights.w2))
    bound = _ell_k_rational(a1, a2, k)
    if bound.denominator == 1:
        bound = int(bound)
    return tau, bound, tau >= bound


def ratio_check(f: Poly, k: int):
    """(mu^k, tau^k, whether the exact ratio mu^k/tau^k exceeds 4/3)."""
    mu = milnor_k(f, k)
    tau = tjurina_k(f, k)
    if not (is_finite(mu) and is_finite(tau)):
        raise PreconditionError("the singularity is not isolated")
    if tau == 0:
        raise PreconditionError("the ratio is undefined for a smooth germ")
    return mu, tau, Fraction(mu, tau) > Fraction(4, 3)


def is_quasihomogeneous_foliation(F: Foliation, C: CurveGerm) -> bool:
    """Whether f lies in (P, Q) -- the quasi-homogeneity membership test."""
    _require_invariant(F, C)
    return contains(F._ideal, C.f)


def milnor_bound_check(F: Foliation, B0: CurveGerm, k: int):
    """(tau^k(F,B0), mu^k(F), 2*tau^k + k(k+1)/2, holds) -- the two-sided bound.

    Valid for second-type foliations with balanced divisor of zeros B0; that
    hypothesis is the caller's assertion.
    """
    lhs = foliation_tjurina_k(F, B0, k)
    mid = foliation_milnor_k(F, k)
    rhs = 2 * lhs + k * (k + 1) // 2
    return lhs, mid, rhs, lhs <= mid <= rhs


def quasihomogeneous_identity_check(F: Foliation, C: CurveGerm, k: int):
    """(mu^k(F), tau^k(F,C), holds) for mu^k = tau^k + k(k-1)/2, k >= 1.

    Requires the quasi-homogeneity membership f in (P, Q); the
    generalized-curve hypothesis is the caller's assertion.
    """
    _natural(k, "k", 1)
    if not is_quasihomogeneous_foliation(F, C):
        raise PreconditionError("f does not lie in (P, Q)")
    mu = foliation_milnor_k(F, k)
    tau = foliation_tjurina_k(F, C, k)
    return mu, tau, mu == tau + k * (k - 1) // 2


def gsv_theorem_check(F: Foliation, C: CurveGerm, k_max: int) -> bool:
    """tau^k(F,C) - tau^k(C) equals the GSV index for every k = 0..k_max."""
    _natural(k_max, "k_max")
    g = gsv_index(F, C)
    for k in range(k_max + 1):
        tau_fc = foliation_tjurina_k(F, C, k)
        tau_c = tjurina_k(C.f, k)
        if tau_fc - tau_c != g:
            return False
    return True


def teissier_k_check(f: Poly, k: int) -> bool:
    """i^k of the polar of df against {f=0} equals mu^k(f) + nu(f) - 1."""
    _natural(k, "k")
    F = hamiltonian(f)
    C = curve(f)
    i_k = polar_intersection_k(F, C, k)
    mu = milnor_k(f, k)
    return i_k == mu + f.multiplicity() - 1


def polar_gsv_check(F: Foliation, C: CurveGerm, k_max: int) -> bool:
    """i^k(polar of F) - i^k(polar of df) is constant in k and equals the GSV index.

    Valid for non-dicritical second-type foliations whose total separatrix
    union is C; that hypothesis is the caller's assertion.
    """
    _natural(k_max, "k_max")
    g = gsv_index(F, C)
    Fd = hamiltonian(C.f)
    for k in range(k_max + 1):
        i_f = polar_intersection_k(F, C, k)
        i_d = polar_intersection_k(Fd, C, k)
        if i_f - i_d != g:
            return False
    return True


def second_type_milnor_check(F: Foliation, C: CurveGerm, k_max: int) -> bool:
    """mu^k(F) - mu^k(C) is constant over k = 0..k_max.

    Valid for second-type foliations with total separatrix union C; that
    hypothesis is the caller's assertion.  (The value of the constant is then
    mu(F) - mu(C).)
    """
    _natural(k_max, "k_max")
    expected = None
    for k in range(k_max + 1):
        mu_f = foliation_milnor_k(F, k)
        mu_c = milnor_k(C.f, k)
        if not is_finite(mu_c):
            raise PreconditionError("the curve singularity is not isolated")
        diff = mu_f - mu_c
        if expected is None:
            expected = diff
        elif diff != expected:
            return False
    return True

