"""Every route that builds a Poly leaves it in the one canonical form.

A Poly is content * prim: prim a tuple of (code, int) pairs, strictly
ascending by code, with coprime coefficients and a positive leading one;
content a Fraction, zero exactly for the zero polynomial.  Equality and
hashing compare that pair, so two routes to one value must agree on it.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from folinv.ring import Poly, X, Y
from folinv.stdbasis import Ideal, mora_normal_form, standard_basis

from oracle import rand_poly


def assert_canonical(p):
    codes = [code for code, _ in p.prim]
    assert isinstance(p.prim, tuple)
    assert codes == sorted(set(codes)), p.prim
    assert all(type(c) is int and c for _, c in p.prim), p.prim
    assert isinstance(p.content, Fraction)
    assert (p.content == 0) == (not p.prim)
    if p.prim:
        assert p.prim[0][1] > 0, p.prim
        assert gcd(*(c for _, c in p.prim)) == 1, p.prim
    q = Poly(p.terms)
    assert (q.content, q.prim) == (p.content, p.prim)
    assert q == p and hash(q) == hash(p)


def _rand_coefficient(rng):
    return Fraction(rng.choice([1, -1]) * rng.randint(1, 12), rng.randint(1, 6))


def _rand_terms(rng):
    """Terms with repeats, some of which cancel."""
    terms = []
    for _ in range(rng.randint(0, 5)):
        m = (rng.randint(0, 3), rng.randint(0, 3))
        c = _rand_coefficient(rng)
        terms.append((m, c))
        if rng.random() < 0.3:
            terms.append((m, -c))
    return terms


def test_constructors_are_canonical():
    rng = random.Random(31)
    for p in (Poly(), Poly.zero(), Poly.one(), X, Y, Poly([((1, 1), 0)])):
        assert_canonical(p)
    for _ in range(200):
        terms = _rand_terms(rng)
        assert_canonical(Poly(terms))
        assert_canonical(Poly.from_dict(dict(terms)))
        c = rng.choice([0, 1, -3, Fraction(-4, 6)])
        assert_canonical(Poly.constant(c))
        assert_canonical(Poly.term((rng.randint(0, 4), rng.randint(0, 4)), c))


def test_arithmetic_is_canonical():
    rng = random.Random(32)
    for _ in range(200):
        f, g = Poly(_rand_terms(rng)), Poly(_rand_terms(rng))
        c = rng.choice([0, 2, Fraction(-3, 4), _rand_coefficient(rng)])
        results = [
            f + g, f - g, f * g, g * f, f - f, f + (-f),
            f * c, c * f, f.scale(c), -f, f.partial_x(), f.partial_y(),
        ]
        results += [f**n for n in range(4)]
        if not f.is_zero:
            results.append(f.monic())
        for p in results:
            assert_canonical(p)


def _tame_basis(rng):
    """x^d or y^d plus one short tail term, scaled.  A basis of x-leads or
    of y-leads alone has no truncation degree, so its inputs are kept small."""
    basis = []
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, 3)
        lead = X**d if rng.random() < 0.5 else Y**d
        tail = Poly.term((rng.randint(0, 2), rng.randint(d, 4)), rng.choice([-1, 1]))
        basis.append((lead + tail).scale(_rand_coefficient(rng)))
    return [g for g in basis if not g.is_zero]


def test_engine_results_are_canonical():
    rng = random.Random(33)
    for _ in range(40):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        for e in standard_basis(Ideal.of(f, g)).elements:
            assert_canonical(e)
        assert_canonical(mora_normal_form(h, [f, g]))
        basis = _tame_basis(rng)
        if not basis:
            continue
        h = rand_poly(rng, max_extra_deg=4, ncoef=2).scale(_rand_coefficient(rng))
        assert_canonical(mora_normal_form(h, basis))
    assert_canonical(mora_normal_form(Poly.zero(), [X + Y]))


def test_degrees_beyond_the_code_range_are_refused():
    # a code holds the y exponent in 40 bits: past them it would carry
    # into the degree and read as another monomial
    assert (Y ** (2**40 - 1)).leading_monomial() == (0, 2**40 - 1)
    for make in (
        lambda: Y ** (2**40),
        lambda: Y ** (2**39) * Y ** (2**39),
        lambda: Poly.term((0, 2**40)),
        lambda: Poly([((2**40, 0), 1)]),
    ):
        with pytest.raises(ValueError, match="below 2\\^40"):
            make()
