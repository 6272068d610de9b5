"""Intersection numbers against Fulton's algorithm (tests/fulton.py).

Fulton's algorithm shares no code with the engine, so each suite below
checks a value of folinv against an independent computation over Q: plain
intersection numbers, the GSV index through the two intersection numbers of
its decomposition, and polar numbers at k = 0.  The inputs stay small
because Fulton's algorithm needs many steps to rule out a shared component.
"""

import random

from folinv.invariants import (
    Foliation,
    PreconditionError,
    curve,
    gsv_index,
    intersection_number,
    polar_intersection_k,
    tjurina_k,
)
from folinv.ring import Poly
from folinv.stdbasis import INFINITE, is_finite

import fulton
from oracle import rand_poly

CASES = 200


def _small(rng):
    return rand_poly(rng, max_extra_deg=3)


def _pairs(rng):
    """Random pairs; one in four shares a factor through the origin, one in
    four a unit factor."""
    for i in range(CASES):
        if i % 4 == 0:
            h = _small(rng)
            yield _small(rng) * h, _small(rng) * h
        elif i % 4 == 1:
            u = Poly.one() + _small(rng)
            yield rand_poly(rng) * u, rand_poly(rng) * u
        else:
            yield rand_poly(rng), rand_poly(rng)


def _invariant_pairs(rng, reduced: bool):
    """Foliations w = A*df + f*(B dx + D dy), along which f = 0 is invariant:
    P*f_y - Q*f_x = f*(B*f_y - D*f_x).  Yields CASES pairs (F, curve(f)),
    with f reduced when asked."""
    made = 0
    while made < CASES:
        f = _small(rng)
        if reduced and not is_finite(tjurina_k(f, 0)):
            continue
        a = rng.choice([Poly.one() + _small(rng), _small(rng), _small(rng)])
        b, d = (rng.choice([Poly.zero(), _small(rng)]) for _ in range(2))
        try:
            F = Foliation(a * f.partial_x() + b * f, a * f.partial_y() + d * f)
        except PreconditionError:
            continue
        made += 1
        yield F, curve(f)


def test_intersection_numbers():
    rng = random.Random(201)
    values = [
        (fulton.intersection_number(f, g), intersection_number(f, g))
        for f, g in _pairs(rng)
    ]
    assert [v for v, _ in values] == [w for _, w in values]
    assert 0 < sum(v is INFINITE for v, _ in values) < CASES // 2


def test_gsv_index_from_its_two_intersection_numbers():
    # i(f, aP + bQ) - i(f, a*f_x + b*f_y) at any direction where both are
    # finite; the directions (1:t), t = 1..2nu(f)+1, differ from the ones
    # gsv_index tries first, and at most 2nu(f) of them fail
    rng = random.Random(202)
    for F, C in _invariant_pairs(rng, reduced=True):
        f = C.f
        for t in range(1, 2 * f.multiplicity() + 2):
            ih = fulton.intersection_number(f, F.P + t * F.Q)
            ig = fulton.intersection_number(f, f.partial_x() + t * f.partial_y())
            if is_finite(ih) and is_finite(ig):
                break
        else:
            raise AssertionError(f"no finite direction for {F} along {f}")
        assert ih - ig == gsv_index(F, C), (F, f, t)


def test_polar_numbers_at_k_zero():
    # along each branch of f, i(aP + bQ, f) exceeds its generic, least,
    # value for at most one direction (a:b), and f has at most nu(f)
    # branches: so the least over nu(f) + 1 directions is the generic value
    rng = random.Random(203)
    for F, C in _invariant_pairs(rng, reduced=False):
        f = C.f
        values = [
            fulton.intersection_number(F.P + t * F.Q, f)
            for t in range(f.multiplicity() + 1)
        ]
        least = min(v for v in values if is_finite(v))
        assert polar_intersection_k(F, C, 0) == least, (F, f)
