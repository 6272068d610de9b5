"""Intersection numbers at the origin by Fulton's algorithm, exact over Q.

The algorithm of the proof of Fulton, *Algebraic Curves*, section 3.3,
Theorem 3.  With r and s the degrees of F(x, 0) and G(x, 0), ordered r <= s:

* r = 0: y divides F = y*H, so I(F, G) = I(y, G) + I(H, G), and I(y, G) is
  the order of G(x, 0) at x = 0; it is infinite when y divides G too;
* r > 0: I(F, G) = I(F, lc(F)*G - lc(G)*x^(s-r)*F), lc the leading
  coefficient on y = 0, which lowers s.

A shared component through the origin makes the first case recur without
end, so the count needs a bound: with no shared component,
I(F, G) <= B = deg F * deg G (Bezout), and a count n past B is INFINITE.
The bound also keeps the degrees down: with n counted so far, the terms of
degree > B - n are dropped from F and G.  A remaining I(F, G) = R <= B - n
is kept, since m^R lies in (F, G) and Nakayama's lemma gives it back from
the truncated pair; a remaining R > B - n stays above B - n, since the first
B - n + 1 graded pieces of O/(F, G) are then all nonzero.  Inputs that share
a component still take many steps, and their cost grows fast with B.

This shares no code with the engine: the polynomials are plain dicts
{(a, b): int}, their denominators cleared and their contents divided out,
which changes no intersection number.
"""

from math import gcd, lcm

from folinv.stdbasis import INFINITE


def _integral(p) -> dict:
    """p times the lcm of its denominators, as {(a, b): int}."""
    d = lcm(*(c.denominator for _, c in p.terms))
    return {m: int(c * d) for m, c in p.terms}


def _deg(F: dict) -> int:
    return max(a + b for a, b in F)


def _below(F: dict, n: int) -> dict:
    return {(a, b): c for (a, b), c in F.items() if a + b <= n}


def intersection_number(f, g):
    """i(f, g) at the origin for two Polys, or INFINITE."""
    F, G = _integral(f), _integral(g)
    if F.get((0, 0)) or G.get((0, 0)):
        return 0
    if not F or not G:
        return INFINITE
    bound = _deg(F) * _deg(G)
    n = 0
    while True:
        F, G = _below(F, bound - n), _below(G, bound - n)
        if not F or not G:
            return INFINITE
        r = max((a for a, b in F if b == 0), default=0)
        s = max((a for a, b in G if b == 0), default=0)
        if r > s:
            F, G, r, s = G, F, s, r
        if r == 0:
            if s == 0:
                return INFINITE  # y divides both
            n += min(a for a, b in G if b == 0)
            if n > bound:
                return INFINITE
            F = {(a, b - 1): c for (a, b), c in F.items()}
            if F.get((0, 0)):
                return n  # the rest of F is a unit at the origin
            continue
        lf, lg = F[(r, 0)], G[(s, 0)]
        H = {m: lf * c for m, c in G.items()}
        for (a, b), c in F.items():
            m = (a + s - r, b)
            H[m] = H.get(m, 0) - lg * c
        c = gcd(*H.values()) or 1
        G = {m: v // c for m, v in H.items() if v}
