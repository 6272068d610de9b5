"""Independent colength oracle: linear algebra over a large prime field.

dim O/(I + m^N) equals the number of monomials of degree < N minus the rank
of the span of all monomial shifts of the generators truncated below degree
N.  If that dimension stabilizes between N and N+1, the staircase fits below
degree N and the stable value is the colength.  This shares no code with the
Mora engine: plain Gaussian elimination mod p on dictionaries.

Reduction mod p of rational coefficients is sound here because the primes are
astronomically larger than any numerator/denominator the test corpus
produces, and a wrong rank can only make dimensions disagree — disagreement
with the exact engine is exactly what the tests look for.
"""

from fractions import Fraction
from math import lcm

from folinv.ring import Poly

PRIMES = (2147483647, 2305843009213693951)


def _int_terms(p: Poly, prime: int) -> dict:
    """Clear denominators and reduce mod prime; returns {(a, b): coeff}."""
    denom = lcm(*(c.denominator for _, c in p.terms)) if p.terms else 1
    out = {}
    for mono, coeff in p.terms:
        c = int(coeff * denom) % prime
        if c:
            out[mono] = c
    return out


def quotient_dim_modp(gens, N: int, prime: int) -> int:
    """dim of O/(<gens> + m^N) as a vector space over GF(prime)."""
    monos = [(a, d - a) for d in range(N) for a in range(d + 1)]
    col = {m: i for i, m in enumerate(monos)}
    pivots = {}
    rank = 0
    for g in gens:
        terms = _int_terms(g, prime)
        if not terms:
            continue
        gmin = min(a + b for a, b in terms)
        for da in range(max(0, N - gmin)):
            for db in range(max(0, N - gmin - da)):
                row = {}
                for (a, b), c in terms.items():
                    if a + da + b + db < N:
                        j = col[(a + da, b + db)]
                        row[j] = (row.get(j, 0) + c) % prime
                row = {j: c for j, c in row.items() if c}
                while row:
                    j = min(row)
                    if j not in pivots:
                        inv = pow(row[j], -1, prime)
                        pivots[j] = {jj: (cc * inv) % prime for jj, cc in row.items()}
                        rank += 1
                        break
                    factor = row[j]
                    piv = pivots[j]
                    for jj, cc in piv.items():
                        v = (row.get(jj, 0) - factor * cc) % prime
                        if v:
                            row[jj] = v
                        else:
                            row.pop(jj, None)
    return len(monos) - rank


def dim_below(lms, N: int) -> int:
    """Monomials of degree < N outside the monomial ideal of the exponent
    pairs lms: dim O/(I + m^N) when lms generate the leading ideal of I."""
    return sum(
        1
        for d in range(N)
        for a in range(d + 1)
        if not any(a >= p and d - a >= q for p, q in lms)
    )


def oracle_colength(gens, nmax: int = 24, prime: int = PRIMES[0]):
    """Colength by stabilization of truncated dimensions; None if >= nmax."""
    prev = None
    for N in range(1, nmax + 1):
        cur = quotient_dim_modp(gens, N, prime)
        if prev is not None and cur == prev:
            return cur
        prev = cur
    return None


def rand_poly(rng, min_mult=1, max_extra_deg=5, ncoef=3):
    """Random germ with multiplicity >= min_mult (used across the suites)."""
    m = rng.randint(min_mult, min_mult + 2)
    terms = {}
    a = rng.randint(0, m)
    terms[(a, m - a)] = Fraction(rng.choice([1, -1]) * rng.randint(1, 3))
    for _ in range(ncoef):
        d = rng.randint(m, max_extra_deg)
        a = rng.randint(0, d)
        terms[(a, d - a)] = Fraction(rng.choice([1, -1]) * rng.randint(1, 3))
    return Poly.from_dict(terms)
