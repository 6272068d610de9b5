"""Standard bases, weak normal forms and colengths in the local ring at the origin.

Every numeric invariant downstream reduces to one computation: the colength
dim_Q O/I of an ideal I in the localized ring, read off the staircase of
leading monomials of a standard basis.  Standard bases are computed with the
tangent-cone algorithm: Buchberger's loop driven by Mora's weak normal form,
whose ecart strategy may adjoin intermediate remainders as extra reducers --
that is what makes division terminate under a local order.

The public API speaks exact-rational :class:`~folinv.ring.Poly` values.  The
hot loops run over content-free integer term lists whose monomials are packed
into single ints ordered compatibly with the local order, and use fraction-free
pseudo-reduction; results are only converted back at the boundary (a nonzero
normal form is determined up to a unit of the local ring, so normalizing to a
primitive, positive-leading representative loses nothing).  One walk,
:func:`_mora_nf`, computes every normal form, for standard bases, membership
and :func:`mora_normal_form` alike; asked for a certificate, it carries the
cofactors of the relation along as integer term lists too, so no Fraction
arithmetic runs inside a reduction loop.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from heapq import heappop, heappush
from math import gcd
from typing import ClassVar

from .ring import Monomial, Poly

# -- packed monomial codes --------------------------------------------------
#
# code(x^a y^b) = ((a+b) << _SHIFT) | b.  Integer comparison of codes is
# exactly the (total degree, reverse-lex) comparison of the local order read
# ascending, and multiplication of monomials is addition of codes.  _SHIFT=40
# leaves room for exponents far beyond the CLI's 10^6 cap.

_SHIFT = 40
_MASK = (1 << _SHIFT) - 1


def _encode(m: Monomial) -> int:
    return ((m[0] + m[1]) << _SHIFT) | m[1]


def _decode(code: int) -> Monomial:
    b = code & _MASK
    return ((code >> _SHIFT) - b, b)


def _code_divides(c1: int, c2: int) -> bool:
    b1 = c1 & _MASK
    b2 = c2 & _MASK
    return b1 <= b2 and (c1 >> _SHIFT) - b1 <= (c2 >> _SHIFT) - b2


# Internal polynomials: lists of (code, int_coeff), sorted ascending by code
# (leading term first), content-free with positive leading coefficient.


def _to_internal(p: Poly) -> list:
    den = 1
    for _, c in p.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    return _strip(
        [(_encode(m), c.numerator * (den // c.denominator)) for m, c in p.terms]
    )


def _to_poly(t: list) -> Poly:
    return Poly._raw(tuple((_decode(code), Fraction(c)) for code, c in t))


def _strip(t: list) -> list:
    """Divide out the content and normalize the leading coefficient positive."""
    if not t:
        return t
    g = 0
    for _, c in t:
        g = gcd(g, c)
        if g == 1:
            break
    if t[0][1] < 0:
        g = -g
    if g == 1:
        return t
    return [(code, c // g) for code, c in t]


def _combine(t1: list, m1: int, s1: int, t2: list, m2: int, s2: int) -> list:
    """m1 * x^s1 * t1 + m2 * x^s2 * t2 as a merged sorted term list."""
    out = []
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        c1 = t1[i][0] + s1
        c2 = t2[j][0] + s2
        if c1 < c2:
            out.append((c1, m1 * t1[i][1]))
            i += 1
        elif c2 < c1:
            out.append((c2, m2 * t2[j][1]))
            j += 1
        else:
            v = m1 * t1[i][1] + m2 * t2[j][1]
            if v:
                out.append((c1, v))
            i += 1
            j += 1
    while i < n1:
        out.append((t1[i][0] + s1, m1 * t1[i][1]))
        i += 1
    while j < n2:
        out.append((t2[j][0] + s2, m2 * t2[j][1]))
        j += 1
    return out


def _ecart(t: list) -> int:
    return (t[-1][0] >> _SHIFT) - (t[0][0] >> _SHIFT)


def _reduce_step(h: list, g: list) -> list:
    """One cancellation of the leading term of h against g, fraction-free."""
    lch = h[0][1]
    lcg = g[0][1]
    d = gcd(lch, lcg)
    return _strip(_combine(h, lcg // d, 0, g, -(lch // d), h[0][0] - g[0][0]))


def _reduce_tracked(hv: list, gv: list) -> list:
    """:func:`_reduce_step` of h by g, applied alike to each entry of the vectors.

    hv = [h, ...] is the vector of h and gv = [g, ...] that of the reducer.
    The content is divided out of the whole vector at once, so a relation
    h = sum(c_i * e_i) between the entries, linear with polynomial
    coefficients, is kept exactly.
    """
    h, g = hv[0], gv[0]
    d = gcd(h[0][1], g[0][1])
    a, b, s = g[0][1] // d, -(h[0][1] // d), h[0][0] - g[0][0]
    out = [_combine(p, a, 0, q, b, s) for p, q in zip(hv, gv)]
    c = gcd(*(v for p in out for _, v in p))
    return [[(code, v // c) for code, v in p] for p in out]


def _spoly(t1: list, t2: list, lcm: int) -> list:
    """The s-polynomial of t1 and t2; ``lcm`` is the code of lcm(LM_1, LM_2)."""
    d = gcd(t1[0][1], t2[0][1])
    return _strip(
        _combine(
            t1, t2[0][1] // d, lcm - t1[0][0], t2, -(t1[0][1] // d), lcm - t2[0][0]
        )
    )


def _truncate(t: list, bound: int) -> list:
    """Drop all terms of total degree >= bound (they lie in m^bound)."""
    return [term for term in t if (term[0] >> _SHIFT) < bound]


def _staircase(lms) -> "list | None":
    """Column heights of the staircase of the monomial ideal of ``lms``.

    ``lms`` holds exponent pairs (a, b).  Entry i is the number of monomials
    x^i y^b outside the ideal, for i below the least pure power of x; None
    when the staircase is infinite (no pure power of x or of y).
    """
    bound_x = bound_y = None
    for a, b in lms:
        if b == 0 and (bound_x is None or a < bound_x):
            bound_x = a
        if a == 0 and (bound_y is None or b < bound_y):
            bound_y = b
    if bound_x is None or bound_y is None:
        return None
    heights = []
    for i in range(bound_x):
        blocked = bound_y
        for a, b in lms:
            if a <= i and b < blocked:
                blocked = b
        heights.append(blocked)
    return heights


def _staircase_bound(lms) -> "int | None":
    """Smallest N with m^N inside the monomial ideal of the exponent pairs ``lms``.

    None when the staircase is infinite (no pure power of x or of y yet).
    Once the partial basis reaches such an N, every monomial of degree >= N
    weak-reduces to zero against it: a reduction step never lowers total
    degree under the local order, so the walk stays in the divisible region,
    and Mora division terminates -- hence m^N is contained in the ideal and
    terms beyond the staircase may be discarded everywhere.
    """
    heights = _staircase(lms)
    if heights is None:
        return None
    return max((i + h for i, h in enumerate(heights)), default=0)


_NF_STEP_BUDGET = 20000
_COEFF_BIT_LIMIT = 6000


def _reducer(t: list) -> tuple:
    """An internal polynomial as a reducer of :func:`_mora_nf`.

    (a, b, code, ecart, t): the exponents and the code of its leading
    monomial, for a divisibility test without decoding, and its ecart.
    """
    return (*_decode(t[0][0]), t[0][0], _ecart(t), t)


def _mora_nf(
    h: list,
    basis: list,
    trunc: "int | None" = None,
    budget: "int | None" = None,
    track: bool = False,
) -> "tuple[list | None, int | list | None]":
    """Mora weak normal form of h against a list of reducers (:func:`_reducer`).

    Reducer choice: among the reducers whose leading monomial divides the
    leading monomial of h, take minimal ecart, break ties by the smallest
    leading monomial in the local order, then by list position.  When the
    chosen reducer has larger ecart than h, the current h joins the reducer
    list before the cancellation -- Mora's device for termination.

    ``trunc`` is a degree N with m^N contained in the ideal of the basis;
    terms of degree >= N are discarded as they appear, which keeps both the
    walk length and the integer coefficients bounded.

    ``budget`` caps the reduction steps of the walk.  Returns the normal form
    and what is left of the budget.  The walk gives up, and the form is None,
    when the budget runs out or a coefficient outgrows any size a well-posed
    computation here produces.  Two failures end up here.  Without a
    truncation degree the walk length has no useful a-priori bound, and
    ideals whose generators share a factor vanishing at the origin (so that
    no truncation degree ever appears) may walk forever.  With one, the walk
    is finite but iterated pseudo-reduction against adjoined reducers can
    still compound integer coefficients exponentially.

    ``track``, passed by :func:`mora_normal_form` alone and never with
    ``trunc`` or ``budget``, carries the vector [h, u, q_1, ..., q_n] with
    h = u*h_0 - sum(q_i * g_i) through the walk, g_i the basis.  The walk
    then returns [u, q_1, ..., q_n] in place of the budget, and a normal
    form r, not normalized, with u*h_0 = sum(q_i * g_i) + r.
    """
    if trunc is not None:
        h = _truncate(h, trunc)
    reducers = list(basis)
    vectors = vec = None
    if track:
        # Keyed on the reducer's term list, so the scan below stays as it is.
        n = len(basis)
        vec = [h, [(0, 1)]] + [[] for _ in range(n)]
        vectors = {
            id(r[-1]): [r[-1], []] + [[(0, -1)] if j == i else [] for j in range(n)]
            for i, r in enumerate(basis)
        }
    while h:
        if budget is not None:
            budget -= 1
            if budget < 0 or h[0][1].bit_length() > _COEFF_BIT_LIMIT:
                return None, budget
        lmh = h[0][0]
        ah, bh = _decode(lmh)
        best_key = None
        best = None
        for ag, bg, lmg, ecg, t in reducers:
            if ag <= ah and bg <= bh:
                key = (ecg, -lmg)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (ecg, t)
        if best is None:
            break
        ecg, t = best
        if ecg > _ecart(h):
            reducers.append(_reducer(h))
            if vectors is not None:
                vectors[id(h)] = vec
        if vectors is None:
            h = _reduce_step(h, t)
        else:
            vec = _reduce_tracked(vec, vectors[id(t)])
            h = vec[0]
        if trunc is not None:
            h = _truncate(h, trunc)
    if vectors is None:
        return _strip(h), budget
    return h, vec[1:]


def _minimalize(lms_terms: list) -> list:
    """Keep only elements whose leading monomial is not a multiple of another's.

    Input visited ascending by leading code: a divisor has smaller or equal
    code, so a single pass against the kept list is enough.
    """
    kept = []
    kept_lms = []
    for t in sorted(lms_terms, key=lambda t: (t[0][0], len(t))):
        lm = t[0][0]
        if not any(_code_divides(k, lm) for k in kept_lms):
            kept.append(t)
            kept_lms.append(lm)
    return kept


def _std(gens: list) -> "list | None":
    """Tangent-cone standard basis of a list of internal polynomials.

    Normal strategy: s-pairs are processed by increasing total degree of the
    lcm of leading monomials, ties by creation order.  The tails are left as
    computed, since full tail reduction need not terminate under a local
    order; the final basis is minimalized.

    Pairs are installed as in Gebauer-Moeller (1988), whose criteria hold for
    local orders as well (Greuel-Pfister 1.7).  When element j joins, with
    L_ij = lcm(LM_i, LM_j):

    * truncation: every term of the s-polynomial of (i, j) has degree at
      least that of L_ij, so a pair with deg L_ij >= the staircase bound lies
      in a power of the maximal ideal already known to be contained in the
      ideal;
    * criterion M: (i, j) is dropped when some L_lj properly divides L_ij;
    * criterion F: of the new pairs with one lcm, one is kept.  Gebauer and
      Moeller keep none when one of them has coprime leading monomials (the
      product criterion); in the plane truncation drops such a pair first,
      since x^a and y^b bound the staircase below degree a + b;
    * criterion B: a queued (i, l) is dropped when LM_j divides L_il and
      L_il differs from both L_ij and L_lj.

    Each dropped pair has an s-polynomial that is a combination of the
    s-polynomials of pairs that are kept, with smaller leading monomials, or
    that lies in the truncation power; so it has a standard representation
    once they have one.  The staircase bound only falls as the basis grows,
    and the queue is ordered by lcm degree, so the first pair taken off it
    at or beyond the bound ends the loop.

    The normal forms of a run share a budget of _NF_STEP_BUDGET steps per
    generator, so the cost of a run that gives up grows with its input and
    not with the number of walks it makes.  When one normal form gives up
    (see :func:`_mora_nf`), so does the run, returning None.
    """
    G = [list(g) for g in gens if g]
    reducers = [_reducer(g) for g in G]
    exps = [r[:2] for r in reducers]
    trunc = _staircase_bound(exps)
    budget = _NF_STEP_BUDGET * len(G)
    heap = []
    queued = {}  # the queued pairs that criterion B left: (i, j) -> L_ij

    def install(j: int) -> None:
        aj, bj = exps[j]
        doomed = []
        for (i, l), (a, b) in queued.items():
            if aj <= a and bj <= b:
                ai, bi = exps[i]
                al, bl = exps[l]
                if (max(ai, aj) != a or max(bi, bj) != b) and (
                    max(al, aj) != a or max(bl, bj) != b
                ):
                    doomed.append((i, l))
        for pair in doomed:
            del queued[pair]
        new = []
        for i, (ai, bi) in zip(range(j), exps):
            a = ai if ai > aj else aj
            b = bi if bi > bj else bj
            if trunc is None or a + b < trunc:
                new.append((a, b, i))
        # By lcm; a pair is kept when its lcm is minimal (M) and it comes
        # first with it (F).
        new.sort()
        least_b = None
        for a, b, i in new:
            if least_b is None or b < least_b:
                least_b = b
                heappush(heap, (a + b, i, j))
                queued[(i, j)] = (a, b)

    for j in range(len(G)):
        install(j)
    while heap:
        deg, i, j = heappop(heap)
        if trunc is not None and deg >= trunc:
            break
        lcm = queued.pop((i, j), None)
        if lcm is None:
            continue
        s = _spoly(G[i], G[j], (deg << _SHIFT) | lcm[1])
        if not s:
            continue
        r, budget = _mora_nf(s, reducers, trunc, budget)
        if r is None:
            return None
        if r:
            G.append(r)
            reducers.append(_reducer(r))
            exps.append(reducers[-1][:2])
            trunc = _staircase_bound(exps)
            install(len(G) - 1)
    return _minimalize(G)


# -- public types -----------------------------------------------------------


class _Infinite:
    """Colength of an ideal that is not zero-dimensional.  A value, not an error."""

    _singleton = None
    __slots__ = ()

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "infinite"

    def __reduce__(self):
        return (_Infinite, ())


INFINITE = _Infinite()

Colength = "int | _Infinite"


def is_finite(c) -> bool:
    return c is not INFINITE


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal of the local ring; zero generators are dropped."""

    generators: tuple[Poly, ...] = ()

    def __post_init__(self):
        gens = tuple(g for g in self.generators if not g.is_zero)
        object.__setattr__(self, "generators", gens)

    @classmethod
    def of(cls, *polys: Poly) -> "Ideal":
        return cls(tuple(polys))

    @property
    def is_zero(self) -> bool:
        return not self.generators

    def __add__(self, other: "Ideal") -> "Ideal":
        return Ideal(self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        return Ideal(
            tuple(g * h for g in self.generators for h in other.generators)
        )

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    return i + j


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    return i * j


@lru_cache(maxsize=64)
def maximal_ideal_power(k: int) -> Ideal:
    """The ideal m^k: generated by the k+1 monomials of total degree k; m^0 = (1).

    Memoized: callers that expand m^k * J ask for the same few powers over and
    over; :func:`colength` takes k instead and expands nothing.
    """
    if k < 0:
        raise ValueError("negative power of the maximal ideal")
    return Ideal(tuple(Poly.term((k - i, i)) for i in range(k + 1)))


@dataclass(frozen=True)
class StandardBasis:
    """Standard basis of an ideal: monic elements, minimal set of leading monomials.

    ``packed`` holds the elements as the engine computed them, as internal
    polynomials; ``elements`` and ``leading_monomials`` are read off them on
    first access.
    """

    packed: tuple
    order_tag: ClassVar[str] = "ds"

    @cached_property
    def elements(self) -> tuple[Poly, ...]:
        return tuple(_to_poly(t).monic() for t in self.packed)

    @cached_property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(_decode(t[0][0]) for t in self.packed)


# -- public operations ------------------------------------------------------


def mora_normal_form(f: Poly, basis, certificate: bool = False):
    """Weak normal form of f against a list of nonzero polynomials.

    The result r has a leading monomial divisible by no leading monomial of
    the basis, and u*f = sum(q_i * g_i) + r for some unit u of the local ring;
    so r == 0 decides membership whenever the basis is a standard basis.  The
    returned representative is normalized up to a unit (integer coefficients,
    content-free, positive leading coefficient).

    With ``certificate=True`` the walk also tracks the relation and returns a
    triple ``(r, u, cofactors)`` with u*f == sum(cofactors[i]*basis[i]) + r
    exactly and u(0) != 0.  Only that relation and u being a unit are
    promised: the triple is fixed only up to a common nonzero rational
    factor, and r is not normalized.  For 3*y^3 against [x^4 - y^3], both
    (x^4, 1/3, [-1]) and (3*x^4, 1, [-3]) are such triples.
    """
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("normal form against a basis containing zero")
    if f.is_zero:
        return (f, Poly.one(), [f] * len(basis)) if certificate else f
    packed = [_to_internal(g) for g in basis]
    reducers = [_reducer(t) for t in packed]
    h = _to_internal(f)
    if certificate:
        # The walk relates the packed inputs, which are the inputs scaled by
        # lc(packed p) / lc(p); scale u and each cofactor back.
        r, (u, *qs) = _mora_nf(h, reducers, track=True)
        return (
            _to_poly(r),
            _to_poly(u).scale(Fraction(h[0][1]) / f.leading_coefficient()),
            [
                _to_poly(q).scale(Fraction(t[0][1]) / g.leading_coefficient())
                for q, t, g in zip(qs, packed, basis)
            ],
        )
    # Truncation is sound against ANY basis, standard or not: if the basis
    # leading monomials admit a staircase bound N, every monomial of degree
    # >= N weak-reduces to zero (see _staircase_bound), so m^N lies in the
    # generated ideal and terms of degree >= N may be dropped.  It also makes
    # the walk finite-by-construction: each step strictly increases the
    # leading code, which truncation bounds.
    trunc = _staircase_bound([r[:2] for r in reducers])
    return _to_poly(_mora_nf(h, reducers, trunc)[0])


# -- exact gcd in Z[x, y] ---------------------------------------------------
#
# Polynomials in this section are dicts (a, b) -> nonzero int.  Division is by
# lex-leading terms, x before y.


def _zz(t) -> dict:
    """An internal polynomial as a dict."""
    return {_decode(code): c for code, c in t}


def _from_zz(p: dict) -> list:
    """A dict as an internal polynomial: sorted, primitive, positive leading term."""
    return _strip(sorted((_encode(m), c) for m, c in p.items()))


def _zsum(*products) -> dict:
    """The sum of p*q over the given pairs (p, q)."""
    out: dict = {}
    for p, q in products:
        for (a1, b1), c1 in p.items():
            for (a2, b2), c2 in q.items():
                m = (a1 + a2, b1 + b2)
                out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _zquo(p: dict, q: dict) -> "dict | None":
    """p / q when q divides p in Z[x, y], else None."""
    lq = max(q)
    out = {}
    while p:
        lp = max(p)
        m = (lp[0] - lq[0], lp[1] - lq[1])
        c, r = divmod(p[lp], q[lq])
        if m[0] < 0 or m[1] < 0 or r:
            return None
        out[m] = c
        p = _zsum((p, {(0, 0): 1}), ({m: -c}, q))
    return out


def _zlead(p: dict, v: int) -> "tuple[int, dict]":
    """Degree of p in the variable v (0: x, 1: y) and its coefficient there."""
    d = max(m[v] for m in p)
    lc = {(0, m[1]) if v == 0 else (m[0], 0): c for m, c in p.items() if m[v] == d}
    return d, lc


def _zprimitive(p: dict, v: int) -> "tuple[dict, dict]":
    """(content, primitive part) of p in the variable v; the part has lc > 0.

    For v = 1, p lies in Z[y] and its content is an integer.
    """
    if v == 1:
        cont = {(0, 0): gcd(*p.values())}
    else:
        coeffs: dict = {}
        for (a, b), c in p.items():
            coeffs.setdefault(a, {})[(0, b)] = c
        cont = reduce(lambda s, t: _zgcd(s, t, 1), coeffs.values())
    if (p[max(p)] < 0) != (cont[max(cont)] < 0):
        cont = {m: -c for m, c in cont.items()}
    return cont, _zquo(p, cont)


def _zgcd(p: dict, q: dict, v: int = 0) -> dict:
    """gcd of nonzero p, q in Z[x, y], with positive leading coefficient.

    A primitive pseudo-remainder sequence in x (v = 0) over Z[y].  The contents
    in x are gcds in Z[y], taken by the same sequence in y (v = 1) over Z.
    """
    cp, p = _zprimitive(p, v)
    cq, q = _zprimitive(q, v)
    c = _zgcd(cp, cq, 1) if v == 0 else {(0, 0): gcd(cp[(0, 0)], cq[(0, 0)])}
    if _zlead(p, v)[0] < _zlead(q, v)[0]:
        p, q = q, p
    dq, lq = _zlead(q, v)
    while dq > 0:
        while p and _zlead(p, v)[0] >= dq:
            dp, lp = _zlead(p, v)
            shift = {(dp - dq, 0) if v == 0 else (0, dp - dq): -1}
            p = _zsum((lq, p), (shift, _zsum((lp, q))))
        if not p:
            return _zsum((c, q))
        p, q = q, _zprimitive(p, v)[1]
        dq, lq = _zlead(q, v)
    return c


def _split_common_factor(gens: tuple) -> "tuple[list, tuple] | None":
    """Factor internal generators as g * cofactors, g their primitive gcd in Z[x, y].

    Returns None when g(0) != 0: the generators then share no curve through
    the origin, so the ideal they generate in the local ring is
    zero-dimensional.  Otherwise g = v*w, v the product of the irreducible
    factors of g through the origin and w(0) != 0 a unit of the local ring, so
    g and v generate the same local ideal and have the same leading monomial.
    The cofactors are gens/g up to nonzero constants.  g and the cofactors
    are internal polynomials.
    """
    zs = [_zz(t) for t in gens]
    g = reduce(_zgcd, zs)
    if (0, 0) in g:
        return None
    return _from_zz(g), tuple(tuple(_from_zz(_zquo(h, g))) for h in zs)


def _eliminate_row(row: dict, pivots: dict) -> None:
    """Reduce a sparse row against the pivot rows and insert it if nonzero.

    Rows are dicts code -> int; the pivot column of a row is its smallest
    code, i.e. its leading monomial in the local order.  Reduction is
    fraction-free (Bareiss): cross-multiply by the two leading coefficients
    over their gcd, then divide out the row content.  Pivot rows are stored
    as internal polynomials: sorted, primitive, positive leading coefficient.
    """
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            pivots[lead] = _strip(sorted(row.items()))
            return
        a = row.pop(lead)
        b = piv[0][1]
        d = gcd(a, b)
        a //= d
        if b != d:
            for c in row:
                row[c] *= b // d
        for c, v in piv[1:]:
            w = row.get(c, 0) - a * v
            if w:
                row[c] = w
            else:
                row.pop(c, None)
        g = gcd(*row.values())
        if g > 1:
            for c in row:
                row[c] //= g


def _capped_std(internal_gens: list, cap: int) -> "list | None":
    """Standard basis of the ideal via the degree-capped ideal I + m^cap.

    Below degree cap, the image of I in the finite-dimensional algebra
    O/m^cap is the linear span of the monomial shifts of the generators
    truncated at degree cap (power-series tails of a coefficient only
    contribute within m^cap).  Gaussian elimination of those shifts, with
    the pivot of each row taken at its local-order leading monomial, reads
    off the leading ideal of I + m^cap directly: the pivot monomials are
    exactly the leading monomials occurring below the cap, and each echelon
    row is an element of I + m^cap realizing its pivot.  Unlike iterated
    pseudo-reduction, elimination swells at worst polynomially.

    The run is accepted only when the resulting staircase is bounded by some
    N < cap: then every monomial of degree N..cap-1 lies in the leading
    ideal of I, so m^N is contained in I + m^M for every M >= cap, hence in
    I itself by Krull's intersection theorem.  That both certifies that the
    staircase read off is the true one and shows each returned element
    (an element of I plus junk from m^cap, and m^cap is inside m^N) lies in
    I.  Returns None when the cap was too small to decide.
    """
    pivots: dict[int, list] = {}
    for g in internal_gens:
        if not g:
            continue
        gmin = g[0][0] >> _SHIFT
        for s in range(max(0, cap - gmin)):
            for b in range(s + 1):
                shift = _encode((s - b, b))
                row = {}
                for code, coeff in g:
                    c = code + shift
                    if (c >> _SHIFT) < cap:
                        row[c] = coeff
                if row:
                    _eliminate_row(row, pivots)
    out = list(pivots.values())
    for i in range(cap + 1):
        out.append([(_encode((cap - i, i)), 1)])
    basis = _minimalize(out)
    n = _staircase_bound([_decode(t[0][0]) for t in basis])
    if n is not None and n < cap:
        return basis
    return None


def _standard_basis_from_gens(packed: tuple) -> StandardBasis:
    """Standard basis of the ideal of internal generators: Mora, else a fallback."""
    internal = _std(packed)
    if internal is None:
        split = _split_common_factor(packed)
        if split is None:
            # No common factor through the origin: the ideal is
            # zero-dimensional in the local ring, so some degree cap will be
            # accepted; doubling reaches it in O(log) attempts.  Elimination
            # cost grows steeply with the cap, so start small.
            cap = 4
            while (internal := _capped_std(packed, cap)) is None:
                cap *= 2
        else:
            # A standard basis of g*J is g times one of J: leading monomials
            # multiply, so the leading ideals match on both sides.
            g, cofactors = split
            inner = _standard_basis_cached(cofactors).packed
            internal = [_from_zz(_zsum((_zz(g), _zz(t)))) for t in inner]
    return StandardBasis(tuple(map(tuple, internal)))


def _pack(ideal: "Ideal | None") -> tuple:
    """The generators of an ideal as internal polynomials; None is the zero ideal."""
    if ideal is None:
        return ()
    return tuple(tuple(_to_internal(g)) for g in ideal.generators)


def _shift(t, code: int) -> tuple:
    """x^a y^b * t, for the code of x^a y^b."""
    return tuple((c + code, v) for c, v in t)


def _dim(sb: StandardBasis) -> "int | _Infinite":
    """dim_Q O/I for a standard basis of I."""
    heights = _staircase(sb.leading_monomials)
    return INFINITE if heights is None else sum(heights)


_X, _Y = _encode((1, 0)), _encode((0, 1))

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _BasisCache:
    """Bounded LRU cache of standard bases of m^k * J + P, keyed on (J, k, P).

    J and P are tuples of internal generators.  An entry with k = 0, or with
    J zero, is the entry of the generators J + P with k = 0: those serve
    :func:`standard_basis`, :func:`leading_ideal` and :func:`contains`.

    On a miss with k > 0, when the entry for k - 1 is present with basis G,
    the basis is computed from x*G, y*G and P, which generate
    m(m^(k-1) J + P) + P = m^k J + P; otherwise from the products of J with
    the monomials of degree k, and P.  Only a present entry seeds a miss:
    going down to k = 0 costs more than the direct route on a cold ideal.
    Hits and misses are counted as by :func:`functools.lru_cache`.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    @staticmethod
    def _key(gens: tuple, k: int, plus: tuple) -> tuple:
        return (gens, k, plus) if k and gens else (gens + plus, 0, ())

    def __call__(self, gens: tuple, k: int = 0, plus: tuple = ()) -> StandardBasis:
        key = self._key(gens, k, plus)
        sb = self._entries.get(key)
        if sb is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return sb
        self._misses += 1
        gens, k, plus = key
        prev = self._entries.get(self._key(gens, k - 1, plus)) if k else None
        if prev is not None:
            sb = _standard_basis_from_gens(
                tuple(_shift(t, s) for s in (_X, _Y) for t in prev.packed) + plus
            )
            _check_step(prev, sb, gens, k)
        else:
            shifts = [_encode((k - i, i)) for i in range(k + 1)]
            sb = _standard_basis_from_gens(
                tuple(_shift(t, s) for t in gens for s in shifts) + plus
            )
        self._entries[key] = sb
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return sb

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self._hits = self._misses = 0


def _check_step(prev: StandardBasis, sb: StandardBasis, gens: tuple, k: int) -> None:
    """Assert 0 <= colength(m^k J + P) - colength(m^(k-1) J + P) <= ord(J) + k.

    The quotient (m^(k-1) J + P)/(m^k J + P) is spanned by the image of
    m^(k-1) J / m^k J, whose dimension is the minimal number of generators of
    m^(k-1) J (Nakayama); in a two-dimensional regular local ring that is at
    most its order plus one (Huneke 1988).  A step outside is a wrong basis.
    """
    before, after = _dim(prev), _dim(sb)
    if before is INFINITE or after is INFINITE:
        return
    bound = min(t[0][0] >> _SHIFT for t in gens) + k
    if not 0 <= after - before <= bound:
        raise RuntimeError(
            f"colength went from {before} to {after} at k = {k}, "
            f"outside the bound 0..{bound}"
        )


# Bounded: one k-sweep pass of perfbench asks for about 1 050 distinct ideals,
# and an evicted basis is only recomputed.
_standard_basis_cached = _BasisCache(maxsize=4096)


def standard_basis(ideal: Ideal) -> StandardBasis:
    """Standard basis of a nonzero ideal under the local order."""
    if ideal.is_zero:
        raise ValueError("standard basis of the zero ideal is undefined")
    return _standard_basis_cached(_pack(ideal))


def leading_ideal(ideal: Ideal) -> tuple[Monomial, ...]:
    return standard_basis(ideal).leading_monomials


def colength(ideal: Ideal, k: int = 0, plus: "Ideal | None" = None) -> "int | _Infinite":
    """dim_Q O/(m^k * ideal + plus): the monomials outside the leading staircase.

    Finite exactly when the leading ideal contains a pure power of x and a
    pure power of y; otherwise returns INFINITE.  m^k * ideal is never
    expanded into polynomials: a sweep over k reuses the basis for k - 1
    (see :class:`_BasisCache`).
    """
    if k < 0:
        raise ValueError("negative power of the maximal ideal")
    gens, extra = _pack(ideal), _pack(plus)
    if not gens and not extra:
        raise ValueError("the zero ideal has infinite colength in every sense")
    return _dim(_standard_basis_cached(gens, k, extra))


def contains(ideal: Ideal, f: Poly) -> bool:
    """Membership of f in the ideal, inside the local ring.

    The normal form of f against the standard basis decides: truncated when
    the staircase is finite, under a step budget otherwise.  When that walk
    gives up, the staircase of I is infinite, so f is not in I when I + (f)
    is zero-dimensional, that is when its generators share no factor through
    the origin.  Otherwise f lies in I exactly when adjoining it leaves the
    leading ideal unchanged: I is inside I + (f), and ideals I inside J of
    the local ring with L(I) = L(J) are equal (Greuel-Pfister 1.6).
    """
    if ideal.is_zero:
        return f.is_zero
    if f.is_zero:
        return True
    sb = standard_basis(ideal)
    trunc = _staircase_bound(sb.leading_monomials)
    h = _to_internal(f)
    r, _ = _mora_nf(
        h,
        [_reducer(t) for t in sb.packed],
        trunc,
        _NF_STEP_BUDGET if trunc is None else None,
    )
    if r is not None:
        return not r
    if _split_common_factor(_pack(ideal) + (h,)) is None:
        return False
    return set(leading_ideal(ideal + Ideal.of(f))) == set(sb.leading_monomials)
