"""Standard bases, weak normal forms and colengths in the local ring at the origin.

Every numeric invariant downstream reduces to one computation: the colength
dim_Q O/I of an ideal I in the localized ring, read off the staircase of
leading monomials of a standard basis.  Standard bases are computed with the
tangent-cone algorithm: Buchberger's loop driven by Mora's weak normal form,
whose ecart strategy may adjoin intermediate remainders as extra reducers --
that is what makes division terminate under a local order.

A :class:`~folinv.ring.Poly` is content times a primitive term list, the
format :mod:`folinv.ring` defines: integer coefficients, monomials packed
into single ints ordered compatibly with the local order.  The engine reads
the term lists of its inputs as they are and builds Polys only for results
that callers ask for as such.  Its loops use fraction-free pseudo-reduction;
a nonzero normal form is determined up to a unit of the local ring, so
keeping it primitive with a positive leading coefficient loses nothing.  One
walk, :func:`_mora_nf`, computes every normal form, for standard bases,
membership and :func:`mora_normal_form` alike.  The exact gcd that splits a
common factor off the generators, :func:`_split_common_factor`, computes on
term lists as well, so the engine has no second polynomial format.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict, namedtuple
from functools import cached_property, lru_cache, reduce
from heapq import heappop, heappush
from math import gcd
from operator import attrgetter
from typing import Callable

from .ring import (
    _SHIFT,
    Monomial,
    Poly,
    _combine,
    _content,
    _decode,
    _encode,
    _product,
    _strip,
)


def _to_poly(t) -> Poly:
    """The Poly of an integer term list, which need not be primitive."""
    return Poly._of_terms(t)


def _ecart(t: list) -> int:
    return (t[-1][0] >> _SHIFT) - (t[0][0] >> _SHIFT)


def _reduce_step(h: list, g: list) -> list:
    """One cancellation of the leading term of h against g, fraction-free."""
    lch = h[0][1]
    lcg = g[0][1]
    d = gcd(lch, lcg)
    return _strip(_combine(h, lcg // d, 0, g, -(lch // d), h[0][0] - g[0][0]))


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


def _chain(lms) -> "tuple[list, int | None, int | None]":
    """The staircase of the monomial ideal of the exponent pairs ``lms``.

    Returns (chain, bound, colength).  ``chain`` holds the indices of the
    minimal generators, one for each distinct minimal pair, sorted by
    x-exponent; the x-exponents along it strictly increase and the
    y-exponents strictly decrease.  When the chain starts on the y-axis and
    ends on the x-axis, column a of the staircase has height b from a
    generator (a, b) up to its right neighbour (a', b'), so the colength is
    the sum of (a' - a) * b and the bound, the smallest N with m^N inside
    the ideal, is the largest a' + b - 1 over neighbours (0 for the unit
    ideal).  Both are None when the staircase is infinite.

    Once a partial basis reaches such an N, every monomial of degree >= N
    weak-reduces to zero against it: a reduction step never lowers total
    degree under the local order, so the walk stays in the divisible region,
    and Mora division terminates -- hence m^N is contained in the ideal and
    terms beyond the staircase may be discarded everywhere.
    """
    chain = []
    # By x-exponent, ties by y: a pair is minimal when its y-exponent is
    # below that of every pair before it.
    for i in sorted(range(len(lms)), key=lms.__getitem__):
        if not chain or lms[i][1] < lms[chain[-1]][1]:
            chain.append(i)
    if not chain or lms[chain[0]][0] or lms[chain[-1]][1]:
        return chain, None, None
    bound = colength = 0
    for i, j in zip(chain, chain[1:]):
        (a, b), a2 = lms[i], lms[j][0]
        bound = max(bound, a2 + b - 1)
        colength += (a2 - a) * b
    return chain, bound, colength


_NF_STEP_BUDGET = 20000
_COEFF_BIT_LIMIT = 6000
# The first time in a run of _std that a walk without a truncation degree
# has a leading coefficient past _SWELL_BITS, the run asks whether its
# generators share a factor through the origin, and when they do not, tries
# two small caps of capped elimination.  Census of the 226 runs of one
# `fallback` pass of perfbench at seed 1, pass 0: 26 split a monomial off
# before any walk, and 195 never reach the mark; of the 5 that do, 3 end on
# cap 8, and 2 are refused caps 4 and 8 and finish on Mora.  No run walks on
# to _COEFF_BIT_LIMIT, where the 3 runs that cap 8 now settles went after
# 91-126 steps.  The question costs a modular certificate, well under a
# millisecond on such inputs, and each small cap about as much.
_SWELL_BITS = 256


def _reducer(t: list) -> tuple:
    """A term list as a reducer of :func:`_mora_nf`.

    (a, b, code, ecart, t): the exponents and the code of its leading
    monomial, for a divisibility test without decoding, and its ecart.
    """
    return (*_decode(t[0][0]), t[0][0], _ecart(t), t)


def _mora_nf(
    h: list,
    basis: list,
    trunc: "int | None" = None,
    budget: "int | None" = None,
    swelling: "Callable[[], object] | None" = None,
) -> "tuple[list | None, int | None]":
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
    when the budget runs out or a leading coefficient passes
    _COEFF_BIT_LIMIT bits.  It gives up for one of two reasons:

    * a shared factor: without a truncation degree the walk length has no
      useful a-priori bound, and when the generators of the ideal share a
      factor vanishing at the origin no truncation degree ever appears, so
      the walk may run on and its coefficients swell without end;
    * swell: the walk is finite, with a truncation degree or without a
      shared factor, but iterated pseudo-reduction against adjoined reducers
      compounds integer coefficients exponentially.

    ``swelling`` is called, at most once, when a leading coefficient first
    passes _SWELL_BITS: a true result gives up now.
    """
    if trunc is not None:
        h = _truncate(h, trunc)
    reducers = list(basis)
    while h:
        if budget is not None:
            budget -= 1
            bits = h[0][1].bit_length()
            if budget < 0 or bits > _COEFF_BIT_LIMIT:
                return None, budget
            if bits > _SWELL_BITS and swelling is not None:
                if swelling():
                    return None, budget
                swelling = None
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
        h = _reduce_step(h, t)
        if trunc is not None:
            h = _truncate(h, trunc)
    return _strip(h), budget


_SWELL = "swell"


def _std(gens) -> "tuple[list | None, tuple | str | None]":
    """Tangent-cone standard basis of a sequence of term lists, and why it gave up.

    Normal strategy: s-pairs are processed by increasing total degree of the
    lcm of leading monomials, ties by the indices of the pair.  The tails are
    left as computed, since full tail reduction need not terminate under a
    local order.

    The run keeps its staircase as a chain, as :func:`_chain` returns it:
    the indices of the elements with minimal leading exponents, sorted by
    x-exponent.  In the plane the syzygies of the leading monomials of the
    chain are generated by those of neighbours (Miller-Sturmfels, ch. 3).
    So an element j makes, with L_ij = lcm(LM_i, LM_j):

    * when a chain element i divides it, a divisor pair (i, j), and j does
      not join the chain;
    * otherwise a divisor pair with each chain element whose leading
      monomial it divides, which leaves the chain, and a neighbour pair with
      each of its two neighbours once it has joined.

    A neighbour pair is skipped when it leaves the queue if its elements
    are no longer neighbours: the element l that came between them, or that
    pushed one of them out, divides L_ij, so the syzygy of (i, j) is one of
    (i, l) and (l, j).  The divisor syzygies reduce every syzygy of an
    element outside the chain to the chain, and the neighbour syzygies
    generate those of the chain, so by the standard-basis criterion
    (Greuel-Pfister 1.7) the s-polynomials of these pairs suffice.  The
    basis returned is the chain, in its order.

    Truncation: every term of the s-polynomial of (i, j) has degree at least
    that of L_ij, so a pair with deg L_ij >= the staircase bound lies in a
    power of the maximal ideal already known to be contained in the ideal,
    and is not queued.  That settles every pair with coprime leading
    monomials, since x^a and y^b bound the staircase below degree a + b.
    The staircase bound only falls as the basis grows, and the queue is
    ordered by lcm degree, so the first pair taken off it at or beyond the
    bound ends the loop.

    The normal forms of a run share a budget of _NF_STEP_BUDGET steps per
    generator, so the cost of a run that gives up grows with its input and
    not with the number of walks it makes.  Returns (basis, None), or
    (None, reason) when a normal form gives up (see :func:`_mora_nf`), for
    one of two reasons:

    * a shared factor: the generators share a factor through the origin, and
      the reason is their split by :func:`_split_common_factor`;
    * swell, the reason _SWELL: the ideal is zero-dimensional, shown by a
      truncation degree or by the absence of a shared factor.

    Before any walk, when every leading monomial has a positive x-exponent,
    or every one a positive y-exponent, the run looks for a monomial m != 1
    dividing every input term (:func:`_monomial_split`).  One is a shared factor, and the run
    returns the reason (m, cofactors) at once: a standard basis of m*J is m
    times one of J, since leading monomials multiply, so no walk, certificate
    or gcd is needed.  The least x-exponent of all terms is at most that of
    the leading monomials, and so is the least y-exponent, so the scan runs
    only when it may find m.

    The run asks once whether its generators share a factor through the
    origin: when a walk without a truncation degree first passes
    _SWELL_BITS, or gives up before that.  A walk with a truncation degree
    cannot give up for a shared factor, since m^N lies in the ideal.  The
    question costs the certificate :func:`_coprime` when it is answered no,
    and an exact gcd only when the certificate fails.  Answered no at the
    mark, the run tries capped elimination at caps 4 and 8 (see the closure
    ``split``); an accepted cap ends the run with its basis, returned as
    (basis, None), and otherwise the walk goes on.
    """
    G = [list(g) for g in gens]
    reducers = [_reducer(g) for g in G]
    exps = [r[:2] for r in reducers]
    if G and (min(exps)[0] or min(b for _, b in exps)) and (parts := _monomial_split(G)):
        return None, parts
    trunc = _chain(exps)[1]
    budget = _NF_STEP_BUDGET * len(G)
    heap = []
    chain, xs = [], []  # the chain, and the x-exponents along it
    inputs = G[:]
    answer = []  # the split below, once asked, then a basis that a cap settled

    def split(mark: bool = True) -> "tuple | bool | None":
        """The split of the inputs by a shared factor, asked at most once.

        Asked at the swell mark, an answer of no shared factor shows the
        ideal zero-dimensional, and capped elimination tries caps 4 and 8,
        the first two caps of the doubling in
        :func:`_standard_basis_from_gens`.  A cap at or
        below the least order of the inputs is skipped: elimination has no
        rows there, so it could not be accepted.  An accepted basis is kept
        and the result is True, which ends the walk and the run.

        Kept in a list, not behind functools.cache: most runs never ask, and
        making a cache wrapper in every run put about 6 % on the median op of
        perfbench's `fallback` workload.
        """
        if not answer:
            answer.append(None if _coprime(inputs) else _split_common_factor(inputs))
            if mark and answer[0] is None:
                least = min(t[0][0] for t in inputs) >> _SHIFT
                for cap in (4, 8):
                    if cap > least and (basis := _capped_std(inputs, cap)) is not None:
                        answer.append(basis)
                        return True
        return answer[0]

    def pair(i: int, j: int, neighbours: bool) -> None:
        """Queue the pair (i, j) unless truncation settles it."""
        (ai, bi), (aj, bj) = exps[i], exps[j]
        deg = max(ai, aj) + max(bi, bj)
        if trunc is None or deg < trunc:
            heappush(heap, (deg, i, j, neighbours))

    def insert(j: int) -> None:
        """Make the pairs of element j, and let it join the chain if it can."""
        aj, bj = exps[j]
        p = bisect_right(xs, aj)
        if p and exps[chain[p - 1]][1] <= bj:
            pair(chain[p - 1], j, False)
            return
        # j divides the chain elements from the first one with x-exponent aj
        # on, as long as their y-exponents are at least bj.
        q = end = bisect_left(xs, aj, 0, p)
        while end < len(chain) and exps[chain[end]][1] >= bj:
            pair(chain[end], j, False)
            end += 1
        chain[q:end] = [j]
        xs[q:end] = [aj]
        if q:
            pair(chain[q - 1], j, True)
        if q + 1 < len(chain):
            pair(j, chain[q + 1], True)

    for j in range(len(G)):
        insert(j)
    while heap:
        deg, i, j, neighbours = heappop(heap)
        if trunc is not None and deg >= trunc:
            break
        if neighbours:
            p = bisect_left(xs, exps[i][0])
            if chain[p : p + 2] != [i, j]:
                continue
        s = _spoly(G[i], G[j], (deg << _SHIFT) | max(exps[i][1], exps[j][1]))
        if not s:
            continue
        swelling = None if trunc is not None else split
        r, budget = _mora_nf(s, reducers, trunc, budget, swelling)
        if r is None:
            if answer[1:]:
                return answer[1], None
            parts = split(False) if trunc is None else None
            return None, _SWELL if parts is None else parts
        if r:
            G.append(r)
            reducers.append(_reducer(r))
            exps.append(reducers[-1][:2])
            trunc = _chain([exps[c] for c in chain] + [exps[-1]])[1]
            insert(len(G) - 1)
    return [G[c] for c in chain], None


# -- public types -----------------------------------------------------------


class _Infinite:
    """Colength of an ideal that is not zero-dimensional.  A value, not an error."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "infinite"

    def __reduce__(self):
        # the module's name: pickle and copy hand back the one value
        return "INFINITE"


INFINITE = _Infinite()


def is_finite(c) -> bool:
    return c is not INFINITE


class _Value:
    """An immutable value, compared, hashed and shown by its ``_fields``.

    A subclass names its fields in ``_fields``, and in ``__slots__`` unless
    it needs a ``__dict__``, and sets them in ``__init__`` through
    ``object.__setattr__``, as :class:`~folinv.ring.Poly` does.  Other slots
    may keep forms made from the fields; equality, hashing, pickle and copy
    read the fields alone, through ``_key``, one ``attrgetter`` made with
    the class: the field itself for one field, else the tuple of them.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # pickle and copy rebuild the value through __init__, which makes
        # its own kept forms
        key = self._key(self)
        return type(self), key if len(self._fields) > 1 else (key,)


class Ideal(_Value):
    """Finitely generated ideal of the local ring; zero generators are dropped.

    ``_packed`` keeps the term lists (prim) of the generators, the form
    :func:`colength` and the basis cache read, made once with the value.
    """

    _fields = ("generators",)
    __slots__ = ("generators", "_packed")

    def __init__(self, generators: tuple[Poly, ...] = ()):
        gens, packed = [], []
        for g in generators:
            t = g.prim
            if t:
                gens.append(g)
                packed.append(t)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_packed", tuple(packed))

    @classmethod
    def of(cls, *polys: Poly) -> "Ideal":
        return cls(polys)

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        return Ideal(self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        return Ideal(
            tuple(g * h for g in self.generators for h in other.generators)
        )

    def __repr__(self) -> str:
        return "Ideal(" + ", ".join(str(g) for g in self.generators) + ")"


def ideal_sum(i: Ideal, j: Ideal) -> Ideal:
    return i + j


def ideal_product(i: Ideal, j: Ideal) -> Ideal:
    return i * j


def _order(k) -> int:
    """k, when it is an order of the engine: an int >= 0 that is no bool."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"the power of the maximal ideal must be an int >= 0, not {k!r}")
    return k


@lru_cache(maxsize=64, typed=True)
def maximal_ideal_power(k: int) -> Ideal:
    """The ideal m^k: generated by the k+1 monomials of total degree k; m^0 = (1).

    Memoized: callers that expand m^k * J ask for the same few powers over and
    over; :func:`colength` takes k instead and expands nothing.  An expanded
    ``J * maximal_ideal_power(k) + plus`` runs Mora on all the products,
    which can take minutes where ``colength(J, k, plus)`` takes
    milliseconds.  The cache is typed, so a float or bool k equal to a
    cached int still reaches :func:`_order`.
    """
    k = _order(k)
    return Ideal(tuple(Poly.term((k - i, i)) for i in range(k + 1)))


class StandardBasis(_Value):
    """Standard basis of an ideal: monic elements, minimal set of leading monomials.

    ``packed`` holds the elements as the engine computed them, as term
    lists, in chain order: the x-exponents of their leading monomials
    strictly increase and the y-exponents strictly decrease (see
    :func:`_chain`).  ``elements`` and ``leading_monomials`` are read off
    them on first access, in the same order, and so is ``_staircase``, the
    (bound, colength) of :func:`_chain`; they are kept in the instance
    ``__dict__``.
    """

    _fields = ("packed",)

    def __init__(self, packed: tuple):
        object.__setattr__(self, "packed", packed)

    @cached_property
    def elements(self) -> tuple[Poly, ...]:
        return tuple(_to_poly(t).monic() for t in self.packed)

    @cached_property
    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(_decode(t[0][0]) for t in self.packed)

    @cached_property
    def _staircase(self) -> "tuple[int | None, int | None]":
        return _chain(self.leading_monomials)[1:]

    @cached_property
    def _factor(self) -> "tuple[list, StandardBasis] | None":
        """None for a finite staircase, else (g, basis of J) with I = g*J.

        Made on first use, for every basis alike.  The elements of a standard
        basis of I generate I in the local ring, so their primitive gcd g,
        which :func:`_split_common_factor` finds, gives I = g*J with J
        generated by the cofactors.  They share no factor, so J is
        zero-dimensional; and g vanishes at the origin, since elements that
        share no curve through it would generate a zero-dimensional I.  That
        is all :func:`contains` needs.  The empty basis, that of the zero
        ideal, has no split: :func:`contains` walks f against no reducers.
        """
        if self._staircase[0] is not None or not self.packed:
            return None
        g, cofactors = _split_common_factor(self.packed)
        return g, _standard_basis_cached(cofactors)


# -- public operations ------------------------------------------------------


def mora_normal_form(f: Poly, basis) -> Poly:
    """Weak normal form of f against a list of nonzero polynomials.

    The result r has a leading monomial divisible by no leading monomial of
    the basis, and u*f = sum(q_i * g_i) + r for some unit u of the local ring;
    so r == 0 decides membership whenever the basis is a standard basis.  The
    returned representative is normalized up to a unit (integer coefficients,
    content-free, positive leading coefficient).

    When the leading monomials of the basis, standard or not, have a
    staircase bound N, m^N lies in the ideal (see :func:`_chain`), so the
    walk drops terms of degree >= N and is finite.  Without such N it runs
    under the step budget and coefficient limit of every walk, and raises
    RuntimeError past either.
    """
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("normal form against a basis containing zero")
    reducers = [_reducer(g.prim) for g in basis]
    trunc = _chain([r[:2] for r in reducers])[1]
    budget = _NF_STEP_BUDGET if trunc is None else None
    r, _ = _mora_nf(f.prim, reducers, trunc, budget)
    if r is None:
        raise RuntimeError(
            f"the walk gave up: more than {_NF_STEP_BUDGET} steps "
            f"or a coefficient past {_COEFF_BIT_LIMIT} bits"
        )
    return _to_poly(r)


# -- exact gcd in Z[x, y] ---------------------------------------------------
#
# Polynomials in this section are term lists, as everywhere in the engine.
# Exact division goes by the last term of each list: the largest in the order
# of codes, by degree and then by y-exponent.  Multiplying monomials adds
# codes, so that order is a global monomial order, and division terminates.


def _quo(p, q) -> "list | None":
    """p / q when q divides p in Z[x, y], else None."""
    lq, cq = q[-1]
    aq, bq = _decode(lq)
    out = []
    while p:
        lp, cp = p[-1]
        a, b = _decode(lp)
        c, r = divmod(cp, cq)
        if a < aq or b < bq or r:
            return None
        out.append((lp - lq, c))
        p = _combine(p, 1, 0, q, -c, lp - lq)
    out.reverse()
    return out


def _lead(p, v: int) -> "tuple[int, list]":
    """Degree of p in the variable v (0: x, 1: y) and its coefficient there,
    a term list in the other variable."""
    degs = [_decode(code)[v] for code, _ in p]
    d = max(degs)
    s = _encode((0, d) if v else (d, 0))
    return d, [(code - s, c) for (code, c), e in zip(p, degs) if e == d]


def _primitive(p, v: int) -> "tuple[list, list]":
    """(content, primitive part) of p in the variable v, as term lists.

    For v = 1, p lies in Z[y] and its content is an integer.
    """
    if v:
        return [(0, _content(p))], _strip(p)
    coeffs: dict = {}
    for code, c in p:
        a, b = _decode(code)
        coeffs.setdefault(a, []).append((_encode((0, b)), c))
    cont = reduce(lambda s, t: _gcd(s, t, 1), coeffs.values())
    return cont, _quo(p, cont)


def _gcd(p, q, v: int = 0) -> list:
    """A gcd of nonzero p, q in Z[x, y], up to sign.

    A primitive pseudo-remainder sequence in x (v = 0) over Z[y].  The contents
    in x are gcds in Z[y], taken by the same sequence in y (v = 1) over Z.
    """
    cp, p = _primitive(p, v)
    cq, q = _primitive(q, v)
    c = _gcd(cp, cq, 1) if v == 0 else [(0, gcd(cp[0][1], cq[0][1]))]
    if _lead(p, v)[0] < _lead(q, v)[0]:
        p, q = q, p
    dq, lq = _lead(q, v)
    while dq > 0:
        while p:
            dp, lp = _lead(p, v)
            if dp < dq:
                break
            shift = _encode((0, dp - dq) if v else (dp - dq, 0))
            p = _combine(_product(lq, p), 1, 0, _product(lp, q), -1, shift)
        if not p:
            return _product(c, q)
        p, q = q, _primitive(p, v)[1]
        dq, lq = _lead(q, v)
    return c


def _monomial_split(gens) -> "tuple[list, tuple] | None":
    """Factor term lists as m * cofactors, m = x^a y^b the monomial that
    divides every term; None when m = 1.  m and the cofactors are term lists."""
    exps = [_decode(code) for t in gens for code, _ in t]
    a, b = min(a for a, _ in exps), min(b for _, b in exps)
    if not (a or b):
        return None
    m = _encode((a, b))
    return [(m, 1)], tuple(_shift(t, -m) for t in gens)


def _split_common_factor(gens) -> "tuple[list, tuple] | None":
    """Factor term lists as g * cofactors, g their primitive gcd in Z[x, y].

    Returns None when g(0) != 0: the generators then share no curve through
    the origin, so the ideal they generate in the local ring is
    zero-dimensional.  Otherwise g = v*w, v the product of the irreducible
    factors of g through the origin and w(0) != 0 a unit of the local ring, so
    g and v generate the same local ideal and have the same leading monomial.
    The cofactors are gens/g up to nonzero constants.  g and the cofactors
    are term lists.

    The gcd starts from the shortest generator, and a further generator costs
    a gcd only when the gcd so far does not divide it.  A partial gcd that
    does not vanish at the origin ends the search, since so does every
    divisor of it.
    """
    order = sorted(range(len(gens)), key=lambda i: len(gens[i]))
    g = gens[order[0]]
    quotients = {}
    for i in order[1:]:
        if g[0][0] == 0:
            return None
        q = _quo(gens[i], g)
        if q is None:
            g = _gcd(g, gens[i])
            quotients = {}
        else:
            quotients[i] = q
    if g[0][0] == 0:
        return None
    return list(_strip(g)), tuple(
        tuple(_strip(quotients[i] if i in quotients else _quo(t, g)))
        for i, t in enumerate(gens)
    )


# -- a modular certificate of coprimality -----------------------------------
#
# Set y := r modulo a prime p.  A common factor h of the generators with
# positive degree in x keeps that degree when the leading coefficient of h in
# x does not vanish at r mod p, and it does not when that of one generator
# does not, as h divides it (Gauss's lemma: a factor over Q is one over Z).
# Then h(x, r) divides every specialisation in F_p[x], so a gcd of degree 0
# there shows that no such h exists.  The same with x := r covers positive
# degree in y, and a factor of degree 0 in both is a constant.

_PRIME = (1 << 61) - 1
# Residues far from the small integers at which the resultants of small
# inputs tend to vanish, which would fail the certificate for nothing.
_POINTS = (1_000_003, 7_654_321_987, 123_456_789_123_457)


def _specialise(t, v: int, r: int) -> list:
    """Coefficients mod _PRIME, lowest first, of t in the variable v (0: x,
    1: y) with the other one set to r; no trailing zeros, [] for zero."""
    out: list = []
    powers = [1]
    for code, c in t:
        e, k = _decode(code)
        if v:
            e, k = k, e
        while len(powers) <= k:
            powers.append(powers[-1] * r % _PRIME)
        if e >= len(out):
            out.extend([0] * (e + 1 - len(out)))
        out[e] = (out[e] + c * powers[k]) % _PRIME
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_mod_p(f: list, g: list) -> list:
    """A gcd in F_p[t] of two coefficient lists as :func:`_specialise` gives."""
    while g:
        inv = pow(g[-1], -1, _PRIME)
        dg = len(g) - 1
        f = list(f)
        while len(f) > dg:
            c = f[-1] * inv % _PRIME
            s = len(f) - 1 - dg
            for i in range(dg):
                f[s + i] = (f[s + i] - c * g[i]) % _PRIME
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return f


def _coprime_in(gens, v: int) -> bool:
    """True only if the term lists share no factor of positive degree in v."""
    degs = [max(_decode(code)[v] for code, _ in t) for t in gens]
    lead = min(range(len(gens)), key=degs.__getitem__)
    for r in _POINTS:
        g = _specialise(gens[lead], v, r)
        if len(g) == degs[lead] + 1:
            break
    else:
        return False
    for i, t in enumerate(gens):
        if len(g) == 1:
            return True
        if i != lead:
            g = _gcd_mod_p(g, _specialise(t, v, r))
    return len(g) == 1


def _coprime(gens) -> bool:
    """True only if the nonzero term lists share no nonconstant factor.

    A certificate: False means only that it did not show coprimality, which
    an exact gcd then decides.  It is never True for generators that share a
    factor, whatever its value at the origin.
    """
    return _coprime_in(gens, 0) and _coprime_in(gens, 1)


def _eliminate_row(row: dict, pivots: dict) -> None:
    """Reduce a sparse row against the pivot rows and insert it if nonzero.

    Rows are dicts code -> int; the pivot column of a row is its smallest
    code, i.e. its leading monomial in the local order.  Reduction is
    fraction-free (Bareiss): cross-multiply by the two leading coefficients
    over their gcd, then divide out the row content.  Pivot rows are stored
    as term lists: sorted, primitive, positive leading coefficient.
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
        gmin = g[0][0] >> _SHIFT
        for s in range(max(0, cap - gmin)):
            for b in range(s + 1):
                shift = _encode((s - b, b))
                row = {}
                for code, coeff in g:
                    c = code + shift
                    if (c >> _SHIFT) < cap:
                        row[c] = coeff
                _eliminate_row(row, pivots)
    out = list(pivots.values())
    for i in range(cap + 1):
        out.append([(_encode((cap - i, i)), 1)])
    chain, n, _ = _chain([_decode(t[0][0]) for t in out])
    if n is not None and n < cap:
        return [out[i] for i in chain]
    return None


def _colength_bound(gens) -> int:
    """A bound on dim O/I for the zero-dimensional ideal I of the term lists.

    Take g, a generator of least degree d, and h = sum of s^i * g_i over the
    others.  A factor of g through the origin divides h for at most
    len(gens) - 2 values of s unless it divides every generator, which a
    zero-dimensional I rules out; so for some s, g and h share no factor
    through the origin.  Then dim O/I <= dim O/(g, h) <= deg g * deg h
    (Bezout: a common factor w with w(0) != 0 is a unit of the local ring
    and only lowers the degrees), and deg h is at most the largest degree D
    of a generator: the bound is d * D.  The degree of a term list is that
    of its last term.
    """
    degrees = [t[-1][0] >> _SHIFT for t in gens]
    return min(degrees) * max(degrees)


def _standard_basis_from_gens(packed: tuple) -> StandardBasis:
    """Standard basis of the ideal of term-list generators.

    The route after a Mora run is chosen here, from the reason it gives up
    (see :func:`_std`; the small caps inside a run are chosen there):

    * a shared factor: a standard basis of g*J is g times one of J, since
      leading monomials multiply, so the cofactors J of the split go back to
      the cache.  Membership splits the basis's own elements on first use
      (see :attr:`StandardBasis._factor`);
    * swell: the ideal is zero-dimensional, so capped elimination accepts
      every cap above its colength c, and m^c lies in it.  Doubling from a
      small cap reaches one in O(log c) attempts, and elimination cost grows
      steeply with the cap.  c is at most :func:`_colength_bound`, and a cap
      past that bound that is not accepted is a RuntimeError, not a further
      doubling.

    The first two caps of that doubling, 4 and 8, are also the early route
    inside the run: when a walk first passes _SWELL_BITS and the generators
    share no factor, :func:`_std` tries them there, and an accepted one
    returns its basis as a finished run's.  That settles a zero-dimensional
    ideal with a small staircase in about a millisecond where the walk would
    run on to _COEFF_BIT_LIMIT.  A larger cap is left to the walk: two runs
    that Mora finishes in a `fallback` pass of perfbench need cap 16, which
    costs more than their walks.  A run that is refused both small caps and
    still gives up comes here and doubles from 4 again.
    """
    internal, reason = _std(packed)
    if internal is None and reason is _SWELL:
        cap, bound = 4, _colength_bound(packed)
        while (internal := _capped_std(packed, cap)) is None:
            if cap > bound:
                raise RuntimeError(
                    f"capped elimination refused cap {cap}, above the colength bound {bound}"
                )
            cap = min(2 * cap, bound + 1)
    elif internal is None:
        g, cofactors = reason
        internal = [_product(g, t) for t in _standard_basis_cached(cofactors).packed]
    return StandardBasis(tuple(map(tuple, internal)))


def _pack(ideal: "Ideal | None") -> tuple:
    """The term lists (prim) of an ideal's generators, as the ideal keeps
    them; None is the zero ideal."""
    return () if ideal is None else ideal._packed


def _shift(t, code: int) -> tuple:
    """x^a y^b * t, for the code of x^a y^b."""
    return tuple((c + code, v) for c, v in t)


def _dim(sb: StandardBasis) -> "int | _Infinite":
    """dim_Q O/I for a standard basis of I."""
    c = sb._staircase[1]
    return INFINITE if c is None else c


_X, _Y = _encode((1, 0)), _encode((0, 1))

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _BasisCache:
    """Bounded LRU cache of standard bases of m^k * J + P, keyed on (J, k, P).

    J and P are tuples of term lists.  An entry with k = 0, or with
    J zero, is the entry of the generators J + P with k = 0: those serve
    :func:`standard_basis`, :func:`leading_ideal` and :func:`contains`.

    A miss with k > 0 is computed from the entry for k - 1, with basis G:
    x*G, y*G and P generate m(m^(k-1) J + P) + P = m^k J + P, so m^k J is
    never expanded.  The Mora run is seeded with the distinct elements of
    x*G and y*G, in the chain order of G, then P: x*g_i = y*g_(i+1) for
    some neighbours g_i, g_(i+1) of the chain, and a repeated generator only
    adds s-polynomials that reduce to zero.  The entry for k - 1 comes from
    :meth:`_sweep` to k - 1, which fills any absent order below k first, in
    increasing order.  A colength is the exception: when the basis such a
    fill starts from is infinite, so is every order, and :meth:`colength`
    answers INFINITE from it without filling any other.
    Hits and misses are counted as by :func:`functools.lru_cache`, and the
    sweep counts as calls: a cold order k makes k + 1 misses and k - 1 hits.

    Beside the bases, the cache keeps a tail for (J, P) when P = (f): the
    first order k0 at which :func:`_check_step` certified the step, and the
    colength c0 there, under the key (J, None, P).  Every later colength is
    c0 + (k - k0) * ord(f), and :meth:`colength` answers it with no basis.
    A tail shares the bound and the LRU order of the bases, is dropped by
    :meth:`cache_clear`, and an answer read from it counts as a hit.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    @staticmethod
    def _key(gens: tuple, k: int, plus: tuple) -> tuple:
        return (gens, k, plus) if k and gens else (gens + plus, 0, ())

    def _store(self, key: tuple, value) -> None:
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def _sweep(self, gens: tuple, k: int, plus: tuple):
        """Yield the bases, each through the cache, for the orders from the
        highest one present at or below k, or from 0, up to k."""
        j = k
        while j and self._key(gens, j, plus) not in self._entries:
            j -= 1
        for i in range(j, k + 1):
            yield self(gens, i, plus)  # each miss finds the entry for i - 1

    def _hit(self, key: tuple):
        """The entry under key, counted as a hit and made the newest; None when absent."""
        value = self._entries.get(key)
        if value is not None:
            self._hits += 1
            self._entries.move_to_end(key)
        return value

    def __call__(self, gens: tuple, k: int = 0, plus: tuple = ()) -> StandardBasis:
        key = self._key(gens, k, plus)
        return self._hit(key) or self._miss(key)

    def _miss(self, key: tuple, fill: bool = True) -> StandardBasis:
        """Compute, store and return the basis under key, which is absent.

        With fill false, when the basis the fill starts from is infinite,
        that basis is returned and nothing more is computed: then every
        order of (J, P) is infinite.
        """
        self._misses += 1
        gens, k, plus = key
        if not k:
            sb = _standard_basis_from_gens(gens + plus)
            self._store(key, sb)
            return sb
        for prev in self._sweep(gens, k - 1, plus):
            if not fill and _dim(prev) is INFINITE:
                return prev
        # prev is the basis for k - 1.  Along its chain, x*g_i and y*g_j share
        # a leading monomial only for j = i + 1, so a shift can repeat only
        # the one emitted just before it.
        seed = []
        for t in prev.packed:
            yt = _shift(t, _Y)
            if not seed or yt != seed[-1]:
                seed.append(yt)
            seed.append(_shift(t, _X))
        sb = _standard_basis_from_gens((*seed, *plus))
        certified = _check_step(prev, sb, gens, k, plus)
        self._store(key, sb)
        if certified and (gens, None, plus) not in self._entries:
            self._store((gens, None, plus), (k, _dim(sb)))
        return sb

    def colength(self, gens: tuple, k: int, plus: tuple) -> "int | _Infinite":
        """dim O/(m^k J + P), read off a tail when one covers k.

        m^k (J + P) lies in m^k J + P, which lies in J + P, so every order of
        (J, P) is finite or none is.  A miss stops as soon as the basis its
        fill starts from, the highest order present below k or order 0, is
        infinite, and answers INFINITE; a hit makes no such check.

        Only a P with one generator f has a tail.  For it, a k with no tail
        walks :meth:`_sweep` to k, as a miss does to k - 1, and stops at the
        first certified step; an order past it is never computed.  Any other
        request is the colength of the basis for k.
        """
        key = self._key(gens, k, plus)
        if len(plus) != 1 or not key[1]:
            return _dim(self._hit(key) or self._miss(key, fill=False))
        tkey = (gens, None, plus)
        tail = self._entries.get(tkey)
        if tail is None:
            for sb in self._sweep(gens, k, plus):
                if tkey in self._entries:
                    break
                if _dim(sb) is INFINITE:
                    return INFINITE
            else:
                return _dim(sb)
            tail = self._entries[tkey]
        elif k < tail[0]:
            return _dim(self(gens, k, plus))
        else:
            self._hits += 1
        self._entries.move_to_end(tkey)
        k0, c0 = tail
        return c0 + (k - k0) * (plus[0][0][0] >> _SHIFT)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self._hits = self._misses = 0


def _check_step(
    prev: StandardBasis, sb: StandardBasis, gens: tuple, k: int, plus: tuple
) -> bool:
    """Assert 0 <= colength(m^k J + P) - colength(m^(k-1) J + P) <= ord(J) + k,
    and return True when the step certifies a tail: P = (f) and the step is
    ord(f).

    The quotient (m^(k-1) J + P)/(m^k J + P) is spanned by the image of
    m^(k-1) J / m^k J, whose dimension is the minimal number of generators of
    m^(k-1) J (Nakayama); in a two-dimensional regular local ring that is at
    most its order plus one (Huneke 1988).  A step outside is a wrong basis.

    When P = (f), the step is also at most ord(f).  In A = O/(f), with
    N = m^(k-1) J A and a linear form l outside the tangent cone of f, l is a
    nonzerodivisor on A with dim A/lA = ord(f).  N has finite colength, so
    dim N/lN = dim A/lA, and the step dim N/mN is at most
    dim N/lN = ord(f), since lN lies in mN (Northcott-Rees 1954).

    Equality propagates.  A step of ord(f) means mN = lN, as lN lies in mN
    and both have colength dim A/N + ord(f) in A.  Then m(mN) = m(lN) =
    l(mN), so the next step, dim mN/m(mN) = dim mN/l(mN) = ord(f), is ord(f)
    again, and so is every later one (Huneke-Swanson 2006, ch. 8).  From the
    first such k0 on, colength(m^k J + (f)) = colength(m^k0 J + (f)) +
    (k - k0) * ord(f): the tail that :meth:`_BasisCache.colength` answers
    from.
    """
    before, after = _dim(prev), _dim(sb)
    if before is INFINITE or after is INFINITE:
        return False
    bound = min(t[0][0] >> _SHIFT for t in gens) + k
    if len(plus) == 1:
        bound = min(bound, plus[0][0][0] >> _SHIFT)
    if not 0 <= after - before <= bound:
        raise RuntimeError(
            f"colength went from {before} to {after} at k = {k}, "
            f"outside the bound 0..{bound}"
        )
    return len(plus) == 1 and after - before == plus[0][0][0] >> _SHIFT


# Bounded: one k-sweep pass of perfbench keeps 750 entries (708 bases and 42
# tails), and an evicted entry is only recomputed.
_standard_basis_cached = _BasisCache(maxsize=4096)


def standard_basis(ideal: Ideal) -> StandardBasis:
    """Standard basis of an ideal under the local order; the zero ideal has the empty one."""
    return _standard_basis_cached(_pack(ideal))


def leading_ideal(ideal: Ideal) -> tuple[Monomial, ...]:
    """The minimal generators of the leading ideal, by increasing x-exponent; () for zero."""
    return standard_basis(ideal).leading_monomials


def colength(ideal: Ideal, k: int = 0, plus: "Ideal | None" = None) -> "int | _Infinite":
    """dim_Q O/(m^k * ideal + plus): the monomials outside the leading staircase.

    Finite exactly when the leading ideal contains a pure power of x and a
    pure power of y; otherwise, as for the zero ideal, returns INFINITE.
    m^k * ideal is never expanded into polynomials: the basis for k comes
    from the distinct elements of x*G, y*G and plus, G the basis for k - 1,
    and a cold k fills the orders below it first (see :class:`_BasisCache`).
    The colength of ``ideal * maximal_ideal_power(k) + plus`` is the same
    number, but Mora runs there on the expanded products, which can take
    minutes where this takes milliseconds.  Every order is infinite when
    order 0 is, and then the fill stops at order 0.  When plus has one
    generator f, a k past the first step of ord(f) is answered with no
    basis, from the tail that step certifies (see :func:`_check_step`).
    """
    return _standard_basis_cached.colength(_pack(ideal), _order(k), _pack(plus))


def contains(ideal: Ideal, f: Poly) -> bool:
    """Membership of f in the ideal I, inside the local ring.

    The normal form of f against the standard basis decides, truncated at
    the staircase bound.  When the staircase is infinite, the generators
    share a factor g through the origin, and I = g*J with J zero-dimensional;
    the basis splits its own elements so on first use and keeps the split
    (see :attr:`StandardBasis._factor`).  Let d be a gcd of g and f:

    * g/d and f/d are coprime polynomials, and coprime plane polynomials
      share no curve germ;
    * so g divides f in the local ring exactly when g/d is a unit there;
    * in that case g*J = d*J, and f lies in it exactly when f/d lies in J.

    The normal form of f/d against the basis of J, truncated at its
    staircase bound, decides that.  So every walk here is finite by
    construction.
    """
    if f.is_zero:
        return True
    sb = standard_basis(ideal)
    h = f.prim
    if sb._factor is not None:
        g, sb = sb._factor
        d = _gcd(g, h)
        if _quo(g, d)[0][0]:  # no constant term: g/d vanishes at the origin
            return False
        h = _quo(h, d)
    r, _ = _mora_nf(h, [_reducer(t) for t in sb.packed], sb._staircase[0])
    return not r
