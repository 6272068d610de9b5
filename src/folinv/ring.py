"""Exact sparse bivariate polynomials over the rationals with a local term order.

Polynomials stand for germs of holomorphic functions at the origin of the
plane, restricted to rational coefficients.  A monomial is an exponent pair
``(a, b)`` meaning x^a * y^b, with a and b nonnegative; the constructors
refuse a negative exponent.

The order is the local degree order: monomials of *lower* total degree are
*larger* (the constant monomial 1 is the maximum), with ties broken reverse
lexicographically taking x > y.  For example 1 > x > y > x^2 > x*y > y^2.
Normal forms computed against this order live in the local ring (convergent
power series localized at the origin) rather than in the polynomial ring,
which is what every colength downstream relies on.

The packed code ``_encode`` is the only statement of this order in the
package.  The code of x^a y^b is ((a+b) << _SHIFT) | b, so integer order
of codes is the local order read descending, and multiplying monomials
adds codes; total degrees stay below 2^40.  No tuple form of the order or
of monomial arithmetic exists beside it: compare and multiply monomials
through their codes.

A :class:`Poly` is stored as ``content * prim``.  ``prim`` is a term list:
a tuple of (code, int) pairs, ascending by code, whose coefficients have no
common factor and whose first (leading) coefficient is positive.
``content`` is a Fraction, 0 for the zero polynomial.  This module owns
that format; the standard-basis engine in :mod:`folinv.stdbasis` computes
on term lists directly, so a ``Poly`` enters it without conversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Monomial = tuple[int, int]
Coefficient = Union[Fraction, int]

ONE_MONOMIAL: Monomial = (0, 0)


# -- term lists ---------------------------------------------------------------
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


def _content(t) -> int:
    """The gcd of the coefficients of t, negated when the leading one is negative."""
    g = 0
    for _, c in t:
        g = gcd(g, c)
        if g == 1:
            break
    return -g if t and t[0][1] < 0 else g


def _strip(t):
    """t divided by its content: primitive, with a positive leading coefficient."""
    g = _content(t)
    if g == 1 or not g:
        return t
    return [(code, c // g) for code, c in t]


def _combine(t1, m1: int, s1: int, t2, m2: int, s2: int) -> list:
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


def _product(t1, t2) -> tuple:
    """t1 * t2 as a sorted term list."""
    acc: dict[int, int] = {}
    for c1, v1 in t1:
        for c2, v2 in t2:
            code = c1 + c2
            acc[code] = acc.get(code, 0) + v1 * v2
    return tuple((code, v) for code, v in sorted(acc.items()) if v)


_ONE_DEGREE = 1 << _SHIFT


class Poly:
    """Immutable sparse polynomial in x, y with rational coefficients.

    ``content * prim``: see the module docstring.  ``terms`` gives the same
    value as (monomial, Fraction) pairs, leading term first.  The hash and
    the pair of partials are computed on first use and kept; equality,
    hashing, pickle and copy read the value alone.
    """

    __slots__ = ("content", "prim", "_hash", "_partials")

    def __new__(cls, terms: Iterable[tuple[Monomial, Coefficient]] = ()):
        """Build from (monomial, coefficient) pairs; zeros dropped, like terms merged."""
        acc: dict[int, Coefficient] = {}
        for m, c in terms:
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            if m[0] < 0 or m[1] < 0:
                raise ValueError(f"negative exponent in {m}")
            code = _encode(m)
            acc[code] = acc[code] + c if code in acc else c
        den = lcm(*(c.denominator for c in acc.values()))
        t = sorted(
            (code, c.numerator * (den // c.denominator))
            for code, c in acc.items()
            if c
        )
        return cls._of_terms(t, 1, den)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the value through __new__, not __setattr__;
        # the copy computes its own hash and partials
        return Poly, (self.terms,)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, content: Fraction, prim: tuple) -> "Poly":
        """The Poly content * prim, for a prim already in normal form."""
        # The last term has the largest degree.  Below 2^40, no y exponent
        # overflows into the degree bits of its code.
        if prim and prim[-1][0] >> _SHIFT > _MASK:
            raise ValueError("total degrees must stay below 2^40")
        p = object.__new__(cls)
        object.__setattr__(p, "content", content)
        object.__setattr__(p, "prim", prim)
        object.__setattr__(p, "_hash", None)
        object.__setattr__(p, "_partials", None)
        return p

    @classmethod
    def _of_terms(cls, t, num: int = 1, den: int = 1) -> "Poly":
        """num/den * t for any sorted integer term list t."""
        return cls._wrap(Fraction(num * _content(t), den), tuple(_strip(t)))

    @classmethod
    def zero(cls) -> "Poly":
        return cls._wrap(Fraction(0), ())

    @classmethod
    def one(cls) -> "Poly":
        return cls._wrap(Fraction(1), ((0, 1),))

    @classmethod
    def constant(cls, c: Coefficient) -> "Poly":
        return cls.term(ONE_MONOMIAL, c)

    @classmethod
    def term(cls, m: Monomial, c: Coefficient = 1) -> "Poly":
        if m[0] < 0 or m[1] < 0:
            raise ValueError(f"negative exponent in {m}")
        c = Fraction(c)
        return cls._wrap(c, ((_encode(m), 1),)) if c else cls.zero()

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, Coefficient]) -> "Poly":
        return cls(d.items())

    # -- term access -------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (monomial, Fraction) pairs, descending in the local order."""
        content = self.content
        return tuple((_decode(code), content * c) for code, c in self.prim)

    @property
    def is_zero(self) -> bool:
        return not self.prim

    def leading_monomial(self) -> Monomial:
        if not self.prim:
            raise ValueError("the zero polynomial has no leading monomial")
        return _decode(self.prim[0][0])

    def leading_coefficient(self) -> Fraction:
        if not self.prim:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.content * self.prim[0][1]

    def constant_term(self) -> Fraction:
        return self.leading_coefficient() if self.is_unit() else Fraction(0)

    def is_unit(self) -> bool:
        """True when invertible in the local ring, i.e. nonzero at the origin."""
        return bool(self.prim) and self.prim[0][0] == 0

    def multiplicity(self) -> int:
        """Order of vanishing at the origin (minimal total degree of a term)."""
        if not self.prim:
            raise ValueError("the zero germ has no multiplicity")
        return self.prim[0][0] >> _SHIFT

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        # one merge over the common denominator
        c1, c2 = self.content, other.content
        den = lcm(c1.denominator, c2.denominator)
        t = _combine(
            self.prim, c1.numerator * (den // c1.denominator), 0,
            other.prim, c2.numerator * (den // c2.denominator), 0,
        )
        return Poly._of_terms(t, 1, den)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._wrap(-self.content, self.prim)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            # Gauss's lemma: a product of primitive term lists with positive
            # leading coefficients is one, so the product needs no strip.
            p, q = self.prim, other.prim
            if len(p) == 1:
                p, q = q, p
            if len(q) == 1:
                # a one-term prim is ((code, 1),): the product shifts codes
                s = q[0][0]
                prim = tuple((code + s, c) for code, c in p) if s else p
            else:
                prim = _product(p, q)
            # Fraction products are slow, and most contents are 1
            c1, c2 = self.content, other.content
            return Poly._wrap(c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2, prim)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: Coefficient) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero()
        return Poly._wrap(c * self.content, self.prim)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        if len(self.prim) == 1:
            return Poly._wrap(self.content**n, ((self.prim[0][0] * n, 1),))
        # The loop beats repeated squaring once the base has a few terms: it
        # multiplies by the small base, squaring multiplies two large powers.
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def monic(self) -> "Poly":
        """Divide by the leading coefficient."""
        lc = self.leading_coefficient()
        return self if lc == 1 else Poly._wrap(self.content / lc, self.prim)

    # -- calculus ----------------------------------------------------------

    def partial_x(self) -> "Poly":
        d = self._partials
        if d is None:
            d = self._differentiate()
        return d[0]

    def partial_y(self) -> "Poly":
        d = self._partials
        if d is None:
            d = self._differentiate()
        return d[1]

    def _differentiate(self) -> tuple:
        """(d/dx, d/dy), computed once and kept, like the hash: a sweep over k
        asks for the partials of one germ at every k, and the same Poly
        objects keep their own hashes for the basis cache's keys."""
        # d/dx lowers the degree and keeps b: every code drops by one degree;
        # d/dy lowers the degree and b: every code drops by one degree and 1
        dx, dy = [], []
        for code, c in self.prim:
            b = code & _MASK
            a = (code >> _SHIFT) - b
            if a:
                dx.append((code - _ONE_DEGREE, a * c))
            if b:
                dy.append((code - _ONE_DEGREE - 1, b * c))
        num, den = self.content.numerator, self.content.denominator
        d = (Poly._of_terms(dx, num, den), Poly._of_terms(dy, num, den))
        object.__setattr__(self, "_partials", d)
        return d

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.prim == other.prim
            and self.content == other.content
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.content, self.prim))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.prim)

    def __str__(self) -> str:
        if not self.prim:
            return "0"
        parts = []
        for (a, b), c in self.terms:
            factors = []
            if a == 1:
                factors.append("x")
            elif a > 1:
                factors.append(f"x^{a}")
            if b == 1:
                factors.append("y")
            elif b > 1:
                factors.append(f"y^{b}")
            mono = "*".join(factors)
            abs_c = -c if c < 0 else c
            if not mono:
                body = str(abs_c)
            elif abs_c == 1:
                body = mono
            else:
                body = f"{abs_c}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


X = Poly.term((1, 0))
Y = Poly.term((0, 1))
