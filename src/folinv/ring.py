"""Exact sparse bivariate polynomials over the rationals with a local term order.

Polynomials stand for germs of holomorphic functions at the origin of the
plane, restricted to rational coefficients.  A monomial is an exponent pair
``(a, b)`` meaning x^a * y^b; a polynomial stores its nonzero terms sorted
descending in the local order, so ``terms[0]`` is always the leading term.

The order is the local degree order: monomials of *lower* total degree are
*larger* (the constant monomial 1 is the maximum), with ties broken reverse
lexicographically taking x > y.  For example 1 > x > y > x^2 > x*y > y^2.
Normal forms computed against this order live in the local ring (convergent
power series localized at the origin) rather than in the polynomial ring,
which is what every colength downstream relies on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Monomial = tuple[int, int]
Coefficient = Union[Fraction, int]

ONE_MONOMIAL: Monomial = (0, 0)


def order_key(m: Monomial) -> tuple[int, int]:
    """Sort key: ascending in this key is descending in the local order."""
    return (m[0] + m[1], m[1])


def local_cmp(m1: Monomial, m2: Monomial) -> int:
    """Three-way local-order comparison: +1 when m1 > m2, -1 when m1 < m2."""
    k1, k2 = order_key(m1), order_key(m2)
    if k1 < k2:
        return 1
    if k1 > k2:
        return -1
    return 0


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1])


def monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    """True when m1 divides m2 componentwise."""
    return m1[0] <= m2[0] and m1[1] <= m2[1]


def monomial_quotient(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2, assuming m2 divides m1."""
    return (m1[0] - m2[0], m1[1] - m2[1])


def monomial_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return (max(m1[0], m2[0]), max(m1[1], m2[1]))


def total_degree(m: Monomial) -> int:
    return m[0] + m[1]


def _merge(t1: tuple, t2: tuple, scale: Fraction) -> tuple:
    """Term tuple of t1 + scale * t2; both inputs sorted, output sorted."""
    out = []
    i = j = 0
    n1, n2 = len(t1), len(t2)
    while i < n1 and j < n2:
        m1, c1 = t1[i]
        m2, c2 = t2[j]
        k1 = (m1[0] + m1[1], m1[1])
        k2 = (m2[0] + m2[1], m2[1])
        if k1 < k2:
            out.append((m1, c1))
            i += 1
        elif k2 < k1:
            out.append((m2, scale * c2))
            j += 1
        else:
            c = c1 + scale * c2
            if c:
                out.append((m1, c))
            i += 1
            j += 1
    if i < n1:
        out.extend(t1[i:])
    out.extend((m2, scale * c2) for m2, c2 in t2[j:])
    return tuple(out)


class Poly:
    """Immutable sparse polynomial in x, y with Fraction coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Iterable[tuple[Monomial, Coefficient]] = ()):
        """Build from (monomial, coefficient) pairs; zeros dropped, like terms merged."""
        acc: dict[Monomial, Fraction] = {}
        for m, c in terms:
            c = Fraction(c)
            if c:
                prev = acc.get(m)
                if prev is None:
                    acc[m] = c
                else:
                    s = prev + c
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(acc.items(), key=lambda t: order_key(t[0]))),
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, terms: tuple) -> "Poly":
        """Wrap an already-normalized sorted term tuple without re-sorting."""
        p = cls.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw(())

    @classmethod
    def one(cls) -> "Poly":
        return cls._raw(((ONE_MONOMIAL, Fraction(1)),))

    @classmethod
    def constant(cls, c: Coefficient) -> "Poly":
        c = Fraction(c)
        return cls._raw(((ONE_MONOMIAL, c),)) if c else cls.zero()

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if name == "x":
            return cls._raw((((1, 0), Fraction(1)),))
        if name == "y":
            return cls._raw((((0, 1), Fraction(1)),))
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def term(cls, m: Monomial, c: Coefficient = 1) -> "Poly":
        c = Fraction(c)
        return cls._raw(((m, c),)) if c else cls.zero()

    @classmethod
    def from_dict(cls, d: Mapping[Monomial, Coefficient]) -> "Poly":
        return cls(d.items())

    # -- term access -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def constant_term(self) -> Fraction:
        if self.terms and self.terms[0][0] == ONE_MONOMIAL:
            return self.terms[0][1]
        return Fraction(0)

    def is_unit(self) -> bool:
        """True when invertible in the local ring, i.e. nonzero at the origin."""
        return bool(self.terms) and self.terms[0][0] == ONE_MONOMIAL

    def multiplicity(self) -> int:
        """Order of vanishing at the origin (minimal total degree of a term)."""
        if not self.terms:
            raise ValueError("the zero germ has no multiplicity")
        m = self.terms[0][0]
        return m[0] + m[1]

    def degree(self) -> int:
        """Maximal total degree of a term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no degree")
        m = self.terms[-1][0]
        return m[0] + m[1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._raw(_merge(self.terms, other.terms, Fraction(1)))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._raw(_merge(self.terms, other.terms, Fraction(-1)))

    def __neg__(self) -> "Poly":
        return Poly._raw(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if len(self.terms) == 1:
                return other._shifted(*self.terms[0])
            if len(other.terms) == 1:
                return self._shifted(*other.terms[0])
            acc: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    m = (m1[0] + m2[0], m1[1] + m2[1])
                    prev = acc.get(m)
                    acc[m] = c1 * c2 if prev is None else prev + c1 * c2
            return Poly._raw(
                tuple(
                    (m, c)
                    for m, c in sorted(acc.items(), key=lambda t: order_key(t[0]))
                    if c
                )
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def _shifted(self, m: Monomial, c: Fraction) -> "Poly":
        """c * x^m * self.  A monomial shift keeps the terms in order."""
        da, db = m
        if c == 1:
            return Poly._raw(tuple(((a + da, b + db), t) for (a, b), t in self.terms))
        return Poly._raw(tuple(((a + da, b + db), c * t) for (a, b), t in self.terms))

    def scale(self, c: Coefficient) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero()
        return Poly._raw(tuple((m, c * coef) for m, coef in self.terms))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        if len(self.terms) == 1:
            (a, b), c = self.terms[0]
            return Poly._raw((((a * n, b * n), c**n),))
        # The loop beats repeated squaring once the base has a few terms: it
        # multiplies by the small base, squaring multiplies two large powers.
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def monic(self) -> "Poly":
        """Divide by the leading coefficient."""
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return Poly._raw(tuple((m, c / lc) for m, c in self.terms))

    # -- calculus ----------------------------------------------------------

    def partial_x(self) -> "Poly":
        return Poly._raw(
            tuple(((a - 1, b), a * c) for (a, b), c in self.terms if a > 0)
        )

    def partial_y(self) -> "Poly":
        return Poly._raw(
            tuple(((a, b - 1), b * c) for (a, b), c in self.terms if b > 0)
        )

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.terms)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
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


X = Poly.variable("x")
Y = Poly.variable("y")


def multiplicity(f: Poly) -> int:
    """Multiplicity of a germ at the origin; rejects the zero germ."""
    return f.multiplicity()
