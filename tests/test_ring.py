"""Ring layer: local order, exact arithmetic, multiplicity, derivatives."""

import random
from fractions import Fraction

import pytest

from folinv.ring import (
    ONE_MONOMIAL,
    Poly,
    X,
    Y,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_quotient,
    multiplicity,
    order_key,
    total_degree,
)


def poly(text_terms):
    return Poly.from_dict({m: Fraction(c) for m, c in text_terms.items()})


F_RUN = X**4 - Y**3
G_RUN = Y**5 - X**7 + X**4 * Y**4


class TestLocalOrder:
    def test_unit_is_largest(self):
        assert order_key(ONE_MONOMIAL) < order_key((1, 0))

    def test_lower_degree_wins(self):
        assert order_key((1, 0)) < order_key((0, 3))  # x > y^3

    def test_degree_tie_reverse_lex(self):
        assert order_key((2, 0)) < order_key((1, 1))  # x^2 > xy
        assert order_key((1, 1)) < order_key((0, 2))  # xy > y^2

    def test_totality_and_compatibility(self):
        monos = [(a, b) for a in range(5) for b in range(5)]
        keys = [order_key(m) for m in monos]
        assert len(set(keys)) == len(keys)
        for m1 in monos:
            for m2 in monos:
                if order_key(m1) < order_key(m2):
                    shifted = (order_key(monomial_mul(m1, (2, 3))),
                               order_key(monomial_mul(m2, (2, 3))))
                    assert shifted[0] < shifted[1]

    def test_leading_monomial_examples(self):
        assert F_RUN.leading_monomial() == (0, 3)  # y^3 beats x^4 locally
        assert (X + Y).leading_monomial() == (1, 0)


class TestArithmetic:
    def test_add_identity(self):
        assert F_RUN + Poly.zero() == F_RUN

    def test_textbook_product(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_product_leading_monomial(self):
        # lowest forms multiply: (-y^3)(y^5) = -y^8, so the local leading
        # term of the product is -y^8 (degree 8), not a mixed monomial.
        prod = F_RUN * G_RUN
        assert prod.leading_monomial() == (0, 8)
        assert prod.leading_coefficient() == -1

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240814)
        for _ in range(60):
            f, g, h = (
                Poly.from_dict(
                    {
                        (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
                            rng.randint(-4, 4), rng.randint(1, 3)
                        )
                        for _ in range(rng.randint(0, 4))
                    }
                )
                for _ in range(3)
            )
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h

    def test_product_by_a_single_term(self):
        # the shortcut for a one-term factor gives the terms that merging
        # every pairwise product and sorting gives
        rng = random.Random(7)
        for _ in range(60):
            f = Poly.from_dict(
                {
                    (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                        rng.randint(-4, 4), rng.randint(1, 3)
                    )
                    for _ in range(rng.randint(0, 5))
                }
            )
            t = Poly.term(
                (rng.randint(0, 3), rng.randint(0, 3)),
                rng.choice([1, -1, Fraction(2, 3)]),
            )
            expect = Poly(
                (monomial_mul(m1, m2), c1 * c2)
                for m1, c1 in f.terms
                for m2, c2 in t.terms
            )
            assert (f * t).terms == expect.terms
            assert (t * f).terms == expect.terms
            assert all(isinstance(c, Fraction) for _, c in (f * t).terms)

    def test_scale_and_neg(self):
        assert F_RUN * Poly.constant(Fraction(-2, 5)) == -(
            F_RUN * Poly.constant(Fraction(2, 5))
        )

    def test_pow(self):
        assert (X + Y) ** 0 == Poly.one()
        assert (X + Y) ** 3 == X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3
        for base in (X + Y, Poly.term((2, 1), Fraction(-2, 3)), Poly.zero()):
            product = Poly.one()
            for n in range(13):
                assert base**n == product
                product = product * base


class TestMultiplicity:
    def test_examples(self):
        assert multiplicity(F_RUN) == 3
        assert multiplicity(G_RUN) == 5
        assert multiplicity(X**2 + Y**2) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            multiplicity(Poly.zero())

    def test_additive_on_products(self):
        rng = random.Random(7)
        for _ in range(40):
            f = Poly.from_dict(
                {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 3)}
            ) + Poly.from_dict({(rng.randint(1, 4), rng.randint(0, 2)): 1})
            g = Poly.from_dict(
                {(rng.randint(0, 2), rng.randint(1, 3)): rng.randint(1, 2)}
            )
            assert multiplicity(f * g) == multiplicity(f) + multiplicity(g)


class TestDerivatives:
    def test_partials(self):
        f = X**5 + Y**5 + X**3 * Y**3
        assert f.partial_x() == 5 * X**4 + 3 * X**2 * Y**3
        assert (Y**3 - X**7).partial_y() == 3 * Y**2
        assert Poly.constant(9).partial_x() == Poly.zero()

    def test_leibniz_randomized(self):
        rng = random.Random(99)
        for _ in range(30):
            f = Poly.from_dict(
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                    for _ in range(3)
                }
            )
            g = Poly.from_dict(
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                    for _ in range(3)
                }
            )
            assert (f * g).partial_x() == f.partial_x() * g + f * g.partial_x()
            assert (f * g).partial_y() == f.partial_y() * g + f * g.partial_y()


class TestMonomialHelpers:
    def test_divides_quotient_lcm(self):
        assert monomial_divides((1, 2), (3, 2))
        assert not monomial_divides((1, 3), (3, 2))
        assert monomial_quotient((3, 2), (1, 2)) == (2, 0)
        assert monomial_lcm((1, 2), (3, 0)) == (3, 2)
        assert total_degree((3, 4)) == 7

    def test_str_parseable_shape(self):
        # leading term printed first, '-' folded into coefficients
        assert str(F_RUN) == "-y^3 + x^4"
        assert str(Poly.zero()) == "0"
        assert str(Poly.constant(Fraction(3, 4)) * X) == "3/4*x"
