"""Ring layer: local order, exact arithmetic, multiplicity, derivatives."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from folinv.ring import ONE_MONOMIAL, Poly, X, Y, _decode, _encode


def poly(text_terms):
    return Poly.from_dict({m: Fraction(c) for m, c in text_terms.items()})


F_RUN = X**4 - Y**3
G_RUN = Y**5 - X**7 + X**4 * Y**4


class TestLocalOrder:
    """The packed code is the engine's only statement of the local order:
    a smaller code is a larger monomial, and adding codes multiplies."""

    MONOS = [(a, b) for a in range(6) for b in range(6)]

    def test_unit_is_largest(self):
        one = _encode(ONE_MONOMIAL)
        assert all(one < _encode(m) for m in self.MONOS if m != ONE_MONOMIAL)

    def test_lower_degree_wins(self):
        assert _encode((1, 0)) < _encode((0, 3))  # x > y^3
        assert _encode((0, 4)) < _encode((5, 0))  # y^4 > x^5

    def test_degree_tie_reverse_lex(self):
        assert _encode((2, 0)) < _encode((1, 1)) < _encode((0, 2))  # x^2 > xy > y^2

    def test_decode_inverts_encode(self):
        for m in self.MONOS + [(10**6, 0), (0, 10**6), (123456, 654321)]:
            assert _decode(_encode(m)) == m

    def test_adding_codes_multiplies(self):
        for m1 in self.MONOS:
            for m2 in self.MONOS:
                product = (m1[0] + m2[0], m1[1] + m2[1])
                assert _encode(m1) + _encode(m2) == _encode(product)

    def test_totality_and_compatibility(self):
        codes = [_encode(m) for m in self.MONOS]
        assert len(set(codes)) == len(codes)
        shift = (2, 3)
        for m1 in self.MONOS:
            for m2 in self.MONOS:
                if _encode(m1) < _encode(m2):
                    p1 = (m1[0] + shift[0], m1[1] + shift[1])
                    p2 = (m2[0] + shift[0], m2[1] + shift[1])
                    assert _encode(p1) < _encode(p2)

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
                ((m1[0] + m2[0], m1[1] + m2[1]), c1 * c2)
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

    def test_fraction_coercion(self):
        assert Poly([((1, 0), 0.5)]) == Fraction(1, 2) * X

    def test_operands_that_are_not_polynomials(self):
        for op in (lambda: X + 1, lambda: X - 1, lambda: X * "x"):
            with pytest.raises(TypeError):
                op()
        with pytest.raises(ValueError):
            X**-1


class TestPolyValue:
    def test_immutable(self):
        with pytest.raises(AttributeError):
            setattr(X, "content", 1)

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            Poly.zero().leading_monomial()
        with pytest.raises(ValueError):
            Poly.zero().leading_coefficient()

    def test_truth_and_repr(self):
        assert not Poly.zero()
        assert X
        assert repr(X) == "Poly(x)"

    def test_negative_exponents_refused(self):
        # a negative exponent has no code: it would borrow from the degree
        # bits and read as another monomial
        for make in (
            lambda: Poly.term((1, -1)),
            lambda: Poly.term((-3, 5)),
            lambda: Poly([((0, -1), 1)]),
            lambda: Poly.from_dict({(-1, 2): 3}),
        ):
            with pytest.raises(ValueError, match="negative exponent"):
                make()


class TestMultiplicity:
    def test_examples(self):
        assert F_RUN.multiplicity() == 3
        assert G_RUN.multiplicity() == 5
        assert (X**2 + Y**2).multiplicity() == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Poly.zero().multiplicity()

    def test_additive_on_products(self):
        rng = random.Random(7)
        for _ in range(40):
            f = Poly.from_dict(
                {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 3)}
            ) + Poly.from_dict({(rng.randint(1, 4), rng.randint(0, 2)): 1})
            g = Poly.from_dict(
                {(rng.randint(0, 2), rng.randint(1, 3)): rng.randint(1, 2)}
            )
            assert (f * g).multiplicity() == f.multiplicity() + g.multiplicity()


class TestDerivatives:
    def test_partials(self):
        f = X**5 + Y**5 + X**3 * Y**3
        assert f.partial_x() == 5 * X**4 + 3 * X**2 * Y**3
        assert (Y**3 - X**7).partial_y() == 3 * Y**2
        assert Poly.constant(9).partial_x() == Poly.zero()

    def test_partials_are_computed_once_and_kept(self):
        # Y**3 - X**7: nonzero partials; Y**3: a zero partial in x
        for f in (Y**3 - X**7 + Poly.constant(2), Y**3, Poly.zero()):
            assert f.partial_x() is f.partial_x()
            assert f.partial_y() is f.partial_y()
        assert (Y**3).partial_x() == Poly.zero()

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_kept_partials_leave_the_value_alone(self, duplicate):
        f = Fraction(3, 4) * X**5 * Y - X * Y**2
        fresh = duplicate(f)
        f.partial_x()
        assert f._partials is not None
        for g in (duplicate(f), fresh):
            assert g == f and hash(g) == hash(f)
            assert (g.partial_x(), g.partial_y()) == (f.partial_x(), f.partial_y())
        assert duplicate(f)._partials is None

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
    def test_str_parseable_shape(self):
        # leading term printed first, '-' folded into coefficients
        assert str(F_RUN) == "-y^3 + x^4"
        assert str(Poly.zero()) == "0"
        assert str(Poly.constant(Fraction(3, 4)) * X) == "3/4*x"
