import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from obd import NumerationSystem, QuadraticReal, cf_expand, cf_value, period_rotate
from oracles import floor_surd

getcontext().prec = 80

small_int = st.integers(min_value=-1000, max_value=1000)
pos_int = st.integers(min_value=1, max_value=1000)
radicand = st.sampled_from([2, 3, 5, 7, 13, 21, 29])


def quad(a, b, c, d):
    return QuadraticReal(a, b, c, d)


def dec(x: QuadraticReal) -> Decimal:
    return (Decimal(x.a) + Decimal(x.b) * Decimal(x.d).sqrt()) / Decimal(x.c)


class TestNormalization:
    def test_squarefree_reduction(self):
        x = QuadraticReal.sqrt(8)
        assert (x.a, x.b, x.c, x.d) == (0, 2, 1, 2)
        y = QuadraticReal(1, 3, 2, 12)
        assert (y.a, y.b, y.c, y.d) == (1, 6, 2, 3)

    def test_perfect_square_collapses_to_rational(self):
        x = QuadraticReal.sqrt(9)
        assert x.is_rational and x.to_fraction() == 3
        y = QuadraticReal(1, 5, 2, 4)  # (1 + 5*2)/2
        assert y.to_fraction() == Fraction(11, 2)

    def test_zero_b_clears_radicand(self):
        x = QuadraticReal(3, 0, 2, 7)
        assert x.d == 0 and x.is_rational

    def test_gcd_and_denominator_sign(self):
        x = QuadraticReal(4, 6, -2, 5)
        assert (x.a, x.b, x.c, x.d) == (-2, -3, 1, 5)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticReal(1, 1, 0, 5)

    def test_negative_radicand_raises(self):
        with pytest.raises(ValueError):
            QuadraticReal(0, 1, 1, -2)

    def test_mixed_radicands_raise(self):
        with pytest.raises(ValueError):
            QuadraticReal.sqrt(2) + QuadraticReal.sqrt(3)

    def test_rational_plus_surd_is_fine(self):
        x = 1 + QuadraticReal.sqrt(2)
        assert (x.a, x.b, x.c, x.d) == (1, 1, 1, 2)


class TestArithmetic:
    @given(small_int, small_int, pos_int, small_int, small_int, pos_int, radicand)
    @settings(max_examples=200, deadline=None)
    def test_ring_identities(self, a1, b1, c1, a2, b2, c2, d):
        x = quad(a1, b1, c1, d)
        y = quad(a2, b2, c2, d)
        assert ((x + y) - y).equals(x)
        assert (x * y).equals(y * x)
        assert (x * (y + 1)).equals(x * y + x)

    @given(small_int, small_int, pos_int, radicand)
    @settings(max_examples=200, deadline=None)
    def test_inverse_and_conjugate(self, a, b, c, d):
        x = quad(a, b, c, d)
        if x.sign() != 0:
            assert (x * x.inverse()).equals(1)
            assert (x / x).equals(1)
        norm = x * x.conjugate()
        assert norm.is_rational
        assert norm.to_fraction() == Fraction(a * a - b * b * d, c * c)

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticReal.rational(0).inverse()

    def test_to_fraction_on_irrational_raises(self):
        with pytest.raises(ValueError):
            QuadraticReal.sqrt(2).to_fraction()

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=10**4),
           st.fractions(min_value=-100, max_value=100, max_denominator=10**4))
    @settings(max_examples=150, deadline=None)
    def test_rational_path_matches_fraction(self, f, g):
        x, y = QuadraticReal.rational(f), QuadraticReal.rational(g)
        assert (x + y).to_fraction() == f + g
        assert (x - y).to_fraction() == f - g
        assert (x * y).to_fraction() == f * g
        if g != 0:
            assert (x / y).to_fraction() == f / g

    def test_int_coercion_both_sides(self):
        x = QuadraticReal.sqrt(5)
        assert (2 + x).equals(x + 2)
        assert (2 * x).equals(x * 2)
        assert (2 - x).equals(-(x - 2))


class TestOrder:
    @given(small_int, small_int, pos_int, radicand)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_decimal(self, a, b, c, d):
        x = quad(a, b, c, d)
        v = dec(x)
        # bounded coefficients keep any nonzero value well away from 0
        expected = 0 if (x.a == 0 and x.b == 0) else (1 if v > 0 else -1)
        assert x.sign() == expected

    @given(small_int, small_int, pos_int, radicand)
    @settings(max_examples=300, deadline=None)
    def test_floor_matches_oracle(self, a, b, c, d):
        x = quad(a, b, c, d)
        assert x.floor() == floor_surd(x.a, x.b, x.c, x.d)

    @given(st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=1, max_value=10**9),
           radicand)
    @settings(max_examples=100, deadline=None)
    def test_floor_large_coefficients(self, a, b, c, d):
        x = quad(a, b, c, d)
        n = x.floor()
        assert QuadraticReal.rational(n) <= x < QuadraticReal.rational(n + 1)

    def test_close_comparison_where_floats_tie(self):
        # 1686/1325 is within 4e-7 of sqrt(2) + 1/5000000ths territory
        x = QuadraticReal.sqrt(2)
        y = QuadraticReal.rational(Fraction(665857, 470832))  # Pell convergent
        assert x < y
        assert QuadraticReal.rational(Fraction(470832 * 2, 665857)) < x * 1

    def test_total_order_on_mixed_values(self):
        vals = [QuadraticReal.rational(Fraction(3, 2)), QuadraticReal.sqrt(2),
                QuadraticReal(1, 1, 3, 2), QuadraticReal.rational(0)]
        by_exact = sorted(vals, key=lambda v: [v.compare(w) >= 0 for w in vals].count(True))
        by_float = sorted(vals, key=float)
        assert [float(v) for v in by_exact] == [float(v) for v in by_float]


class TestContinuedFractions:
    def test_period_validation(self):
        with pytest.raises(ValueError, match="empty period"):
            NumerationSystem("t", ())
        with pytest.raises(ValueError, match="positive integers"):
            NumerationSystem("t", (1, 0))

    def test_partial_quotient_wraps(self):
        system = NumerationSystem("t", (3, 1))
        assert [system.partial_quotient(i) for i in range(1, 6)] == [3, 1, 3, 1, 3]
        with pytest.raises(ValueError):
            system.partial_quotient(0)

    def test_catalog_values(self):
        # worked out by hand from the fixed-point quadratics
        assert cf_value((3, 1)).equals(QuadraticReal(-3, 1, 6, 21))
        assert cf_value((2,)).equals(QuadraticReal(-1, 1, 1, 2))
        assert cf_value((4, 1, 1, 1)).equals(QuadraticReal(-2, 1, 3, 7))
        assert cf_value((1,)).equals(QuadraticReal(-1, 1, 2, 5))

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_cf_value_is_the_fixed_point(self, period):
        x = cf_value(tuple(period))
        assert 0 < x < 1
        # independent check: fold the tail by hand and land back on x
        y = x
        for p in reversed(period):
            y = (p + y).inverse()
        assert y.equals(x)
        assert cf_expand(x, 2 * len(period)) == list(period) * 2

    def test_cf_expand_rejects_rationals_and_out_of_range(self):
        with pytest.raises(ValueError):
            cf_expand(QuadraticReal.rational(Fraction(1, 3)), 4)
        with pytest.raises(ValueError):
            cf_expand(QuadraticReal.sqrt(2), 4)

    def test_period_rotate(self):
        assert period_rotate((1, 3)) == (3, 1)
        assert period_rotate((3, 1)) == (3, 1)
        assert period_rotate((2, 3, 1, 3)) == (3, 1, 3, 2)
        assert period_rotate((2,)) == (2,)
        assert period_rotate((1, 1)) == (1, 1)


def numerators(period, n):
    """[p_{-1}, p_0, ..., p_n] of [0; period repeating], by
    p_i = a_i p_{i-1} + p_{i-2} from p_{-1} = 1, p_0 = 0: entry i + 1 is p_i."""
    p = [1, 0]
    for i in range(1, n + 1):
        p.append(period[(i - 1) % len(period)] * p[-1] + p[-2])
    return p


class TestConvergents:
    """The denominators q_i of NumerationSystem against numerators p_i
    computed here."""

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_determinant_identity(self, period):
        t = NumerationSystem("t", tuple(period))
        p = numerators(period, 14)
        for i in range(0, 15):
            assert t.q(i) * p[i] - p[i + 1] * t.q(i - 1) == (-1) ** i

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_convergents_bracket_gamma(self, period):
        t = NumerationSystem("t", tuple(period))
        g = cf_value(tuple(period))
        p = numerators(period, 9)
        prev_err = None
        for i in range(0, 10):
            err = g * t.q(i) - p[i + 1]
            assert err.sign() == (-1) ** i  # alternating around gamma
            if prev_err is not None:
                assert (err if err.sign() > 0 else -err) < (
                    prev_err if prev_err.sign() > 0 else -prev_err)
            prev_err = err

    def test_seed_indexing(self):
        t = NumerationSystem("t", (3, 1))
        assert (t.q(-1), t.q(0)) == (0, 1)
        assert [t.q(i) for i in range(1, 7)] == [3, 4, 15, 19, 72, 91]
        with pytest.raises(IndexError):
            t.q(-2)
        # one cached list, grown in place past n
        qs = t.q_list(100)
        assert qs is t.q_list(0) and qs == [0, 1, 3, 4, 15, 19, 72, 91, 345]
