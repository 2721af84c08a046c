from fractions import Fraction

import pytest

from hammingsupport import (
    ElementaryFactor,
    GridFunction,
    Regime,
    RegimeError,
    a1,
    a2,
    a3,
    a4,
    all_words,
    build_F1,
    build_F2,
    counterexample_g,
    counterexample_h,
    counterexample_v,
    elementary,
    f1_support_size,
    f2_support_size,
    in_direct_sum,
    is_eigenfunction,
    min_support_bound,
    uniform_support_bound,
)
from hammingsupport.constructions import FactorizationCertificate, tensor_all

from conftest import random_factors


class TestElementary:
    def test_a1_value_table(self):
        # the q=3 function with peak row 1 and valley column 1
        f = elementary(a1(1, 1), 3)
        expected = {
            (1, 0): 1, (1, 2): 1,   # x = k, y != m
            (0, 1): -1, (2, 1): -1,  # y = m, x != k
        }
        for w in all_words(2, 3):
            assert f(w) == expected.get(w, 0)
        assert f.support_size() == 4

    def test_a2_value_table(self):
        f = elementary(a2(0, 2), 4)
        assert f((0,)) == 1 and f((2,)) == -1
        assert f.support_size() == 2

    def test_a4_value_table(self):
        f = elementary(a4(2), 4)
        assert f((2,)) == 1 and f.support_size() == 1

    def test_a3_constant(self):
        assert elementary(a3(), 5) == GridFunction.constant(1, 5, 1)

    @pytest.mark.parametrize("q", range(2, 8))
    def test_supports(self, q):
        assert elementary(a1(q - 1, 0), q).support_size() == 2 * (q - 1)
        assert elementary(a2(0, q - 1), q).support_size() == 2
        assert elementary(a3(), q).support_size() == q
        assert elementary(a4(q - 1), q).support_size() == 1

    def test_a2_requires_distinct(self):
        with pytest.raises(ValueError):
            a2(1, 1)

    def test_param_range_checked(self):
        with pytest.raises(ValueError):
            elementary(a4(3), 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ElementaryFactor("a5")

    def test_arity_checked(self):
        with pytest.raises(ValueError, match="^a4 takes 1 parameter$"):
            ElementaryFactor("a4")


class TestMemberships:
    @pytest.mark.parametrize("q", range(2, 8))
    def test_all_parameters(self, q):
        for k in range(q):
            for m in range(q):
                assert is_eigenfunction(elementary(a1(k, m), q), 1)
                if k != m:
                    assert is_eigenfunction(elementary(a2(k, m), q), 1)
        assert is_eigenfunction(elementary(a3(), q), 0)
        for m in range(q):
            assert in_direct_sum(elementary(a4(m), q), 0, 1)


class TestBuilders:
    def test_f1_example(self):
        f = build_F1(3, 3, 1, 1)
        assert f.support_size() == 12
        assert in_direct_sum(f, 1, 1)

    def test_f1_constant(self):
        f = build_F1(1, 3, 0, 0, c=Fraction(5, 2))
        assert f == GridFunction.constant(1, 3, Fraction(5, 2))
        assert f.support_size() == 3

    def test_f1_two_a4(self):
        f = build_F1(2, 4, 0, 2)
        assert f.support_size() == 1
        assert in_direct_sum(f, 0, 2)

    def test_f2_single_a2(self):
        f = build_F2(1, 4, 1, 1)
        assert f.support_size() == 2
        assert in_direct_sum(f, 1, 1)

    def test_f2_a1_a2(self):
        f = build_F2(3, 5, 2, 2)
        assert f.support_size() == 16
        assert in_direct_sum(f, 2, 2)

    def test_f2_a2_a4(self):
        f = build_F2(2, 4, 1, 2)
        assert f.support_size() == 2
        assert in_direct_sum(f, 1, 2)

    def test_default_factors_match_explicit(self):
        q = 4
        assert build_F1(4, q, 1, 2) == build_F1(
            4, q, 1, 2, [a1(q - 1, q - 1), a3(), a4(q - 1)]
        )
        assert build_F2(2, q, 2, 2) == build_F2(2, q, 2, 2, [a2(0, q - 1), a2(0, q - 1)])

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            build_F1(2, 3, 1, 2)
        with pytest.raises(RegimeError):
            build_F2(2, 3, 1, 1)
        with pytest.raises(RegimeError):
            build_F1(3, 3, 2, 1)

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            build_F1(2, 3, 1, 1, c=0)
        with pytest.raises(ValueError, match="scalar c must be nonzero"):
            build_F2(3, 4, 2, 2, None, 0)

    def test_factor_template_mismatch(self):
        with pytest.raises(ValueError):
            build_F1(2, 3, 1, 1, [a2(0, 1)])

    def test_randomized_supports_and_membership(self, rng):
        for q in (3, 4, 5):
            for n in range(1, 4):
                for i in range(n + 1):
                    for j in range(i, n + 1):
                        if i + j <= n:
                            f = build_F1(n, q, i, j, random_factors(n, q, i, j, rng))
                            assert f.support_size() == f1_support_size(n, q, i, j)
                        else:
                            f = build_F2(n, q, i, j, random_factors(n, q, i, j, rng))
                            assert f.support_size() == f2_support_size(n, q, i, j)
                        assert in_direct_sum(f, i, j)


class TestSupportBound:
    def test_balanced_example(self):
        b = min_support_bound(3, 3, 1, 1)
        assert b.value == 12
        assert b.regime is Regime.BALANCED
        assert b.valid and b.characterized

    def test_overloaded_q4(self):
        b = min_support_bound(3, 4, 2, 2)
        assert b.value == 12
        assert b.regime is Regime.OVERLOADED
        assert b.valid and not b.characterized

    def test_overloaded_q5_characterized(self):
        b = min_support_bound(3, 5, 2, 2)
        assert b.characterized

    def test_overloaded_i_lt_j_never_characterized(self):
        assert not min_support_bound(3, 5, 2, 3).characterized

    def test_q3_overloaded_flagged(self):
        b = min_support_bound(3, 3, 2, 2)
        assert b.value == 8
        assert b.regime is Regime.UNIFORM_ONLY
        assert not b.valid and not b.characterized
        assert "q >= 4" in b.note

    def test_balanced_q2_flagged(self):
        b = min_support_bound(3, 2, 1, 1)
        assert not b.valid

    def test_uniform_value(self):
        b = min_support_bound(3, 3, 2, 2)
        assert b.uniform_value == uniform_support_bound(3, 3, 2, 2) == 12
        assert min_support_bound(4, 3, 1, 1).uniform_value is None

    def test_uniform_bound_regime_guard(self):
        with pytest.raises(RegimeError):
            uniform_support_bound(4, 3, 1, 2)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            min_support_bound(2, 3, 2, 1)


class TestCounterexampleG:
    @pytest.mark.parametrize("q", (2, 3, 4, 5, 6))
    def test_values_and_support(self, q):
        g = counterexample_g(q)
        assert g((0,) * 2) == 1 and g((q - 1,) * 2) == -1
        assert g.support_size() == 2

    @pytest.mark.parametrize("q", (3, 4, 5, 6))
    def test_membership(self, q):
        assert in_direct_sum(counterexample_g(q), 1, 2)

    @pytest.mark.parametrize("q", (3, 4, 5, 6))
    def test_decomposition_identity(self, q):
        g = counterexample_g(q)
        left = elementary(a2(0, q - 1), q).tensor(elementary(a4(0), q))
        right = elementary(a4(q - 1), q).tensor(elementary(a2(0, q - 1), q))
        assert g == left + right


class TestCounterexampleH:
    def test_support(self):
        assert counterexample_h().support_size() == 12

    def test_eigenfunction(self):
        assert is_eigenfunction(counterexample_h(), 2)

    def test_meets_bound(self):
        assert counterexample_h().support_size() == min_support_bound(3, 4, 2, 2).value

    def test_value_table(self):
        h = counterexample_h()
        assert h((0, 0, 0)) == -1 and h((2, 2, 1)) == 1
        assert h((0, 1, 2)) == 1 and h((3, 2, 2)) == -1
        assert h((1, 0, 3)) == 1 and h((2, 3, 3)) == -1
        assert h((1, 1, 0)) == 0


class TestCounterexampleV:
    def test_support(self):
        assert counterexample_v().support_size() == 6

    def test_eigenfunction(self):
        assert is_eigenfunction(counterexample_v(), 2)

    def test_below_formula(self):
        bound = min_support_bound(3, 3, 2, 2)
        assert counterexample_v().support_size() == 6 < bound.value == 8

    def test_value_table(self):
        v = counterexample_v()
        assert v((0, 0, 0)) == 1 and v((1, 2, 0)) == -1
        assert v((2, 2, 1)) == 1 and v((0, 1, 1)) == -1
        assert v((1, 1, 2)) == 1 and v((2, 0, 2)) == -1


class TestCertificate:
    def test_matches_by_hand(self):
        q = 3
        factors = (a2(0, 2), a4(1))
        product = tensor_all(factors, q, Fraction(3))
        f = product.permute((1, 0))  # move the a2 coordinate into position 1
        sigma_inverse = (1, 0)
        cert = FactorizationCertificate("F2", q, sigma_inverse, factors, Fraction(3))
        assert cert.matches(f)
        assert not cert.matches(product.scale(2))
