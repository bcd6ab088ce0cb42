import math
from fractions import Fraction

import pytest

from readk.bounds import BoundQuery, read_k_tail_bound
from readk.errors import DomainError
from readk.exact import TailQuery, function_marginals, sum_pmf, tail_prob
from readk.family import family_from_json, family_to_json, read_width
from readk.generators import gen_block_tight, gen_random_family


class TestBlockTight:
    def test_degenerate_block_size_is_independent_bits(self):
        spec = gen_block_tight(1, 3, "1/2")
        assert read_width(spec) == 1
        assert sum_pmf(spec).probs == (0.125, 0.375, 0.375, 0.125)

    def test_two_by_two_pmf(self):
        spec = gen_block_tight(2, 2, Fraction(1, 2))
        assert sum_pmf(spec).probs == (0.25, 0.0, 0.5, 0.0, 0.25)

    @pytest.mark.parametrize("k,blocks", [(1, 1), (2, 3), (4, 2), (3, 5)])
    def test_read_width_is_exactly_k(self, k, blocks):
        assert read_width(gen_block_tight(k, blocks, "1/3")) == k

    def test_rejects_wide_denominator(self):
        with pytest.raises(DomainError):
            gen_block_tight(2, 2, "1/128")

    def test_rejects_rounded_float(self):
        with pytest.raises(DomainError):
            gen_block_tight(2, 2, 0.3)

    def test_accepts_exact_dyadic_float(self):
        spec = gen_block_tight(1, 1, 0.25)
        assert spec.variables[0].probs == (0.75, 0.25)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            gen_block_tight(2, 2, "3/2")


def binomial_upper_tail(n: int, q1: Fraction, threshold: int) -> Fraction:
    """Exact rational Pr[Binomial(n, q1) >= threshold]."""
    threshold = max(threshold, 0)
    return sum(
        Fraction(math.comb(n, i)) * q1**i * (1 - q1) ** (n - i)
        for i in range(threshold, n + 1)
    )


class TestBlockTailIsBinomialTail:
    @pytest.mark.parametrize("k,blocks", [(1, 4), (2, 3), (3, 2), (4, 8)])
    def test_dyadic_probability_matches_exactly(self, k, blocks):
        spec = gen_block_tight(k, blocks, "1/2")
        pmf = sum_pmf(spec)
        q1 = Fraction(spec.variables[0].probs[1])
        for t in range(0, k * blocks + 1):
            expected = binomial_upper_tail(blocks, q1, math.ceil(t / k))
            assert tail_prob(pmf, TailQuery(t, "ge")) == float(expected)

    def test_thirds_match_within_float_noise(self):
        spec = gen_block_tight(2, 4, "1/3")
        pmf = sum_pmf(spec)
        q1 = Fraction(spec.variables[0].probs[1])
        for t in range(0, 9):
            expected = binomial_upper_tail(4, q1, math.ceil(t / 2))
            assert tail_prob(pmf, TailQuery(t, "ge")) == pytest.approx(
                float(expected), rel=1e-13, abs=1e-15
            )


class TestRandomFamily:
    def test_same_seed_reproduces(self):
        a = gen_random_family(m=8, r=6, k=3, max_arity=3, seed=123)
        b = gen_random_family(m=8, r=6, k=3, max_arity=3, seed=123)
        assert a == b

    def test_different_seed_differs(self):
        a = gen_random_family(m=8, r=6, k=3, max_arity=3, seed=1)
        b = gen_random_family(m=8, r=6, k=3, max_arity=3, seed=2)
        assert a != b

    @pytest.mark.parametrize("seed", range(10))
    def test_read_width_within_budget(self, seed):
        spec = gen_random_family(m=7, r=7, k=2, max_arity=2, seed=seed)
        assert 1 <= read_width(spec) <= 2

    def test_supports_are_two_or_three(self):
        spec = gen_random_family(m=10, r=5, k=2, max_arity=2, seed=0)
        assert {v.support_size for v in spec.variables} <= {2, 3}

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(DomainError):
            gen_random_family(m=2, r=10, k=1, max_arity=2, seed=0)

    def test_exhausted_retry_budget_rejected(self, monkeypatch):
        # This draw needs one retry: late on, the only variables left with
        # capacity are fewer than the arity drawn.
        from readk import generators

        gen_random_family(m=4, r=4, k=2, max_arity=2, seed=4)
        monkeypatch.setattr(generators, "_RETRY_BUDGET", 0)
        with pytest.raises(DomainError, match="^retry budget exhausted while drawing variable sets$"):
            gen_random_family(m=4, r=4, k=2, max_arity=2, seed=4)

    def test_arity_beyond_m_rejected(self):
        with pytest.raises(DomainError):
            gen_random_family(m=2, r=1, k=2, max_arity=3, seed=0)

    def test_round_trips_bit_exactly(self):
        for seed in range(5):
            spec = gen_random_family(m=6, r=5, k=3, max_arity=2, seed=seed)
            text = family_to_json(spec)
            again = family_from_json(text)
            assert again == spec
            assert family_to_json(again) == text

    def test_block_round_trips_bit_exactly(self):
        spec = gen_block_tight(3, 4, "1/3")
        text = family_to_json(spec)
        assert family_to_json(family_from_json(text)) == text

    def test_generated_instance_respects_tail_bound(self):
        spec = gen_random_family(m=6, r=8, k=3, max_arity=2, seed=77)
        pmf = sum_pmf(spec)
        r = spec.num_functions
        k = max(read_width(spec), 1)
        p = function_marginals(spec).mean
        for t in range(0, r + 1):
            eps = t / r - p
            if eps > 0:
                bound = read_k_tail_bound(BoundQuery(r, k, p, eps, "upper")).bound
                assert tail_prob(pmf, TailQuery(t, "ge")) <= bound * (1 + 1e-9)
            eps = p - t / r
            if eps > 0:
                bound = read_k_tail_bound(BoundQuery(r, k, p, eps, "lower")).bound
                assert tail_prob(pmf, TailQuery(t, "le")) <= bound * (1 + 1e-9)
