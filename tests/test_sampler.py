import numpy as np
import pytest

from readk import sampler
from readk.errors import DomainError
from readk.exact import TailQuery
from readk.family import FamilySpec, ReadFunction, Variable
from readk.generators import gen_random_family
from readk.sampler import estimate_tail, sample_assignment


def bernoulli_family(p: float) -> FamilySpec:
    return FamilySpec(
        (Variable("x", 2, (1.0 - p, p)),), (ReadFunction("y", (0,), "01"),)
    )


def test_pinned_first_draw():
    # PCG64 seeded with 0 yields 0.6369616873214543 first, which the
    # inverse CDF of a fair bit maps to 1; pinned so stream changes surface
    rng = np.random.Generator(np.random.PCG64(0))
    assert sample_assignment(bernoulli_family(0.5), rng) == (1,)


def test_deterministic_variable_always_zero():
    spec = FamilySpec(
        (Variable("x", 2, (1.0, 0.0)),), (ReadFunction("y", (0,), "01"),)
    )
    rng = np.random.Generator(np.random.PCG64(99))
    assert all(sample_assignment(spec, rng) == (0,) for _ in range(100))


def test_same_seed_same_estimate(xor_family):
    a = estimate_tail(xor_family, TailQuery(2, "ge"), samples=5000, seed=42)
    b = estimate_tail(xor_family, TailQuery(2, "ge"), samples=5000, seed=42)
    assert a == b


def test_estimate_consumes_stream_like_repeated_single_draws(xor_family):
    # one uniform per variable in variable-index order, per sample
    n = 257
    est = estimate_tail(xor_family, TailQuery(2, "ge"), samples=n, seed=3)
    rng = np.random.Generator(np.random.PCG64(3))
    hits = 0
    for _ in range(n):
        x0, x1 = sample_assignment(xor_family, rng)
        hits += int(x0 + (x0 ^ x1) >= 2)
    assert est.estimate == hits / n


def test_constant_family_is_exactly_one():
    spec = FamilySpec(
        (Variable("x", 2),),
        (ReadFunction("a", (), "1"), ReadFunction("b", (), "1")),
    )
    est = estimate_tail(spec, TailQuery(2, "ge"), samples=1000, seed=0)
    assert est.estimate == 1.0


def test_bernoulli_mean_within_three_sigma():
    est = estimate_tail(bernoulli_family(0.25), TailQuery(1, "ge"), 100_000, seed=7)
    assert abs(est.estimate - 0.25) <= 0.0041  # 3 * sqrt(p(1-p)/n)


def test_interval_brackets_estimate_and_stays_in_unit_range(xor_family):
    est = estimate_tail(xor_family, TailQuery(2, "ge"), samples=50, seed=1)
    assert 0.0 <= est.ci_low <= est.estimate <= est.ci_high <= 1.0


def test_xor_estimate_lands_in_interval(xor_family):
    est = estimate_tail(xor_family, TailQuery(2, "ge"), samples=1_000_000, seed=11)
    assert est.ci_low <= 0.25 <= est.ci_high


def test_estimates_pinned_across_versions():
    # recorded with an earlier version of readk: pins the inverse CDF, the
    # table lookup and the stream order on a 40-variable family
    spec = gen_random_family(40, 30, 3, 2, 1)
    got = [estimate_tail(spec, TailQuery(15, "ge"), 300_000, seed).estimate for seed in range(3)]
    assert got == [0.5273233333333334, 0.52698, 0.5260466666666667]


def test_rejects_nonpositive_samples(xor_family):
    with pytest.raises(DomainError):
        estimate_tail(xor_family, TailQuery(2, "ge"), samples=0, seed=0)


def test_interval_coverage_over_many_seeds():
    # Hoeffding intervals are conservative: allow at most 6 misses in 200
    from readk.exact import sum_pmf, tail_prob
    from readk.generators import gen_random_family

    spec = gen_random_family(m=6, r=5, k=2, max_arity=2, seed=314)
    query = TailQuery(3, "ge")
    exact = tail_prob(sum_pmf(spec), query)
    misses = sum(
        1
        for seed in range(200)
        if not (
            (est := estimate_tail(spec, query, samples=1000, seed=seed)).ci_low
            <= exact
            <= est.ci_high
        )
    )
    assert misses <= 6


def test_wide_table_positions_do_not_overflow():
    # Positions into this 400-cell table reach 399, and every cell from 256
    # on is 1, so a position held in 8 bits would wrap and read 0. Pinned to
    # an earlier version's estimate (the exact tail is 0.36).
    table = "".join("1" if cell >= 256 else "0" for cell in range(400))
    spec = FamilySpec((Variable("x", 20), Variable("z", 20)), (ReadFunction("y", (0, 1), table),))
    assert estimate_tail(spec, TailQuery(1, "ge"), 100_000, seed=5).estimate == 0.35897


@pytest.mark.parametrize("budget", [1, 79, 80, 40 * 97, 40 * 512])
def test_estimates_bit_identical_across_uniform_budgets(monkeypatch, budget):
    # 40 variables: chunks of 1, 1, 2, 97 and 512 samples, against one of 1000
    spec = gen_random_family(40, 30, 3, 2, 1)
    query = TailQuery(15, "ge")
    want = [estimate_tail(spec, query, 1000, seed) for seed in range(2)]
    monkeypatch.setattr(sampler, "_UNIFORM_CHUNK", budget)
    assert [estimate_tail(spec, query, 1000, seed) for seed in range(2)] == want
