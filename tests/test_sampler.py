import itertools
import threading
import time

import numpy as np
import pytest

from readk import exact, sampler
from readk.errors import DomainError
from readk.exact import TailQuery, _Lookup
from readk.family import FamilySpec, ReadFunction, Variable, eval_function
from readk.generators import gen_random_family
from readk.sampler import estimate_tail, sample_assignment

from conftest import weighted_variant
from test_reference import reference_draw_values


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


def serial_estimate(spec, query, samples, seed, chunk):
    """The tail fraction drawn ``chunk`` samples at a time on one thread, each looked up scalar-style."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t = query.effective_threshold()
    hits = 0
    for done in range(0, samples, chunk):
        uniforms = rng.random((min(chunk, samples - done), spec.num_variables))
        for assignment in zip(*reference_draw_values(spec, uniforms).tolist()):
            total = sum(eval_function(spec, j, assignment) for j in range(spec.num_functions))
            hits += total >= t if query.direction == "ge" else total <= t
    return hits / samples


CHUNK = 8


@pytest.mark.parametrize(
    "patch, samples, weighted",
    # 40 variables: budgets of 1, 79, 80, 3880 and 20480 uniforms give chunks
    # of 1, 1, 2, 97 and 512 samples
    [pytest.param((sampler, "_UNIFORM_CHUNK", budget), 1000, False, id=str(budget))
     for budget in (1, 79, 80, 40 * 97, 40 * 512)]
    # 30 functions: lookup budgets of 1 and 210 cells give blocks of 1 and 7
    # columns
    + [pytest.param((exact, "_LOOKUP_CELLS", cells), 1000, weighted,
                    id=f"{'weighted' if weighted else 'uniform'}-cells-{cells}")
       for cells in (1, 30 * 7) for weighted in (False, True)]
    # chunks of 8 samples: one short chunk, one full one, a full one and a
    # sample, two full ones, three and a short one
    + [pytest.param((sampler, "_SAMPLE_CHUNK", CHUNK), n, weighted,
                    id=f"{'weighted' if weighted else 'uniform'}-{n}-of-{CHUNK}")
       for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 5)
       for weighted in (False, True)],
)
def test_estimates_bit_identical_across_uniform_budgets(monkeypatch, patch, samples, weighted):
    spec = gen_random_family(40, 30, 3, 2, 1)
    if weighted:
        spec = weighted_variant(spec, np.random.default_rng(1))
    query = TailQuery(15, "ge")
    monkeypatch.setattr(*patch)
    chunk = min(sampler._SAMPLE_CHUNK, max(1, sampler._UNIFORM_CHUNK // spec.num_variables))
    for seed in range(2):
        want = serial_estimate(spec, query, samples, seed, chunk)
        assert estimate_tail(spec, query, samples, seed).estimate == want


class Injected(Exception):
    pass


def raise_on_second_call(method):
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == 2:
            raise Injected
        return method(*args, **kwargs)

    return wrapper


def run_bounded(call, timeout=30.0):
    """``call()``'s exception, run on a thread joined under ``timeout``: a hang fails, not stalls."""
    raised = []

    def target():
        try:
            call()
        except BaseException as exc:  # handed to the test thread
            raised.append(exc)

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "estimate_tail did not return"
    return raised


class SlowGenerator(np.random.Generator):
    """Fills slow enough to outlive a call that does not wait for its fill thread."""

    def random(self, *args, **kwargs):
        time.sleep(0.02)
        return super().random(*args, **kwargs)


@pytest.mark.parametrize("thread", ["count", "fill"])
def test_failure_in_either_thread_reaches_the_caller_and_leaves_no_thread(monkeypatch, thread):
    # the count runs on the calling thread, every fill on the second one;
    # each fails on its second chunk of ten, with fills still to come
    generator = SlowGenerator
    if thread == "count":
        monkeypatch.setattr(_Lookup, "sums_of", raise_on_second_call(_Lookup.sums_of))
    else:
        class generator(SlowGenerator):
            random = raise_on_second_call(SlowGenerator.random)
    monkeypatch.setattr(np.random, "Generator", generator)
    monkeypatch.setattr(sampler, "_SAMPLE_CHUNK", CHUNK)
    spec = gen_random_family(40, 30, 3, 2, 1)
    before = threading.active_count()
    raised = run_bounded(lambda: estimate_tail(spec, TailQuery(15, "ge"), 10 * CHUNK, 0))
    assert [type(exc) for exc in raised] == [Injected]
    assert threading.active_count() == before
