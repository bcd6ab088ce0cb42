import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from readk import exact, family
from readk.audit import conditional_law, proof_trace
from readk.errors import DomainError, ResourceError
from readk.exact import (
    SumPmf,
    TailQuery,
    conditional_function_marginals,
    function_marginals,
    sum_pmf,
    sum_pmf_enumerate,
    tail_prob,
)
from readk.family import (
    FamilySpec,
    ReadFunction,
    Variable,
    dependency_components,
    family_from_json,
    family_to_json,
    read_width,
)
from readk.generators import gen_block_tight, gen_random_family

from conftest import assert_frozen_dataclass_contract, weighted_variant
from test_reference import component_key

EXACT_TOL = 1e-12


def test_single_bernoulli():
    spec = FamilySpec((Variable("x", 2),), (ReadFunction("y", (0,), "01"),))
    assert sum_pmf(spec).probs == (0.5, 0.5)


def test_xor_family_pmf(xor_family):
    assert sum_pmf(xor_family).probs == (0.25, 0.5, 0.25)


def test_block_family_pmf(block_family):
    assert sum_pmf(block_family).probs == (0.25, 0.0, 0.5, 0.0, 0.25)


def test_weighted_and_gate():
    # two bits, each 1 with probability 0.25; AND reads both
    v = Variable("x", 2, (0.75, 0.25))
    spec = FamilySpec((v, Variable("z", 2, (0.75, 0.25))), (ReadFunction("y", (0, 1), "0001"),))
    pmf = sum_pmf(spec)
    assert pmf.probs[1] == pytest.approx(0.0625, abs=EXACT_TOL)
    assert pmf.probs[0] == pytest.approx(0.9375, abs=EXACT_TOL)


def test_support_one_variable():
    spec = FamilySpec(
        (Variable("const", 1), Variable("bit", 2)),
        (ReadFunction("y0", (0, 1), "01"), ReadFunction("y1", (0,), "1")),
    )
    assert sum_pmf(spec).probs == (0.0, 0.5, 0.5)


class TestTailProb:
    def test_whole_space(self, xor_family):
        pmf = sum_pmf(xor_family)
        assert tail_prob(pmf, TailQuery(0, "ge")) == 1.0
        assert tail_prob(pmf, TailQuery(-3.5, "ge")) == 1.0
        assert tail_prob(pmf, TailQuery(2, "le")) == 1.0

    def test_xor_upper(self, xor_family):
        assert tail_prob(sum_pmf(xor_family), TailQuery(2, "ge")) == 0.25

    def test_block_top(self, block_family):
        assert tail_prob(sum_pmf(block_family), TailQuery(4, "ge")) == 0.25

    def test_fractional_threshold_rounds_toward_event(self, xor_family):
        pmf = sum_pmf(xor_family)
        assert tail_prob(pmf, TailQuery(1.5, "ge")) == 0.25   # ceil -> 2
        assert tail_prob(pmf, TailQuery(1.5, "le")) == 0.75   # floor -> 1

    @pytest.mark.parametrize(
        "t",
        [math.nan, math.inf, -math.inf,
         pytest.param(10**400, id="huge-int"), pytest.param(-10**400, id="-huge-int")],
    )
    def test_non_finite_threshold_rejected(self, t):
        for direction in ("ge", "le"):
            with pytest.raises(DomainError, match="threshold must be finite"):
                TailQuery(t, direction)

    def test_beyond_range(self, xor_family):
        pmf = sum_pmf(xor_family)
        assert tail_prob(pmf, TailQuery(3, "ge")) == 0.0
        assert tail_prob(pmf, TailQuery(-1, "le")) == 0.0


class TestTailQueryDataclass:
    """The written-out ``__init__`` keeps the frozen dataclass's contract and checks."""

    @pytest.mark.parametrize("args", [(5, "ge"), (2.5, "le"), (-3, "le"), (np.float64(1.5), "ge")])
    def test_contract(self, args):
        assert_frozen_dataclass_contract(TailQuery(*args), args)

    def test_default_direction(self):
        assert TailQuery(5) == TailQuery(threshold=5) == TailQuery(5, "ge")
        assert hash(TailQuery(5)) == hash(TailQuery(5, "ge"))

    def test_replace_checks_again(self):
        q = TailQuery(5, "ge")
        assert dataclasses.replace(q, direction="le") == TailQuery(5, "le")
        assert dataclasses.replace(q, threshold=2.5) == TailQuery(2.5, "ge")
        for changes, message in [
            ({"threshold": math.inf}, "threshold must be finite, got inf"),
            ({"threshold": 10**400}, "threshold must be finite, got an int too big for a float"),
            ({"threshold": "3"}, "threshold must be a real number, got '3'"),
            ({"threshold": True}, "threshold must be a real number, got True"),
            ({"direction": "gt"}, "direction must be 'ge' or 'le', got 'gt'"),
        ]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(q, **changes)


def fsum_tail(pmf, t, direction):
    """Reference tail: math.fsum over the slice, with tail_prob's edge cases."""
    if direction == "ge":
        if t > pmf.max_sum:
            return 0.0
        return 1.0 if t <= 0 else min(math.fsum(pmf.probs[t:]), 1.0)
    if t < 0:
        return 0.0
    return 1.0 if t >= pmf.max_sum else min(math.fsum(pmf.probs[: t + 1]), 1.0)


def subnormal_heavy_pmf(rng):
    """A valid pmf whose small bins are mostly subnormal or near the normal edge."""
    n = int(rng.integers(2, 40))
    tiny = sys.float_info.min
    probs = []
    for _ in range(n - 1):
        kind = rng.integers(0, 4)
        if kind == 0:
            probs.append(float(rng.integers(1, 2**20)) * 5e-324)  # subnormal
        elif kind == 1:
            probs.append(tiny * float(rng.random()))  # subnormal, random bits
        elif kind == 2:
            probs.append(tiny * float(rng.integers(1, 8)))  # just above the edge
        else:
            probs.append(float(rng.random()) / n)
    probs.insert(int(rng.integers(0, n)), 1.0 - math.fsum(probs))
    return SumPmf(tuple(probs))


class TestTailSums:
    """tail_prob reads cached exact running sums; each must equal math.fsum."""

    def check_every_threshold(self, pmf):
        for t in range(-1, pmf.max_sum + 2):
            for direction in ("ge", "le"):
                assert tail_prob(pmf, TailQuery(t, direction)) == fsum_tail(pmf, t, direction)

    def test_block_tight_with_subnormal_bins(self):
        pmf = sum_pmf(gen_block_tight(1, 1100, "1/3"))
        assert any(0.0 < p < sys.float_info.min for p in pmf.probs)
        self.check_every_threshold(pmf)

    def test_random_subnormal_heavy_pmfs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            self.check_every_threshold(subnormal_heavy_pmf(rng))

    def test_random_family_pmfs(self):
        for seed in range(10):
            self.check_every_threshold(sum_pmf(gen_random_family(8, 8, 3, 3, seed=seed)))

    def test_long_runs_of_zero_bins_at_both_ends_and_inside(self):
        # Each zero bin reuses the last quotient in both directions.
        rng = np.random.default_rng(29)
        for _ in range(20):
            live = [float(rng.random()) * 10.0 ** -float(rng.uniform(0.0, 320.0)) for _ in range(12)]
            live[int(rng.integers(12))] = 1.0
            live += [5e-324] * int(rng.integers(0, 4))
            probs = [0.0] * int(rng.integers(0, 400))
            for p in rng.permutation(live).tolist():
                probs += [p] + [0.0] * int(rng.integers(0, 300))
            probs += [0.0] * int(rng.integers(0, 400))
            scale = math.fsum(probs)
            probs = [p / scale if p > 1e-300 else p for p in probs]
            assert probs.count(0.0) >= 100
            for first in ("ge", "le"):  # either direction may fill both
                pmf = SumPmf(tuple(probs))
                for direction in (first, "le" if first == "ge" else "ge"):
                    for t in range(-1, pmf.max_sum + 2):
                        assert tail_prob(pmf, TailQuery(t, direction)) == fsum_tail(pmf, t, direction)

    def test_single_bin(self):
        pmf = SumPmf((1.0,))
        self.check_every_threshold(pmf)
        assert pmf._tail_sums == ((1.0,), (1.0,))

    @pytest.mark.parametrize("first", ["ge", "le"])
    def test_first_query_makes_both_tails_in_one_pass(self, first, monkeypatch):
        passes = []

        def counted(probs):
            passes.append(probs)
            return real(probs)

        real = exact._exact_tail_sums
        monkeypatch.setattr(exact, "_exact_tail_sums", counted)
        pmf = SumPmf((0.125, 0.0, 0.5, 0.375))
        second = "le" if first == "ge" else "ge"
        for direction in (first, second, first):
            for t in range(-1, pmf.max_sum + 2):
                assert tail_prob(pmf, TailQuery(t, direction)) == fsum_tail(pmf, t, direction)
            assert passes == [pmf.probs]
        # Kept as a plain attribute: no later query runs the property again.
        assert pmf.__dict__["_tail_sums"] is pmf._tail_sums


class TestElimination:
    """sum_pmf by variable elimination against independent computations."""

    def test_uniform_components_equal_enumeration_exactly(self):
        # One component: both paths count assignments exactly and divide once.
        checked = 0
        for seed in range(40):
            spec = gen_random_family(m=6, r=6, k=3, max_arity=3, seed=seed)
            if len(dependency_components(spec)) == 1:
                assert sum_pmf(spec).probs == sum_pmf_enumerate(spec).probs
                checked += 1
        assert checked >= 10

    def test_unsorted_reads_equal_enumeration_exactly(self):
        spec = FamilySpec(
            (Variable("a", 2), Variable("b", 3), Variable("c", 2)),
            (
                ReadFunction("y0", (2, 0, 1), "010011101100"),
                ReadFunction("y1", (1, 2), "011001"),
                ReadFunction("y2", (0,), "10"),
            ),
        )
        assert sum_pmf(spec).probs == sum_pmf_enumerate(spec).probs

    def test_weighted_chain_far_past_enumeration(self):
        # 200 bits in one component: 2**200 assignments.
        rng = np.random.default_rng(3)
        probs = (0.3, 0.7)
        tables = [("0110", "1001")[int(b)] for b in rng.integers(0, 2, size=199)]
        spec = FamilySpec(
            tuple(Variable(f"x{i}", 2, probs) for i in range(200)),
            tuple(ReadFunction(f"y{j}", (j, j + 1), t) for j, t in enumerate(tables)),
        )
        assert len(dependency_components(spec)) == 1

        # transfer matrix over (previous bit, partial sum)
        state = {(b, 0): probs[b] for b in (0, 1)}
        for table in tables:
            nxt = {}
            for (b, s), mass in state.items():
                for b2 in (0, 1):
                    key = (b2, s + int(table[2 * b + b2]))
                    nxt[key] = nxt.get(key, 0.0) + mass * probs[b2]
            state = nxt
        want = [0.0] * 200
        for (_, s), mass in state.items():
            want[s] += mass

        got = sum_pmf(spec).probs
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=EXACT_TOL)

    def test_guard_bounds_factor_cells_not_assignments(self):
        spec = FamilySpec(
            tuple(Variable(f"x{i}", 2) for i in range(30)),
            tuple(ReadFunction(f"y{j}", (j, j + 1), "0110") for j in range(29)),
        )
        assert sum_pmf(spec, guard=1 << 10).probs == tuple(
            math.comb(29, s) / 2**29 for s in range(30)
        )
        with pytest.raises(ResourceError):
            sum_pmf_enumerate(spec, guard=1 << 10)

    def test_mean_matches_marginals_on_large_component(self):
        spec = gen_random_family(60, 60, 3, 3, seed=9)
        marg = function_marginals(spec)
        assert sum_pmf(spec).mean() == pytest.approx(math.fsum(marg.per_function), abs=1e-10)


class TestFunctionMarginals:
    def test_constant_zero(self):
        spec = FamilySpec((Variable("x", 2),), (ReadFunction("y", (), "0"),))
        assert function_marginals(spec).per_function == (0.0,)

    def test_balanced_xor(self, xor_family):
        assert function_marginals(xor_family).per_function == (0.5, 0.5)

    def test_weighted_and(self):
        spec = FamilySpec(
            (Variable("a", 2, (0.75, 0.25)), Variable("b", 2, (0.75, 0.25))),
            (ReadFunction("y", (0, 1), "0001"),),
        )
        marg = function_marginals(spec)
        assert marg.per_function[0] == pytest.approx(0.0625, abs=EXACT_TOL)
        assert marg.mean == marg.per_function[0]

    def test_mean_of_pmf_matches_marginal_sum(self):
        spec = gen_random_family(m=6, r=5, k=3, max_arity=2, seed=11)
        marg = function_marginals(spec)
        assert sum_pmf(spec).mean() == pytest.approx(
            math.fsum(marg.per_function), abs=EXACT_TOL
        )


class TestConditionalMarginals:
    def test_conditioning_on_everything_recovers_marginals(self, xor_family):
        q = conditional_function_marginals(xor_family, TailQuery(0, "ge"))
        assert q == function_marginals(xor_family).per_function

    def test_xor_top(self, xor_family):
        assert conditional_function_marginals(xor_family, TailQuery(2, "ge")) == (1.0, 1.0)

    def test_block_top(self, block_family):
        q = conditional_function_marginals(block_family, TailQuery(4, "ge"))
        assert q == (1.0, 1.0, 1.0, 1.0)

    def test_empty_event_rejected(self, xor_family):
        with pytest.raises(DomainError):
            conditional_function_marginals(xor_family, TailQuery(3, "ge"))

    @pytest.mark.parametrize("seed", range(6))
    def test_conditional_average_covers_threshold(self, seed):
        spec = gen_random_family(m=5, r=4, k=3, max_arity=2, seed=seed)
        r = spec.num_functions
        pmf = sum_pmf(spec)
        for t in range(0, r + 1):
            if tail_prob(pmf, TailQuery(t, "ge")) > 0:
                q = conditional_function_marginals(spec, TailQuery(t, "ge"))
                assert math.fsum(q) >= t - 1e-9
            if tail_prob(pmf, TailQuery(t, "le")) > 0:
                q = conditional_function_marginals(spec, TailQuery(t, "le"))
                assert math.fsum(q) <= t + 1e-9


def poisson_binomial_pmf(ps):
    """O(n^2) in-place DP over success probabilities; independent oracle."""
    f = [1.0]
    for p in ps:
        g = [0.0] * (len(f) + 1)
        for s, val in enumerate(f):
            g[s] += val * (1.0 - p)
            g[s + 1] += val * p
        f = g
    return f


def test_disjoint_family_matches_poisson_binomial():
    rng = np.random.default_rng(5)
    variables, functions = [], []
    for j in range(7):
        support = int(rng.integers(2, 4))
        raw = rng.random(support) + 0.1
        probs = tuple(float(x) for x in raw / raw.sum())
        variables.append(Variable(f"x{j}", support, probs))
        table = "".join(str(int(b)) for b in rng.integers(0, 2, size=support))
        functions.append(ReadFunction(f"y{j}", (j,), table))
    spec = FamilySpec(tuple(variables), tuple(functions))
    expected = poisson_binomial_pmf(function_marginals(spec).per_function)
    got = sum_pmf(spec).probs
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a == pytest.approx(b, abs=EXACT_TOL)


@pytest.mark.parametrize("weighted", [False, True])
def test_chunked_scan_matches_one_chunk(weighted, monkeypatch):
    spec = gen_random_family(m=6, r=6, k=3, max_arity=2, seed=4)
    if weighted:
        spec = weighted_variant(spec, np.random.default_rng(4))
    query = TailQuery(3, "ge")

    def results():
        law = conditional_law(spec, query)
        numbers = (
            sum_pmf_enumerate(spec).probs,
            conditional_function_marginals(spec, query),
            proof_trace(spec, query).terms(),
            law.probs,
        )
        return law.outcomes, numbers

    outcomes, whole = results()
    monkeypatch.setattr(exact, "CHUNK", 7)  # every chunk fixes the leading variables
    chunked_outcomes, chunked = results()
    assert chunked_outcomes == outcomes
    if weighted:
        for got, want in zip(chunked, whole):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    else:
        assert chunked == whole


@pytest.mark.parametrize("run", ["proof_trace", "sum_pmf_enumerate"])
def test_scan_memory_does_not_grow_with_the_number_of_functions(run):
    # 2^16 assignments and 200 functions: a table of positions per function
    # and assignment would take 200 * 2^16 * 4 bytes, about 50 MB. numpy's
    # buffers are traced, so the peak counts the scan's arrays.
    tables = ("0110", "0111", "0001", "1011")
    functions = [ReadFunction(f"y{j}", (j % 16, (j + 1) % 16), tables[j % 4]) for j in range(200)]
    spec = FamilySpec(tuple(Variable(f"x{i}", 2) for i in range(16)), tuple(functions))
    query = TailQuery(100, "ge")
    calls = {
        "proof_trace": lambda: proof_trace(spec, query),
        "sum_pmf_enumerate": lambda: sum_pmf_enumerate(spec),
    }
    tracemalloc.start()
    try:
        calls[run]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_convolution_equals_full_enumeration_on_random_corpus():
    for seed in range(25):
        spec = gen_random_family(m=6, r=6, k=3, max_arity=2, seed=seed)
        via_components = sum_pmf(spec).probs
        flat = sum_pmf_enumerate(spec).probs
        for a, b in zip(via_components, flat):
            assert a == pytest.approx(b, abs=EXACT_TOL)


def counting_eliminations(monkeypatch):
    """Wrap ``exact._eliminate_pmf``; the returned list grows by one entry per call."""
    calls = []
    eliminate = exact._eliminate_pmf

    def counted(spec, comp, *rest):
        calls.append(comp)
        return eliminate(spec, comp, *rest)

    monkeypatch.setattr(exact, "_eliminate_pmf", counted)
    return calls


class TestSharedSolves:
    """sum_pmf eliminates one component per distinct signature."""

    @pytest.mark.parametrize("k, blocks, p", [(1, 5000, "1/3"), (3, 200, "1/2")])
    def test_block_family_is_solved_once(self, monkeypatch, k, blocks, p):
        spec = gen_block_tight(k, blocks, p)
        calls = counting_eliminations(monkeypatch)
        pmf = sum_pmf(spec)
        assert calls == [dependency_components(spec)[0]]
        assert len(pmf.probs) == k * blocks + 1
        # nothing is kept across calls: a second call solves the block again
        assert sum_pmf(spec) == pmf
        assert calls == [dependency_components(spec)[0]] * 2

    def test_distinct_components_are_each_solved(self, monkeypatch):
        spec = gen_random_family(40, 30, 3, 2, 0)
        comps = dependency_components(spec)
        assert len({component_key(spec, c) for c in comps}) == len(comps)
        calls = counting_eliminations(monkeypatch)
        sum_pmf(spec)
        assert calls == list(comps)

    def test_guard_names_the_first_of_many_equal_components(self, monkeypatch):
        # y0 alone fits the guard; 50 equal blocks of three copies of a bit do not.
        copies = gen_block_tight(3, 50, "1/2")
        spec = FamilySpec(
            (Variable("x", 2),) + copies.variables,
            (ReadFunction("y", (0,), "01"),)
            + tuple(ReadFunction(f.name, (f.vars[0] + 1,), "01") for f in copies.functions),
        )
        calls = counting_eliminations(monkeypatch)
        with pytest.raises(ResourceError) as raised:
            sum_pmf(spec, guard=7)
        assert str(raised.value) == (
            "component [y0, y1, y2]: an elimination factor spans 8 cells, exceeding the guard 7"
        )
        assert len(calls) == 2

    def test_plans_are_made_once_per_class_and_kept(self, monkeypatch):
        spec = gen_random_family(40, 30, 3, 2, 0)
        plans = []
        plan = family._plan
        monkeypatch.setattr(family, "_plan", lambda reads: plans.append(reads) or plan(reads))
        pmf = sum_pmf(spec)
        assert len(plans) == len(spec._classes.representatives) > 1
        assert sum_pmf(spec) == pmf
        assert len(plans) == len(spec._classes.representatives)
        assert spec._classes is spec._classes


def many_readers_of_one_bit(r):
    """``r`` functions of one fair bit, each the bit or its negation, all in one step."""
    return FamilySpec(
        (Variable("x", 2),),
        tuple(ReadFunction(f"y{j}", (0,), "01" if j % 3 else "10") for j in range(r)),
    )


class TestKeptProgram:
    """Each class's compiled plan is made by its first ``sum_pmf`` and kept by the family."""

    @pytest.mark.parametrize("source", ["argument", "environment"])
    def test_a_kept_program_reads_a_later_guard(self, monkeypatch, source):
        monkeypatch.delenv("READK_ENUM_GUARD", raising=False)
        spec = gen_random_family(18, 36, 4, 2, 1)
        pmf = sum_pmf(spec)
        programs = list(spec._classes.programs)
        cells = sorted({n for program in programs for n in program.cells})
        assert len(cells) > 2
        for guard in (cells[-1] - 1, cells[len(cells) // 2] - 1):
            if source == "environment":
                monkeypatch.setenv("READK_ENUM_GUARD", str(guard))
            kwargs = {"guard": guard} if source == "argument" else {}
            with pytest.raises(ResourceError) as kept:
                sum_pmf(spec, **kwargs)
            with pytest.raises(ResourceError) as fresh:
                sum_pmf(FamilySpec(spec.variables, spec.functions), **kwargs)
            assert str(kept.value) == str(fresh.value)
            assert str(kept.value).endswith(f" cells, exceeding the guard {guard}")
        monkeypatch.delenv("READK_ENUM_GUARD", raising=False)
        assert sum_pmf(spec) == pmf
        assert all(a is b for a, b in zip(spec._classes.programs, programs))

    @pytest.mark.parametrize("r", [255, 256, 300])
    def test_a_step_of_many_functions_sums_them_in_a_wider_type(self, r):
        # Negated every third function, the bit's sums stay below 256; read
        # plain by all, the set bit's sum is r, which a byte would wrap.
        plain = FamilySpec((Variable("x", 2),),
                           tuple(ReadFunction(f"y{j}", (0,), "01") for j in range(r)))
        for spec in (many_readers_of_one_bit(r), plain):
            assert sum_pmf(spec).probs == sum_pmf_enumerate(spec).probs
            ((shape, _, one_hot, _, _),) = spec._classes.programs[0].steps
            want = [sum(int(fn.truth_table[x]) for fn in spec.functions) for x in (0, 1)]
            assert shape == (2,) and one_hot.shape == (2, r + 1)
            assert [np.flatnonzero(row).tolist() for row in one_hot] == [[s] for s in want]
            assert sum_pmf(spec).probs == sum_pmf_enumerate(spec).probs

    @pytest.mark.parametrize("make", [
        lambda: gen_block_tight(3, 4, "1/3"),
        lambda: gen_random_family(18, 36, 4, 2, 1),
        lambda: weighted_variant(gen_random_family(12, 8, 2, 3, 5), np.random.default_rng(5)),
        lambda: FamilySpec(  # two functions of one step; a uniform law among weighted ones
            (Variable("a", 3), Variable("b", 2, (0.25, 0.75))),
            (ReadFunction("y0", (1, 0), "011010"), ReadFunction("y1", (0, 1), "100101"),
             ReadFunction("y2", (), "1")),
        ),
        lambda: many_readers_of_one_bit(300),
    ])
    def test_kept_arrays_are_read_only_and_have_no_sum_axis(self, make):
        spec = make()
        sum_pmf(spec)
        supports = {v.support_size for v in spec.variables}
        classes = spec._classes
        for comp, program in zip(classes.representatives, classes.programs):
            n = len(program.reads)
            for plan_step, step in zip(program.plan, program.steps, strict=True):
                inputs, scope, _, length = plan_step
                shape, messages, one_hot, weights, axes = step
                kept = [a for a in (one_hot, *weights) if a is not None]
                assert not any(a.flags.writeable for a in kept)
                functions = sum(f < n for f in inputs)
                if one_hot is None:
                    assert functions == 0
                else:
                    # One mask per sum of the step's functions, made at compile time:
                    # each read-only, of the variable axes and a trailing 1, and
                    # together a partition of the cells, each true where its sum is.
                    assert one_hot.dtype == bool and one_hot.shape == (*shape, functions + 1)
                    masks = [one_hot[..., s:s + 1] for s in range(functions + 1)]
                    assert all(m.shape == (*shape, 1) and not m.flags.writeable for m in masks)
                    assert (sum(m.astype(int) for m in masks) == 1).all()
                    sums = step_function_sums(spec, comp, program, inputs, scope)
                    assert all((m[..., 0] == (sums == s)).all() for s, m in enumerate(masks))
                    # So the product's sum axis is never kept: a byte per cell at most.
                    assert one_hot.size <= math.prod(shape) * length
                assert not weights or len(weights) == len(axes)
                assert all(w.size in supports for w in weights)
                for _, aligned in messages:
                    assert aligned is None or len(aligned) == len(shape) + 1


def step_function_sums(spec, comp, program, inputs, scope):
    """The sum of a plan step's functions on each cell of its scope, read off the truth tables."""
    sizes, reads = program.sizes, program.reads
    sums = np.zeros([sizes[i] for i in scope], dtype=int)
    for cell in np.ndindex(*sums.shape):
        value = dict(zip(scope, cell))
        for f in inputs:
            if f < len(reads):
                pos = 0
                for i in reads[f]:
                    pos = pos * sizes[i] + value[i]
                sums[cell] += int(spec.functions[comp.functions[f]].truth_table[pos])
    return sums


def structure_outputs(spec):
    """The pmf, marginals and read width, floats as ``float.hex``."""
    marginals = function_marginals(spec)
    return (
        [p.hex() for p in sum_pmf(spec).probs],
        [p.hex() for p in marginals.per_function],
        marginals.mean.hex(),
        read_width(spec),
    )


@pytest.mark.parametrize("make", [
    lambda: gen_block_tight(1, 300, "1/3"),
    lambda: gen_block_tight(3, 40, "1/2"),
    lambda: gen_random_family(40, 30, 3, 2, 0),
    lambda: weighted_variant(gen_random_family(12, 8, 2, 3, 5), np.random.default_rng(5)),
    lambda: FamilySpec(
        (Variable("a", 2, (0.5, 0.5)), Variable("b", 2, (0.5000000000000001, 0.4999999999999999)),
         Variable("c", 2, (0.0, 1.0)), Variable("d", 2, (-0.0, 1.0))),
        tuple(ReadFunction(f"y{j}", (j % 4,), "10") for j in range(8)),
    ),
])
def test_structure_is_the_same_cold_warm_and_on_a_json_copy(make):
    spec = make()
    first = structure_outputs(spec)
    assert structure_outputs(spec) == first
    assert structure_outputs(family_from_json(family_to_json(spec))) == first


class TestGuard:
    def test_exceeding_guard_names_component(self, xor_family):
        with pytest.raises(ResourceError, match="exceeding the guard 2"):
            sum_pmf(xor_family, guard=2)

    def test_env_override(self, xor_family, monkeypatch):
        monkeypatch.setenv("READK_ENUM_GUARD", "2")
        with pytest.raises(ResourceError):
            sum_pmf(xor_family)
        # explicit argument wins over the environment
        assert sum_pmf(xor_family, guard=16).probs == (0.25, 0.5, 0.25)

    def test_message_names_component(self, xor_family):
        with pytest.raises(ResourceError, match=r"component \[y0, y1\].*exceeding the guard 2"):
            sum_pmf(xor_family, guard=2)

    def test_conditional_guard(self, xor_family):
        with pytest.raises(ResourceError):
            conditional_function_marginals(xor_family, TailQuery(0, "ge"), guard=3)

    @pytest.mark.parametrize("guard", [2.7, "100", 0, -5, True])
    def test_guard_must_be_a_positive_int(self, xor_family, guard):
        with pytest.raises(DomainError, match=f"^guard must be a positive int, got {guard!r}$"):
            sum_pmf(xor_family, guard=guard)

    @pytest.mark.parametrize("env", ["1e6", "-5", "0", "many"])
    def test_env_guard_must_be_a_positive_int(self, xor_family, monkeypatch, env):
        monkeypatch.setenv("READK_ENUM_GUARD", env)
        with pytest.raises(DomainError, match="^READK_ENUM_GUARD must be a positive int, got "):
            sum_pmf(xor_family)

    @pytest.mark.parametrize("size, count", [
        (10**15 - 1, "999999999999999"),
        (10**15, "1.000e+15"),
        (2**2000, "1.148e+602"),
        (99996 * 10**20, "1.000e+25"),
    ])
    def test_counts_past_15_digits_print_four_significant_digits(self, size, count):
        with pytest.raises(ResourceError) as raised:
            exact._check_guard(size, 7, "family")
        assert str(raised.value) == f"family spans {count} assignments, exceeding the guard 7"

    @pytest.mark.parametrize("run", [
        sum_pmf_enumerate,
        lambda spec: conditional_law(spec, TailQuery(1, "ge")),
        lambda spec: proof_trace(spec, TailQuery(1, "ge")),
        lambda spec: conditional_function_marginals(spec, TailQuery(1, "ge")),
    ], ids=["sum_pmf_enumerate", "conditional_law", "proof_trace", "conditional_marginals"])
    def test_counts_past_4300_digits_raise_the_guard_error(self, monkeypatch, run):
        # 2^15000 assignments: Python makes no decimal string of 4516 digits.
        monkeypatch.delenv("READK_ENUM_GUARD", raising=False)
        with pytest.raises(ResourceError) as raised:
            run(gen_block_tight(1, 15000, "1/2"))
        assert str(raised.value) == (
            "family spans 2.818e+4515 assignments, exceeding the guard 16777216"
        )

    def test_guard_reads_the_plan_before_any_array(self, monkeypatch):
        # Its widest factor would span 134159328 cells, 1 GiB at 8 bytes a cell;
        # numpy's buffers are traced, so the peak shows whether any was made.
        monkeypatch.delenv("READK_ENUM_GUARD", raising=False)
        spec = gen_random_family(80, 120, 5, 3, seed=3)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as raised:
                sum_pmf(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(raised.value) == (
            "component [y0, y1, y2, y3, ...]: an elimination factor spans 134159328 cells,"
            " exceeding the guard 16777216"
        )
        assert peak < 2**20


class TestSumPmfValidation:
    def test_rejects_negative(self):
        with pytest.raises(Exception):
            SumPmf((1.2, -0.2))

    def test_rejects_unnormalized(self):
        with pytest.raises(Exception):
            SumPmf((0.5, 0.4))
