import itertools
import math
import re

import numpy as np
import pytest

from readk.audit import (
    ProofTrace,
    conditional_law,
    proof_trace,
    shearer_entropy_gap,
    shearer_kl_gap,
)
from readk.bounds import BoundQuery, read_k_tail_bound
from readk.errors import DomainError, ResourceError
from readk.exact import TailQuery, sum_pmf, tail_prob
from readk.family import FamilySpec, ReadFunction, Variable, read_width
from readk.generators import gen_random_family
from readk.info_theory import Distribution, kl_divergence, project

from conftest import random_distribution, weighted_variant

LN2 = math.log(2)
EXACT_TOL = 1e-12


class TestEntropyGap:
    def test_repeated_full_cover_is_equality(self):
        rng = np.random.default_rng(0)
        joint = random_distribution(rng, tuple(itertools.product((0, 1), (0, 1, 2))))
        lhs, rhs = shearer_entropy_gap(joint, [(0, 1)] * 3, k=3)
        assert lhs == pytest.approx(rhs, abs=EXACT_TOL)

    def test_triple_cover_of_three_bits(self):
        joint = Distribution.uniform(tuple(itertools.product((0, 1), repeat=3)))
        lhs, rhs = shearer_entropy_gap(joint, [(0, 1), (1, 2), (0, 2)], k=2)
        assert lhs == pytest.approx(6 * LN2, abs=EXACT_TOL)
        assert rhs == pytest.approx(6 * LN2, abs=EXACT_TOL)

    def test_point_mass_vanishes(self):
        joint = Distribution.point_mass(
            (1, 0, 1), tuple(itertools.product((0, 1), repeat=3))
        )
        lhs, rhs = shearer_entropy_gap(joint, [(0, 1), (1, 2), (0, 2)], k=2)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_undercovered_coordinate_rejected(self):
        joint = Distribution.uniform(tuple(itertools.product((0, 1), repeat=2)))
        with pytest.raises(DomainError):
            shearer_entropy_gap(joint, [(0,), (0, 1)], k=2)

    def test_randomized_instances_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            width = int(rng.integers(2, 5))
            sizes = rng.integers(2, 4, size=width)
            outcomes = tuple(itertools.product(*(range(s) for s in sizes)))
            joint = random_distribution(rng, outcomes)
            cover = [
                tuple(i for i in range(width) if rng.random() < 0.6) or (0,)
                for _ in range(int(rng.integers(2, 6)))
            ]
            k = min(sum(i in p for p in cover) for i in range(width))
            if k == 0:
                cover.append(tuple(range(width)))
                k = 1
            lhs, rhs = shearer_entropy_gap(joint, cover, k)
            assert lhs <= rhs + 1e-9


class TestKlGap:
    def test_uniform_conditioning_vanishes(self, xor_family):
        law = conditional_law(xor_family, TailQuery(0, "ge"))
        lhs, rhs = shearer_kl_gap(xor_family, law)
        assert lhs == pytest.approx(0.0, abs=EXACT_TOL)
        assert rhs == pytest.approx(0.0, abs=EXACT_TOL)

    def test_xor_top_event(self, xor_family):
        law = conditional_law(xor_family, TailQuery(2, "ge"))
        lhs, rhs = shearer_kl_gap(xor_family, law)
        assert lhs == pytest.approx(2 * math.log(4), abs=EXACT_TOL)
        assert rhs == pytest.approx(math.log(2) + math.log(4), abs=EXACT_TOL)

    def test_matches_distribution_level_computation(self):
        # independent route: materialize the uniform product law and use
        # kl_divergence / project over the full outcome set
        spec = gen_random_family(m=4, r=4, k=2, max_arity=2, seed=3)
        law = conditional_law(spec, TailQuery(2, "ge"))
        lhs, rhs = shearer_kl_gap(spec, law)

        full = tuple(itertools.product(*(range(v.support_size) for v in spec.variables)))
        mass = dict(zip(law.outcomes, law.probs))
        padded = Distribution(full, tuple(mass.get(a, 0.0) for a in full))
        uniform = Distribution.uniform(full)
        k = read_width(spec)
        assert lhs == pytest.approx(k * kl_divergence(padded, uniform), rel=1e-9, abs=1e-12)

    def test_disjoint_reads_hold_under_random_conditioning(self):
        rng = np.random.default_rng(21)
        spec = FamilySpec(
            tuple(Variable(f"x{i}", 2) for i in range(4)),
            tuple(ReadFunction(f"y{j}", (j,), "01") for j in range(4)),
        )
        outcomes = tuple(itertools.product((0, 1), repeat=4))
        for _ in range(25):
            law = random_distribution(rng, outcomes)
            lhs, rhs = shearer_kl_gap(spec, law)
            assert lhs >= rhs - 1e-9

    def test_weighted_matches_materialized_product_law(self):
        # independent route: materialize the weighted product law over the
        # full outcome set and use kl_divergence / project on it
        rng = np.random.default_rng(5)
        for seed in range(4):
            spec = weighted_variant(gen_random_family(m=4, r=4, k=2, max_arity=2, seed=seed), rng)
            law = conditional_law(spec, TailQuery(2, "ge"))
            lhs, rhs = shearer_kl_gap(spec, law)

            full = tuple(itertools.product(*(range(v.support_size) for v in spec.variables)))
            mass = dict(zip(law.outcomes, law.probs))
            padded = Distribution(full, tuple(mass.get(a, 0.0) for a in full))
            mu = Distribution(
                full, tuple(math.prod(v.probs[x] for v, x in zip(spec.variables, a)) for a in full)
            )
            k = read_width(spec)
            assert lhs == pytest.approx(k * kl_divergence(padded, mu), rel=1e-12)
            want = math.fsum(
                kl_divergence(project(padded, fn.vars), project(mu, fn.vars))
                for fn in spec.functions
            )
            assert rhs == pytest.approx(want, rel=1e-12)

    def test_zero_mass_outcome_is_infinite(self):
        # x1 = 1 has probability zero; x1 is read only by y1
        spec = FamilySpec(
            (Variable("x0", 2, (0.75, 0.25)), Variable("x1", 2, (1.0, 0.0)), Variable("x2", 2)),
            (ReadFunction("y0", (0,), "01"), ReadFunction("y1", (1,), "01")),
        )
        law = Distribution(((0, 0, 0), (1, 1, 0)), (0.5, 0.5))
        assert shearer_kl_gap(spec, law) == (math.inf, math.inf)
        # mass on the zero-probability value of an unread variable
        spec = FamilySpec(spec.variables, spec.functions[:1])
        lhs, rhs = shearer_kl_gap(spec, law)
        assert lhs == math.inf
        assert rhs == pytest.approx(0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25))

    @pytest.mark.parametrize(
        "outcomes, message",
        [
            (((0, 1, 0), (1, 0, 1)), "outcomes are not assignments of 2 variables"),
            (((0,), (1,)), "outcomes are not assignments of 2 variables"),
            (((0, 1.0), (1, 0)), "outcome values must be integers"),
            (((0, 1.5), (1, 0)), "outcome values must be integers"),
            (((1, 2), (0, -1)), "outcome (0, -1): value -1 out of range at position 1"),
            (((1, 2), (2, 0)), "outcome (2, 0): value 2 out of range at position 0"),
            # two bad outcomes: the first outcome is reported, not the lowest position
            (((0, 5), (2, 0)), "outcome (0, 5): value 5 out of range at position 1"),
        ],
        ids=["too-wide", "too-narrow", "integral-float", "float", "negative", "too-large",
             "two-bad-outcomes"],
    )
    def test_rejects_laws_that_are_not_assignments(self, outcomes, message):
        spec = FamilySpec(
            (Variable("a", 2), Variable("b", 3)), (ReadFunction("f", (0, 1), "010101"),)
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            shearer_kl_gap(spec, Distribution(outcomes, (0.5, 0.5)))


class TestConditionalLaw:
    def test_xor_top_is_point_mass(self, xor_family):
        law = conditional_law(xor_family, TailQuery(2, "ge"))
        assert law.outcomes == ((1, 0),)
        assert law.probs == (1.0,)

    def test_outcomes_sorted_and_normalized(self, block_family):
        law = conditional_law(block_family, TailQuery(2, "ge"))
        assert list(law.outcomes) == sorted(law.outcomes)
        assert math.fsum(law.probs) == pytest.approx(1.0, abs=EXACT_TOL)

    def test_empty_event_rejected(self, xor_family):
        with pytest.raises(DomainError):
            conditional_law(xor_family, TailQuery(3, "ge"))

    def test_uniform_law_is_exactly_one_over_count(self):
        for seed in range(10):
            spec = gen_random_family(m=4, r=4, k=2, max_arity=2, seed=seed)
            pmf = sum_pmf(spec)
            for t in range(spec.num_functions + 1):
                if tail_prob(pmf, TailQuery(t, "le")) == 0.0:
                    continue
                law = conditional_law(spec, TailQuery(t, "le"))
                assert law.probs == (1 / len(law.outcomes),) * len(law.outcomes)


class TestProofTrace:
    def test_xor_chain_values(self, xor_family):
        trace = proof_trace(xor_family, TailQuery(2, "ge"))
        expected = (math.log(4), 1.5 * LN2, LN2, LN2, LN2)
        for got, want in zip(trace.terms(), expected):
            assert got == pytest.approx(want, abs=EXACT_TOL)

    def test_block_chain_saturates_every_step(self, block_family):
        trace = proof_trace(block_family, TailQuery(4, "ge"))
        for term in trace.terms():
            assert term == pytest.approx(2 * LN2, abs=EXACT_TOL)

    def test_whole_space_gives_zeros(self, xor_family):
        trace = proof_trace(xor_family, TailQuery(0, "ge"))
        assert trace.terms() == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_first_term_inverts_tail_probability(self, xor_family):
        trace = proof_trace(xor_family, TailQuery(2, "ge"))
        exact = tail_prob(sum_pmf(xor_family), TailQuery(2, "ge"))
        assert math.exp(-trace.neg_log_tail) == pytest.approx(exact, abs=EXACT_TOL)

    def test_final_term_is_bound_exponent(self, xor_family):
        # eps = t/r - p = 1 - 0.5 with r = k = 2
        trace = proof_trace(xor_family, TailQuery(2, "ge"))
        bound = read_k_tail_bound(BoundQuery(2, 2, 0.5, 0.5, "upper"))
        assert trace.final_term == pytest.approx(-bound.log_bound, abs=EXACT_TOL)

    def test_lower_tail_chain(self, block_family):
        trace = proof_trace(block_family, TailQuery(0, "le"))
        assert trace.chain_holds()
        assert trace.neg_log_tail == pytest.approx(2 * LN2, abs=EXACT_TOL)

    def test_empty_tail_rejected(self, xor_family):
        with pytest.raises(DomainError):
            proof_trace(xor_family, TailQuery(3, "ge"))

    def test_random_families_all_thresholds(self):
        for seed in range(20):
            spec = gen_random_family(m=5, r=5, k=3, max_arity=2, seed=seed)
            pmf = sum_pmf(spec)
            r = spec.num_functions
            for t in range(0, r + 1):
                for direction in ("ge", "le"):
                    exact = tail_prob(pmf, TailQuery(t, direction))
                    if exact == 0.0:
                        continue
                    trace = proof_trace(spec, TailQuery(t, direction))
                    assert trace.chain_holds()
                    assert math.exp(-trace.neg_log_tail) == pytest.approx(
                        exact, abs=EXACT_TOL
                    )


class TestGuard:
    """Both full-space audits refuse a family past the guard with ResourceError."""

    MESSAGE = "family spans 4 assignments, exceeding the guard 3"

    def test_conditional_law(self, xor_family):
        with pytest.raises(ResourceError, match=self.MESSAGE):
            conditional_law(xor_family, TailQuery(0, "ge"), guard=3)

    def test_proof_trace(self, xor_family):
        with pytest.raises(ResourceError, match=self.MESSAGE):
            proof_trace(xor_family, TailQuery(0, "ge"), guard=3)

    def test_env_override(self, xor_family, monkeypatch):
        monkeypatch.setenv("READK_ENUM_GUARD", "3")
        with pytest.raises(ResourceError):
            conditional_law(xor_family, TailQuery(0, "ge"))
        with pytest.raises(ResourceError):
            proof_trace(xor_family, TailQuery(0, "ge"))


def test_chain_holds_detects_violations():
    assert not ProofTrace(1.0, 2.0, 0.5, 0.4, 0.3).chain_holds()
    assert ProofTrace(1.0, 0.9, 0.5, 0.4, 0.3).chain_holds()
