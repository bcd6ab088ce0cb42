"""Entropy / divergence identities and inequalities.

Frozen expected values were produced by 40-digit evaluation (mpmath) of
the defining sums at the exact float64 inputs used here.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readk.errors import DomainError, ValidationError
from readk.exact import SumPmf
from readk.family import Variable
from readk.info_theory import (
    Distribution,
    conditional_entropy,
    entropy,
    kl_binary,
    kl_divergence,
    project,
    push_forward,
)

from conftest import random_distribution

IDENTITY_TOL = 1e-12


def uniform4():
    return Distribution.uniform(("a", "b", "c", "d"))


def skewed4():
    return Distribution(("a", "b", "c", "d"), (0.7, 0.1, 0.1, 0.1))


class TestEntropy:
    def test_uniform_is_log_support(self):
        assert entropy(uniform4()) == pytest.approx(math.log(4), abs=IDENTITY_TOL)

    def test_point_mass_is_zero(self):
        assert entropy(Distribution.point_mass("a", ("a", "b", "c"))) == 0.0

    def test_skewed_value(self):
        assert entropy(skewed4()) == pytest.approx(0.940447988655326421, abs=IDENTITY_TOL)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            Distribution(("a", "b"), (0.6, 0.6))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Distribution(("a", "b"), (1.2, -0.2))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Distribution(("a", "a"), (0.5, 0.5))


#: One bad vector per fault; every constructor of a probability vector rejects each.
BAD_VECTORS = {
    "negative": (-0.5, 1.5),
    "nan": (math.nan, 1.0),
    "inf": (math.inf, 0.0),
    "-inf": (-math.inf, 1.0),
    "unnormalised": (0.5, 0.6),
    "empty": (),
}
VECTOR_OWNERS = {
    "Variable": lambda probs: Variable("x", len(probs), probs),
    "Distribution": lambda probs: Distribution(tuple(range(len(probs))), probs),
    "SumPmf": SumPmf,
}


@pytest.mark.parametrize("make", VECTOR_OWNERS.values(), ids=VECTOR_OWNERS)
@pytest.mark.parametrize("probs", BAD_VECTORS.values(), ids=BAD_VECTORS)
def test_bad_probability_vectors_rejected_alike(make, probs):
    with pytest.raises(ValidationError) as info:
        make(probs)
    if probs and not 0.0 <= probs[0] < math.inf:
        assert f"invalid probability {probs[0]!r}" in str(info.value)


class TestKlDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence(skewed4(), skewed4()) == 0.0

    def test_skewed_vs_uniform(self):
        assert kl_divergence(skewed4(), uniform4()) == pytest.approx(
            0.44584637246456416, abs=IDENTITY_TOL
        )

    def test_support_mismatch_is_infinite(self):
        d1 = Distribution(("a", "b"), (1.0, 0.0))
        d2 = Distribution(("a", "b"), (0.0, 1.0))
        assert kl_divergence(d1, d2) == math.inf

    def test_mismatched_outcome_sets_rejected(self):
        with pytest.raises(DomainError):
            kl_divergence(uniform4(), Distribution.uniform(("a", "b")))

    def test_deterministic_but_different_supports(self):
        # both arguments deterministic on overlapping supports: +inf by the
        # explicit sentinel convention, never NaN
        d1 = Distribution.point_mass("a", ("a", "b"))
        d2 = Distribution.point_mass("b", ("a", "b"))
        assert kl_divergence(d1, d2) == math.inf


class TestKlBinary:
    def test_identical(self):
        assert kl_binary(0.3, 0.3) == 0.0

    def test_certain_event(self):
        assert kl_binary(1.0, 0.5) == pytest.approx(math.log(2), abs=IDENTITY_TOL)

    def test_value(self):
        assert kl_binary(0.75, 0.5) == pytest.approx(0.130812035941136959, abs=IDENTITY_TOL)

    def test_infinite_cases(self):
        assert kl_binary(0.5, 0.0) == math.inf
        assert kl_binary(0.5, 1.0) == math.inf
        assert kl_binary(1.0, 0.0) == math.inf
        assert kl_binary(0.0, 1.0) == math.inf

    def test_boundary_zeros(self):
        assert kl_binary(0.0, 0.0) == 0.0
        assert kl_binary(1.0, 1.0) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            kl_binary(1.2, 0.5)
        with pytest.raises(DomainError):
            kl_binary(0.5, -0.1)


class TestProject:
    def test_full_projection_keeps_probabilities(self):
        d = Distribution(((0, 0), (0, 1), (1, 0), (1, 1)), (0.1, 0.2, 0.3, 0.4))
        q = project(d, (0, 1))
        assert q.allclose(d)

    def test_marginal_of_product_is_uniform(self):
        d = Distribution.uniform(tuple(itertools.product((0, 1), (0, 1))))
        q = project(d, (0,))
        assert q.outcomes == ((0,), (1,))
        assert q.probs == (0.5, 0.5)

    def test_point_mass_projects_to_point_mass(self):
        d = Distribution.point_mass((1, 0), tuple(itertools.product((0, 1), (0, 1))))
        q = project(d, (1,))
        assert q.prob_of((0,)) == 1.0

    def test_out_of_range_coordinate(self):
        d = Distribution.uniform(((0, 0), (0, 1)))
        with pytest.raises(DomainError):
            project(d, (2,))


def test_push_forward_merges_labels():
    d = Distribution(("a", "b", "c"), (0.2, 0.3, 0.5))
    q = push_forward(d, {"a": 0, "b": 0, "c": 1})
    assert q.outcomes == (0, 1)
    assert q.probs == (0.5, 0.5)


# --- randomized properties ---------------------------------------------------

prob_floats = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def prob_vectors(draw, n_min=2, n_max=6):
    n = draw(st.integers(n_min, n_max))
    raw = draw(
        st.lists(st.floats(1e-6, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    total = math.fsum(raw)
    return tuple(x / total for x in raw)


@given(prob_vectors(), prob_vectors())
def test_gibbs_inequality(p1, p2):
    n = min(len(p1), len(p2))
    labels = tuple(range(n))
    d1 = Distribution(labels, tuple(x / math.fsum(p1[:n]) for x in p1[:n]))
    d2 = Distribution(labels, tuple(x / math.fsum(p2[:n]) for x in p2[:n]))
    kl = kl_divergence(d1, d2)
    assert kl >= 0.0
    if d1.allclose(d2):
        assert kl <= 1e-9


@given(prob_vectors())
def test_divergence_from_uniform_is_entropy_gap(probs):
    labels = tuple(range(len(probs)))
    d = Distribution(labels, probs)
    u = Distribution.uniform(labels)
    assert kl_divergence(d, u) == pytest.approx(
        entropy(u) - entropy(d), abs=IDENTITY_TOL
    )


@settings(max_examples=200)
@given(st.data())
def test_event_divergence_lower_bound(data):
    """D(d || uniform) >= kl_binary(d(A'), uniform(A')) for any event A'."""
    n = data.draw(st.integers(2, 8))
    labels = tuple(range(n))
    probs = data.draw(prob_vectors(n_min=n, n_max=n))
    d = Distribution(labels, probs)
    u = Distribution.uniform(labels)
    size = data.draw(st.integers(1, n - 1))
    event = set(data.draw(st.permutations(labels))[:size])
    q = math.fsum(pr for a, pr in zip(labels, d.probs) if a in event)
    p = size / n
    assert kl_divergence(d, u) >= kl_binary(min(q, 1.0), p) - 1e-9


@settings(max_examples=200)
@given(st.data())
def test_data_processing_inequality(data):
    n = data.draw(st.integers(2, 8))
    labels = tuple(range(n))
    d1 = Distribution(labels, data.draw(prob_vectors(n_min=n, n_max=n)))
    d2 = Distribution(labels, data.draw(prob_vectors(n_min=n, n_max=n)))
    image = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    phi = dict(zip(labels, image))
    lhs = kl_divergence(d1, d2)
    rhs = kl_divergence(push_forward(d1, phi), push_forward(d2, phi))
    assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))


def _weighted(lam: float, value: float) -> float:
    # zero-weight terms contribute nothing, even when the divergence is +inf
    return 0.0 if lam == 0.0 else lam * value


@given(prob_floats, prob_floats, prob_floats, prob_floats, prob_floats)
def test_binary_divergence_convexity(lam, q1, q2, p1, p2):
    mix_q = lam * q1 + (1 - lam) * q2
    mix_p = lam * p1 + (1 - lam) * p2
    rhs = _weighted(lam, kl_binary(q1, p1)) + _weighted(1 - lam, kl_binary(q2, p2))
    lhs = kl_binary(min(mix_q, 1.0), min(mix_p, 1.0))
    assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs)) or math.isinf(rhs)


@given(prob_floats, prob_floats, prob_floats)
def test_binary_divergence_monotone_away_from_p(a, b, c):
    p, q, q2 = sorted((a, b, c))
    # increasing above p: for p <= q <= q', KL(q'||p) >= KL(q||p)
    assert kl_binary(q2, p) >= kl_binary(q, p) - 1e-12
    # decreasing below p: for q' <= q <= p, KL(q'||p) >= KL(q||p)
    assert kl_binary(p, q2) >= kl_binary(q, q2) - 1e-12


def test_binary_divergence_finite_at_subnormal_p():
    p = 2.225073858507e-311
    assert kl_binary(0.5, p) == pytest.approx(math.log(0.5) - 0.5 * math.log(p), rel=1e-15)
    assert kl_binary(0.5, p) <= kl_binary(1.0, p)


def test_chain_rule_on_random_three_variable_joints():
    rng = np.random.default_rng(2024)
    outcomes = tuple(itertools.product((0, 1), (0, 1, 2), (0, 1)))
    for _ in range(50):
        joint = random_distribution(rng, outcomes)
        total = entropy(joint)
        chained = (
            entropy(project(joint, (0,)))
            + conditional_entropy(joint, (1,), (0,))
            + conditional_entropy(joint, (2,), (0, 1))
        )
        assert chained == pytest.approx(total, abs=IDENTITY_TOL)


def test_conditional_entropy_of_independent_copy():
    joint = Distribution.uniform(tuple(itertools.product((0, 1), (0, 1))))
    assert conditional_entropy(joint, (1,), (0,)) == pytest.approx(
        math.log(2), abs=IDENTITY_TOL
    )
