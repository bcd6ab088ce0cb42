"""Closed-form bound values and orderings.

Frozen expected values come from 40-digit evaluation of the defining
expressions at the exact float64 inputs.
"""

import dataclasses
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from readk.bounds import (
    BoundQuery,
    BoundResult,
    read_k_tail_bound,
    shearer_and_bound,
    simplified_tail_bound,
)
from readk.errors import DomainError
from readk.info_theory import kl_binary

from conftest import assert_frozen_dataclass_contract


class TestReadKTailBound:
    def test_chernoff_case(self):
        res = read_k_tail_bound(BoundQuery(100, 1, 0.5, 0.25, "upper"))
        assert res.bound == pytest.approx(2.08403717880714308e-06, rel=1e-12)
        assert res.log_bound == pytest.approx(-13.0812035941136959, rel=1e-12)

    def test_exponent_divided_by_k(self):
        res = read_k_tail_bound(BoundQuery(100, 4, 0.5, 0.25, "upper"))
        assert res.bound == pytest.approx(0.0379949927175737019, rel=1e-12)

    def test_block_tightness_point(self):
        res = read_k_tail_bound(BoundQuery(4, 2, 0.5, 0.5, "upper"))
        assert res.bound == 0.25

    def test_lower_tail_mirrors_upper_for_symmetric_p(self):
        up = read_k_tail_bound(BoundQuery(10, 2, 0.5, 0.3, "upper"))
        low = read_k_tail_bound(BoundQuery(10, 2, 0.5, 0.3, "lower"))
        assert up.log_bound == pytest.approx(low.log_bound, rel=1e-12)

    def test_zero_p_upper_tail_is_impossible(self):
        res = read_k_tail_bound(BoundQuery(10, 2, 0.0, 0.1, "upper"))
        assert res.log_bound == -math.inf
        assert res.bound == 0.0

    def test_fractional_exponent_used_as_is(self):
        res = read_k_tail_bound(BoundQuery(5, 2, 0.5, 0.25, "upper"))
        assert res.log_bound == pytest.approx(-kl_binary(0.75, 0.5) * 2.5, rel=1e-12)

    def test_k_one_recovers_classic_form(self):
        q = BoundQuery(37, 1, 0.2, 0.1, "upper")
        assert read_k_tail_bound(q).log_bound == pytest.approx(
            -kl_binary(0.3, 0.2) * 37, rel=1e-12
        )

    def test_vacuous_upper_rejected(self):
        with pytest.raises(DomainError):
            BoundQuery(10, 1, 0.9, 0.2, "upper")

    def test_ill_posed_lower_rejected(self):
        with pytest.raises(DomainError):
            BoundQuery(10, 1, 0.1, 0.2, "lower")

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(DomainError):
            BoundQuery(10, 1, 0.5, 0.0, "upper")

    def test_bad_r_k_rejected(self):
        with pytest.raises(DomainError):
            BoundQuery(0, 1, 0.5, 0.1, "upper")
        with pytest.raises(DomainError):
            BoundQuery(10, 0, 0.5, 0.1, "upper")


class TestSimplifiedBound:
    def test_chernoff_case(self):
        res = simplified_tail_bound(BoundQuery(100, 1, 0.5, 0.25, "upper"))
        assert res.bound == pytest.approx(3.72665317207867099e-06, rel=1e-12)

    def test_k_four(self):
        res = simplified_tail_bound(BoundQuery(100, 4, 0.5, 0.25, "upper"))
        assert res.bound == pytest.approx(0.0439369336234074173, rel=1e-12)

    def test_vanishing_deviation_limit(self):
        res = simplified_tail_bound(BoundQuery(100, 1, 0.5, 1e-9, "upper"))
        assert res.bound == pytest.approx(1.0, abs=1e-9)


class TestShearerAndBound:
    def test_certain_marginal(self):
        assert shearer_and_bound(5, 2, 1.0).bound == 1.0

    def test_block_value(self):
        assert shearer_and_bound(4, 2, 0.5).bound == 0.25

    def test_tenth(self):
        assert shearer_and_bound(6, 3, 0.1).bound == pytest.approx(0.01, rel=1e-12)

    def test_zero_marginal(self):
        res = shearer_and_bound(3, 1, 0.0)
        assert res.bound == 0.0 and res.log_bound == -math.inf

    @given(st.integers(1, 10_000), st.integers(1, 50), st.one_of(
        st.sampled_from((0.0, 1.0, 5e-324, 1e-310, 0.5, 0.3, 0.17, 0.9, 0.999)),
        st.floats(0.0, 1.0),
    ))
    @example(4, 2, 0.5)
    @example(7, 3, 0.5)
    @example(100, 6, 0.5)
    @example(4, 2, 0.3)
    @example(7, 3, 0.3)
    @example(100, 6, 0.3)
    @example(4, 2, 0.17)
    @example(7, 3, 0.17)
    @example(100, 6, 0.17)
    @example(4, 2, 0.9)
    @example(7, 3, 0.9)
    @example(100, 6, 0.9)
    @example(4, 2, 0.999)
    @example(7, 3, 0.999)
    @example(100, 6, 0.999)
    @example(3, 1, 0.0)
    @example(5, 2, 1.0)
    @example(100, 6, 5e-324)
    def test_matches_full_deviation_tail_bound_exactly(self, r, k, p):
        # The AND bound is the upper-tail bound at t = r: kl_binary(1, p) is
        # ln(1/p), so it is p^(r/k) in log space, bit for bit.
        res = shearer_and_bound(r, k, p)
        if p == 0.0:
            assert res == BoundResult(-math.inf, 0.0)
        else:
            assert res == BoundResult.from_log(math.log(p) * (r / k))
        if p < 1.0:
            assert res == read_k_tail_bound(BoundQuery(r, k, p, 1.0 - p, "upper"))


valid_queries = st.builds(
    BoundQuery,
    r=st.integers(1, 10_000),
    k=st.integers(1, 50),
    p=st.floats(0.05, 0.95),
    eps=st.floats(1e-6, 0.049),
    direction=st.sampled_from(("upper", "lower")),
)


@given(valid_queries)
def test_read_k_never_beats_simplified(q):
    assert (
        read_k_tail_bound(q).log_bound
        <= simplified_tail_bound(q).log_bound + 1e-9
    )


@given(valid_queries, st.integers(1, 20))
def test_bound_nondecreasing_in_k(q, dk):
    wider = BoundQuery(q.r, q.k + dk, q.p, q.eps, q.direction)
    assert read_k_tail_bound(wider).bound >= read_k_tail_bound(q).bound - 1e-15


@given(valid_queries)
def test_result_invariants(q):
    res = read_k_tail_bound(q)
    assert res.log_bound <= 0.0
    assert res.bound == math.exp(res.log_bound)
    assert 0.0 <= res.bound <= 1.0


def test_from_log_normalizes_negative_zero():
    assert str(BoundResult.from_log(-0.0).log_bound) == "0.0"


class TestDataclassContract:
    """The written-out ``BoundQuery.__init__`` and ``BoundResult.from_log`` keep the contract."""

    @pytest.mark.parametrize("args", [(100, 4, 0.5, 0.25, "upper"), (10, 2, 0.5, 0.3, "lower"),
                                      (10, 1, 1, 0.5, "lower"), (7, 3, 0.25, 0.75, "upper")])
    def test_query_contract(self, args):
        assert_frozen_dataclass_contract(BoundQuery(*args), args)

    def test_query_default_direction(self):
        q = BoundQuery(100, 4, 0.5, 0.25)
        assert q == BoundQuery(r=100, k=4, p=0.5, eps=0.25) == BoundQuery(100, 4, 0.5, 0.25, "upper")
        assert hash(q) == hash(BoundQuery(100, 4, 0.5, 0.25, "upper"))

    def test_replace_checks_again(self):
        q = BoundQuery(10, 1, 0.5, 0.1, "upper")
        assert dataclasses.replace(q, eps=0.2, direction="lower") == BoundQuery(10, 1, 0.5, 0.2, "lower")
        for changes, message in [
            ({"eps": 0.0}, "eps must be positive and finite, got 0.0"),
            ({"eps": -0.1}, "eps must be positive and finite, got -0.1"),
            ({"eps": math.inf}, "eps must be positive and finite, got inf"),
            ({"eps": math.nan}, "eps must be positive and finite, got nan"),
            ({"eps": "0.1"}, "eps must be a real number, got '0.1'"),
            ({"eps": 0.6}, "upper tail at p+eps = 1.1 > 1 is vacuous; choose eps <= 1-p"),
            ({"eps": 0.6, "direction": "lower"},
             "lower tail at p-eps = -0.09999999999999998 < 0 is ill-posed; choose eps <= p"),
            ({"p": 1.5}, "p must lie in [0, 1], got 1.5"),
            ({"r": 0}, "r must be a positive int, got 0"),
            ({"k": True}, "k must be a positive int, got True"),
            ({"direction": "side"}, "direction must be 'upper' or 'lower', got 'side'"),
        ]:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                dataclasses.replace(q, **changes)

    @pytest.mark.parametrize("log_bound", [-3.0, 0.0, -0.0, -math.inf, -800.0, -745.5])
    def test_result_contract(self, log_bound):
        res = BoundResult.from_log(log_bound)
        args = (log_bound + 0.0, math.exp(log_bound))
        assert type(res) is BoundResult
        assert res == BoundResult(*args) and hash(res) == hash(BoundResult(*args))
        assert_frozen_dataclass_contract(res, args)
