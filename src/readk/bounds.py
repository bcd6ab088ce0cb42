"""Closed-form tail bounds for read-k families.

For a read-k family of r indicators with mean one-probability p, the upper
tail ``Pr[Y >= (p+eps) r]`` is at most ``exp(-KL(p+eps || p) * r/k)`` and
the lower tail ``Pr[Y <= (p-eps) r]`` at most ``exp(-KL(p-eps || p) * r/k)``;
``k = 1`` recovers the classic Chernoff bound. The weaker
``exp(-2 eps^2 r/k)`` form and the AND-event bound ``p^{r/k}`` are also
provided. All arithmetic happens in log-space and is exponentiated last,
so large ``r/k`` cannot underflow silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import DomainError
from .info_theory import Nats, kl_binary

Direction = Literal["upper", "lower"]

#: Absolute slack when validating that p +/- eps stays inside [0, 1].
_EDGE_TOL = 1e-12


def _check_rkp(r: int, k: int, p: float) -> None:
    """DomainError unless ``r`` and ``k`` are positive ints and ``p`` lies in [0, 1]."""
    for name, n in (("r", r), ("k", k)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DomainError(f"{name} must be a positive int, got {n!r}")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must lie in [0, 1], got {p!r}")


@dataclass(frozen=True)
class BoundQuery:
    """Parameters of one tail-bound evaluation."""

    r: int
    k: int
    p: float
    eps: float
    direction: Direction = "upper"

    def __post_init__(self) -> None:
        _check_rkp(self.r, self.k, self.p)
        if not (self.eps > 0.0) or math.isinf(self.eps):
            raise DomainError(f"eps must be positive and finite, got {self.eps!r}")
        if self.direction not in ("upper", "lower"):
            raise DomainError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        if self.direction == "upper" and self.eps > (1.0 - self.p) + _EDGE_TOL:
            raise DomainError(
                f"upper tail at p+eps = {self.p + self.eps!r} > 1 is vacuous; "
                "choose eps <= 1-p"
            )
        if self.direction == "lower" and self.eps > self.p + _EDGE_TOL:
            raise DomainError(
                f"lower tail at p-eps = {self.p - self.eps!r} < 0 is ill-posed; "
                "choose eps <= p"
            )

    def shifted_mean(self) -> float:
        """``p + eps`` or ``p - eps``, snapped exactly onto a hit boundary."""
        if self.direction == "upper":
            return 1.0 if self.eps >= 1.0 - self.p else self.p + self.eps
        return 0.0 if self.eps >= self.p else self.p - self.eps


@dataclass(frozen=True)
class BoundResult:
    """A bound in log space and linear space; ``bound = exp(log_bound)``."""

    log_bound: Nats
    bound: float

    @classmethod
    def from_log(cls, log_bound: float) -> "BoundResult":
        log_bound = log_bound + 0.0  # normalize -0.0
        return cls(log_bound, math.exp(log_bound))


def read_k_tail_bound(q: BoundQuery) -> BoundResult:
    """Tail bound ``exp(-KL(p +/- eps || p) * r/k)``.

    Returns a zero bound (log ``-inf``) when the divergence is infinite,
    e.g. an upper tail with ``p = 0``.
    """
    kl = kl_binary(q.shifted_mean(), q.p)
    return BoundResult.from_log(-(kl * (q.r / q.k)))


def simplified_tail_bound(q: BoundQuery) -> BoundResult:
    """The weaker quadratic form ``exp(-2 eps^2 r/k)``.

    Never smaller than :func:`read_k_tail_bound` on the same query, since
    ``KL(p +/- eps || p) >= 2 eps^2``.
    """
    return BoundResult.from_log(-(2.0 * q.eps * q.eps * (q.r / q.k)))


def shearer_and_bound(r: int, k: int, p: float) -> BoundResult:
    """Bound ``p^{r/k}`` on the probability that all r indicators are one."""
    _check_rkp(r, k, p)
    if p == 0.0:
        return BoundResult(-math.inf, 0.0)
    return BoundResult.from_log(math.log(p) * (r / k))
