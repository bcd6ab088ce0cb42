"""Closed-form tail bounds for read-k families.

For a read-k family of r indicators with mean one-probability p, the upper
tail ``Pr[Y >= (p+eps) r]`` is at most ``exp(-KL(p+eps || p) * r/k)`` and
the lower tail ``Pr[Y <= (p-eps) r]`` at most ``exp(-KL(p-eps || p) * r/k)``;
``k = 1`` recovers the classic Chernoff bound. The weaker
``exp(-2 eps^2 r/k)`` form is also provided, and the AND-event bound
``p^{r/k}``, which is the upper-tail bound at ``t = r``. All arithmetic
happens in log-space and is exponentiated last, so large ``r/k`` cannot
underflow silently. The exponent itself is computed in one place,
:func:`_log_bound`: the tail bounds, the AND bound, ``readk verify`` and
the last step of :func:`readk.audit.proof_trace` all go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import DomainError, _check_finite, _check_int, _check_real
from .info_theory import Nats, _kl_binary

Direction = Literal["upper", "lower"]

#: Absolute slack when validating that p +/- eps stays inside [0, 1].
_EDGE_TOL = 1e-12


def _check_rkp(r: int, k: int, p: float) -> None:
    """DomainError unless ``r`` and ``k`` are positive ints and ``p`` a real number in [0, 1]."""
    _check_int(r, "r")
    _check_int(k, "k")
    _check_real(p, "p")
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"p must lie in [0, 1], got {p!r}")


@dataclass(frozen=True, init=False)
class BoundQuery:
    """Parameters of one tail-bound evaluation.

    A frozen dataclass whose ``__init__`` is written out: it stores the
    fields straight into the instance's ``__dict__``, in field order, and
    then runs ``__post_init__``, where the generated one would call
    ``object.__setattr__`` once per field. Equality, hashing, ``repr``,
    ``dataclasses.replace``, ``asdict`` and pickling are the dataclass's own.
    """

    r: int
    k: int
    p: float
    eps: float
    direction: Direction = "upper"

    def __init__(self, r: int, k: int, p: float, eps: float, direction: Direction = "upper") -> None:
        fields = self.__dict__
        fields["r"] = r
        fields["k"] = k
        fields["p"] = p
        fields["eps"] = eps
        fields["direction"] = direction
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_rkp(self.r, self.k, self.p)
        _check_real(self.eps, "eps")
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
        return _shifted_mean(self.p, self.eps, self.direction)


def _shifted_mean(p: float, eps: float, direction: Direction) -> float:
    """:meth:`BoundQuery.shifted_mean` on unchecked arguments."""
    if direction == "upper":
        return 1.0 if eps >= 1.0 - p else p + eps
    return 0.0 if eps >= p else p - eps


def _deviation(t: float, r: int, p: float, tail: Direction) -> float:
    """The ``eps`` of threshold ``t``: ``t/r - p`` (upper) or ``p - t/r`` (lower).

    Positive exactly when the tail at ``t`` is a deviation from the mean
    ``p*r``. Raises :class:`DomainError`, naming the threshold, unless ``t``
    is finite and in ``[0, r]``.
    """
    if not 0 <= t <= r:
        _check_finite(t, "threshold")
        raise DomainError(f"threshold must lie in [0, r] = [0, {r}], got {t!r}")
    return t / r - p if tail == "upper" else p - t / r


@dataclass(frozen=True)
class BoundResult:
    """A bound in log space and linear space; ``bound = exp(log_bound)``."""

    log_bound: Nats
    bound: float

    @classmethod
    def from_log(cls, log_bound: float) -> "BoundResult":
        """The result of ``log_bound``, with ``-0.0`` read as ``0.0``.

        Built as ``Distribution._trusted`` builds a law: ``object.__new__``
        and both fields stored straight into the new instance's
        ``__dict__``, in field order, without the generated ``__init__``.
        """
        log_bound = log_bound + 0.0  # normalize -0.0
        result = object.__new__(cls)
        fields = result.__dict__
        fields["log_bound"] = log_bound
        fields["bound"] = math.exp(log_bound)
        return result


def read_k_tail_bound(q: BoundQuery) -> BoundResult:
    """Tail bound ``exp(-KL(p +/- eps || p) * r/k)``.

    Returns a zero bound (log ``-inf``) when the divergence is infinite,
    e.g. an upper tail with ``p = 0``.
    """
    return BoundResult.from_log(_log_bound(q.r, q.k, q.p, q.eps, q.direction))


def _log_bound(r: int, k: int, p: float, eps: float, direction: Direction) -> Nats:
    """:func:`read_k_tail_bound`'s ``log_bound`` on unchecked arguments, ``-0.0`` not normalized.

    Every caller has checked ``p`` in [0, 1] and ``eps`` at least 0, and
    :func:`_shifted_mean` keeps ``p +/- eps`` inside [0, 1], so the divergence
    skips its range check.
    """
    return -(_kl_binary(_shifted_mean(p, eps, direction), p) * (r / k))


def simplified_tail_bound(q: BoundQuery) -> BoundResult:
    """The weaker quadratic form ``exp(-2 eps^2 r/k)``.

    Never smaller than :func:`read_k_tail_bound` on the same query, since
    ``KL(p +/- eps || p) >= 2 eps^2``.
    """
    return BoundResult.from_log(-(2.0 * q.eps * q.eps * (q.r / q.k)))


def shearer_and_bound(r: int, k: int, p: float) -> BoundResult:
    """Bound ``p^{r/k}`` on the probability that all r indicators are one.

    It is the upper-tail bound at ``t = r`` (``eps = 1 - p``): the shifted
    mean snaps to 1 and ``KL(1 || p) = -ln p``, bit for bit.
    """
    _check_rkp(r, k, p)
    return BoundResult.from_log(_log_bound(r, k, p, 1.0 - p, "upper"))
