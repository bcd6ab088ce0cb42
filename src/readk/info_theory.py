"""Entropy and relative entropy on explicit finite distributions.

All quantities are in nats (natural logarithm). Conventions, applied
throughout: ``0 * ln(0) = 0`` and ``0 * ln(0/x) = 0``; a Kullback-Leibler
divergence where the first argument has mass outside the support of the
second is ``+inf`` (an explicit ``math.inf``, never a NaN). Entropies are
finite and non-negative; divergences are non-negative or ``+inf``.

Projections and push-forwards merge outcomes through one group-by kernel:
each merged probability is the correctly rounded sum of its group, equal
to ``math.fsum`` over that group in any order. Every probability vector of
the package (a variable's law, a :class:`Distribution`, a sum pmf) passes
one check, and every divergence from an explicit law, here and in the
audits, is one summation kernel.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

# Finite entropy / divergence values, in natural-log units.
Nats = float

#: Absolute tolerance for "probabilities sum to one".
PROB_SUM_TOL = 1e-12


def _prob_vector(probs: Iterable[float], what: str, size: int | None = None) -> tuple[float, ...]:
    """``probs`` as a float tuple, checked to be a probability vector.

    Raises :class:`ValidationError`, naming ``what``, unless the vector
    has ``size`` entries (when given), is non-empty, holds only finite
    non-negative entries and sums to one within ``PROB_SUM_TOL``.
    """
    probs = tuple(map(float, probs))
    if size is not None and len(probs) != size:
        raise ValidationError(f"{what}: {len(probs)} probabilities for {size} outcomes")
    if not probs:
        raise ValidationError(f"{what}: empty probability vector")
    bad = next((p for p in probs if not 0.0 <= p < math.inf), None)
    if bad is not None:
        raise ValidationError(f"{what}: invalid probability {bad!r}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"{what}: probabilities sum to {total!r}, not 1")
    return probs


@dataclass(frozen=True)
class Distribution:
    """A finitely-supported probability distribution over labeled outcomes.

    ``outcomes`` is an ordered tuple of distinct hashable labels and
    ``probs`` the matching probability vector. Instances are immutable and
    validated on construction: probabilities must be non-negative and sum
    to one within ``PROB_SUM_TOL``.
    """

    outcomes: tuple[Hashable, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        probs = _prob_vector(self.probs, "distribution", len(self.outcomes))
        object.__setattr__(self, "probs", probs)
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValidationError("outcome labels must be distinct")

    @classmethod
    def uniform(cls, outcomes: Sequence[Hashable]) -> "Distribution":
        outcomes = tuple(outcomes)
        n = len(outcomes)
        if n == 0:
            raise ValidationError("uniform distribution needs a non-empty set")
        return cls(outcomes, (1.0 / n,) * n)

    @classmethod
    def point_mass(
        cls, outcome: Hashable, outcomes: Sequence[Hashable] | None = None
    ) -> "Distribution":
        """All mass on ``outcome``; support defaults to the singleton."""
        if outcomes is None:
            return cls((outcome,), (1.0,))
        outcomes = tuple(outcomes)
        if outcome not in outcomes:
            raise DomainError(f"{outcome!r} is not among the outcomes")
        return cls(outcomes, tuple(1.0 if a == outcome else 0.0 for a in outcomes))

    def prob_of(self, outcome: Hashable) -> float:
        try:
            return self.probs[self.outcomes.index(outcome)]
        except ValueError:
            raise DomainError(f"{outcome!r} is not among the outcomes") from None

    def allclose(self, other: "Distribution", tol: float = PROB_SUM_TOL) -> bool:
        """Same ordered outcome set and probabilities equal within ``tol``."""
        return self.outcomes == other.outcomes and all(
            abs(p - q) <= tol for p, q in zip(self.probs, other.probs)
        )


def entropy(d: Distribution) -> Nats:
    """Shannon entropy ``H(d) = sum_a d(a) ln(1/d(a))`` in nats.

    Lies in ``[0, ln(len(d.outcomes))]``.
    """
    h = math.fsum(-p * math.log(p) for p in d.probs if p > 0.0)
    return max(h, 0.0)


def kl_divergence(d1: Distribution, d2: Distribution) -> Nats:
    """Relative entropy ``D(d1 || d2) = sum_a d1(a) ln(d1(a)/d2(a))``.

    Both distributions must carry the same ordered outcome set. Returns
    ``+inf`` when ``d1`` puts mass where ``d2`` does not.
    """
    if d1.outcomes != d2.outcomes:
        raise DomainError("distributions are over different ordered outcome sets")
    return max(_kl_sum(d1.probs, d2.probs), 0.0)


def _kl_sum(probs: Iterable[float], masses: Iterable[float], norm: int = 1) -> float:
    """Unclamped ``sum p ln(p * norm / mass)`` over the support of ``probs``.

    The divergence from the law ``masses / norm``; ``+inf`` when ``probs``
    puts mass where ``masses`` has none.
    """
    terms = []
    for p, mass in zip(probs, masses):
        if p > 0.0:
            if mass == 0.0:
                return math.inf
            terms.append(p * math.log(p * norm / mass))
    return math.fsum(terms)


def kl_binary(q: float, p: float) -> Nats:
    """Divergence between Bernoulli(q) and Bernoulli(p) in nats.

    ``q ln(q/p) + (1-q) ln((1-q)/(1-p))``; returns ``+inf`` when the
    support condition fails (``q>0, p=0`` or ``q<1, p=1``).
    """
    if not (0.0 <= q <= 1.0) or not (0.0 <= p <= 1.0):
        raise DomainError(f"kl_binary arguments must lie in [0, 1], got {q!r}, {p!r}")
    if q == p:
        return 0.0
    # The one-sided cases collapse to a single logarithm; computing them
    # directly keeps kl_binary(1, p) == ln(1/p) bit-exact.
    if q == 1.0:
        return math.inf if p == 0.0 else -math.log(p)
    if q == 0.0:
        return math.inf if p == 1.0 else -math.log1p(-p)
    if p == 0.0 or p == 1.0:
        return math.inf
    # q / p overflows when p is subnormal; a difference of logarithms does not.
    ratio = q / p
    head = q * (math.log(q) - math.log(p)) if math.isinf(ratio) else q * math.log(ratio)
    return max(head + (1.0 - q) * math.log((1.0 - q) / (1.0 - p)), 0.0)


def _require_tuple_outcomes(d: Distribution) -> int:
    tuples = all(map(isinstance, d.outcomes, itertools.repeat(tuple)))
    lengths = set(map(len, d.outcomes)) if tuples else ()
    if len(lengths) != 1:
        raise DomainError("outcomes must all be tuples of one common length")
    return lengths.pop()


def _group_sums(keys: Sequence[int], probs: Sequence[float], n: int) -> list[float]:
    """``math.fsum`` of ``probs`` per key in ``range(n)``: one rounding, whatever the order."""
    keys = np.asarray(keys, dtype=np.intp)
    order = np.argsort(keys, kind="stable")
    ordered = np.asarray(probs, dtype=np.float64)[order].tolist()
    bounds = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [math.fsum(ordered[a:b]) for a, b in zip([0] + bounds, bounds)]


def _image_law(images: list[Hashable], probs: Sequence[float]) -> Distribution:
    """The law of the images: equal images merge, outcomes sorted."""
    labels = sorted(dict.fromkeys(images))
    keys = list(map({b: i for i, b in enumerate(labels)}.__getitem__, images))
    return Distribution(tuple(labels), tuple(_group_sums(keys, probs, len(labels))))


def project(d: Distribution, coords: Sequence[int]) -> Distribution:
    """Marginal of a distribution over tuples onto the given coordinates.

    Colliding sub-tuples have their probabilities summed; the resulting
    outcomes are ordered lexicographically. ``coords`` keeps its given
    order and must contain distinct, in-range positions. Each probability
    is the correctly rounded sum of its group, whatever the outcome order.
    """
    width = _require_tuple_outcomes(d)
    coords = tuple(coords)
    if len(set(coords)) != len(coords):
        raise DomainError("projection coordinates must be distinct")
    for c in coords:
        if not (0 <= c < width):
            raise DomainError(f"coordinate {c} out of range for width {width}")
    columns = [map(operator.itemgetter(c), d.outcomes) for c in coords]
    subs = list(zip(*columns)) if coords else [()] * len(d.outcomes)
    return _image_law(subs, d.probs)


def push_forward(
    d: Distribution, phi: Mapping[Hashable, Hashable] | Callable[[Hashable], Hashable]
) -> Distribution:
    """Distribution of ``phi(X)`` for ``X ~ d``; labels with equal image merge.

    Output outcomes are sorted, so two pushes through the same map are
    directly comparable with :func:`kl_divergence`. Merged probabilities
    are correctly rounded sums, as in :func:`project`.
    """
    fn = phi.__getitem__ if isinstance(phi, Mapping) else phi
    return _image_law(list(map(fn, d.outcomes)), d.probs)


def conditional_entropy(
    joint: Distribution, target: Sequence[int], given: Sequence[int]
) -> Nats:
    """``H(X_target | X_given)`` computed by explicit conditioning.

    Averages the entropy of the conditional law of the target coordinates
    over the values of the conditioning coordinates. This is a genuinely
    different computation path from entropy differences of projections,
    which makes it useful as a cross-check of the entropy chain rule.
    """
    width = _require_tuple_outcomes(joint)
    target = tuple(target)
    given = tuple(given)
    if set(target) & set(given):
        raise DomainError("target and conditioning coordinates overlap")
    for c in (*target, *given):
        if not (0 <= c < width):
            raise DomainError(f"coordinate {c} out of range for width {width}")
    groups: dict[tuple, dict[tuple, list[float]]] = {}
    for a, p in zip(joint.outcomes, joint.probs):
        if p == 0.0:
            continue
        g = tuple(a[c] for c in given)
        t = tuple(a[c] for c in target)
        groups.setdefault(g, {}).setdefault(t, []).append(p)
    total = 0.0
    for cases in groups.values():
        masses = [math.fsum(ps) for ps in cases.values()]
        z = math.fsum(masses)
        total += z * math.fsum(-(m / z) * math.log(m / z) for m in masses if m > 0.0)
    return max(total, 0.0)
