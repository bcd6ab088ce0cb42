"""Entropy and relative entropy on explicit finite distributions.

All quantities are in nats (natural logarithm). Conventions, applied
throughout: ``0 * ln(0) = 0`` and ``0 * ln(0/x) = 0``; a Kullback-Leibler
divergence where the first argument has mass outside the support of the
second is ``+inf`` (an explicit ``math.inf``, never a NaN). Entropies are
finite and non-negative; divergences are non-negative or ``+inf``.

Projections, push-forwards and conditional entropies merge outcomes
through a plain-Python group-by, :func:`_group_sums`, with one
``math.fsum`` per group: each merged probability is correctly rounded,
whatever the outcome order. It groups hashable labels by equality, so
``1``, ``1.0`` and ``True`` are one label, and it keeps this module free
of numpy. The audits hold their laws as integer keys and group those
with numpy instead (``audit._grouped``, kept on the law per coordinate
tuple); both group-bys round each group once, so they give the same
bits. Every probability vector given to the package (a variable's law, a
:class:`Distribution`, a sum pmf) passes one check, and every divergence
from an explicit law is one summation kernel, :func:`_kl_sum`, except the
audits' sums over a whole law: ``audit._log_sum`` takes one log per
distinct value and gives the bits of :func:`_kl_sum` and
:func:`_entropy_sum`. Laws the package derives from laws that passed it
(projections, push-forwards, conditioned laws) are built by
:meth:`Distribution._trusted`, which does not check them again.
Coordinates, of a projection, of a conditional entropy, of a Shearer
cover or of the functions' read sets (for the read width), are checked
and counted by one function, :func:`cover_multiplicity`, and a law's
outcomes are checked to be tuples of one width once per law, by
:attr:`Distribution._tuple_width`.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

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

    #: What ``audit.conditional_law`` keeps on the law it builds (see
    #: :meth:`_trusted`): the outcomes as integer digits, one read-only
    #: numpy row per coordinate; the outcomes' product-law masses, a
    #: read-only numpy array, and the family they belong to. ``None`` on
    #: any other law. Not fields: equality, ``repr`` and ``asdict`` ignore
    #: them, as they do :attr:`_prob_array` and :attr:`_groups`.
    _digits = None
    _masses = None
    _family = None
    #: The probabilities as a read-only numpy array: kept by
    #: ``audit.conditional_law``, made once by the audits on any other law.
    _prob_array = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        probs = _prob_vector(self.probs, "distribution", len(self.outcomes))
        object.__setattr__(self, "probs", probs)
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValidationError("outcome labels must be distinct")

    @classmethod
    def _trusted(
        cls, outcomes: tuple[Hashable, ...], probs: tuple[float, ...], digits: object = None,
        prob_array: object = None, masses: object = None, family: object = None,
    ) -> "Distribution":
        """A law the package derived from checked input, built without checking it again.

        The caller vouches for what ``__post_init__`` would check: a tuple
        of distinct outcomes and a tuple of as many finite non-negative
        floats summing to one. ``digits``, when given, are the outcomes as
        in :attr:`_digits`, and their rows fix :attr:`_tuple_width`;
        ``prob_array`` holds ``probs``, and ``masses`` each outcome's mass
        under the product law of ``family``. The law keeps what it is
        given, outside its fields.
        """
        law = object.__new__(cls)
        object.__setattr__(law, "outcomes", outcomes)
        object.__setattr__(law, "probs", probs)
        if digits is not None:
            law.__dict__.update(_digits=digits, _tuple_width=len(digits))
        if prob_array is not None:
            law.__dict__.update(_prob_array=prob_array, _masses=masses, _family=family)
        return law

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

    @cached_property
    def _tuple_width(self) -> int:
        """The outcomes' common length, checked once per law: DomainError unless all are tuples."""
        tuples = all(map(isinstance, self.outcomes, itertools.repeat(tuple)))
        lengths = set(map(len, self.outcomes)) if tuples else ()
        if len(lengths) != 1:
            raise DomainError("outcomes must all be tuples of one common length")
        return lengths.pop()

    @cached_property
    def _groups(self) -> dict:
        """The audits' group-bys of this law, by coordinate tuple, filled as they are asked for.

        Not a field: equality, ``repr`` and ``asdict`` ignore it.
        """
        return {}

    def allclose(self, other: "Distribution", tol: float = PROB_SUM_TOL) -> bool:
        """Same ordered outcome set and probabilities equal within ``tol``."""
        return self.outcomes == other.outcomes and all(
            abs(p - q) <= tol for p, q in zip(self.probs, other.probs)
        )


def entropy(d: Distribution) -> Nats:
    """Shannon entropy ``H(d) = sum_a d(a) ln(1/d(a))`` in nats.

    Lies in ``[0, ln(len(d.outcomes))]``.
    """
    return _entropy_sum(d.probs)


def _entropy_sum(probs: Iterable[float]) -> Nats:
    """``max(fsum(-p ln p), 0)`` over the positive entries of ``probs``."""
    return max(math.fsum(-p * math.log(p) for p in probs if p > 0.0), 0.0)


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
    return _kl_binary(q, p)


def _kl_binary(q: float, p: float) -> Nats:
    """:func:`kl_binary` on arguments the caller has already kept inside [0, 1]."""
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


def cover_multiplicity(cover: Iterable[Sequence[int]], width: int) -> list[int]:
    """How many sets of ``cover`` hold each coordinate; DomainError unless ints in [0, width)."""
    counts = [0] * width
    for p in cover:
        for i in p:
            if isinstance(i, bool) or not isinstance(i, int):
                raise DomainError(f"coordinate {i!r} is not an int")
            if not (0 <= i < width):
                raise DomainError(f"coordinate {i} out of range for width {width}")
            counts[i] += 1
    return counts


def _group_sums(keys: Iterable[Hashable], probs: Iterable[float]) -> dict[Hashable, float]:
    """``math.fsum`` of ``probs`` per distinct key: one rounding, whatever the order."""
    groups: defaultdict[Hashable, list[float]] = defaultdict(list)
    for key, p in zip(keys, probs):
        groups[key].append(p)
    return {key: math.fsum(ps) for key, ps in groups.items()}


def _image_law(images: Iterable[Hashable], probs: Sequence[float]) -> Distribution:
    """The law of the images: equal images merge, outcomes sorted.

    ``probs`` is a checked law's vector, so the merged one needs no check:
    its labels are distinct dict keys, and each entry is the correctly
    rounded sum of its group's finite non-negative terms, so the entries
    add up to the same total within a relative ``2**-52``.
    """
    sums = _group_sums(images, probs)
    labels = sorted(sums)
    return Distribution._trusted(tuple(labels), tuple(map(sums.__getitem__, labels)))


def project(d: Distribution, coords: Sequence[int]) -> Distribution:
    """Marginal of a distribution over tuples onto the given coordinates.

    Colliding sub-tuples have their probabilities summed; the resulting
    outcomes are ordered lexicographically. ``coords`` keeps its given
    order and must contain distinct, in-range positions. Each probability
    is the correctly rounded sum of its group, whatever the outcome order.
    """
    coords = tuple(coords)
    if max(cover_multiplicity([coords], d._tuple_width), default=0) > 1:
        raise DomainError("projection coordinates must be distinct")
    columns = [map(operator.itemgetter(c), d.outcomes) for c in coords]
    subs = zip(*columns) if coords else itertools.repeat(())
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
    return _image_law(map(fn, d.outcomes), d.probs)


def conditional_entropy(
    joint: Distribution, target: Sequence[int], given: Sequence[int]
) -> Nats:
    """``H(X_target | X_given)`` computed by explicit conditioning.

    Averages the entropy of the conditional law of the target coordinates
    over the values of the conditioning coordinates. This is a genuinely
    different computation path from entropy differences of projections,
    which makes it useful as a cross-check of the entropy chain rule. The
    target and conditioning coordinates must be in range and all distinct.
    """
    target = tuple(target)
    given = tuple(given)
    if max(cover_multiplicity([target, given], joint._tuple_width), default=0) > 1:
        raise DomainError("target and conditioning coordinates must all be distinct")
    # Zero-mass outcomes are dropped before grouping: the sum runs over the
    # conditioning values in order of their first outcome of positive mass.
    kept = [(a, p) for a, p in zip(joint.outcomes, joint.probs) if p != 0.0]
    keys = ((tuple(a[c] for c in given), tuple(a[c] for c in target)) for a, _ in kept)
    cases: dict[tuple, list[float]] = {}
    for (g, _), mass in _group_sums(keys, (p for _, p in kept)).items():
        cases.setdefault(g, []).append(mass)
    total = 0.0
    for masses in cases.values():
        z = math.fsum(masses)
        total += z * math.fsum(-(m / z) * math.log(m / z) for m in masses if m > 0.0)
    return max(total, 0.0)
