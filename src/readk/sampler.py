"""Seeded Monte Carlo estimation of tail probabilities.

The generator is numpy's PCG64, seeded with the caller's integer seed.
Consumption order is fixed and version-pinned: one uniform double per
variable, in variable-index order, per sample. ``estimate_tail`` consumes
the stream exactly as repeated :func:`sample_assignment` calls would, so
an estimate is reproducible from ``(family, query, samples, seed)`` alone,
independent of internal chunking.

Confidence intervals are distribution-free two-sided 99% Hoeffding
intervals with half-width ``sqrt(ln(2/0.01) / (2 n))``, clamped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exact import TailQuery, _in_tail, _table_positions
from .family import FamilySpec

_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """A tail-probability estimate with its 99% Hoeffding interval."""

    estimate: float
    samples: int
    ci_low: float
    ci_high: float
    seed: int


def _cumulative(spec: FamilySpec) -> list[np.ndarray]:
    return [np.cumsum(np.asarray(v.probs)) for v in spec.variables]


def _draw_values(spec: FamilySpec, cums: list[np.ndarray], uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform; ``uniforms`` has one column per variable."""
    values = np.empty(uniforms.shape, dtype=np.int64)
    for i, cum in enumerate(cums):
        values[:, i] = np.minimum(
            np.searchsorted(cum, uniforms[:, i], side="right"), len(cum) - 1
        )
    return values


def sample_assignment(spec: FamilySpec, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one assignment; consumes exactly one uniform per variable."""
    u = rng.random(spec.num_variables)
    values = _draw_values(spec, _cumulative(spec), u[np.newaxis, :])
    return tuple(int(v) for v in values[0])


def _sums_of_values(spec: FamilySpec, values: np.ndarray) -> np.ndarray:
    sums = np.zeros(values.shape[0], dtype=np.int64)
    for j, table in enumerate(spec.tables):
        sums += table[_table_positions(spec, j, values.T)]
    return sums


def estimate_tail(
    spec: FamilySpec, query: TailQuery, samples: int, seed: int
) -> McEstimate:
    """Fraction of sampled assignments whose function sum satisfies the query."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    cums = _cumulative(spec)
    successes = 0
    done = 0
    while done < samples:
        n = min(_SAMPLE_CHUNK, samples - done)
        uniforms = rng.random((n, spec.num_variables))
        sums = _sums_of_values(spec, _draw_values(spec, cums, uniforms))
        successes += int(np.count_nonzero(_in_tail(sums, query)))
        done += n
    estimate = successes / samples
    half = math.sqrt(math.log(2.0 / 0.01) / (2.0 * samples))
    return McEstimate(
        estimate=estimate,
        samples=samples,
        ci_low=max(0.0, estimate - half),
        ci_high=min(1.0, estimate + half),
        seed=seed,
    )
