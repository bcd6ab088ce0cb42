"""Seeded Monte Carlo estimation of tail probabilities.

The generator is numpy's PCG64, seeded with the caller's integer seed.
Consumption order is fixed and version-pinned: one uniform double per
variable, in variable-index order, per sample. ``estimate_tail`` consumes
the stream exactly as repeated :func:`sample_assignment` calls would, so
an estimate is reproducible from ``(family, query, samples, seed)`` alone,
independent of internal chunking. Sampled assignments are held one row per
variable, as the exact engine's scan holds its digits.

The inverse CDF counts thresholds: a variable's value is the number of
entries of its cumulative probabilities ``cum[:-1]`` that are ``<= u``,
which equals ``searchsorted(cum, u, side="right")`` clamped to
``len(cum) - 1``. It gives the same values from the same uniforms as that
binary search, so the stream is consumed as before and every estimate is
unchanged.

Confidence intervals are distribution-free two-sided 99% Hoeffding
intervals with half-width ``sqrt(ln(2/0.01) / (2 n))``, clamped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _check_int
from .exact import TailQuery, _function_sums, _in_tail, _table_positions
from .family import FamilySpec

#: Samples per chunk, few enough for a chunk's arrays to stay in cache: larger
#: chunks ran slower and took more peak memory. Chunking changes neither the
#: stream nor the estimate.
_SAMPLE_CHUNK = 1 << 12


@dataclass(frozen=True)
class McEstimate:
    """A tail-probability estimate with its 99% Hoeffding interval."""

    estimate: float
    samples: int
    ci_low: float
    ci_high: float
    seed: int


def _inverse_cdf(spec: FamilySpec) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """Every variable's counted thresholds ``cum[:-1]``, in blocks for :func:`_draw_values`.

    Row ``r`` holds the ``r``-th threshold of each variable that has one; a
    variable with fewer thresholds is left out of the row, not padded. A
    1-outcome variable gets the one threshold ``+inf``, which no uniform
    reaches, so it joins the rows of every variable. Consecutive rows held
    by the same variables form one block: the index of those variables
    (every variable as ``slice(None)``) and a ``(rows, variables)`` array of
    thresholds. There is one block per distinct threshold count.
    """
    thresholds = [np.cumsum(np.asarray(v.probs))[:-1] for v in spec.variables]
    thresholds = [t if len(t) else np.array([np.inf]) for t in thresholds]
    lengths = np.array([len(t) for t in thresholds])
    blocks = []
    start = 0
    for stop in sorted(set(lengths.tolist())):
        have = np.flatnonzero(lengths >= stop)
        rows = [[thresholds[i][r] for i in have] for r in range(start, stop)]
        blocks.append((slice(None) if len(have) == len(lengths) else have, np.array(rows)))
        start = stop
    return blocks


def _draw_values(
    blocks: list[tuple[slice | np.ndarray, np.ndarray]], uniforms: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Fill ``values`` (one row per variable) with the inverse-CDF values of ``uniforms``.

    ``uniforms`` has one column per variable. A value is the number of its
    variable's thresholds ``cum[:-1]`` that are ``<= u``, which equals
    ``searchsorted(cum, u, side="right")`` clamped to ``len(cum) - 1``. Each
    block counts on its variables' columns, gathered once, into the
    narrowest type that holds its row count, and adds the counts to those
    variables' rows.
    """
    values[...] = 0
    for index, rows in blocks:
        columns = uniforms[:, index]
        counts = np.zeros(columns.shape, dtype=np.min_scalar_type(len(rows)))
        for thresholds in rows:
            counts += columns >= thresholds
        values[index] += counts.T
    return values


def sample_assignment(spec: FamilySpec, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one assignment; consumes exactly one uniform per variable."""
    values = np.empty((spec.num_variables, 1), dtype=np.int64)
    _draw_values(_inverse_cdf(spec), rng.random((1, spec.num_variables)), values)
    return tuple(values[:, 0].tolist())


def estimate_tail(
    spec: FamilySpec, query: TailQuery, samples: int, seed: int
) -> McEstimate:
    """Fraction of sampled assignments whose function sum satisfies the query."""
    _check_int(samples, "samples")
    _check_int(seed, "seed", minimum=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = _inverse_cdf(spec)
    # One uniform and one values buffer for every chunk: fresh ones fault in
    # their pages anew. Filled C-contiguous, the uniform buffer takes the
    # stream in the order rng.random((n, m)) would.
    chunk = min(_SAMPLE_CHUNK, samples)
    uniforms = np.empty((chunk, spec.num_variables))
    values = np.empty((spec.num_variables, chunk), dtype=np.int64)
    successes = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        rng.random(out=uniforms[:n])
        positions = _table_positions(spec, _draw_values(blocks, uniforms[:n], values[:, :n]))
        successes += int(np.count_nonzero(_in_tail(_function_sums(spec, positions, n), query)))
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
