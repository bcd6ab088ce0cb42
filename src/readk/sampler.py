"""Seeded Monte Carlo estimation of tail probabilities.

The generator is numpy's PCG64, seeded with the caller's integer seed.
Consumption order is fixed and version-pinned: one uniform double per
variable, in variable-index order, per sample. ``estimate_tail`` consumes
the stream exactly as repeated :func:`sample_assignment` calls would, so
an estimate is reproducible from ``(family, query, samples, seed)`` alone,
independent of internal chunking.

The inverse CDF counts thresholds: a variable's value is the number of
entries of its cumulative probabilities ``cum[:-1]`` that are ``<= u``,
which equals ``searchsorted(cum, u, side="right")`` clamped to
``len(cum) - 1``. It gives the same values from the same uniforms as that
binary search, so the stream is consumed as before and every estimate is
unchanged.

Sampled assignments are held one row per variable, as the exact engine's
scan holds its digits, but with the rows sorted by the variables' number
of thresholds. Each chunk copies its uniforms once into that row order, so
every threshold rank is held by a contiguous range of rows and is counted
with plain slices, into values of the narrowest unsigned type that holds
them. Each function's read tuple is mapped to those rows once per call,
and its table positions go into one reused ``intp`` buffer. The sampler
shares that position and function-sum code with the scan.

Confidence intervals are distribution-free two-sided 99% Hoeffding
intervals with half-width ``sqrt(ln(2/0.01) / (2 n))``, clamped to [0, 1].
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import _check_int
from .exact import TailQuery, _function_sums, _in_tail, _row_reads, _table_positions
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


class _InverseCdf(NamedTuple):
    """The variables' counted thresholds, laid out by :func:`_inverse_cdf`."""

    #: ``order[row]`` is the variable held in ``row``.
    order: np.ndarray
    #: ``rows[i]`` is the row that holds variable ``i``.
    rows: list[int]
    #: One ``(start, column)`` level per threshold rank; see :func:`_inverse_cdf`.
    levels: list[tuple[int, np.ndarray]]
    #: The narrowest unsigned type that holds every value.
    dtype: np.dtype


def _inverse_cdf(spec: FamilySpec) -> _InverseCdf:
    """Every variable's counted thresholds ``cum[:-1]``, on rows sorted by their count.

    The variables are held one per row, stably sorted by their number of
    thresholds. A variable's ``r``-th threshold then lies in level ``r``,
    which is held by the rows from some ``start`` on: the variables with
    more than ``r`` thresholds. The level is ``(start, column)``, with the
    ``r``-th thresholds of those rows as a ``(rows, 1)`` column, so no row
    is padded. Level 0 is always there, and covers no row when every
    variable has one outcome.
    """
    thresholds = [np.cumsum(np.asarray(v.probs))[:-1] for v in spec.variables]
    order = sorted(range(len(thresholds)), key=lambda i: len(thresholds[i]))
    counts = [len(thresholds[i]) for i in order]
    levels = []
    for r in range(max(counts[-1], 1)):
        start = bisect.bisect_right(counts, r)
        levels.append((start, np.array([thresholds[i][r] for i in order[start:]]).reshape(-1, 1)))
    rows = np.argsort(order).tolist()
    return _InverseCdf(np.array(order), rows, levels, np.min_scalar_type(counts[-1]))


def _draw_values(cdf: _InverseCdf, uniforms: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Fill ``values`` with the inverse-CDF values of ``uniforms``, in the rows of ``cdf``.

    ``uniforms`` has one column per variable, in variable order; they are
    copied once into one block of rows in ``cdf.order``. A value is the
    number of its variable's thresholds ``cum[:-1]`` that are ``<= u``,
    which equals ``searchsorted(cum, u, side="right")`` clamped to
    ``len(cum) - 1``. Each level compares its row range with its column and
    counts into ``values`` in place: level 0 writes its rows, later levels
    add to theirs, and the rows before level 0 (variables of one outcome)
    are zeroed.
    """
    block = uniforms.T[cdf.order]
    (start, column), *rest = cdf.levels
    values[:start] = 0
    np.greater_equal(block[start:], column, out=values[start:])
    for start, column in rest:
        values[start:] += block[start:] >= column
    return values


def sample_assignment(spec: FamilySpec, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one assignment; consumes exactly one uniform per variable."""
    cdf = _inverse_cdf(spec)
    values = np.empty((spec.num_variables, 1), dtype=cdf.dtype)
    _draw_values(cdf, rng.random((1, spec.num_variables)), values)
    return tuple(values[cdf.rows, 0].tolist())


def estimate_tail(
    spec: FamilySpec, query: TailQuery, samples: int, seed: int
) -> McEstimate:
    """Fraction of sampled assignments whose function sum satisfies the query."""
    _check_int(samples, "samples")
    _check_int(seed, "seed", minimum=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = _inverse_cdf(spec)
    reads = _row_reads(spec, cdf.rows)
    # One uniform, one values and one positions buffer for every chunk: fresh
    # ones fault in their pages anew. Filled C-contiguous, the uniform buffer
    # takes the stream in the order rng.random((n, m)) would.
    chunk = min(_SAMPLE_CHUNK, samples)
    uniforms = np.empty((chunk, spec.num_variables))
    values = np.empty((spec.num_variables, chunk), dtype=cdf.dtype)
    positions = np.empty(chunk, dtype=np.intp)
    successes = 0
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        rng.random(out=uniforms[:n])
        drawn = _draw_values(cdf, uniforms[:n], values[:, :n])
        found = _table_positions(reads, drawn, itertools.repeat(positions[:n]))
        successes += int(np.count_nonzero(_in_tail(_function_sums(spec, found, n), query)))
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
