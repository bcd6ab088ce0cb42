"""Seeded Monte Carlo estimation of tail probabilities.

The generator is numpy's PCG64, seeded with the caller's integer seed.
Consumption order is fixed and version-pinned: one uniform double per
variable, in variable-index order, per sample. ``estimate_tail`` consumes
the stream exactly as repeated :func:`sample_assignment` calls would, so
an estimate is reproducible from ``(family, query, samples, seed)`` alone,
independent of internal chunking. While one chunk of samples is counted,
a second thread draws the next chunk's uniforms from the one generator,
in stream order, so neither the stream order nor any estimate depends on
it.

The inverse CDF counts thresholds: a variable's value is the number of
entries of its cumulative probabilities ``cum[:-1]`` that are ``<= u``,
which equals ``searchsorted(cum, u, side="right")`` clamped to
``len(cum) - 1``. It gives the same values from the same uniforms as that
binary search, so the stream is consumed as before and every estimate is
unchanged.

Sampled assignments are held one row per variable, the rows sorted by the
variables' number of thresholds, and the functions are evaluated on them
through :class:`readk.exact._Lookup`, the kernel the exact engine's scan
shares: by group, each group's functions of one arity and one lookup mode
in one pass over a chunk, not one function at a time. The sums are
integers, so the grouping moves no estimate.

Confidence intervals are distribution-free two-sided 99% Hoeffding
intervals with half-width ``sqrt(ln(2/0.01) / (2 n))``, clamped to [0, 1].
"""

from __future__ import annotations

import bisect
import math
import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import _check_int
from .exact import TailQuery, _in_tail, _Lookup
from .family import FamilySpec

#: Samples per chunk, few enough for a chunk's arrays to stay in cache: larger
#: chunks ran slower and took more peak memory. Two uniform buffers of this
#: many samples are in use at once, one filled while the other is counted:
#: at 4096 samples the pair raised the mc benchmark's peak memory by 3.5%,
#: at 3072 by about 1%. Chunking changes neither the stream nor the estimate.
_SAMPLE_CHUNK = 3072

#: Uniforms per chunk: a family of many variables takes fewer samples per
#: chunk, so a chunk's buffers stay bounded whatever the number of variables.
_UNIFORM_CHUNK = 1 << 21


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
    return _InverseCdf(np.array(order), rows, levels)


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
    values = np.empty((spec.num_variables, 1), dtype=spec._layout.digits)
    _draw_values(cdf, rng.random((1, spec.num_variables)), values)
    return tuple(values[cdf.rows, 0].tolist())


def _fill(
    rng: np.random.Generator, samples: int, chunk: int, free: queue.SimpleQueue, full: queue.SimpleQueue
) -> None:
    """Fill the first rows of each buffer taken from ``free``, ``chunk`` samples at a time.

    The buffers go to ``full`` in the order they were filled, so together
    they hold ``samples`` samples of the stream in order. A ``None`` from
    ``free`` stops the fill early. An exception goes to ``full`` in place of
    a buffer, for the consumer to raise.
    """
    try:
        for done in range(0, samples, chunk):
            uniforms = free.get()
            if uniforms is None:
                return
            rng.random(out=uniforms[: min(chunk, samples - done)])
            full.put(uniforms)
    except BaseException as exc:  # raised again by the consumer
        full.put(exc)


def _drawn_chunks(
    rng: np.random.Generator, cdf: _InverseCdf, samples: int, values: np.ndarray
) -> Iterator[np.ndarray]:
    """Each chunk's values, in ``values``, for ``samples`` samples in chunks of ``values``' width.

    A uniform buffer filled C-contiguous takes the stream in the order
    ``rng.random((n, m))`` would. A second thread fills the next chunk's
    uniforms into one of two buffers while the caller counts the current
    chunk: numpy fills without holding the interpreter lock. A buffer goes
    back to the filling thread once :func:`_draw_values` has copied out of
    it. The thread is joined when the generator finishes or is closed, and
    its exception, if any, is raised here.
    """
    m, chunk = values.shape
    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty((chunk, m)))
    worker = threading.Thread(target=_fill, args=(rng, samples, chunk, free, full))
    worker.start()
    try:
        for done in range(0, samples, chunk):
            uniforms = full.get()
            if isinstance(uniforms, BaseException):
                raise uniforms
            n = min(chunk, samples - done)
            drawn = _draw_values(cdf, uniforms[:n], values[:, :n])
            free.put(uniforms)
            yield drawn
    finally:
        free.put(None)
        worker.join()


def estimate_tail(
    spec: FamilySpec, query: TailQuery, samples: int, seed: int
) -> McEstimate:
    """Fraction of sampled assignments whose function sum satisfies the query.

    Samples are drawn and counted by chunks. While one chunk is counted, a
    second thread draws the next chunk's uniforms; the one generator fills
    them in stream order, so neither the stream order nor the estimate
    depends on it.
    """
    _check_int(samples, "samples")
    _check_int(seed, "seed", minimum=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    cdf = _inverse_cdf(spec)
    # One values buffer and one lookup serve every chunk: fresh buffers fault
    # in their pages anew.
    chunk = min(_SAMPLE_CHUNK, max(1, _UNIFORM_CHUNK // spec.num_variables), samples)
    values = np.empty((spec.num_variables, chunk), dtype=spec._layout.digits)
    lookup = _Lookup(spec, cdf.rows, chunk)
    successes = 0
    chunks = _drawn_chunks(rng, cdf, samples, values)
    try:
        for drawn in chunks:
            successes += int(np.count_nonzero(_in_tail(lookup.sums_of(drawn), query)))
    finally:
        chunks.close()
    estimate = successes / samples
    half = math.sqrt(math.log(2.0 / 0.01) / (2.0 * samples))
    return McEstimate(
        estimate=estimate,
        samples=samples,
        ci_low=max(0.0, estimate - half),
        ci_high=min(1.0, estimate + half),
        seed=seed,
    )
