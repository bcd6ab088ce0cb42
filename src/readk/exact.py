"""Exact distribution of the function-sum of a family.

:func:`sum_pmf` works per dependency component by variable elimination
(bucket elimination) over generating-polynomial factors with one axis
per variable and a trailing axis of coefficients. Multiplying messages
broadcasts their variable axes and convolves their sum axes; a step's
functions, ``z**s`` for their sum ``s`` on each cell, place the product
at offset ``s``; eliminating a variable sums its axis out against its
probabilities. The structure comes from :mod:`readk.family`, which keeps
the partition into components, their classes and one plan per class
(``FamilySpec._partition`` and ``FamilySpec._classes``); a plan
(``readk.family._plan``) is a greedy min-degree order from the read
tuples alone, ties broken by variable index, listing each bucket's input
factors, scope and sum-axis length. This module compiles a plan and
runs it. A class's :class:`_Program` is made by the first
:func:`sum_pmf` that eliminates the class and kept by the family beside
its plan (``FamilySpec._classes.programs``): the number type, each
step's cell count, and its read-only one-hot of function sums, axes and
weights. Then :func:`_eliminate_pmf` checks the guard on every step's
cell count and runs only the arithmetic, so the cost grows with a
component's treewidth rather than its assignment count. Components of uniform variables with
fewer than ``2**62`` assignments carry exact integer counts and divide
by the total at the end; the rest carry float64 weights. Components
equal up to variable labels (same read tuples relabelled by rank, truth
tables and variable laws) form one class, solved once per call by
eliminating its representative, so a family of thousands of identical
blocks costs one elimination. The component pmfs are then convolved in
order of smallest function index into one running pmf of ``r + 1``
bins, made when there is a second component. A component of one
function, of pmf ``(q0, q1)``, updates it in place in three array
passes; its bins are then ``acc[s] * q0 + acc[s - 1] * q1``, the two
terms ``np.convolve`` adds in the other order, and as a two-term sum
rounds the same in either order and no pmf bin is ever ``-0.0``, they
equal ``np.convolve``'s bit for bit. The passes leave out a run of
``2**-1074`` bins at either end that the step keeps: ``2**-1074 * q``
rounds back to ``2**-1074`` for ``q`` in ``(1/2, 3/2)`` and to ``0.0``
for ``q <= 1/2``, so with such a ``q0`` and ``q1`` a leading run is a
fixed point, and with them swapped a trailing run moves up one bin. A
longer pmf keeps ``np.convolve``, whose sums of three or more terms no
fixed in-place order reproduces. No pmf, message or tail sum is kept
across calls, so every call eliminates each representative and runs the
whole convolution.

The guard (``DEFAULT_GUARD``, overridable per call or through the
``READK_ENUM_GUARD`` environment variable) bounds different work on
different paths. In :func:`sum_pmf` it bounds the cells (variable axes
times sum axis) of the largest product factor formed while eliminating a
component; the guard reads the plan's cell counts before any array of
the call is made, and on a class's first call before its program's
arrays are made. The flat enumerations, :func:`sum_pmf_enumerate`,
:func:`conditional_function_marginals` and the audits ``conditional_law``
and ``proof_trace``, share one scan of the full assignment space, weighted
by the product law of :attr:`FamilySpec.laws`; there the guard bounds the
number of assignments. The scan holds one chunk of at most ``CHUNK``
(``2**20``) assignments, one row of digits per variable as the Monte
Carlo sampler holds its draws, and evaluates the functions on it through
:class:`_Lookup`, the one kernel it shares with the sampler, one group of
functions of equal arity and lookup mode at a time. Every other
mixed-radix code, each function's truth-table positions of a tail event
and the keys by which the Shearer audits group a law (:mod:`readk.audit`),
comes from one function, :func:`_mixed_radix`.

:func:`_verify_rows` is ``readk verify``'s one sweep: it checks r, k, p
and the tolerance once and compares :func:`tail_prob` against the read-k
bound at every integer threshold that deviates from the mean.

Every reduction runs in a fixed order, so results are bit-reproducible
for identical inputs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceError, _check_finite, _check_int
from .family import Component, FamilySpec, _cell_masses, _product_law, _read_only, read_width
from .info_theory import _prob_vector

DEFAULT_GUARD = 1 << 24

#: The event direction of each tail: ``Y >= t`` upper, ``Y <= t`` lower.
_DIRECTIONS = {"upper": "ge", "lower": "le"}

#: Uniform components below this many assignments count in exact int64.
_INT_COUNT_LIMIT = 1 << 62

#: Assignments handled per vectorized block; bounds peak memory.
CHUNK = 1 << 20

#: Cells (functions times columns) that :class:`_Lookup` evaluates per block
#: of columns: a block's buffers stay in cache, and a large scan streams.
_LOOKUP_CELLS = 1 << 18

#: Largest number of codes :func:`_mixed_radix` spans without re-coding: int64 holds them.
_KEY_LIMIT = 1 << 62

#: The least positive double, ``2**-1074``: the residue an underflowing pmf bin rounds to.
_TINY = 5e-324


def enumeration_guard(guard: int | None = None) -> int:
    """Resolve the effective guard: explicit arg, else env override, else default.

    Raises :class:`DomainError`, naming its source, unless the guard is a positive int.
    """
    name = "guard"
    if guard is None:
        env = os.environ.get("READK_ENUM_GUARD")
        if not env:
            return DEFAULT_GUARD
        name = "READK_ENUM_GUARD"
        try:
            guard = int(env)
        except ValueError:
            guard = env
    _check_int(guard, name)
    return guard


@dataclass(frozen=True, init=False)
class TailQuery:
    """A one-sided threshold event on the function sum: ``Y >= t`` or ``Y <= t``.

    A frozen dataclass whose ``__init__`` is written out: it stores the
    fields straight into the instance's ``__dict__``, in field order,
    and then runs ``__post_init__``, where the generated one would call
    ``object.__setattr__`` once per field. Equality, hashing, ``repr``,
    ``dataclasses.replace``, ``asdict`` and pickling are the dataclass's own.
    """

    threshold: float
    direction: Literal["ge", "le"] = "ge"

    def __init__(self, threshold: float, direction: Literal["ge", "le"] = "ge") -> None:
        fields = self.__dict__
        fields["threshold"] = threshold
        fields["direction"] = direction
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.direction not in ("ge", "le"):
            raise DomainError(f"direction must be 'ge' or 'le', got {self.direction!r}")
        _check_finite(self.threshold, "threshold")

    def effective_threshold(self) -> int:
        """Integer threshold actually compared against the (integer) sum."""
        if self.direction == "ge":
            return math.ceil(self.threshold)
        return math.floor(self.threshold)


@dataclass(frozen=True)
class SumPmf:
    """Exact pmf of ``Y = Y_1 + ... + Y_r``; ``probs[s] = Pr[Y = s]``."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _prob_vector(self.probs, "pmf"))

    @property
    def max_sum(self) -> int:
        return len(self.probs) - 1

    def mean(self) -> float:
        return math.fsum(s * p for s, p in enumerate(self.probs))

    @cached_property
    def _prefix_sums(self) -> tuple[float, ...]:
        """``[t] = Pr[Y <= t]``, each equal to ``math.fsum(probs[:t + 1])``."""
        return _exact_running_sums(self.probs)

    @cached_property
    def _suffix_sums(self) -> tuple[float, ...]:
        """``[t] = Pr[Y >= t]``, each equal to ``math.fsum(probs[t:])``."""
        return _exact_running_sums(self.probs[::-1])[::-1]


def _exact_running_sums(probs: Sequence[float]) -> tuple[float, ...]:
    """Correctly rounded running sums, accumulated exactly in integers.

    Every double is a multiple of a power of two no smaller than
    ``2**-1074``, so scaling by the largest denominator among the bins
    makes each bin an exact integer; as every denominator is a power of
    two, the scaling is a shift. Int/int true division rounds correctly,
    so each entry equals ``math.fsum`` of the same prefix, subnormals
    included.
    """
    ratios = list(map(float.as_integer_ratio, probs))
    top = max(den for _, den in ratios).bit_length()
    scale = 1 << (top - 1)
    terms = [num << (top - den.bit_length()) for num, den in ratios]
    return tuple([acc / scale for acc in itertools.accumulate(terms)])


class Marginals(NamedTuple):
    """Per-function one-probabilities and their average."""

    per_function: tuple[float, ...]
    mean: float


def _digit_dtype(spec: FamilySpec) -> np.dtype:
    """The narrowest unsigned type that holds every variable's values: digits and draws."""
    return spec._layout.digits


def _mixed_radix(columns: Sequence[np.ndarray], radices: Sequence[int], size: int) -> np.ndarray:
    """Mixed-radix codes of ``size`` rows, ``columns[0]`` the most significant digit.

    Column ``i`` holds values in ``[0, radices[i])``, ``radices`` are ints,
    and no column means a code of 0 for every row. When the columns are a
    function's read variables in read order, the codes are its truth-table
    positions. This is the one rule for positions and keys outside
    :meth:`_Lookup.sums_of`. The codes take the narrowest unsigned type
    that holds ``prod(radices) - 1``, and the products a type that also
    holds every radix, since a radix may equal that span. A lone unsigned
    column of a type as wide is returned itself, not copied. Past
    ``_KEY_LIMIT`` the codes are built in int64, and whenever the next
    column would take them past it the codes so far are re-coded to the
    ranks of their distinct values: the codes are then no positions, but
    equal codes still mean equal rows, and they still order the rows
    lexicographically.
    """
    span = math.prod(radices)
    if span > _KEY_LIMIT:
        codes, span = np.zeros(size, np.int64), 1
        for column, radix in zip(columns, radices):
            if span * radix > _KEY_LIMIT:
                distinct, codes = np.unique(codes, return_inverse=True)
                span = len(distinct)
            codes *= radix
            codes += column
            span *= radix
        return codes.astype(np.min_scalar_type(span - 1))
    dtype = np.min_scalar_type(span - 1)
    if not columns:
        return np.zeros(size, dtype)
    head = columns[0]
    if len(columns) == 1 and head.dtype.kind == "u" and head.dtype.itemsize >= dtype.itemsize:
        return head
    codes = head.astype(np.promote_types(dtype, np.min_scalar_type(max(radices))))
    for column, radix in zip(columns[1:], radices[1:]):
        codes *= radix
        # Added in the codes' type: uint64 and int64 would add in float64.
        np.add(codes, column, out=codes, dtype=codes.dtype, casting="unsafe")
    return codes.astype(dtype, copy=False)


class _Lookup:
    """The one kernel that evaluates a family's functions on batches of assignments.

    A batch holds one variable per row, variable ``i`` in row ``rows[i]``
    (in row ``i`` when ``rows`` is ``None``), in the family's
    :func:`_digit_dtype`, and one assignment per column, at most ``size``
    of them. The family keeps its functions grouped by arity and by lookup
    mode (``FamilySpec._layout``); a lookup maps each group's read
    variables to their rows and holds the group's buffers. :meth:`sums_of`
    evaluates one group at a time, in one pass over a block of columns: it
    gathers the group's rows, combines them into truth-table positions
    mixed radix in place, looks every position up with one shift and mask
    (word groups, tables of at most 64 cells) or one ``take`` from the
    group's concatenated tables (any larger), reduces over the group's rows
    and adds that into the sums. A block holds at most ``_LOOKUP_CELLS``
    cells (functions times columns) and one column at least, so the
    buffers stay small and in cache whatever the batch, and a large scan
    streams through them. Each group's positions, bits and counts take its
    own narrowest unsigned types (see ``readk.family._Group``), and the
    sums the narrowest that holds the number of functions. Sums are
    integers, so neither the grouping nor the blocks can move them.
    """

    def __init__(self, spec: FamilySpec, rows: Sequence[int] | None, size: int):
        layout = spec._layout
        self._ones = layout.ones
        self._block = block = min(size, max(1, _LOOKUP_CELLS // spec.num_functions))
        row_of = None if rows is None else np.asarray(rows, dtype=np.intp)
        self._passes = []
        for group in layout.groups:
            reads = group.reads if row_of is None else row_of[group.reads]
            shape = (reads.shape[1], block)
            self._passes.append((
                reads[0], list(zip(reads[1:], group.radices)), group.words, group.offsets,
                group.cells, np.empty(shape, layout.digits), np.empty(shape, group.positions),
                np.empty(shape, group.bits), np.empty(block, group.count)))
        self._sums = np.empty(size, np.min_scalar_type(spec.num_functions))
        # A block of a wider batch, copied to be contiguous: ``take`` copies
        # a strided array whole on every call.
        self._batch = np.empty(spec.num_variables * block, layout.digits)

    def sums_of(self, values: np.ndarray) -> np.ndarray:
        """Each assignment's function sum in the batch ``values``, in a buffer the next call reuses."""
        n, block = values.shape[1], self._block
        sums = self._sums[:n]
        sums.fill(self._ones)
        for start in range(0, n, block):
            batch = values[:, start:start + block]
            width = batch.shape[1]
            if not batch.flags.c_contiguous:
                dense = self._batch[:batch.size].reshape(batch.shape)
                np.copyto(dense, batch)
                batch = dense
            out = sums[start:start + width]
            for first, steps, words, offsets, cells, gathered, positions, bits, part in self._passes:
                if width < block:
                    gathered, positions, bits = gathered[:, :width], positions[:, :width], bits[:, :width]
                    part = part[:width]
                # Every index is in range; a mode other than "raise" takes
                # into ``out`` without a buffer.
                batch.take(first, axis=0, out=gathered, mode="wrap")
                held = gathered
                for row, radix in steps:
                    # Horner's rule in the positions' type: in the digits'
                    # narrower one the first product would wrap.
                    np.multiply(held, radix, out=positions)
                    batch.take(row, axis=0, out=gathered, mode="wrap")
                    np.add(positions, gathered, out=positions)
                    held = positions
                if words is None:
                    np.add(held, offsets, out=positions)
                    cells.take(positions, out=bits, mode="wrap")
                else:
                    np.right_shift(words, held, out=bits)
                    np.bitwise_and(bits, 1, out=bits)
                np.add.reduce(bits, axis=0, out=part)
                np.add(out, part, out=out)
        return sums


def _in_tail(sums: np.ndarray, query: TailQuery) -> np.ndarray:
    t = query.effective_threshold()
    return sums >= t if query.direction == "ge" else sums <= t


def _check_guard(size: int, guard: int, what: str, unit: str = "assignments") -> None:
    """Raise :class:`ResourceError` when ``what`` spans more than ``guard`` units.

    A count of more than 15 digits is printed with four significant digits
    taken from its logarithm, like ``1.148e+602`` for ``2**2000``: its
    decimal string would be as long as the count has digits, and Python
    refuses to make one past 4300 digits.
    """
    if size <= guard:
        return
    if size < 10**15:
        count = str(size)
    else:
        lg = math.log10(size)
        # The mantissa's rounding may carry: 9.9996 prints as 1.000e+01.
        mantissa, carry = f"{10 ** (lg % 1):.3e}".split("e")
        count = f"{mantissa}e+{math.floor(lg) + int(carry)}"
    raise ResourceError(f"{what} spans {count} {unit}, exceeding the guard {guard}")


def _scan(spec: FamilySpec, guard: int | None) -> Iterator[tuple]:
    """Every full assignment in lexicographic order, by chunks.

    Yields ``(digits, sums, masses)`` per chunk: each variable's values,
    one row per variable of the :func:`_digit_dtype`, and each
    assignment's function sum (by :meth:`_Lookup.sums_of`) and product-law
    mass, in buffers the next chunk overwrites. Raises
    :class:`ResourceError` when the family spans more assignments than the
    guard (see :func:`enumeration_guard`).
    """
    sizes = [v.support_size for v in spec.variables]
    _check_guard(math.prod(sizes), enumeration_guard(guard), "family")
    masses, _ = _product_law(spec)
    # A chunk fixes the leading variables and runs through every value of
    # the trailing ones, at most CHUNK assignments unless one variable has more.
    lead = len(sizes) - 1
    while lead and math.prod(sizes[lead - 1:]) <= CHUNK:
        lead -= 1
    dtype = _digit_dtype(spec)
    digits = np.empty((len(sizes), math.prod(sizes[lead:])), dtype=dtype)
    digits[lead:] = np.indices(sizes[lead:], dtype=dtype).reshape(len(sizes) - lead, -1)
    lookup = _Lookup(spec, None, digits.shape[1])
    for values in itertools.product(*map(range, sizes[:lead])):
        digits[:lead] = np.reshape(values, (-1, 1))
        lead_mass = math.prod(m[v] for m, v in zip(masses, values))
        yield digits, lookup.sums_of(digits), _cell_masses(masses[lead:], lead_mass)


def _scan_in_tail(spec: FamilySpec, query: TailQuery, guard: int | None) -> Iterator[tuple]:
    """The tail event's assignments of each chunk of :func:`_scan`.

    Yields ``(digits, masses)`` per chunk: copies of the digits and
    product-law masses of the chunk's assignments in the tail.
    """
    for digits, sums, masses in _scan(spec, guard):
        mask = _in_tail(sums, query)
        yield digits[:, mask], masses[mask]


def _scan_tail(
    spec: FamilySpec, query: TailQuery, guard: int | None
) -> tuple[float, list[np.ndarray]]:
    """Product-law mass of a tail event, and its mass on each cell of each truth table.

    Both are before division by the norm. Table positions are found for
    the tail's assignments only, by :func:`_mixed_radix`, and each
    function's are counted over a whole chunk's tail with one
    ``np.bincount`` of float weights. Raises :class:`DomainError` when the
    event has probability zero.
    """
    mass = 0.0
    cells = [np.zeros(len(table)) for table in spec.tables]
    sizes = [v.support_size for v in spec.variables]
    reads = [(fn.vars, [sizes[i] for i in fn.vars]) for fn in spec.functions]
    for tail, w in _scan_in_tail(spec, query, guard):
        mass += float(w.sum())
        for cell, (read, radices) in zip(cells, reads):
            pos = _mixed_radix([tail[i] for i in read], radices, len(w))
            cell += np.bincount(pos, weights=w, minlength=len(cell))
    if mass <= 0.0:
        raise DomainError("conditioning event has probability zero")
    return mass, cells


def _tail_marginals(spec: FamilySpec, cells: list[np.ndarray]) -> tuple[float, ...]:
    """``q_j = Pr[f_j = 1 | event]`` from the event's masses on f_j's truth-table cells.

    The event's mass is taken as those cells add it up, so ``q_j`` is
    exactly 1 (or 0) when f_j is constant on the event.
    """
    q = []
    for table, fn_cells in zip(spec.tables, cells):
        ones = float(fn_cells[table == 1].sum())
        q.append(ones / (ones + float(fn_cells[table == 0].sum())))
    return tuple(q)


def _times_poly(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Product of two aligned polynomial factors.

    Variable axes broadcast to ``shape``; the sum axes (the last) convolve.
    """
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    la, lb = a.shape[-1], b.shape[-1]
    out = np.empty(shape + (la + lb - 1,), dtype=a.dtype)
    np.multiply(a, b[..., :1], out=out[..., :la])
    out[..., la:] = 0
    for i in range(1, lb):
        out[..., i:i + la] += a * b[..., i:i + 1]
    return out


def _place(product: np.ndarray, one_hot: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``product`` times ``z**s``, ``s`` each cell's function sum: placed at offset ``s``.

    ``one_hot[..., s]`` is true on the cells of sum ``s``; variable axes
    broadcast to ``shape``. Each term of a product with a 0/1 one-hot is
    ``x * 1`` or ``+0.0``, so this equals :func:`_times_poly` bit for bit.
    """
    la, lb = product.shape[-1], one_hot.shape[-1]
    out = np.zeros(shape + (la + lb - 1,), dtype=product.dtype)
    for s in range(lb):
        np.copyto(out[..., s:s + la], product, where=one_hot[..., s:s + 1])
    return out


def _convolve_in_order(pmfs: Sequence[np.ndarray], size: int) -> np.ndarray:
    """``np.convolve`` of ``pmfs`` from left to right, bit for bit: a pmf of ``size`` bins.

    ``size`` is one more than the sum of every pmf's last index. A single
    pmf is returned as it is; otherwise the running pmf lives in one
    buffer of ``size`` bins, which starts as a copy of the first pmf, so
    no input is written. A two-bin pmf updates the buffer in place in
    three passes, and a longer one goes through ``np.convolve``; the bits
    equal ``np.convolve``'s when no bin is negative or ``-0.0`` (see
    :func:`sum_pmf`).

    The three passes leave out the runs of :data:`_TINY` at either end of
    the buffer that the step keeps bit for bit (:func:`_keeps_run`, tested
    once per distinct pmf): a leading run stays as it is, and a trailing
    run ``[hi, n)`` moves up one bin, so bin ``hi`` is zeroed before the
    shifted add and bin ``n`` is set to ``_TINY``. The runs are extended,
    a bin at a time from their inner ends, before each step whose pmf is
    the previous step's; a step of another pmf drops the runs it does not
    keep, and a longer pmf drops both.
    """
    acc = pmfs[0]
    if len(pmfs) == 1:
        return acc
    buf, spare = np.zeros(size), np.empty(size - 1)
    n = len(acc)
    buf[:n] = acc
    bins = memoryview(buf)  # reads and writes single bins as Python floats
    # Bins [0, lo) and [hi, n) are runs of _TINY that the next step may keep.
    lo, hi = 0, n
    # id of a two-bin pmf: (q0, q1, keeps a leading run, keeps a trailing run)
    last, steps = None, {}
    for pmf in pmfs[1:]:
        if pmf is not last:  # a class's components share one pmf
            if len(pmf) != 2:
                m = n + len(pmf) - 1
                buf[:m] = np.convolve(buf[:n], pmf)
                last, lo, hi, n = None, 0, m, m
                continue
            last, step = pmf, steps.get(id(pmf))
            if step is None:
                q0, q1 = pmf.tolist()
                step = steps[id(pmf)] = (q0, q1, _keeps_run(q0, q1), _keeps_run(q1, q0))
            q0, q1, lead, trail = step
            if not lead:
                lo = 0
            if not trail:
                hi = n
        elif lead:  # runs are looked for while one pmf repeats
            while bins[lo] == _TINY:  # stops at buf[n], still 0.0
                lo += 1
        elif trail:
            while hi and bins[hi - 1] == _TINY:
                hi -= 1
        part, tmp = buf[lo:hi], spare[:hi - lo]
        np.multiply(part, q1, out=tmp)
        np.multiply(part, q0, out=part)
        if hi < n:  # the trailing run moves up one bin
            bins[hi] = 0.0
            bins[n] = _TINY
        shifted = buf[lo + 1:hi + 1]  # when hi == n, its last bin, buf[n], is still 0.0
        np.add(shifted, tmp, out=shifted)
        hi += 1
        n += 1
    return buf[:n]


def _keeps_run(q0: float, q1: float) -> bool:
    """Whether a run of :data:`_TINY` bins is a fixed point of the step ``(q0, q1)``.

    A bin inside the run becomes ``_TINY * q0 + _TINY * q1``, which is
    ``_TINY`` when the first product rounds to ``_TINY`` and the second to
    ``0.0``: a leading run then stays, and, with ``q0`` and ``q1`` swapped,
    a trailing run moves up one bin.
    """
    return q0 * _TINY == _TINY and q1 * _TINY == 0.0


class _Program:
    """A class's elimination plan compiled against its supports, tables and laws.

    The family keeps one per class (``FamilySpec._classes.programs``),
    made by the first :func:`sum_pmf` that eliminates the class, so only
    the arithmetic runs on later calls. It is made in two parts. At once,
    from the plan and the supports alone: the number type (``counting``:
    int64 counts divided by ``total`` at the end, or float64 weights) and
    each step's cell count (``cells``: variable axes times sum axis), which
    the guard reads. Then, on the first run that passes the guard,
    ``steps`` (see :meth:`compile`), one ``(shape, messages, one_hot,
    weights, axes)`` per plan step: the product's variable axes; each
    message it multiplies, as ``(step, aligned shape or None)``; the mask
    of each sum ``s`` of its functions, ``one_hot[..., s]`` (``None`` if
    it has none); each summed variable's ``masses / norm`` shaped to
    broadcast on its axis (none when counting); and the summed axes.
    Every kept array is read-only and has the step's variable axes and at
    most the one-hot's axis of sums, so a byte per cell at most. Products
    and messages are made by each run.
    """

    __slots__ = ("reads", "plan", "laws", "sizes", "total", "counting", "cells", "steps")

    def __init__(
        self, spec: FamilySpec, comp: Component, reads: Sequence[Sequence[int]], plan: list
    ):
        self.reads, self.plan = reads, plan
        self.laws = laws = [spec.laws[i] for i in comp.variables]
        self.sizes = sizes = [len(masses) for masses, _ in laws]
        self.total = math.prod(sizes)
        self.counting = self.total < _INT_COUNT_LIMIT and all(
            norm == len(masses) for masses, norm in laws
        )
        self.cells = tuple([math.prod([sizes[i] for i in scope]) * length
                            for _, scope, _, length in plan])
        self.steps: tuple[tuple, ...] | None = None

    def compile(self, spec: FamilySpec, comp: Component) -> tuple[tuple, ...]:
        """Each step of the plan with its arrays: what every run would otherwise redo.

        A function's table is reshaped to its read variables, transposed to
        their sorted order and aligned to the step's scope; a step's tables
        add in the narrowest unsigned type that holds their number, and the
        sum's one-hot is where a run places the product (:func:`_place`). A
        weight is the law's masses themselves when its norm is 1, as ``x / 1 == x``.
        """
        laws, sizes, reads, plan = self.laws, self.sizes, self.reads, self.plan
        n = len(reads)
        scopes = [sorted(read) for read in reads]
        steps = []
        for inputs, scope, summed, _ in plan:
            messages, sums, count = [], None, 0
            for f in inputs:
                vs = scopes[f]
                aligned = None if vs == scope else [sizes[i] if i in vs else 1 for i in scope]
                if f >= n:  # the message of step f - n, with its sum axis
                    length = plan[f - n][3]
                    messages.append((f - n, None if aligned is None else (*aligned, length)))
                    continue
                read = reads[f]
                table = spec.tables[comp.functions[f]].reshape([sizes[i] for i in read])
                if vs != list(read):
                    table = table.transpose(sorted(range(len(read)), key=read.__getitem__))
                if aligned is not None:
                    table = table.reshape(aligned)
                count += 1
                sums = table if sums is None else np.add(
                    sums, table, dtype=np.min_scalar_type(count))
            one_hot = None if sums is None else _read_only(
                sums[..., np.newaxis] == np.arange(count + 1))
            axes = tuple(map(scope.index, summed))
            weights = []
            if not self.counting:
                for i, a in zip(summed, axes):
                    masses, norm = laws[i]
                    shape = [1] * (len(scope) + 1)
                    shape[a] = sizes[i]
                    weights.append(masses.reshape(shape) if norm == 1
                                   else _read_only((masses / norm).reshape(shape)))
            steps.append((tuple([sizes[i] for i in scope]), tuple(messages), one_hot,
                          tuple(weights), axes))
            scopes.append([i for i in scope if i not in summed])
        return tuple(steps)


def _eliminate_pmf(spec: FamilySpec, comp: Component, program: _Program, guard: int) -> np.ndarray:
    """Exact pmf of one component's partial sum by bucket elimination: plan, then arithmetic.

    ``program`` is the component's class's :class:`_Program`, made from
    ``readk.family._plan`` of the class's ranked reads
    (``FamilySpec._classes.plans``). The guard reads every step's kept cell
    count before any array of the call is made, and on a first run before
    the program's arrays are made; then the steps run in turn: the step's
    messages multiply in input order, convolving their sum axes; the
    product (the unit polynomial if the step has no message) is placed at
    its sum offset on each cell, so a step's functions add, not convolve;
    each summed variable's weights multiply in place (none when counting);
    and the summed axes reduce. Only products and messages are made per call.
    """
    cells = program.cells
    if max(cells) > guard:
        names = ", ".join(spec.functions[j].name for j in comp.functions[:4])
        more = ", ..." if len(comp.functions) > 4 else ""
        for size in cells:
            _check_guard(size, guard, f"component [{names}{more}]: an elimination factor", "cells")
    steps = program.steps
    if steps is None:
        steps = program.steps = program.compile(spec, comp)
    dtype = np.int64 if program.counting else np.float64
    messages: list[np.ndarray | None] = []
    for shape, inputs, one_hot, weights, axes in steps:
        product = None
        for r, aligned in inputs:
            arr, messages[r] = messages[r], None  # frees the messages summed out
            if aligned is not None:
                arr = arr.reshape(aligned)
            product = arr if product is None else _times_poly(product, arr, shape)
        if one_hot is not None:  # the unit polynomial placed is the one-hot itself
            product = one_hot.astype(dtype) if product is None else _place(product, one_hot, shape)
        for weight in weights:  # the product is this run's own, and read by this step alone
            np.multiply(product, weight, out=product)
        messages.append(np.add.reduce(product, axis=axes))
    message = messages[-1]
    return message / program.total if program.counting else message


def sum_pmf(spec: FamilySpec, guard: int | None = None) -> SumPmf:
    """Exact pmf of the family's function sum, component by component.

    Walks the components of the family's dependency partition in order
    of smallest function index, by their classes (``FamilySpec._classes``).
    Each class of components equal up to variable labels is solved once,
    by variable elimination of its representative (unread variables
    contribute weight one), and every component of the class convolves in
    that pmf. Each class's elimination plan is made once per family and
    kept with its class (``FamilySpec._classes.plans``), and so is its
    :class:`_Program`, made by the first call that eliminates the class. No
    pmf, message or tail sum is kept across calls: every call eliminates
    each representative and runs the whole convolution.

    The pmfs then convolve in component order (:func:`_convolve_in_order`)
    in one buffer of ``r + 1`` bins, made only when there is a second
    component, so a one-component family makes none; it starts as a copy
    of the first pmf, which its class's later components read again.
    A two-bin pmf ``(q0, q1)``, a component of one function, updates the
    buffer in place: ``q1`` times the running pmf into a scratch row,
    ``q0`` times it in place, then the scratch row added one bin up, onto
    a last bin still ``0.0``. ``np.convolve`` forms each bin as ``0.0 +
    acc[s - 1] * q1 + acc[s] * q0``. Every bin here is a pmf's, whose sum
    takes in a term of positive mass, so it is never negative and never
    ``-0.0``: the leading ``0.0`` moves no bit, and a sum of two terms
    rounds the same in either order, so the bins are ``np.convolve``'s
    bit for bit. A longer pmf is convolved by ``np.convolve`` and copied
    into the buffer, because its sums of three or more terms depend on
    their order and neither fixed order of an in-place update matches
    ``np.convolve``'s on every length. The update leaves out the bins of
    a run of ``2**-1074`` at either end of the running pmf that the step
    keeps bit for bit, as a fixed point of its rounding: on
    ``gen_block_tight(1, 5000, "1/3")`` the leading run grows to 507 of
    the 5001 bins. Raises
    :class:`ResourceError` naming the first component whose elimination
    would form a product factor of more cells than the guard.
    """
    guard = enumeration_guard(guard)
    classes = spec._classes
    programs = classes.programs
    solved: list[np.ndarray | None] = [None] * len(classes.representatives)
    pmfs = []
    for c in classes.component_class.tolist():
        pmf = solved[c]
        if pmf is None:
            comp = classes.representatives[c]
            program = programs[c]
            if program is None:
                program = programs[c] = _Program(spec, comp, classes.reads[c], classes.plans[c])
            pmf = solved[c] = _eliminate_pmf(spec, comp, program, guard)
        pmfs.append(pmf)
    acc = _convolve_in_order(pmfs, spec.num_functions + 1)
    assert len(acc) == spec.num_functions + 1
    return SumPmf(tuple(acc.tolist()))


def sum_pmf_enumerate(spec: FamilySpec, guard: int | None = None) -> SumPmf:
    """Exact pmf by one flat enumeration of *all* variables, no decomposition.

    Independent cross-check path for :func:`sum_pmf`; quadratically more
    work on families with many components, so keep it to small inputs.
    """
    _, norm = _product_law(spec)
    pmf = np.zeros(spec.num_functions + 1)
    for _, sums, masses in _scan(spec, guard):
        # Sums are uint64 when some table has 33 to 64 cells, which bincount
        # does not take; it casts narrower ones to intp all the same.
        pmf += np.bincount(sums.astype(np.intp), weights=masses, minlength=len(pmf))
    return SumPmf(tuple((pmf / norm).tolist()))


def tail_prob(pmf: SumPmf, query: TailQuery) -> float:
    """``Pr[Y >= t]`` or ``Pr[Y <= t]``, inclusive at integer thresholds.

    Fractional thresholds round toward the event: ceiling for ``ge``,
    floor for ``le``. O(1) after the pmf's first query in each direction,
    and equal to ``math.fsum`` over the same bins.
    """
    return _tail_at(pmf, query.effective_threshold(), query.direction)


def _tail_at(pmf: SumPmf, t: int, direction: Literal["ge", "le"]) -> float:
    """:func:`tail_prob` at the integer threshold ``t``, on unchecked arguments."""
    if direction == "ge":
        if t > pmf.max_sum:
            return 0.0
        if t <= 0:
            return 1.0
        return min(pmf._suffix_sums[t], 1.0)
    if t < 0:
        return 0.0
    if t >= pmf.max_sum:
        return 1.0
    return min(pmf._prefix_sums[t], 1.0)


def function_marginals(spec: FamilySpec) -> Marginals:
    """Exact ``p_j = Pr[f_j = 1]`` for every function, plus their average.

    The ``p_j`` are computed once per distinct truth table and read-variable
    laws, and kept by the family (``FamilySpec._one_probs``).
    """
    per = spec._one_probs
    return Marginals(per, math.fsum(per) / len(per))


def conditional_function_marginals(
    spec: FamilySpec, query: TailQuery, guard: int | None = None
) -> tuple[float, ...]:
    """Exact ``q_j = Pr[f_j = 1 | tail event]`` by full enumeration.

    Enumerates the entire assignment space (no component shortcut, since
    conditioning couples the components). Raises :class:`DomainError` when
    the conditioning event has probability zero.
    """
    _, cells = _scan_tail(spec, query, guard)
    return _tail_marginals(spec, cells)


def _verify_rows(spec: FamilySpec, tol: float) -> tuple[int, int, list[dict]]:
    """``(r, k, rows)`` of ``readk verify``: the exact tail against the read-k bound.

    One row per integer threshold ``t`` whose tail deviates from the mean
    (``bounds._deviation`` positive), upper tail first, each holding
    ``tail``, ``t``, ``exact``, ``bound``, ``slack = bound - exact`` and
    ``ok = exact <= bound * (1 + tol)``. ``r``, ``k`` (the read width, at
    least 1), ``p`` (the mean one-probability) and ``tol`` are checked once;
    every row has the bits of ``tail_prob`` and ``read_k_tail_bound`` on the
    same threshold and deviation.
    """
    # Imported here, not at the top, so that ``readk exact`` does not load it.
    from .bounds import _check_rkp, _deviation, _log_bound

    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol!r}")
    r = spec.num_functions
    k = max(read_width(spec), 1)
    p = function_marginals(spec).mean
    _check_rkp(r, k, p)
    pmf = sum_pmf(spec)
    rows = []
    for tail, direction in _DIRECTIONS.items():
        for t in range(r + 1):
            eps = _deviation(t, r, p, tail)
            if eps <= 0:
                continue
            exact = _tail_at(pmf, t, direction)
            bound = math.exp(_log_bound(r, k, p, eps, tail))
            rows.append({"tail": tail, "t": t, "exact": exact, "bound": bound,
                         "slack": bound - exact, "ok": exact <= bound * (1.0 + tol)})
    return r, k, rows
