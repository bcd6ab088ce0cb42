"""Exact distribution of the function-sum of a family.

:func:`sum_pmf` works per dependency component by variable elimination
(bucket elimination) over generating-polynomial factors: each function is
a factor with one axis per variable it reads, standing for the polynomial
``z**f`` in the partial sum, and products carry a trailing axis of
polynomial coefficients. Multiplying factors broadcasts their variable
axes and convolves their sum axes; eliminating a variable sums its axis
out against that variable's probabilities. The
elimination order is greedy min-degree, ties broken by variable index, so
the cost grows with a component's treewidth rather than its assignment
count. Components of uniform variables with fewer than ``2**62``
assignments carry exact integer counts and divide by the total at the
end; the rest carry float64 weights. Components equal up to variable
labels (same read tuples relabelled by rank, truth tables and variable
laws) are solved once and share their pmf, so a family of thousands of
identical blocks costs one elimination. The component pmfs are then
convolved in order of smallest function index.

The guard (``DEFAULT_GUARD``, overridable per call or through the
``READK_ENUM_GUARD`` environment variable) bounds different work on
different paths. In :func:`sum_pmf` it bounds the cells (variable axes
times sum axis) of the largest product factor formed while eliminating a
component. The flat enumerations, :func:`sum_pmf_enumerate`,
:func:`conditional_function_marginals` and the audits ``conditional_law``
and ``proof_trace``, share one scan of the full assignment space, weighted
by the product law of :attr:`FamilySpec.laws`; there the guard bounds the
number of assignments. The scan and the Monte Carlo sampler find each
function's truth-table positions through one loop,
:func:`_table_positions`, and add up the functions through another,
:func:`_function_sums`. The scan passes its digits in variable order, the
sampler its values in its own row order (see :func:`_row_reads`). Each
function's product law on its own truth-table cells, which
:func:`function_marginals` and the audits' projected divergences read, is
built once per family and kept by the family (``FamilySpec._cell_laws``).

Every reduction runs in a fixed order, so results are bit-reproducible
for identical inputs.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceError, _check_int
from .family import Component, FamilySpec, _cell_masses, _product_law, dependency_components
from .info_theory import _prob_vector

DEFAULT_GUARD = 1 << 24

#: Uniform components below this many assignments count in exact int64.
_INT_COUNT_LIMIT = 1 << 62

#: Assignments handled per vectorized block; bounds peak memory.
CHUNK = 1 << 20


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


@dataclass(frozen=True)
class TailQuery:
    """A one-sided threshold event on the function sum: ``Y >= t`` or ``Y <= t``."""

    threshold: float
    direction: Literal["ge", "le"] = "ge"

    def __post_init__(self) -> None:
        if self.direction not in ("ge", "le"):
            raise DomainError(f"direction must be 'ge' or 'le', got {self.direction!r}")
        try:
            finite = math.isfinite(self.threshold)
        except OverflowError:
            raise DomainError("threshold must be finite, got an int too big for a float") from None
        if not finite:
            raise DomainError(f"threshold must be finite, got {self.threshold!r}")

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
    makes each bin an exact integer. Int/int true division rounds
    correctly, so each entry equals ``math.fsum`` of the same prefix,
    subnormals included.
    """
    ratios = [p.as_integer_ratio() for p in probs]
    scale = max(den for _, den in ratios)
    acc = 0
    out = []
    for num, den in ratios:
        acc += num * (scale // den)
        out.append(acc / scale)
    return tuple(out)


class Marginals(NamedTuple):
    """Per-function one-probabilities and their average."""

    per_function: tuple[float, ...]
    mean: float


def _row_reads(spec: FamilySpec, rows: Sequence[int]) -> list[list[tuple[int, int]]]:
    """Each function's read tuple as ``(row, support)`` pairs.

    They index values held one variable per row, variable ``i`` in row
    ``rows[i]``.
    """
    sizes = [v.support_size for v in spec.variables]
    return [[(rows[i], sizes[i]) for i in fn.vars] for fn in spec.functions]


def _table_positions(
    reads: list[list[tuple[int, int]]], values: np.ndarray, out: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Each function's mixed-radix truth-table positions, written into the next buffer of ``out``.

    ``reads`` comes from :func:`_row_reads` for the row layout of ``values``.
    When ``out`` repeats one buffer, a yielded array holds its function's
    positions only until the next one is written.
    """
    for read, positions in zip(reads, out):
        positions[...] = values[read[0][0]] if read else 0
        for row, size in read[1:]:
            positions *= size
            positions += values[row]
        yield positions


def _function_sums(spec: FamilySpec, positions: Iterable[np.ndarray], size: int) -> np.ndarray:
    """The function sum of ``size`` assignments from each function's positions, read lazily.

    Sums are held in the narrowest unsigned type that holds the number of
    functions: with fewer than 256 functions, each add is of two ``uint8``
    arrays.
    """
    sums = np.zeros(size, dtype=np.min_scalar_type(len(spec.tables)))
    for table, pos in zip(spec.tables, positions):
        sums += table[pos]
    return sums


def _in_tail(sums: np.ndarray, query: TailQuery) -> np.ndarray:
    t = query.effective_threshold()
    return sums >= t if query.direction == "ge" else sums <= t


def _check_guard(size: int, guard: int, what: str, unit: str = "assignments") -> None:
    """Raise :class:`ResourceError` when ``what`` spans more than ``guard`` units."""
    if size > guard:
        raise ResourceError(f"{what} spans {size} {unit}, exceeding the guard {guard}")


def _scan(spec: FamilySpec, guard: int | None) -> Iterator[tuple]:
    """Every full assignment in lexicographic order, by chunks.

    Yields ``(digits, positions, sums, masses)`` per chunk: each variable's
    values and each function's truth-table positions (one row per variable
    and per function, in buffers the next chunk overwrites), and each
    assignment's function sum and product-law mass. Raises
    :class:`ResourceError` when the family spans more assignments than the
    guard (see :func:`enumeration_guard`).
    """
    sizes = [v.support_size for v in spec.variables]
    total = math.prod(sizes)
    _check_guard(total, enumeration_guard(guard), "family")
    masses, _ = _product_law(spec, range(len(sizes)))
    # A chunk fixes the leading variables and runs through every value of
    # the trailing ones, at most CHUNK assignments unless one variable has more.
    lead = len(sizes) - 1
    while lead and math.prod(sizes[lead - 1:]) <= CHUNK:
        lead -= 1
    dtype = np.int32 if total <= 2**31 - 1 else np.int64
    digits = np.empty((len(sizes), math.prod(sizes[lead:])), dtype=dtype)
    digits[lead:] = np.indices(sizes[lead:], dtype=dtype).reshape(len(sizes) - lead, -1)
    positions = np.empty((spec.num_functions, digits.shape[1]), dtype=dtype)
    reads = _row_reads(spec, range(len(sizes)))
    for values in itertools.product(*map(range, sizes[:lead])):
        digits[:lead] = np.reshape(values, (-1, 1))
        sums = _function_sums(spec, _table_positions(reads, digits, positions), digits.shape[1])
        lead_mass = math.prod(m[v] for m, v in zip(masses, values))
        yield digits, positions, sums, _cell_masses(masses[lead:], lead_mass)


def _scan_tail(
    spec: FamilySpec, query: TailQuery, guard: int | None
) -> tuple[float, list[np.ndarray]]:
    """Product-law mass of a tail event, and its mass on each cell of each truth table.

    Both are before division by the norm. Raises :class:`DomainError` when
    the event has probability zero.
    """
    mass = 0.0
    cells = [np.zeros(len(table)) for table in spec.tables]
    for _, positions, sums, masses in _scan(spec, guard):
        mask = _in_tail(sums, query)
        w = masses[mask]
        mass += float(w.sum())
        for cell, pos in zip(cells, positions):
            cell += np.bincount(pos[mask], weights=w, minlength=len(cell))
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


def _component_name(spec: FamilySpec, comp: Component) -> str:
    names = ", ".join(spec.functions[j].name for j in comp.functions[:4])
    return f"component [{names}{', ...' if len(comp.functions) > 4 else ''}]"


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


def _eliminate_pmf(spec: FamilySpec, comp: Component, guard: int) -> np.ndarray:
    """Exact pmf of one component's partial sum by variable elimination.

    A factor is ``(scope, array, length)``: ``scope`` lists its variables
    in increasing order, one array axis each. A *sum* factor holds the
    partial sum ``s`` of its functions, standing for the polynomial
    ``z**s``, and has no further axis; a polynomial factor adds a trailing
    axis of ``length`` coefficients. Functions enter as sum factors, so the
    functions of one bucket are added, not convolved.
    """
    variables = spec.variables
    sizes = {i: variables[i].support_size for i in comp.variables}
    total = math.prod(sizes.values())
    counting = total < _INT_COUNT_LIMIT and all(variables[i].is_uniform for i in comp.variables)
    dtype = np.int64 if counting else np.float64

    factors: dict[int, tuple[list[int], np.ndarray, int]] = {}
    holders: dict[int, list[int]] = {i: [] for i in comp.variables}  # ids of factors reading i
    adj: dict[int, set[int]] = {i: set() for i in comp.variables}  # interaction graph
    for fid, j in enumerate(comp.functions):
        read = spec.functions[j].vars
        scope = sorted(read)
        table = spec.tables[j].reshape([sizes[i] for i in read])
        if scope != list(read):
            table = table.transpose(sorted(range(len(read)), key=read.__getitem__))
        factors[fid] = (scope, table, 2)
        for i in scope:
            holders[i].append(fid)
            adj[i].update(scope)
    for i, nbrs in adj.items():
        nbrs.discard(i)

    # Greedy min-degree order with lazy deletion of stale heap entries.
    next_id = len(factors)
    heap = [(len(nbrs), i) for i, nbrs in adj.items()]
    heapq.heapify(heap)
    remaining = len(heap)
    while remaining:
        degree, v = heapq.heappop(heap)
        if degree != len(adj[v]) or not holders[v]:  # stale, or v already eliminated
            continue
        nbrs = adj[v]
        rest = sorted(nbrs)
        axis = bisect.bisect(rest, v)
        scope = rest[:axis] + [v] + rest[axis:]
        # A bucket spanning every variable left takes every factor left
        # and sums all of them out: the last elimination.
        last = len(scope) == remaining
        fids = list(factors) if last else holders[v]
        bucket = [factors.pop(f) for f in fids]
        shape = tuple([sizes[i] for i in scope])
        length = 1 + sum([n for _, _, n in bucket]) - len(bucket)
        _check_guard(math.prod(shape) * length, guard, "an elimination factor", "cells")
        sums, sum_length, product = None, 1, None
        for vs, arr, n in bucket:
            if vs != scope:
                aligned = [sizes[i] if i in vs else 1 for i in scope]
                arr = arr.reshape(aligned + list(arr.shape[len(vs):]))
            if arr.ndim == len(scope):
                sums = arr if sums is None else np.add(sums, arr, dtype=np.intp)
                sum_length += n - 1
            else:
                product = arr if product is None else _times_poly(product, arr, shape)
        if sums is not None:
            poly = (sums[..., np.newaxis] == np.arange(sum_length)).astype(dtype)
            product = poly if product is None else _times_poly(product, poly, shape)
        summed = scope if last else [v]
        axes = tuple(range(len(scope))) if last else (axis,)
        if not counting:
            for i, a in zip(summed, axes):
                weights = [1] * product.ndim
                weights[a] = sizes[i]
                product = product * np.asarray(variables[i].probs).reshape(weights)
        message = np.add.reduce(product, axis=axes)
        if last:
            return message / total if counting else message
        remaining -= 1
        holders[v] = []
        factors[next_id] = (rest, message, length)
        gone = set(fids)
        for u in rest:
            holders[u] = [f for f in holders[u] if f not in gone]
            holders[u].append(next_id)
            adj[u] |= nbrs
            adj[u] -= {u, v}
            heapq.heappush(heap, (len(adj[u]), u))
        next_id += 1

    # A component without variables is a single constant function.
    ((_, table, _),) = factors.values()
    value = int(table.reshape(()))
    return np.array([1 - value, value], dtype=np.float64)


def _component_key(spec: FamilySpec, comp: Component) -> tuple:
    """Everything :func:`_eliminate_pmf` reads of a component, up to variable labels.

    Each function's read tuple, with every variable relabelled to its rank
    in ``comp.variables``, and its truth table, in function order; then each
    variable's probabilities, which also fix its support and uniformity.
    Relabelling keeps the order of indices, so components with equal keys
    take the same elimination order and give bit-identical pmfs.
    Probabilities compare by value, so ``0.0`` and ``-0.0`` give one key;
    a zero's sign never reaches the pmf, since each elimination adds in a
    value of positive probability.
    """
    rank = {i: n for n, i in enumerate(comp.variables)}
    fns = [spec.functions[j] for j in comp.functions]
    reads = tuple((tuple([rank[i] for i in fn.vars]), fn.truth_table) for fn in fns)
    return reads, tuple([spec.variables[i].probs for i in comp.variables])


def sum_pmf(spec: FamilySpec, guard: int | None = None) -> SumPmf:
    """Exact pmf of the family's function sum, component by component.

    Each dependency component is solved by variable elimination (unread
    variables contribute weight one), once per distinct
    :func:`_component_key`: a component equal to an earlier one up to
    variable labels reuses its pmf. The component pmfs are convolved in
    order of smallest function index. Raises :class:`ResourceError`
    naming the first component whose elimination would form a product
    factor of more cells than the guard.
    """
    guard = enumeration_guard(guard)
    acc: np.ndarray | None = None
    solved: dict[tuple, np.ndarray] = {}
    for comp in dependency_components(spec):
        key = _component_key(spec, comp)
        part = solved.get(key)
        if part is None:
            try:
                part = solved[key] = _eliminate_pmf(spec, comp, guard)
            except ResourceError as e:
                raise ResourceError(f"{_component_name(spec, comp)}: {e}") from None
        acc = part if acc is None else np.convolve(acc, part)
    assert acc is not None and len(acc) == spec.num_functions + 1
    return SumPmf(tuple(float(p) for p in acc))


def sum_pmf_enumerate(spec: FamilySpec, guard: int | None = None) -> SumPmf:
    """Exact pmf by one flat enumeration of *all* variables, no decomposition.

    Independent cross-check path for :func:`sum_pmf`; quadratically more
    work on families with many components, so keep it to small inputs.
    """
    _, norm = _product_law(spec, range(spec.num_variables))
    pmf = np.zeros(spec.num_functions + 1)
    for _, _, sums, masses in _scan(spec, guard):
        pmf += np.bincount(sums, weights=masses, minlength=len(pmf))
    return SumPmf(tuple(float(p) for p in pmf / norm))


def tail_prob(pmf: SumPmf, query: TailQuery) -> float:
    """``Pr[Y >= t]`` or ``Pr[Y <= t]``, inclusive at integer thresholds.

    Fractional thresholds round toward the event: ceiling for ``ge``,
    floor for ``le``. O(1) after the pmf's first query in each direction,
    and equal to ``math.fsum`` over the same bins.
    """
    t = query.effective_threshold()
    if query.direction == "ge":
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
    """Exact ``p_j = Pr[f_j = 1]`` for every function, plus their average."""
    laws = zip(spec.tables, *spec._cell_laws)
    per = [min(float(masses[table == 1].sum()) / norm, 1.0) for table, masses, norm in laws]
    return Marginals(tuple(per), math.fsum(per) / len(per))


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
