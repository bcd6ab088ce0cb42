"""Read-k families: independent finite variables plus Boolean read functions.

A family is ``m`` independent variables (finite supports, optionally
weighted) and ``r`` Boolean functions, each reading an ordered subset of
the variables through an explicit truth table. Truth tables are stored as
``'0'``/``'1'`` strings in mixed-radix row-major order: the first listed
variable is the most significant digit.

The JSON file format used across the package::

    {"variables": [{"name": "x1", "support": 2, "probs": [0.5, 0.5]}, ...],
     "functions": [{"name": "y1", "vars": [0, 1], "truth_table": "0110"}, ...]}

``probs`` may be omitted (or ``[]``), meaning uniform. ``vars`` are 0-based
indices into ``variables``. Parsers reject wrong-length tables,
unnormalized probability vectors and fields of the wrong JSON type: a JSON
boolean is not a number, and ``name`` and ``truth_table`` must be strings.

A :class:`FamilySpec` is immutable, and keeps what is derived from its
structure the first time it is asked for: the decoded truth tables
(``tables``), the functions grouped by arity and lookup mode for the
lookup kernel (``_layout``: each group's read variables and radices, and
its tables as words, bit ``c`` being cell ``c``, or concatenated when a
table has more than 64 cells), the variable laws (``laws``, one
read-only array per distinct law), each function's law on its truth-table
cells (``_cell_laws``, one per distinct tuple of read-variable laws), the
marginals ``Pr[f_j = 1]`` (``_one_probs``, one per distinct truth table and
cell law), and the dependency partition (``_partition``: one union-find
pass gives arrays from function and variable to component, and the read
width) and its classes (``_classes``: an array from component to class of
components equal up to variable labels, one representative component per
class, each class's elimination plan, and a slot per class for its
compiled plan). This module derives all of that structure and imports
nothing from the engine: the plans are made here (:func:`_plan`, from a
class's read tuples alone) and kept in ``_classes``. The compiled plans
are made by ``readk.exact.sum_pmf``, the first time it eliminates each
class, and kept in the slots (``_classes.programs``): the number type,
each step's cell count, and each step's axes, weights and read-only
one-hot of its function sums. The family never keeps a pmf, an
elimination message or a tail sum, nor the per-component tuples that
:func:`dependency_components` returns.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ValidationError, _check_int
from .info_theory import _prob_vector, cover_multiplicity

#: Truth tables of at most this many cells are looked up as one machine word.
_WORD_CELLS = 64


@dataclass(frozen=True)
class Variable:
    """One independent random variable with values ``0 .. support_size-1``."""

    name: str
    support_size: int
    probs: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValidationError(f"variable name {self.name!r} is not a str")
        n = self.support_size
        _check_int(n, "support_size", error=ValidationError)
        probs = _prob_vector(tuple(self.probs) or (1.0 / n,) * n, f"variable {self.name!r}", n)
        object.__setattr__(self, "probs", probs)

    @property
    def is_uniform(self) -> bool:
        return self.probs == (1.0 / self.support_size,) * self.support_size


@dataclass(frozen=True)
class ReadFunction:
    """A Boolean function of the listed variables, given by its truth table."""

    name: str
    vars: tuple[int, ...]
    truth_table: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class FamilySpec:
    """A complete family: variables plus read functions, fully validated."""

    variables: tuple[Variable, ...]
    functions: tuple[ReadFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.variables:
            raise ValidationError("family needs at least one variable")
        if not self.functions:
            raise ValidationError("family needs at least one function")
        m = len(self.variables)
        for fn in self.functions:
            if not isinstance(fn.name, str):
                raise ValidationError(f"function name {fn.name!r} is not a str")
            table = fn.truth_table
            if not isinstance(table, str):
                raise ValidationError(f"function {fn.name!r}: truth table {table!r} is not a str")
            for i in fn.vars:
                what = f"function {fn.name!r}: variable index {i!r}"
                if isinstance(i, bool) or not isinstance(i, int):
                    raise ValidationError(f"{what} is not an int")
                if not 0 <= i < m:
                    raise ValidationError(f"{what} out of range")
            if len(set(fn.vars)) != len(fn.vars):
                raise ValidationError(f"function {fn.name!r}: duplicate variable indices")
            expected = math.prod(self.variables[i].support_size for i in fn.vars)
            if len(fn.truth_table) != expected:
                raise ValidationError(
                    f"function {fn.name!r}: truth table length {len(fn.truth_table)}, expected {expected}"
                )
            if any(c not in "01" for c in fn.truth_table):
                raise ValidationError(f"function {fn.name!r}: truth table must be over '0'/'1'")

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_functions(self) -> int:
        return len(self.functions)

    @cached_property
    def tables(self) -> tuple[np.ndarray, ...]:
        """Each function's truth table as a flat read-only ``uint8`` 0/1 array.

        Decoded from the ``'0'``/``'1'`` strings once per family.
        """
        flat = np.frombuffer(
            "".join(fn.truth_table for fn in self.functions).encode("ascii"), dtype=np.uint8
        ) - ord("0")
        flat.flags.writeable = False
        lengths = (len(fn.truth_table) for fn in self.functions)
        bounds = list(itertools.accumulate(lengths, initial=0))
        return tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def _layout(self) -> _Layout:
        """The functions grouped for the lookup kernel (see :func:`_layout`)."""
        return _layout(self)

    @cached_property
    def _law_index(self) -> tuple[tuple[tuple[np.ndarray, int], ...], tuple[int, ...]]:
        """The distinct variable laws (see :attr:`laws`), and each variable's index among them.

        A uniform law is keyed by its support, a weighted one by the bits of
        its probabilities, so two variables share a law only when their
        masses are equal bit for bit, the sign of a zero included.
        """
        ids: dict[int | bytes, int] = {}
        distinct = []
        index = []
        for v in self.variables:
            n = v.support_size
            uniform = v.is_uniform
            key = n if uniform else struct.pack(f"{n}d", *v.probs)
            k = ids.get(key)
            if k is None:
                k = ids[key] = len(distinct)
                masses = np.ones(n) if uniform else np.array(v.probs)
                masses.flags.writeable = False
                distinct.append((masses, n if uniform else 1))
            index.append(k)
        return tuple(distinct), tuple(index)

    @cached_property
    def laws(self) -> tuple[tuple[np.ndarray, int], ...]:
        """Each variable's law as ``(masses, norm)``: ``Pr[x = v] = masses[v] / norm``.

        A uniform variable has unit masses over ``norm = support``, so sums
        of products of masses count assignments exactly in float64; a
        weighted one has its probabilities as masses over ``norm = 1``.
        Variables of the same law share one read-only array.
        """
        distinct, index = self._law_index
        return tuple([distinct[k] for k in index])

    @cached_property
    def _cell_law_index(self) -> tuple[tuple[np.ndarray, ...], tuple[int, ...], tuple[int, ...]]:
        """The distinct product laws on truth-table cells, and each function's index among them.

        ``(masses, norms, index)``: function j's cells have the law
        ``masses[index[j]] / norms[index[j]]``. One law is built per
        distinct tuple of read-variable laws, as one read-only array.
        """
        distinct, law_of = self._law_index
        ids: dict[tuple[int, ...], int] = {}
        index = tuple([ids.setdefault(tuple([law_of[i] for i in fn.vars]), len(ids))
                       for fn in self.functions])
        laws = [([distinct[k][0] for k in key], math.prod(distinct[k][1] for k in key))
                for key in ids]
        cells = [_cell_masses(masses) for masses, _ in laws]
        for masses in cells:
            masses.flags.writeable = False
        return tuple(cells), tuple(norm for _, norm in laws), index

    @cached_property
    def _cell_laws(self) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
        """Each function's product law on its truth-table cells: ``(masses, norms)``.

        ``Pr[cell c of f_j] = masses[j][c] / norms[j]``. Functions whose read
        variables have the same laws, in order, share one read-only array
        (see :attr:`_cell_law_index`).
        """
        masses, norms, index = self._cell_law_index
        return tuple([masses[k] for k in index]), tuple([norms[k] for k in index])

    @cached_property
    def _one_probs(self) -> tuple[float, ...]:
        """Each function's ``Pr[f_j = 1]``, the mass of its one-cells over its norm.

        Computed once per distinct truth table and cell law: functions of the
        same shape share the value, bit for bit.
        """
        masses, norms, index = self._cell_law_index
        memo: dict[tuple[int, str], float] = {}
        per = []
        for fn, table, k in zip(self.functions, self.tables, index):
            key = (k, fn.truth_table)
            p = memo.get(key)
            if p is None:
                p = memo[key] = min(float(masses[k][table == 1].sum()) / norms[k], 1.0)
            per.append(p)
        return tuple(per)

    @cached_property
    def _partition(self) -> _Partition:
        """The dependency partition and the read width (see :func:`_partition`)."""
        return _partition(self)

    @cached_property
    def _classes(self) -> _Classes:
        """The classes of equal components and their representatives (see :func:`_classes`)."""
        return _classes(self)


def _product_law(spec: FamilySpec) -> tuple[list[np.ndarray], int]:
    """Every variable's masses (see :attr:`FamilySpec.laws`) and the product of their norms."""
    return [masses for masses, _ in spec.laws], math.prod(norm for _, norm in spec.laws)


def _cell_masses(masses: list[np.ndarray], lead: float = 1.0) -> np.ndarray:
    """``lead`` times the mass of every mixed-radix cell, first variable most significant.

    Multiplies in variable order, as a product over one assignment would.
    """
    cells = np.array([lead])
    for m in masses:
        cells = np.multiply.outer(cells, m).ravel()
    return cells


def read_width(spec: FamilySpec) -> int:
    """Smallest k such that every variable is read by at most k functions.

    Equals the maximum, over variables, of how many functions list that
    variable; 0 when no function reads anything. Counted once per family,
    in the pass that builds the dependency partition.
    """
    return spec._partition.read_width


def table_index(spec: FamilySpec, j: int, assignment: Sequence[int]) -> int:
    """Mixed-radix position of ``assignment`` restricted to function j's vars."""
    fn = spec.functions[j]
    idx = 0
    for i in fn.vars:
        v = assignment[i]
        size = spec.variables[i].support_size
        if not (0 <= v < size):
            raise DomainError(
                f"value {v!r} out of range for variable {spec.variables[i].name!r}"
            )
        idx = idx * size + v
    return idx


def eval_function(spec: FamilySpec, j: int, assignment: Sequence[int]) -> int:
    """Value of function ``j`` on a full assignment (one value per variable)."""
    if not (0 <= j < spec.num_functions):
        raise DomainError(f"function index {j} out of range")
    if len(assignment) != spec.num_variables:
        raise DomainError(
            f"assignment has {len(assignment)} values for {spec.num_variables} variables"
        )
    return int(spec.functions[j].truth_table[table_index(spec, j, assignment)])


class _Group(NamedTuple):
    """The functions of one arity and one lookup mode, laid out for one pass over a batch.

    Column ``g`` of ``reads`` and row ``g`` of the other arrays is the
    group's ``g``-th function, in function order. A function's truth-table
    position is mixed radix, its first read variable most significant, so
    Horner's rule finds it: the digit of the first read variable, then for
    each later one, times its support plus its digit. A table of at most 64
    cells is looked up as ``(word >> position) & 1``, bit ``c`` of the word
    being cell ``c``; any larger one as ``cells[offset + position]``.
    """

    reads: np.ndarray  # (arity, functions) intp: the variable read at each position
    radices: np.ndarray  # (arity - 1, functions, 1): the supports of positions 1 on
    words: np.ndarray | None  # (functions, 1): each word, of the narrowest type that holds them
    offsets: np.ndarray | None  # (functions, 1): each table's offset into ``cells``
    cells: np.ndarray | None  # the group's truth tables, concatenated, uint8 0/1
    positions: np.dtype  # the narrowest unsigned type that holds digits, radices and positions
    bits: np.dtype  # the looked-up bits: the type of ``word >> position``, or uint8
    count: np.dtype  # the group's bits added up: the bits' type, or wider to hold the count


class _Layout(NamedTuple):
    """A family's functions grouped by arity and lookup mode, kept by the family.

    ``ones`` counts the functions of no variable whose table is ``"1"``:
    their sum is the same on every assignment.
    """

    digits: np.dtype  # the narrowest unsigned type that holds every variable's values
    ones: int
    groups: tuple[_Group, ...]


class Component(NamedTuple):
    """One block of the dependency partition: function and variable indices."""

    functions: tuple[int, ...]
    variables: tuple[int, ...]


class _Partition(NamedTuple):
    """A family's dependency partition in compact form, kept by the family.

    Components are numbered by their smallest function index.
    """

    function_component: np.ndarray  # function -> component
    variable_component: np.ndarray  # variable -> component, -1 when unread
    components: int
    read_width: int


class _Classes(NamedTuple):
    """The partition's components grouped into classes, kept by the family.

    Two components are in one class when they are equal up to variable
    labels: the same read tuples, each variable relabelled to its rank
    among the component's variables, the same truth tables in function
    order, and the same variable laws (``FamilySpec._law_index``, which
    keys them by bits, so ``0.0`` and ``-0.0`` make two classes).
    Components of one class take the same elimination plan, made once on
    the class's ranked reads, and give bit-identical pmfs. Classes are
    numbered by their first component, which is kept as the class's
    representative. ``programs`` is the one field that changes: ``None``
    per class until ``readk.exact.sum_pmf`` first eliminates the class and
    puts its compiled plan there.
    """

    component_class: np.ndarray  # component -> class
    representatives: tuple[Component, ...]  # the first component of each class
    reads: tuple[tuple[tuple[int, ...], ...], ...]  # each class's read tuples, variables by rank
    plans: tuple[list, ...]  # each class's elimination plan (see _plan), on its ranked reads
    programs: list  # each class's compiled plan (readk.exact._Program), or None


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _index_array(values: list[int]) -> np.ndarray:
    return _read_only(np.array(values, dtype=np.int32))


def _layout(spec: FamilySpec) -> _Layout:
    """One pass over the functions that groups them by arity and by lookup mode.

    A group is word-mode when every table in it has at most 64 cells, each
    table decoded once, read backwards as its word in binary; otherwise its
    tables are concatenated. The positions' type holds the largest digit,
    every radix and, in table mode, the largest offset plus the largest
    position.
    """
    supports = [v.support_size for v in spec.variables]
    digits = np.min_scalar_type(max(supports) - 1)
    members: dict[tuple[int, bool], list[ReadFunction]] = {}
    for fn in spec.functions:
        members.setdefault((len(fn.vars), len(fn.truth_table) <= _WORD_CELLS), []).append(fn)
    # Every group's reads, position by position, and their supports: two
    # arrays that the groups view.
    flat = [fn.vars[p] for (arity, _), fns in members.items() for p in range(arity) for fn in fns]
    all_reads = _read_only(np.array(flat, np.intp))
    all_radices = _read_only(np.array([supports[i] for i in flat], np.min_scalar_type(max(supports))))
    ones = start = 0
    groups = []
    for (arity, small), fns in members.items():
        tables = [fn.truth_table for fn in fns]
        if not arity:
            ones += tables.count("1")
            continue
        n = len(fns)
        stop = start + arity * n
        reads, radices = all_reads[start:stop].reshape(arity, n), all_radices[start + n:stop]
        start = stop
        if small:
            values = [int(table[::-1], 2) for table in tables]
            words = _read_only(np.array(values, np.min_scalar_type(max(values)))[:, np.newaxis])
            # Positions and radices are below 65, so the digits' type holds them.
            positions, offsets, cells, bits = digits, None, None, np.promote_types(words.dtype, digits)
        else:
            words, bits = None, np.dtype(np.uint8)
            bounds = list(itertools.accumulate(map(len, tables), initial=0))
            cells = _read_only(np.frombuffer("".join(tables).encode("ascii"), np.uint8) - ord("0"))
            # The last bound itself, not only the largest position: a radix may equal it.
            positions = np.promote_types(digits, np.min_scalar_type(bounds.pop()))
            offsets = _read_only(np.array(bounds, positions)[:, np.newaxis])
        if radices.dtype != positions:
            radices = _read_only(radices.astype(positions))
        count = np.promote_types(bits, np.min_scalar_type(n))
        groups.append(_Group(reads, radices.reshape(arity - 1, n, 1), words, offsets, cells,
                             positions, bits, count))
    return _Layout(digits, ones, tuple(groups))


def _partition(spec: FamilySpec) -> _Partition:
    """One union-find pass over the functions' read tuples, with path halving.

    A function that reads nothing is a component of its own.
    """
    reads = [fn.vars for fn in spec.functions]
    parent = list(range(spec.num_variables))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for read in reads:
        if len(read) > 1:
            a = root(read[0])
            for i in read[1:]:
                b = root(i)
                if b != a:
                    parent[b] = a
    counts = cover_multiplicity(reads, spec.num_variables)
    roots = list(map(root, range(spec.num_variables)))
    # A function that reads nothing keys its own component by -1 - j.
    ids: dict[int, int] = {}
    function_component = [
        ids.setdefault(roots[read[0]] if read else -1 - j, len(ids)) for j, read in enumerate(reads)
    ]
    variable_component = [ids[r] if n else -1 for r, n in zip(roots, counts)]
    return _Partition(
        _index_array(function_component),
        _index_array(variable_component),
        len(ids),
        max(counts, default=0),
    )


def _members(part: _Partition) -> tuple[list[list[int]], list[list[int]]]:
    """Each component's function and variable indices, in increasing order."""
    functions: list[list[int]] = [[] for _ in range(part.components)]
    variables: list[list[int]] = [[] for _ in range(part.components)]
    for j, c in enumerate(part.function_component.tolist()):
        functions[c].append(j)
    for i, c in enumerate(part.variable_component.tolist()):
        if c >= 0:
            variables[c].append(i)
    return functions, variables


def _classes(spec: FamilySpec) -> _Classes:
    """One pass over the components of :attr:`FamilySpec._partition`, keying each by its class.

    Then one :func:`_plan` per class, on its ranked reads.
    """
    functions, variables = _members(spec._partition)
    rank = [0] * spec.num_variables
    for members in variables:
        for n, i in enumerate(members):
            rank[i] = n
    _, law_of = spec._law_index
    reads = [fn.vars for fn in spec.functions]
    tables = [fn.truth_table for fn in spec.functions]
    classes: dict[tuple, int] = {}
    component_class = []
    representatives = []
    for fns, vs in zip(functions, variables):
        ranked = tuple([tuple([rank[i] for i in reads[j]]) for j in fns])
        key = (ranked, tuple([tables[j] for j in fns]), tuple([law_of[i] for i in vs]))
        c = classes.setdefault(key, len(classes))
        if c == len(representatives):
            representatives.append(Component(tuple(fns), tuple(vs)))
        component_class.append(c)
    class_reads = tuple([ranked for ranked, _, _ in classes])  # keys in class order
    return _Classes(_index_array(component_class), tuple(representatives), class_reads,
                    tuple([_plan(ranked) for ranked in class_reads]), [None] * len(class_reads))


def _plan(reads: Sequence[Sequence[int]]) -> list[tuple[list[int], list[int], list[int], int]]:
    """A component's bucket elimination plan, in greedy min-degree order; builds no array.

    Factor ids number the functions in the order of ``reads``, then the
    message of step ``r`` as ``len(reads) + r``. Each step is ``(inputs,
    scope, summed, length)``: the ids of the factors it multiplies, in id
    order; the sorted variables they span; the variables it sums out; and
    its sum-axis length, 1 plus the number of functions beneath it.
    ``adj`` holds each variable's closed neighbourhood: the variables a
    factor left shares with it, itself included. Each step takes a variable
    of fewest neighbours, ties by smallest index, from a heap with lazy
    deletion: its scope is that neighbourhood, its inputs the factors left
    that read it. The first variable whose bucket spans all left stops the
    loop, and the last step takes every factor left and sums out its scope.
    """
    adj = {i: set() for i in itertools.chain.from_iterable(reads)}
    readers: dict[int, list[int]] = {i: [] for i in adj}
    for f, read in enumerate(reads):
        for i in read:
            adj[i].update(read)
            readers[i].append(f)
    left = dict.fromkeys(range(len(reads)), 1)  # factor id -> functions beneath it
    heap = [(len(nbrs), i) for i, nbrs in adj.items()]
    heapq.heapify(heap)
    steps = []
    while heap:
        size, v = heapq.heappop(heap)
        nbrs = adj.get(v)
        if nbrs is None or size != len(nbrs):  # eliminated, or stale
            continue
        if len(nbrs) == len(adj):
            break
        del adj[v]
        inputs = [f for f in readers.pop(v) if f in left]
        beneath = sum([left.pop(f) for f in inputs])
        message = len(reads) + len(steps)
        left[message] = beneath
        steps.append((inputs, sorted(nbrs), [v], 1 + beneath))
        nbrs.discard(v)
        for u in nbrs:
            adj[u] |= nbrs
            adj[u].discard(v)
            readers[u].append(message)
            heapq.heappush(heap, (len(adj[u]), u))
    scope = sorted(adj)
    steps.append((list(left), scope, scope, 1 + sum(left.values())))
    return steps


def dependency_components(spec: FamilySpec) -> tuple[Component, ...]:
    """Partition functions into blocks that share no variables.

    Two functions land in the same block iff their variable sets are
    connected through shared variables. Each read variable belongs to
    exactly one block; unread variables belong to none. Blocks are ordered
    by their smallest function index. Built from the partition the family
    keeps (:attr:`FamilySpec._partition`); the blocks themselves are not kept.
    """
    functions, variables = _members(spec._partition)
    return tuple([Component(tuple(f), tuple(v)) for f, v in zip(functions, variables)])


# --- file format ------------------------------------------------------------

def family_to_json(spec: FamilySpec) -> str:
    """Serialize to the JSON family format (always writes explicit probs)."""
    obj = {
        "variables": [
            {"name": v.name, "support": v.support_size, "probs": list(v.probs)}
            for v in spec.variables
        ],
        "functions": [
            {"name": f.name, "vars": list(f.vars), "truth_table": f.truth_table}
            for f in spec.functions
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def _expect(value, what: str, kind: type, item: type | tuple[type, ...] = object):
    """``value`` if of JSON type ``kind``, a list's entries of ``item``; ValidationError otherwise.

    A JSON boolean is neither a number nor anything else expected here.
    """
    def fits(x, t) -> bool:
        return isinstance(x, t) and not isinstance(x, bool)

    if not fits(value, kind) or (kind is list and not all(fits(x, item) for x in value)):
        raise ValidationError(f"{what} has the wrong JSON type: {json.dumps(value)}")
    return value


def _expect_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    extra = set(_expect(obj, what, dict)) - allowed
    if extra:
        raise ValidationError(f"{what}: unknown keys {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{what}: missing keys {sorted(missing)}")


def family_from_json(text: str) -> FamilySpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed family file: {e}") from None
    _expect_keys(obj, {"variables", "functions"}, {"variables", "functions"}, "family")
    variables = []
    for entry in _expect(obj["variables"], "family: variables", list):
        _expect_keys(entry, {"name", "support", "probs"}, {"name", "support"}, "variable")
        name = _expect(entry["name"], "variable: name", str)
        support = _expect(entry["support"], f"variable {name!r}: support", int)
        probs = _expect(entry.get("probs", []), f"variable {name!r}: probs", list, (int, float))
        variables.append(Variable(name, support, tuple(probs)))
    functions = []
    for entry in _expect(obj["functions"], "family: functions", list):
        _expect_keys(
            entry, {"name", "vars", "truth_table"}, {"name", "vars", "truth_table"}, "function"
        )
        name = _expect(entry["name"], "function: name", str)
        read = _expect(entry["vars"], f"function {name!r}: vars", list, int)
        table = _expect(entry["truth_table"], f"function {name!r}: truth_table", str)
        functions.append(ReadFunction(name, tuple(read), table))
    return FamilySpec(tuple(variables), tuple(functions))


def save_family(spec: FamilySpec, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(family_to_json(spec))


def load_family(path: str | os.PathLike) -> FamilySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_json(fh.read())
