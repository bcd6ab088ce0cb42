"""Read-k families: independent finite variables plus Boolean read functions.

A family is ``m`` independent variables (finite supports, optionally
weighted) and ``r`` Boolean functions, each reading an ordered subset of
the variables through an explicit truth table. Truth tables are stored as
``'0'``/``'1'`` strings in mixed-radix row-major order: the first listed
variable is the most significant digit.

The JSON file format used across the package::

    {"variables": [{"name": "x1", "support": 2, "probs": [0.5, 0.5]}, ...],
     "functions": [{"name": "y1", "vars": [0, 1], "truth_table": "0110"}, ...]}

``probs`` may be omitted, meaning uniform. ``vars`` are 0-based indices
into ``variables``. Parsers reject wrong-length tables, unnormalized
probability vectors and fields of the wrong JSON type: a JSON boolean is
not a number, and ``truth_table`` must be a string.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .info_theory import _prob_vector


@dataclass(frozen=True)
class Variable:
    """One independent random variable with values ``0 .. support_size-1``."""

    name: str
    support_size: int
    probs: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        n = self.support_size
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"support_size must be a positive int, got {n!r}")
        probs = _prob_vector(self.probs or (1.0 / n,) * n, f"variable {self.name!r}", n)
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
            if len(set(fn.vars)) != len(fn.vars):
                raise ValidationError(f"function {fn.name!r}: duplicate variable indices")
            for i in fn.vars:
                if isinstance(i, bool) or not isinstance(i, int) or not (0 <= i < m):
                    raise ValidationError(f"function {fn.name!r}: variable index {i!r} out of range")
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
    def laws(self) -> tuple[tuple[np.ndarray, int], ...]:
        """Each variable's law as ``(masses, norm)``: ``Pr[x = v] = masses[v] / norm``.

        A uniform variable has unit masses over ``norm = support``, so sums
        of products of masses count assignments exactly in float64; a
        weighted one has its probabilities as masses over ``norm = 1``.
        """
        laws = []
        for v in self.variables:
            uniform = v.is_uniform
            masses = np.ones(v.support_size) if uniform else np.array(v.probs)
            masses.flags.writeable = False
            laws.append((masses, v.support_size if uniform else 1))
        return tuple(laws)


def cover_multiplicity(cover: Iterable[Sequence[int]], width: int) -> list[int]:
    """How many sets of ``cover`` hold each coordinate; DomainError outside ``[0, width)``."""
    counts = [0] * width
    for p in cover:
        for i in p:
            if not (0 <= i < width):
                raise DomainError(f"cover coordinate {i} out of range")
            counts[i] += 1
    return counts


def read_width(spec: FamilySpec) -> int:
    """Smallest k such that every variable is read by at most k functions.

    Equals the maximum, over variables, of how many functions list that
    variable; 0 when no function reads anything.
    """
    cover = (fn.vars for fn in spec.functions)
    return max(cover_multiplicity(cover, spec.num_variables), default=0)


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


class Component(NamedTuple):
    """One block of the dependency partition: function and variable indices."""

    functions: tuple[int, ...]
    variables: tuple[int, ...]


def dependency_components(spec: FamilySpec) -> tuple[Component, ...]:
    """Partition functions into blocks that share no variables.

    Two functions land in the same block iff their variable sets are
    connected through shared variables. Each read variable belongs to
    exactly one block; unread variables belong to none. Blocks are ordered
    by their smallest function index.
    """
    readers: list[list[int]] = [[] for _ in spec.variables]
    for j, fn in enumerate(spec.functions):
        for i in fn.vars:
            readers[i].append(j)
    seen = [False] * spec.num_functions
    components = []
    for start in range(spec.num_functions):
        if seen[start]:
            continue
        # Walk the block from its smallest function, so blocks come out in order.
        seen[start] = True
        stack, block, block_vars = [start], [], set()
        while stack:
            j = stack.pop()
            block.append(j)
            for i in set(spec.functions[j].vars) - block_vars:
                block_vars.add(i)
                for reader in readers[i]:
                    if not seen[reader]:
                        seen[reader] = True
                        stack.append(reader)
        components.append(Component(tuple(sorted(block)), tuple(sorted(block_vars))))
    return tuple(components)


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
        name = str(entry["name"])
        support = _expect(entry["support"], f"variable {name!r}: support", int)
        probs = _expect(entry.get("probs") or [], f"variable {name!r}: probs", list, (int, float))
        variables.append(Variable(name, support, tuple(probs)))
    functions = []
    for entry in _expect(obj["functions"], "family: functions", list):
        _expect_keys(
            entry, {"name", "vars", "truth_table"}, {"name", "vars", "truth_table"}, "function"
        )
        name = str(entry["name"])
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
