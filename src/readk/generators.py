"""Benchmark family constructions.

Two presets: the tight block construction (k copies each of independent
Bernoulli indicators, which saturates both the tail bound and the AND
bound), and seeded random families for soundness sweeps. Generation is a
pure function of its parameters and seed (PCG64 streams, fixed draw
order).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import DomainError, _check_int
from .family import FamilySpec, ReadFunction, Variable

#: Deterministic retry budget for rejected random draws.
_RETRY_BUDGET = 10_000


def _as_rational(p) -> Fraction:
    try:
        frac = Fraction(p)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise DomainError(f"cannot read {p!r} as a rational: {e}") from None
    if frac.denominator > 64:
        raise DomainError(
            f"p must be a rational with denominator <= 64, got {frac} "
            "(pass e.g. '1/3' rather than a rounded float)"
        )
    if not (0 <= frac <= 1):
        raise DomainError(f"p must lie in [0, 1], got {frac}")
    return frac


def gen_block_tight(k: int, blocks: int, p) -> FamilySpec:
    """k identical copies of each of ``blocks`` independent Bernoulli(p) bits.

    Function ``j = b*k + c`` reads variable ``b`` through the identity
    table, so the family has read width exactly ``k`` and its sum is ``k``
    times a binomial count. ``p`` is parsed as an exact rational with
    denominator at most 64.
    """
    _check_int(k, "k")
    _check_int(blocks, "blocks")
    frac = _as_rational(p)
    probs = (float(1 - frac), float(frac))
    variables = tuple(Variable(f"x{b}", 2, probs) for b in range(blocks))
    functions = tuple(
        ReadFunction(f"y{b * k + c}", (b,), "01")
        for b in range(blocks)
        for c in range(k)
    )
    return FamilySpec(variables, functions)


def gen_random_family(m: int, r: int, k: int, max_arity: int, seed: int) -> FamilySpec:
    """Seeded random family with read width at most k.

    Variables get uniform supports of size 2 or 3; each function reads a
    random set of 1..max_arity distinct variables, drawn against remaining
    per-variable capacity k (draws that cannot fit are rejected and
    retried, up to a fixed budget); truth tables are uniformly random.
    """
    for name, n in (("m", m), ("r", r), ("k", k), ("max_arity", max_arity)):
        _check_int(n, name)
    _check_int(seed, "seed", minimum=0)
    if max_arity > m:
        raise DomainError(f"max_arity {max_arity} exceeds the number of variables {m}")
    if r * max_arity > m * k:
        raise DomainError(
            f"infeasible: r*max_arity = {r * max_arity} exceeds total read capacity "
            f"m*k = {m * k}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    supports = [int(s) for s in rng.integers(2, 4, size=m)]
    variables = tuple(Variable(f"x{i}", supports[i]) for i in range(m))

    capacity = [k] * m
    functions = []
    retries = 0
    for j in range(r):
        while True:
            arity = int(rng.integers(1, max_arity + 1))
            available = [i for i in range(m) if capacity[i] > 0]
            if len(available) >= arity:
                break
            retries += 1
            if retries > _RETRY_BUDGET:
                raise DomainError("retry budget exhausted while drawing variable sets")
        chosen = sorted(int(i) for i in rng.choice(available, size=arity, replace=False))
        for i in chosen:
            capacity[i] -= 1
        table_len = 1
        for i in chosen:
            table_len *= supports[i]
        bits = rng.integers(0, 2, size=table_len)
        functions.append(
            ReadFunction(f"y{j}", tuple(chosen), "".join("1" if b else "0" for b in bits))
        )
    return FamilySpec(variables, tuple(functions))
