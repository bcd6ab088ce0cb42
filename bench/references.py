"""Independent reference answers that the benchmark checks readk against.

None of these call readk. Each is a closed form, or a small dynamic
program over the benchmark's own description of an input, so a wrong
answer from the package cannot also appear here.
"""

from __future__ import annotations

import math
from typing import Sequence


def half_binomial_pmf(n: int) -> list[float]:
    """Binomial(n, 1/2) pmf, exact in binary: ``comb(n, s) / 2**n``."""
    return [math.comb(n, s) / 2**n for s in range(n + 1)]


def binomial_log_pmf(n: int, p: float) -> list[float]:
    """Natural log of the Binomial(n, p) pmf, from ``math.lgamma``.

    Finite at every ``s`` for ``0 < p < 1``, also where the pmf itself
    is far below the smallest positive double.
    """
    log_p, log_q = math.log(p), math.log1p(-p)
    head = math.lgamma(n + 1)
    return [
        head - math.lgamma(s + 1) - math.lgamma(n - s + 1) + s * log_p + (n - s) * log_q
        for s in range(n + 1)
    ]


def chain_pmf(probs: Sequence[float], tables: Sequence[str]) -> list[float]:
    """Pmf of ``sum_j T_j(x_j, x_{j+1})`` for i.i.d. bits ``x_i ~ probs``.

    ``tables[j]`` is the 4-character truth table of link ``j``, indexed by
    ``2 x_j + x_{j+1}``. Transfer-matrix DP over (previous bit, partial sum).
    """
    # state[b][s] = Pr[current bit = b, partial sum = s]
    state = [[probs[0]], [probs[1]]]
    for table in tables:
        width = len(state[0]) + 1
        nxt = [[0.0] * width, [0.0] * width]
        for b in (0, 1):
            for b2 in (0, 1):
                step = int(table[2 * b + b2])
                for s, mass in enumerate(state[b]):
                    nxt[b2][s + step] += mass * probs[b2]
        state = nxt
    return [a + b for a, b in zip(*state)]


def tail_ge(pmf: Sequence[float], t: int) -> float:
    """``Pr[Y >= t]`` of a pmf indexed by the value of ``Y``."""
    return math.fsum(pmf[max(t, 0):])


def hoeffding_half_width(samples: int, alpha: float = 0.01) -> float:
    """Half-width of the two-sided ``1 - alpha`` Hoeffding interval."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))
