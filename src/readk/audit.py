"""Numeric verification of the entropy machinery behind the tail bound.

The central object is the proof trace: for a concrete family and a tail
event it evaluates, in order,

1. ``-ln Pr[tail]``,
2. the Shearer step ``(1/k) sum_j D(mu_j^tail || mu_j)`` over the
   projections onto each function's variable set, where ``mu_j`` is the
   product law of those variables and ``mu_j^tail`` the projection of the
   law conditioned on the tail,
3. the data-processing step ``(1/k) sum_j KL(q_j || p_j)`` through the
   functions themselves,
4. the convexity step ``(r/k) KL(q || p)`` at the averaged marginals,
5. the closed-form exponent ``(r/k) KL(t/r || p)``,

and checks that the sequence is non-increasing. The final term equals the
log-space magnitude of the closed-form tail bound, so a valid chain
re-derives the bound on that instance; per-step gaps show where it is
loose. Shearer's entropy inequality and its divergence corollary are also
exposed directly for arbitrary joints and covers. Every audit holds for
any product law, uniform or weighted: the divergence corollary needs only
independent coordinates, each read at most k times.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .errors import AuditError, DomainError, _check_int
from .exact import TailQuery, function_marginals
from .exact import _in_tail, _scan, _scan_tail, _table_positions, _tail_marginals
from .family import FamilySpec, _product_law, read_width
from .info_theory import Distribution, Nats, _group_sums, _kl_sum, cover_multiplicity
from .info_theory import entropy, kl_binary, project

#: Relative slack allowed per chain step (chains many floating-point ops).
CHAIN_REL_TOL = 1e-9

#: Absolute slack for the standalone entropy/divergence inequalities.
GAP_TOL = 1e-9


@dataclass(frozen=True)
class ProofTrace:
    """The five chain quantities, reported even when every step passes."""

    neg_log_tail: Nats
    shearer_term: Nats
    dpi_term: Nats
    convexity_term: Nats
    final_term: Nats

    def terms(self) -> tuple[Nats, Nats, Nats, Nats, Nats]:
        return astuple(self)

    def chain_holds(self, rel_tol: float = CHAIN_REL_TOL) -> bool:
        """True when every adjacent pair is non-increasing within slack."""
        t = self.terms()
        return all(b - a <= rel_tol * max(1.0, abs(a), abs(b)) for a, b in zip(t, t[1:]))


def shearer_entropy_gap(
    joint: Distribution, cover: Sequence[Sequence[int]], k: int
) -> tuple[Nats, Nats]:
    """Both sides of ``k H(joint) <= sum_j H(joint projected to P_j)``.

    Requires every coordinate to be covered at least ``k`` times. Raises
    :class:`AuditError` if the inequality fails beyond ``GAP_TOL``.
    """
    _check_int(k, "k", minimum=0)
    sets = [tuple(dict.fromkeys(p)) for p in cover]
    multiplicity = cover_multiplicity(sets, joint._tuple_width)
    short = [i for i, c in enumerate(multiplicity) if c < k]
    if short:
        raise DomainError(f"coordinates {short} are covered fewer than k={k} times")
    lhs = k * entropy(joint)
    rhs = math.fsum(entropy(project(joint, p)) for p in sets)
    if lhs > rhs + GAP_TOL:
        raise AuditError(f"entropy inequality violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def _assignment_values(spec: FamilySpec, d: Distribution) -> np.ndarray:
    """The law's outcomes as in-range values, one row per variable (the scan's digits layout)."""
    m = spec.num_variables
    if d._tuple_width != m:
        raise DomainError(f"outcomes are not assignments of {m} variables")
    values = np.array(list(zip(*d.outcomes)))
    if values.dtype.kind not in "iu":
        raise DomainError("outcome values must be integers")
    bad = np.argwhere(((values < 0) | (values >= [[v.support_size] for v in spec.variables])).T)
    if len(bad):
        row, i = bad[0]
        a = d.outcomes[row]
        raise DomainError(f"outcome {a!r}: value {a[i]!r} out of range at position {i}")
    return values


def _projected_divergences(spec: FamilySpec, cells: Sequence[Sequence[float]]) -> list[float]:
    """Unclamped ``D(cells[j] || product law of f_j's variables)``, over f_j's table cells."""
    return [_kl_sum(p, masses.tolist(), norm) for p, masses, norm in zip(cells, *spec._cell_laws)]


def shearer_kl_gap(spec: FamilySpec, conditioned: Distribution) -> tuple[Nats, Nats]:
    """Both sides of the divergence corollary on a concrete family.

    For the family's product law ``mu`` and any law ``nu`` over full
    assignments: ``k D(nu || mu)`` versus the sum over functions of
    ``D(nu_P || mu_P)``, the projections onto that function's variables,
    with ``k`` the family's read width. A divergence is ``+inf`` where
    ``nu`` puts mass on an outcome of probability zero under ``mu``.
    Raises :class:`AuditError` when the left side drops below the right
    beyond ``GAP_TOL``.
    """
    values = _assignment_values(spec, conditioned)
    k = read_width(spec)
    masses, norm = _product_law(spec, range(spec.num_variables))
    mass = math.prod(mass_i[row] for mass_i, row in zip(masses, values))
    divergence = max(_kl_sum(conditioned.probs, mass.tolist(), norm), 0.0)
    # k = 0 leaves every function without variables: both sides are 0.
    lhs = k * divergence if k else 0.0
    positions = _table_positions(spec, values)
    sums = [_group_sums(pos.tolist(), conditioned.probs) for pos in positions]
    cells = [[s.get(c, 0.0) for c in range(len(t))] for s, t in zip(sums, spec.tables)]
    rhs = math.fsum(max(d, 0.0) for d in _projected_divergences(spec, cells))
    if lhs < rhs - GAP_TOL:
        raise AuditError(f"divergence inequality violated: {lhs!r} < {rhs!r}")
    return lhs, rhs


def conditional_law(
    spec: FamilySpec, query: TailQuery, guard: int | None = None
) -> Distribution:
    """Exact law of the full assignment conditioned on the tail event.

    Outcomes are the surviving assignment tuples in lexicographic order.
    Raises :class:`ResourceError` when the family spans more assignments
    than the guard.
    """
    outcomes: list[tuple[int, ...]] = []
    kept: list[np.ndarray] = []
    for digits, _, sums, masses in _scan(spec, guard):
        mask = _in_tail(sums, query)
        outcomes.extend(zip(*digits[:, mask].tolist()))
        kept.append(masses[mask])
    weights = np.concatenate(kept)
    z = float(weights.sum())
    if z <= 0.0:
        raise DomainError("conditioning event has probability zero")
    return Distribution(tuple(outcomes), tuple((weights / z).tolist()))


def proof_trace(
    spec: FamilySpec, query: TailQuery, guard: int | None = None, check: bool = True
) -> ProofTrace:
    """Evaluate the whole chain on one family and tail event.

    With ``check=True`` (the default) an :class:`AuditError` is raised as
    soon as some step of the chain is violated beyond ``CHAIN_REL_TOL``;
    ``check=False`` always returns the trace so callers can report it.
    Raises :class:`ResourceError` when the family spans more assignments
    than the guard.
    """
    mass, cells = _scan_tail(spec, query, guard)
    r = spec.num_functions
    k = max(read_width(spec), 1)
    t = query.effective_threshold()

    _, norm = _product_law(spec, range(spec.num_variables))
    neg_log_tail = -math.log(mass / norm) + 0.0  # normalize -0.0 on a sure event
    projected = [(fn_cells / mass).tolist() for fn_cells in cells]
    shearer_term = math.fsum(_projected_divergences(spec, projected)) / k

    p_js = function_marginals(spec).per_function
    q_js = _tail_marginals(spec, cells)
    dpi_term = math.fsum(kl_binary(q, p) for q, p in zip(q_js, p_js)) / k

    p_bar = math.fsum(p_js) / r
    q_bar = math.fsum(q_js) / r
    ratio = r / k
    convexity_term = ratio * kl_binary(q_bar, p_bar)

    # Threshold ratio clamped to the mean when the event covers the mean's
    # side; the chain then ends in a vacuous 0 instead of leaving [0, 1].
    x = t / r
    target = max(x, p_bar) if query.direction == "ge" else max(min(x, p_bar), 0.0)
    final_term = ratio * kl_binary(min(target, 1.0), p_bar)

    trace = ProofTrace(neg_log_tail, shearer_term, dpi_term, convexity_term, final_term)
    if check and not trace.chain_holds():
        raise AuditError(f"proof chain violated: {trace.terms()!r}")
    return trace
