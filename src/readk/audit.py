"""Numeric verification of the entropy machinery behind the tail bound.

The central object is the proof trace: for a concrete uniform-variable
family and a tail event it evaluates, in order,

1. ``-ln Pr[tail]``,
2. the Shearer step ``(1/k) sum_j D(mu_j^tail || mu_j)`` over the
   projections onto each function's variable set,
3. the data-processing step ``(1/k) sum_j KL(q_j || p_j)`` through the
   functions themselves,
4. the convexity step ``(r/k) KL(q || p)`` at the averaged marginals,
5. the closed-form exponent ``(r/k) KL(t/r || p)``,

and checks that the sequence is non-increasing. The final term equals the
log-space magnitude of the closed-form tail bound, so a valid chain
re-derives the bound on that instance; per-step gaps show where it is
loose. Shearer's entropy inequality and its divergence corollary are also
exposed directly for arbitrary joints and covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AuditError, DomainError
from .exact import TailQuery, _check_guard, _Space, enumeration_guard, function_marginals
from .family import FamilySpec, read_width
from .info_theory import Distribution, Nats, entropy, kl_binary, project

#: Relative slack allowed per chain step (chains many floating-point ops).
CHAIN_REL_TOL = 1e-9

#: Absolute slack for the standalone entropy/divergence inequalities.
GAP_TOL = 1e-9


def _approx_ge(a: float, b: float, rel_tol: float) -> bool:
    return b - a <= rel_tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class ProofTrace:
    """The five chain quantities, reported even when every step passes."""

    neg_log_tail: Nats
    shearer_term: Nats
    dpi_term: Nats
    convexity_term: Nats
    final_term: Nats

    def terms(self) -> tuple[Nats, Nats, Nats, Nats, Nats]:
        return (
            self.neg_log_tail,
            self.shearer_term,
            self.dpi_term,
            self.convexity_term,
            self.final_term,
        )

    def chain_holds(self, rel_tol: float = CHAIN_REL_TOL) -> bool:
        """True when every adjacent pair is non-increasing within slack."""
        t = self.terms()
        return all(_approx_ge(t[i], t[i + 1], rel_tol) for i in range(len(t) - 1))


def _kl_vs_uniform(probs: Sequence[float], size: int) -> float:
    """``D(d || uniform-over-size)`` for a law given only on its support."""
    return max(math.fsum(p * math.log(p * size) for p in probs if p > 0.0), 0.0)


def shearer_entropy_gap(
    joint: Distribution, cover: Sequence[Sequence[int]], k: int
) -> tuple[Nats, Nats]:
    """Both sides of ``k H(joint) <= sum_j H(joint projected to P_j)``.

    Requires every coordinate to be covered at least ``k`` times. Raises
    :class:`AuditError` if the inequality fails beyond ``GAP_TOL``.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"k must be a non-negative int, got {k!r}")
    widths = {len(a) for a in joint.outcomes if isinstance(a, tuple)}
    if len(widths) != 1:
        raise DomainError("joint outcomes must be tuples of one common length")
    width = widths.pop()
    sets = [tuple(sorted(set(p))) for p in cover]
    multiplicity = [0] * width
    for p in sets:
        for i in p:
            if not (0 <= i < width):
                raise DomainError(f"cover coordinate {i} out of range")
            multiplicity[i] += 1
    short = [i for i, c in enumerate(multiplicity) if c < k]
    if short:
        raise DomainError(f"coordinates {short} are covered fewer than k={k} times")
    lhs = k * entropy(joint)
    rhs = math.fsum(entropy(project(joint, p)) for p in sets)
    if lhs > rhs + GAP_TOL:
        raise AuditError(f"entropy inequality violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def _validate_uniform_assignment_law(spec: FamilySpec, d: Distribution) -> None:
    if not all(v.is_uniform for v in spec.variables):
        raise DomainError("this audit applies to families of uniform variables only")
    m = spec.num_variables
    for a in d.outcomes:
        if not isinstance(a, tuple) or len(a) != m:
            raise DomainError(f"outcome {a!r} is not an assignment of {m} variables")
        for i, v in enumerate(a):
            if not (0 <= v < spec.variables[i].support_size):
                raise DomainError(f"outcome {a!r}: value {v!r} out of range at position {i}")


def shearer_kl_gap(spec: FamilySpec, conditioned: Distribution) -> tuple[Nats, Nats]:
    """Both sides of the divergence corollary on a concrete family.

    For variables uniform on their supports and any law over full
    assignments: ``k D(law || uniform product)`` versus the sum over
    functions of the divergence of the projected law from the uniform law
    on that function's variables, with ``k`` the family's read width.
    Raises :class:`AuditError` when the left side drops below the right
    beyond ``GAP_TOL``.
    """
    _validate_uniform_assignment_law(spec, conditioned)
    k = read_width(spec)
    total = math.prod(v.support_size for v in spec.variables)
    lhs = k * _kl_vs_uniform(conditioned.probs, total)
    rhs_terms = []
    for fn in spec.functions:
        size = math.prod(spec.variables[i].support_size for i in fn.vars)
        rhs_terms.append(_kl_vs_uniform(project(conditioned, fn.vars).probs, size))
    rhs = math.fsum(rhs_terms)
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
    guard = enumeration_guard(guard)
    space = _Space(spec, range(spec.num_variables))
    _check_guard(space.total, guard, "family")
    t = query.effective_threshold()
    outcomes: list[tuple[int, ...]] = []
    masses: list[np.ndarray] = []
    for idx in space.chunks():
        digits = space.digits(idx)
        s = np.zeros(len(idx), dtype=np.int64)
        for j in range(spec.num_functions):
            s += space.function_values(j, digits, len(idx))
        mask = s >= t if query.direction == "ge" else s <= t
        values = np.stack([digits[i] for i in range(spec.num_variables)], axis=1)[mask]
        outcomes.extend(map(tuple, values.tolist()))
        w = space.weights(digits, len(idx))[mask]
        masses.append(w)
    weights = np.concatenate(masses) if masses else np.zeros(0)
    z = float(weights.sum())
    if not outcomes or z <= 0.0:
        raise DomainError("conditioning event has probability zero")
    return Distribution(tuple(outcomes), tuple(float(w) / z for w in weights))


def proof_trace(
    spec: FamilySpec, query: TailQuery, guard: int | None = None, check: bool = True
) -> ProofTrace:
    """Evaluate the whole chain on one uniform-variable family and tail event.

    With ``check=True`` (the default) an :class:`AuditError` is raised as
    soon as some step of the chain is violated beyond ``CHAIN_REL_TOL``;
    ``check=False`` always returns the trace so callers can report it.
    Raises :class:`ResourceError` when the family spans more assignments
    than the guard.
    """
    if not all(v.is_uniform for v in spec.variables):
        raise DomainError("proof traces apply to families of uniform variables only")
    guard = enumeration_guard(guard)
    space = _Space(spec, range(spec.num_variables))
    _check_guard(space.total, guard, "family")

    r = spec.num_functions
    k = max(read_width(spec), 1)
    t = query.effective_threshold()
    table_sizes = [
        math.prod(spec.variables[i].support_size for i in fn.vars) for fn in spec.functions
    ]
    proj_counts = [np.zeros(size, dtype=np.int64) for size in table_sizes]
    hit_counts = np.zeros(r, dtype=np.int64)
    tail_count = 0
    for idx in space.chunks():
        digits = space.digits(idx)
        n = len(idx)
        tbl_idx = [space.table_indices(j, digits, n) for j in range(r)]
        s = np.zeros(n, dtype=np.int64)
        values = []
        for j in range(r):
            values.append(spec.tables[j][tbl_idx[j]])
            s += values[-1]
        mask = s >= t if query.direction == "ge" else s <= t
        tail_count += int(np.count_nonzero(mask))
        for j in range(r):
            proj_counts[j] += np.bincount(tbl_idx[j][mask], minlength=table_sizes[j])
            hit_counts[j] += int(values[j][mask].sum())
    if tail_count == 0:
        raise DomainError("conditioning event has probability zero")

    neg_log_tail = -math.log(tail_count / space.total)
    proj_divs = []
    for j in range(r):
        pr = proj_counts[j][proj_counts[j] > 0] / tail_count
        proj_divs.append(math.fsum(p * math.log(p * table_sizes[j]) for p in pr))
    shearer_term = math.fsum(proj_divs) / k

    p_js = function_marginals(spec).per_function
    q_js = tuple(float(c) / tail_count for c in hit_counts)
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
