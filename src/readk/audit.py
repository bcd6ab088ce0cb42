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
5. the closed-form exponent ``(r/k) KL(p +/- eps || p)`` with
   ``eps = bounds._deviation(t, r, p, tail)``,

and checks that the sequence is non-increasing. The final term is
``-bounds._log_bound`` at the trace's threshold, the exponent that
``read_k_tail_bound`` and ``readk verify`` compute, bit for bit (0 when
the event does not deviate from the mean), so a valid chain re-derives
the bound on that instance; per-step gaps show where it is loose.
Shearer's entropy inequality and its divergence corollary are also
exposed directly for arbitrary joints and covers. Every audit holds for
any product law, uniform or weighted: the divergence corollary needs only
independent coordinates, each read at most k times.

Both Shearer audits merge probabilities by one group-by per read set,
:func:`_grouped`, on one kind of integer key, mixed-radix codes of a
set's coordinates (``readk.exact._mixed_radix``, the rule that also
gives the scan's truth-table positions): a stable sort of the keys, a
gather of the probabilities, and one ``math.fsum`` per group, so every
merged mass is correctly rounded and equals what the label group-by of
:mod:`readk.info_theory` gives on the same outcomes. Each group-by is made
once per law and coordinate tuple and kept on the law, as each group's
first outcome and its sum: the entropy inequality reads the sums of each
cover set, the divergence corollary those of each function's variables,
and takes each group's truth-table position by the same rule from the
values of its first outcome. ``readk shearer`` passes the read sets to
both, so the law is grouped once. The sums over the whole law, the joint
entropy and the full-law divergence, go through :func:`_log_sum`: one
``math.log`` per distinct argument, the products in numpy and one
``math.fsum`` over them, so they equal the per-outcome sums of
:mod:`readk.info_theory` bit for bit. The law that :func:`conditional_law` returns keeps the scan's
digits, its probabilities as an array and the scan's product-law masses,
so its outcomes are never parsed back from tuples and the corollary
multiplies no masses again for the family it was conditioned on; any
other law is coded from its outcomes, equal values (``1``, ``1.0`` and
``True``) sharing a code, and its probabilities become an array once.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .bounds import _deviation, _log_bound
from .errors import AuditError, DomainError, _check_int
from .exact import _DIRECTIONS, TailQuery, function_marginals
from .exact import _mixed_radix, _scan_in_tail, _scan_tail, _tail_marginals
from .family import FamilySpec, _product_law, read_width
from .info_theory import Distribution, Nats, _entropy_sum, _kl_sum, cover_multiplicity
from .info_theory import kl_binary

#: Relative slack allowed per chain step (chains many floating-point ops).
CHAIN_REL_TOL = 1e-9

#: Absolute slack for the standalone entropy/divergence inequalities.
GAP_TOL = 1e-9


@dataclass(frozen=True)
class ProofTrace:
    """The five chain quantities, reported even when every step passes.

    ``final_term`` is ``-read_k_tail_bound(...).log_bound`` at the trace's
    threshold and deviation, bit for bit, or 0 without a deviation.
    """

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
    if k == 0:
        lhs = 0.0  # 0 * H(joint), as H(joint) is finite
    else:
        probs = _prob_array(joint)
        positive = probs[probs > 0.0]
        lhs = k * max(_log_sum(-positive, positive), 0.0)
    rhs = math.fsum(_entropy_sum(sums) for _, sums in _grouped(joint, sets))
    if lhs > rhs + GAP_TOL:
        raise AuditError(f"entropy inequality violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def _log_sum(weights: np.ndarray, args: np.ndarray) -> float:
    """``math.fsum(weights * ln(args))``, with one ``math.log`` per distinct value of ``args``.

    The arguments are sorted once and each run of equal values takes its
    log from ``math.log``; the weights follow the sort. numpy multiplies
    as Python floats do and ``math.fsum`` is correctly rounded in any
    order, so the sum equals the per-element one bit for bit.
    """
    order = np.argsort(args)
    ordered = args[order]
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    logs = np.fromiter(map(math.log, ordered[starts].tolist()), float, len(starts))
    terms = weights[order] * np.repeat(logs, np.diff(starts, append=len(ordered)))
    return math.fsum(memoryview(terms))


def _array_kl_sum(probs: np.ndarray, masses: np.ndarray, norm: int) -> float:
    """:func:`readk.info_theory._kl_sum` on arrays, through :func:`_log_sum`, with its bits."""
    positive = probs > 0.0
    p, masses = probs[positive], masses[positive]
    if (masses == 0.0).any():
        return math.inf
    # Rounds as the scalar p * norm / mass does, and overflows to inf as it
    # does, without a warning.
    with np.errstate(over="ignore"):
        args = p * float(norm) / masses
    return _log_sum(p, args)


def _prob_array(law: Distribution) -> np.ndarray:
    """``law.probs`` as a read-only array: kept by :func:`conditional_law`, else made once per law."""
    if law._prob_array is None:
        probs = np.array(law.probs)
        probs.flags.writeable = False
        law.__dict__["_prob_array"] = probs
    return law._prob_array


def _grouped(
    law: Distribution, sets: Sequence[tuple[int, ...]]
) -> list[tuple[np.ndarray, tuple[float, ...]]]:
    """Each set's group-by of ``law``: ``(first, sums)`` per group of equal values on the set.

    ``first`` holds the index of each group's first outcome and ``sums``
    the ``math.fsum`` of its probabilities, groups in ascending key order.
    The one group-by of the audits, made once per law and coordinate tuple
    and kept on the law (:attr:`Distribution._groups`): a stable sort of
    the set's mixed-radix keys (``readk.exact._mixed_radix``, in the
    narrowest unsigned type that holds them, so the sort is a radix sort
    wherever they fit in 16 bits), a gather of the probabilities in that
    order and one correctly rounded sum per run of equal keys, so the sums
    do not depend on the outcome order or on the keys' radices.
    """
    kept = law._groups
    missing = [p for p in dict.fromkeys(sets) if p not in kept]
    if missing:
        probs = _prob_array(law)
        codes = _coordinate_codes(law, sorted({i for p in missing for i in p}))
        for p in missing:
            keys = _mixed_radix([codes[c][0] for c in p], [codes[c][1] for c in p], len(probs))
            order = np.argsort(keys, kind="stable")
            ordered = keys[order]
            bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), len(keys)]
            first = order[bounds[:-1]]
            first.flags.writeable = False
            # a memoryview yields each float as fsum reads it: no list of them all
            gathered = memoryview(probs[order])
            kept[p] = first, tuple([math.fsum(gathered[a:b]) for a, b in zip(bounds, bounds[1:])])
    return [kept[p] for p in sets]


def _coordinate_codes(
    joint: Distribution, coords: Sequence[int]
) -> dict[int, tuple[np.ndarray, int]]:
    """Each listed coordinate's values as ``(codes, radix)``, codes in ``[0, radix)``.

    Equal values get equal codes, and only they do. The kept digits of a
    conditioned law are codes already. Any other law's values are coded in
    order of first appearance, through a dict, so they group by equality as
    tuples do.
    """
    if joint._digits is not None:
        return {c: (joint._digits[c], int(joint._digits[c].max()) + 1) for c in coords}
    codes = {}
    for c in coords:
        index: dict = {}
        column = [index.setdefault(a[c], len(index)) for a in joint.outcomes]
        codes[c] = (np.array(column, dtype=np.int64), len(index))
    return codes


def _assignment_values(spec: FamilySpec, d: Distribution) -> np.ndarray:
    """The law's outcomes as in-range values, one row per variable (the scan's digits layout)."""
    m = spec.num_variables
    if d._tuple_width != m:
        raise DomainError(f"outcomes are not assignments of {m} variables")
    if d._digits is not None:
        values = d._digits
    else:
        # numpy reads a boolean as an integer beside integers, and rejects
        # only a column of nothing else: both are found here, by position.
        flagged = next(((a, i) for a in d.outcomes for i, x in enumerate(a)
                        if isinstance(x, (bool, np.bool_))), None)
        if flagged is not None:
            a, i = flagged
            raise DomainError(f"outcome {a!r}: value {a[i]!r} is not an integer at position {i}")
        values = np.array(list(zip(*d.outcomes)))
    if values.dtype.kind not in "iu":
        raise DomainError("outcome values must be integers")
    out = (values < 0) | (values >= [[v.support_size] for v in spec.variables])
    if out.any():
        row, i = np.argwhere(out.T)[0]
        a = d.outcomes[row]
        raise DomainError(f"outcome {a!r}: value {a[i]!r} out of range at position {i}")
    return values


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
    masses, norm = _product_law(spec)
    if conditioned._family is spec:
        mass = conditioned._masses  # the scan's, multiplied in the same order
    else:
        mass = math.prod(mass_i[row] for mass_i, row in zip(masses, values))
    divergence = max(_array_kl_sum(_prob_array(conditioned), mass, norm), 0.0)
    # k = 0 leaves every function without variables: both sides are 0.
    lhs = k * divergence if k else 0.0
    sizes = [v.support_size for v in spec.variables]
    groups = _grouped(conditioned, [fn.vars for fn in spec.functions])
    terms = []
    for fn, (first, sums), cell_masses, cell_norm in zip(spec.functions, groups, *spec._cell_laws):
        # Each group's truth-table position, from the values of its first outcome.
        position = _mixed_radix([values[i, first] for i in fn.vars], [sizes[i] for i in fn.vars],
                                len(first))
        terms.append(max(_kl_sum(sums, cell_masses[position].tolist(), cell_norm), 0.0))
    rhs = math.fsum(terms)
    if lhs < rhs - GAP_TOL:
        raise AuditError(f"divergence inequality violated: {lhs!r} < {rhs!r}")
    return lhs, rhs


def conditional_law(
    spec: FamilySpec, query: TailQuery, guard: int | None = None
) -> Distribution:
    """Exact law of the full assignment conditioned on the tail event.

    Outcomes are the surviving assignment tuples in lexicographic order.
    For the Shearer audits the law also keeps, as read-only arrays outside
    its fields, the outcomes as the scan's digits, its probabilities, and
    each outcome's product-law mass from the scan together with ``spec``,
    the family those masses belong to; equality, ``repr`` and ``asdict``
    ignore them (see :meth:`Distribution._trusted`). Raises
    :class:`ResourceError` when the family spans more assignments than the
    guard.
    """
    kept_digits, kept_masses = zip(*_scan_in_tail(spec, query, guard))
    weights = np.concatenate(kept_masses)
    z = float(weights.sum())
    if z <= 0.0:
        raise DomainError("conditioning event has probability zero")
    values = np.concatenate(kept_digits, axis=1)
    del kept_digits  # the chunks' copies go before the outcome tuples are built
    outcomes = tuple(zip(*values.tolist()))
    probs = weights / z  # made after the outcomes, past the peak that building them makes
    for kept in (values, weights, probs):
        kept.flags.writeable = False
    # The scan yields distinct assignments, and weights / z are finite and
    # non-negative with a sum of one up to rounding: nothing left to check.
    return Distribution._trusted(outcomes, tuple(probs.tolist()), values, probs, weights, spec)


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

    _, norm = _product_law(spec)
    neg_log_tail = -math.log(mass / norm) + 0.0  # normalize -0.0 on a sure event
    shearer_term = math.fsum(_kl_sum((c / mass).tolist(), masses.tolist(), cell_norm)
                             for c, masses, cell_norm in zip(cells, *spec._cell_laws)) / k

    p_js, p_bar = function_marginals(spec)
    q_js = _tail_marginals(spec, cells)
    dpi_term = math.fsum(kl_binary(q, p) for q, p in zip(q_js, p_js)) / k

    q_bar = math.fsum(q_js) / r
    convexity_term = (r / k) * kl_binary(q_bar, p_bar)

    # An event on the mean's side ends the chain in a vacuous 0. So does a
    # sure event past [0, r] (``ge`` below 0, ``le`` above r): the guard
    # keeps it from _deviation, which rejects such a threshold.
    tail = next(tail for tail, d in _DIRECTIONS.items() if d == query.direction)
    eps = _deviation(t, r, p_bar, tail) if 0 <= t <= r else 0.0
    final_term = -_log_bound(r, k, p_bar, eps, tail) if eps > 0 else 0.0

    trace = ProofTrace(neg_log_tail, shearer_term, dpi_term, convexity_term, final_term)
    if check and not trace.chain_holds():
        raise AuditError(f"proof chain violated: {trace.terms()!r}")
    return trace
