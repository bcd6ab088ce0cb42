"""Cross-validation of the vectorized engine against a scalar reference.

The reference path enumerates assignments with itertools.product and
evaluates functions one at a time through the scalar truth-table lookup,
so it shares no indexing or reduction code with the numpy engine.
"""

import bisect
import dataclasses
import heapq
import itertools
import math
import random
import re
import sys
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from readk.audit import _array_kl_sum, _log_sum, conditional_law, proof_trace
from readk.audit import shearer_entropy_gap, shearer_kl_gap
from readk.bounds import BoundQuery, read_k_tail_bound
from readk.errors import DomainError
from readk.exact import (
    _INT_COUNT_LIMIT,
    _KEY_LIMIT,
    _LOOKUP_CELLS,
    SumPmf,
    TailQuery,
    _check_guard,
    _convolve_in_order,
    _eliminate_pmf,
    _Lookup,
    _mixed_radix,
    _place,
    _Program,
    _times_poly,
    _verify_rows,
    conditional_function_marginals,
    enumeration_guard,
    function_marginals,
    sum_pmf,
    sum_pmf_enumerate,
    tail_prob,
)
from readk.family import (
    Component,
    FamilySpec,
    ReadFunction,
    Variable,
    _plan,
    dependency_components,
    eval_function,
    read_width,
    table_index,
)
from readk.generators import gen_block_tight, gen_random_family
from readk.info_theory import (
    Distribution,
    _entropy_sum,
    _kl_sum,
    conditional_entropy,
    cover_multiplicity,
    entropy,
    kl_binary,
    kl_divergence,
    project,
    push_forward,
)
from readk.sampler import _SAMPLE_CHUNK, _draw_values, _inverse_cdf, estimate_tail

from conftest import weighted_variant

EXACT_TOL = 1e-12


def reference_rows(spec):
    """Yield (assignment, weight, sum_of_function_values) scalar-style."""
    supports = [range(v.support_size) for v in spec.variables]
    for assignment in itertools.product(*supports):
        weight = 1.0
        for v, value in zip(spec.variables, assignment):
            weight *= v.probs[value]
        total = sum(
            eval_function(spec, j, assignment) for j in range(spec.num_functions)
        )
        yield assignment, weight, total


def reference_pmf(spec):
    pmf = [0.0] * (spec.num_functions + 1)
    for _, weight, total in reference_rows(spec):
        pmf[total] += weight
    return pmf


@pytest.mark.parametrize("seed", range(12))
def test_sum_pmf_matches_scalar_reference(seed):
    rng = np.random.default_rng(seed)
    spec = gen_random_family(m=5, r=5, k=3, max_arity=3, seed=seed)
    if seed % 2:
        spec = weighted_variant(spec, rng)
    got = sum_pmf(spec).probs
    want = reference_pmf(spec)
    assert all(abs(a - b) <= EXACT_TOL for a, b in zip(got, want))


@st.composite
def weighted_families(draw):
    """Small weighted families; functions read variables in any order."""
    variables = []
    for i in range(draw(st.integers(1, 5))):
        support = draw(st.integers(1, 3))
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=support, max_size=support))
        total = math.fsum(raw)
        variables.append(Variable(f"x{i}", support, tuple(x / total for x in raw)))
    functions = []
    for j in range(draw(st.integers(1, 5))):
        indices = st.integers(0, len(variables) - 1)
        read = draw(st.lists(indices, unique=True, max_size=min(3, len(variables))))
        size = math.prod(variables[i].support_size for i in read)
        table = draw(st.text(alphabet="01", min_size=size, max_size=size))
        functions.append(ReadFunction(f"y{j}", tuple(read), table))
    return FamilySpec(tuple(variables), tuple(functions))


@settings(max_examples=150, deadline=None)
@given(weighted_families())
def test_elimination_matches_enumeration_and_scalar_reference(spec):
    got = sum_pmf(spec).probs
    flat = sum_pmf_enumerate(spec).probs
    want = reference_pmf(spec)
    assert len(got) == len(flat) == len(want)
    assert all(abs(a - b) <= EXACT_TOL for a, b in zip(got, flat))
    assert all(abs(a - b) <= EXACT_TOL for a, b in zip(got, want))


def eliminate_alone(spec, comp):
    """``_eliminate_pmf`` on the component's own reads and plan, not on its class's.

    Each read tuple is relabelled by rank in ``comp.variables`` here, so a
    class that wrongly merged components of different reads would show.
    """
    rank = {i: n for n, i in enumerate(comp.variables)}
    reads = [tuple(rank[i] for i in spec.functions[j].vars) for j in comp.functions]
    program = _Program(spec, comp, reads, _plan(reads))
    return _eliminate_pmf(spec, comp, program, enumeration_guard())


def per_component_reference(spec):
    """Every component eliminated on its own, then the same sequential convolution."""
    acc = None
    for comp in dependency_components(spec):
        part = eliminate_alone(spec, comp)
        acc = part if acc is None else np.convolve(acc, part)
    return tuple(float(p) for p in acc)


def reference_eliminate_pmf(spec, comp, guard):
    """The former elimination: the min-degree order picked inside the arithmetic loop.

    Each step pops the variable of smallest current degree (ties by index)
    from a heap with lazy deletion, takes every factor that reads it, in
    the order the factors were made, and multiplies them out; a step whose
    scope spans every variable left takes every factor left and sums out
    all of them.
    """
    variables = spec.variables
    sizes = {i: variables[i].support_size for i in comp.variables}
    total = math.prod(sizes.values())
    counting = total < _INT_COUNT_LIMIT and all(variables[i].is_uniform for i in comp.variables)
    dtype = np.int64 if counting else np.float64

    factors = {}
    holders = {i: [] for i in comp.variables}  # ids of factors reading i
    adj = {i: set() for i in comp.variables}  # interaction graph
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


def assert_eliminations_match_reference(spec):
    """``_eliminate_pmf`` equals the former loop on every component, bit for bit."""
    for comp in dependency_components(spec):
        got = eliminate_alone(spec, comp)
        want = reference_eliminate_pmf(spec, comp, enumeration_guard())
        assert got.dtype == want.dtype == np.float64
        assert [p.hex() for p in got.tolist()] == [p.hex() for p in want.tolist()]


@st.composite
def elimination_families(draw):
    """Families of uniform and weighted variables, mixed within components.

    Supports 1 to 3; weighted laws may hold zero-probability values; reads
    come in any order, and functions may read nothing.
    """
    variables = []
    for i in range(draw(st.integers(1, 8))):
        support = draw(st.integers(1, 3))
        probs = ()
        if draw(st.booleans()):
            raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                                min_size=support, max_size=support))
            assume(any(raw))
            probs = tuple(x / math.fsum(raw) for x in raw)
        variables.append(Variable(f"x{i}", support, probs))
    functions = []
    for j in range(draw(st.integers(1, 10))):
        indices = st.integers(0, len(variables) - 1)
        read = draw(st.lists(indices, unique=True, max_size=min(3, len(variables))))
        size = math.prod(variables[i].support_size for i in read)
        table = draw(st.text(alphabet="01", min_size=size, max_size=size))
        functions.append(ReadFunction(f"y{j}", tuple(read), table))
    return FamilySpec(tuple(variables), tuple(functions))


@settings(max_examples=300, deadline=None)
@given(elimination_families())
def test_elimination_is_bit_identical_to_the_interleaved_loop(spec):
    assert_eliminations_match_reference(spec)


@settings(max_examples=200, deadline=None)
@given(elimination_families(), st.booleans())
def test_kept_programs_give_a_fresh_familys_bits(spec, uniform):
    """Repeated calls on one family equal a fresh family's pmf, counting and weighing alike."""
    if uniform:
        spec = FamilySpec(tuple(Variable(v.name, v.support_size) for v in spec.variables),
                          spec.functions)
    first = [p.hex() for p in sum_pmf(spec).probs]
    assert None not in spec._classes.programs
    for _ in range(2):
        assert [p.hex() for p in sum_pmf(spec).probs] == first
    fresh = FamilySpec(spec.variables, spec.functions)
    assert [p.hex() for p in sum_pmf(fresh).probs] == first


def weighted_chain(links, seed):
    """Bits ``x_0 .. x_links`` at (0.3, 0.7); link j reads ``(x_j, x_{j+1})`` through XOR or XNOR."""
    rng = np.random.default_rng(seed)
    tables = [("0110", "1001")[int(b)] for b in rng.integers(0, 2, size=links)]
    return FamilySpec(
        tuple(Variable(f"x{i}", 2, (0.3, 0.7)) for i in range(links + 1)),
        tuple(ReadFunction(f"y{j}", (j, j + 1), t) for j, t in enumerate(tables)),
    )


@pytest.mark.parametrize("make", [
    lambda: weighted_chain(200, 3),
    lambda: gen_random_family(60, 60, 3, 3, 9),
    lambda: weighted_variant(gen_random_family(60, 60, 3, 3, 9), np.random.default_rng(9)),
], ids=["weighted-chain-200", "random-60", "random-60-weighted"])
def test_elimination_is_bit_identical_to_the_interleaved_loop_on_large_components(make):
    assert_eliminations_match_reference(make())


@st.composite
def placements(draw):
    """``(product, sums, shape, functions)``: a step's product and its functions' sums.

    Both broadcast to the variable axes ``shape``, either one aligned (size
    1 on some axes); the product is nonnegative int64 or float64, zeros and
    subnormals included, and shorter or longer than the one-hot of
    ``functions + 1`` sums.
    """
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    aligned = [tuple(n if draw(st.booleans()) else 1 for n in shape) for _ in range(2)]
    functions = draw(st.one_of(st.integers(1, 4), st.integers(5, 300)))
    length = draw(st.one_of(st.integers(1, functions + 2), st.integers(1, 12)))
    if draw(st.booleans()):
        dtype, values = np.int64, st.integers(0, 2**62)
    else:
        floats = st.floats(0.0, allow_infinity=False, allow_subnormal=True).map(abs)
        dtype, values = np.float64, st.one_of(floats, st.sampled_from([0.0, 5e-324, 1e-310]))
    size = math.prod(aligned[0]) * length
    product = np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=dtype)
    size = math.prod(aligned[1])
    sums = draw(st.lists(st.integers(0, functions), min_size=size, max_size=size))
    return (product.reshape(*aligned[0], length), np.reshape(sums, aligned[1]), shape, functions)


@settings(max_examples=300, deadline=None)
@given(placements())
def test_placing_a_product_at_its_sum_offset_is_the_one_hot_convolution(placement):
    product, sums, shape, functions = placement
    one_hot = sums[..., np.newaxis] == np.arange(functions + 1)
    want = _times_poly(product, one_hot.astype(product.dtype), shape)
    got = _place(product, one_hot, shape)
    assert got.dtype == want.dtype == product.dtype
    assert np.array_equal(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # signed zeros too
    # The unit polynomial placed is the one-hot itself.
    unit = np.ones(1, product.dtype)
    full = np.broadcast_to(one_hot.astype(product.dtype), (*shape, functions + 1))
    assert np.array_equal(_place(unit, one_hot, shape), full)
    assert np.array_equal(_times_poly(unit, one_hot.astype(product.dtype), shape), full)


def replay_min_degree_order(reads):
    """The ordering policy in O(n^2), without a heap.

    Take the variable of smallest current degree, ties by smallest index;
    stop when its bucket would span every variable left; else join its
    neighbours and drop it.
    """
    nbrs = {}
    for read in reads:
        for i in read:
            nbrs.setdefault(i, set()).update(set(read) - {i})
    order = []
    while nbrs:
        v = min(nbrs, key=lambda i: (len(nbrs[i]), i))
        if len(nbrs[v]) + 1 == len(nbrs):
            break
        order.append(v)
        for u in nbrs[v]:
            nbrs[u] = (nbrs[u] | nbrs[v]) - {u, v}
        del nbrs[v]
    return order


@st.composite
def shaped_read_structures(draw):
    """Chains, cycles, stars and cliques over shuffled labels, plus stray reads, in any order."""
    m = draw(st.integers(1, 24))
    labels = draw(st.permutations(range(m)))
    reads = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["chain", "cycle", "star", "clique"]))
        size = draw(st.integers(1, m))
        start = draw(st.integers(0, m - size))
        members = labels[start:start + size]
        if shape in ("chain", "cycle"):
            reads += [members[a:a + 2] for a in range(max(size - 1, 1))]
            if shape == "cycle" and size > 2:
                reads.append([members[-1], members[0]])
        elif shape == "star":
            reads += [[members[0], leaf] for leaf in members[1:]] or [members]
        else:
            reads.append(members)
    reads += draw(st.lists(st.lists(st.integers(0, m - 1), unique=True, max_size=3), max_size=12))
    return [tuple(draw(st.permutations(read))) for read in reads]


@settings(max_examples=300, deadline=None)
@given(shaped_read_structures())
def test_min_degree_order_replays_the_policy(reads):
    assert [summed for _, _, (summed,), _ in _plan(reads)[:-1]] == replay_min_degree_order(reads)


@settings(max_examples=300, deadline=None)
@given(shaped_read_structures())
def test_plan_steps_cover_their_inputs(reads):
    """Each factor is consumed once, and a step's scope is its inputs' scopes joined.

    The numeric pass trusts the plan's scopes and lengths without looking
    at the factors, so they are checked here against the inputs.
    """
    plan = _plan(reads)
    scopes = [sorted(read) for read in reads]
    beneath = [1] * len(reads)
    consumed = []
    for r, (inputs, scope, summed, length) in enumerate(plan):
        assert inputs == sorted(inputs) and all(f < len(scopes) for f in inputs)
        assert scope == sorted(set().union(*(scopes[f] for f in inputs)))
        assert length == 1 + sum(beneath[f] for f in inputs)
        consumed += inputs
        if r < len(plan) - 1:
            assert len(summed) == 1 and summed[0] in scope
        else:
            assert sorted(consumed) == list(range(len(scopes)))
            assert summed == scope
        scopes.append([i for i in scope if i not in summed])
        beneath.append(length - 1)


def component_key(spec, comp):
    """Everything ``_eliminate_pmf`` reads of a component, up to variable labels.

    Each function's read tuple, with every variable relabelled to its rank
    in ``comp.variables``, and its truth table, in function order; then each
    variable's probabilities, which also fix its support and uniformity.
    Relabelling keeps the order of indices, so components with equal keys
    take the same elimination plan and give bit-identical pmfs.
    Probabilities compare by bits (``float.hex``), so ``0.0`` and ``-0.0``
    give two keys.
    """
    rank = {i: n for n, i in enumerate(comp.variables)}
    fns = [spec.functions[j] for j in comp.functions]
    reads = tuple((tuple(rank[i] for i in fn.vars), fn.truth_table) for fn in fns)
    return reads, tuple(tuple(map(float.hex, spec.variables[i].probs)) for i in comp.variables)


# A block is ``(probs per variable, (read, table) per function)``, in local indices.
# Each look-alike differs from its original in one thing, so it must not share its solve.
ASYMMETRIC = (((0.9, 0.1), (0.3, 0.7)), (((0, 1), "0100"),))
UNIFORM_BIT = (((0.5, 0.5),), (((0,), "01"),))
LOOK_ALIKES = (
    ASYMMETRIC,
    (ASYMMETRIC[0], (((1, 0), "0100"),)),  # read order
    (((0.9, 0.1), (0.4, 0.6)), ASYMMETRIC[1]),  # one probability
    UNIFORM_BIT,
    (((1 / 3,) * 3,), (((0,), "010"),)),  # support size (the table grows with it)
    # Two keys: laws compare by bits, and 0.0 and -0.0 differ in theirs.
    (((0.0, 1.0), (0.25, 0.75)), (((0, 1), "0111"),)),
    (((-0.0, 1.0), (0.25, 0.75)), (((0, 1), "0111"),)),
)


@st.composite
def blocks(draw):
    """One random block: up to 3 variables, weighted or uniform, and up to 3 functions."""
    probs = []
    for _ in range(draw(st.integers(1, 3))):
        support = draw(st.integers(1, 3))
        if draw(st.booleans()):
            probs.append((1 / support,) * support)
        else:
            raw = draw(st.lists(st.floats(0.05, 1.0), min_size=support, max_size=support))
            probs.append(tuple(x / math.fsum(raw) for x in raw))
    functions = []
    for _ in range(draw(st.integers(1, 3))):
        read = draw(st.lists(st.integers(0, len(probs) - 1), unique=True, max_size=len(probs)))
        size = math.prod(len(probs[i]) for i in read)
        functions.append((tuple(read), draw(st.text(alphabet="01", min_size=size, max_size=size))))
    return tuple(probs), tuple(functions)


@st.composite
def repeated_block_unions(draw, block=blocks()):
    """Disjoint unions of random blocks, some repeated, plus the look-alikes, in any order.

    Each copy of a block reads its own variables, scattered over the family
    by a random permutation; a copy either keeps its variables' relative
    order (equal signature) or takes them in permuted order. ``block``
    draws the original blocks.
    """
    originals = draw(st.lists(block, min_size=1, max_size=4))
    repeats = draw(st.lists(st.sampled_from(originals), max_size=6))
    instances = draw(st.permutations(originals + repeats + list(LOOK_ALIKES)))
    places = draw(st.permutations(range(sum(len(probs) for probs, _ in instances))))
    variables = [None] * len(places)
    functions = []
    start = 0
    for probs, reads in instances:
        mine = places[start:start + len(probs)]
        start += len(probs)
        if draw(st.booleans()):
            mine = sorted(mine)
        for i, p in zip(mine, probs):
            variables[i] = Variable(f"x{i}", len(p), p)
        for read, table in reads:
            functions.append(ReadFunction(f"y{len(functions)}", tuple(mine[i] for i in read), table))
    return FamilySpec(tuple(variables), tuple(functions))


@settings(max_examples=150, deadline=None)
@given(repeated_block_unions())
def test_shared_solves_are_bit_identical_to_per_component_elimination(spec):
    got = sum_pmf(spec).probs
    want = per_component_reference(spec)
    assert [p.hex() for p in got] == [p.hex() for p in want]


@st.composite
def running_pmfs(draw):
    """Pmfs to convolve in order: a first of 1 to 6000 bins, then one to three mostly of two.

    Bins are non-negative and never ``-0.0``, as a pmf's are. Each bin of
    the first is scaled to between about ``1e-250`` and ``1e-320``, so runs
    of normal, subnormal and zero bins mix, and some bins are zeroed; any
    bin of a later pmf may be zero or subnormal, and a later pmf may be
    the first itself.
    """
    n = draw(st.integers(1, 6000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lowest = draw(st.floats(250.0, 320.0))
    first = rng.random(n) * 10.0 ** -rng.uniform(lowest - 70.0, lowest, n)
    first[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.9]))] = 0.0
    bins = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 5e-324, 1e-310, 1.0]))
    sizes = st.one_of(st.just(2), st.integers(1, 9))
    pmfs = [first]
    for size in draw(st.lists(sizes, min_size=1, max_size=3)):
        pmfs.append(first if draw(st.integers(0, 9)) == 0 else
                    np.array(draw(st.lists(bins, min_size=size, max_size=size))))
    return pmfs


@settings(max_examples=300, deadline=None)
@given(running_pmfs())
def test_convolving_in_order_is_np_convolve_bit_for_bit(pmfs):
    """The in-place two-bin update, and the copied ``np.convolve`` of longer pmfs.

    A first convolution reads the first pmf, a later one the buffer's own
    bins; no input is written.
    """
    copies = [pmf.copy() for pmf in pmfs]
    want = pmfs[0]
    for pmf in pmfs[1:]:
        want = np.convolve(want, pmf)
    got = _convolve_in_order(pmfs, len(want))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()  # signed zeros too
    assert all(a.tobytes() == b.tobytes() for a, b in zip(pmfs, copies))


#: Two-bin steps: ``q0`` on either side of 1/2; the rounding edges of ``5e-324 * q``
#: (``q`` at 1/2, just above it, or 3/2), both bins just above 1/2; point masses; and
#: pmfs holding ``5e-324``.
FOLD_STEPS = [
    (2 / 3, 1 / 3), (1 / 3, 2 / 3), (63 / 64, 1 / 64), (1 / 64, 63 / 64),
    (0.5, 0.5), (math.nextafter(0.5, 1.0), 0.5), (0.5, math.nextafter(0.5, 1.0)),
    (math.nextafter(0.5, 1.0), math.nextafter(0.5, 1.0)), (1.5, 0.0), (0.0, 1.5),
    (1.0, 0.0), (0.0, 1.0), (5e-324, 1.0), (1.0, 5e-324), (5e-324, 5e-324),
]


@st.composite
def two_bin_folds(draw, end_bins=(5e-324,)):
    """A first pmf, then 1 to 3000 steps drawn from one to four two-bin pmfs, now and then three bins.

    The two-bin pmfs come from ``FOLD_STEPS`` or are any ``q0`` in
    ``[0, 1]`` and ``q1`` in ``[0, 3/2 - q0]``; each is one array that all
    its steps share, as a class's components share one pmf. The first
    pmf's bins are scaled to between about ``1e-250`` and ``1e-324``, and
    some bins at either end are ``5e-324``, so runs of ``5e-324`` form at
    once or within a few hundred steps; no step's mass exceeds 3/2, so
    3000 steps stay finite. A three-bin pmf, of mass at most 1, drops any
    run. With more than one of ``end_bins``, each end bin is drawn from them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    first = rng.random(n) * 10.0 ** -rng.uniform(250.0, 324.0, n)
    ends = rng.choice(end_bins, n) if len(end_bins) > 1 else np.full(n, end_bins[0])
    head = draw(st.integers(0, n))
    tail = n - draw(st.integers(0, n))
    first[:head] = ends[:head]
    first[tail:] = ends[tail:]
    pair = st.floats(0.0, 1.0).flatmap(lambda q0: st.tuples(st.just(q0), st.floats(0.0, 1.5 - q0)))
    step = st.one_of(st.sampled_from(FOLD_STEPS), pair)
    pool = [np.array(pmf) for pmf in draw(st.lists(step, min_size=1, max_size=4))]
    three_bins = draw(st.sampled_from([0.0, 0.001, 0.01]))
    pmfs = [first]
    for i in rng.integers(len(pool), size=draw(st.integers(1, 3000))):
        pmfs.append(rng.random(3) / 3.0 if rng.random() < three_bins else pool[i])
    return pmfs


@settings(max_examples=150, deadline=None)
@given(two_bin_folds())
def test_long_two_bin_folds_keep_runs_of_the_least_subnormal_bit_for_bit(pmfs):
    """Thousands of steps, so runs of ``5e-324`` form, are kept or dropped: ``np.convolve``'s bits."""
    copies = [pmf.copy() for pmf in pmfs]
    want = pmfs[0]
    for pmf in pmfs[1:]:
        want = np.convolve(want, pmf)
    got = _convolve_in_order(pmfs, len(want))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(pmfs, copies))


@settings(max_examples=150, deadline=None)
@given(st.one_of(two_bin_folds((0.0,)), two_bin_folds((0.0, 5e-324))))
def test_long_two_bin_folds_from_runs_of_zero_bins_bit_for_bit(pmfs):
    """The first pmf's end runs are ``0.0``, or bins each ``0.0`` or ``5e-324``: ``np.convolve``'s bits."""
    want = pmfs[0]
    for pmf in pmfs[1:]:
        want = np.convolve(want, pmf)
    got = _convolve_in_order(pmfs, len(want))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("edge", FOLD_STEPS, ids=str)
def test_each_fold_step_after_kept_runs_is_np_convolve_bit_for_bit(edge):
    """Each step of ``FOLD_STEPS``, twice, after a kept leading run and after a kept trailing run.

    Every prefix of the folds is checked: a later step may round a wrong
    bin back to the right one.
    """
    first = np.array([5e-324] * 3 + [1e-300, 0.5, 1e-310] + [5e-324] * 3)
    lead, trail, step = np.array([2 / 3, 1 / 3]), np.array([1 / 3, 2 / 3]), np.array(edge)
    pmfs = [first] + [lead] * 3 + [step] * 2 + [trail] * 3 + [step] * 2 + [lead] * 2
    want = first
    for i, pmf in enumerate(pmfs[1:], 2):
        want = np.convolve(want, pmf)
        assert _convolve_in_order(pmfs[:i], len(want)).tobytes() == want.tobytes()


def one_function_blocks():
    """Random blocks cut to their first function: each a component of a two-bin pmf."""
    return blocks().map(lambda block: (block[0], block[1][:1]))


def disjoint_union(*specs):
    """The families side by side, each reading its own variables, functions in the given order."""
    variables, functions = [], []
    for spec in specs:
        start = len(variables)
        variables += [Variable(f"x{start + i}", v.support_size, v.probs)
                      for i, v in enumerate(spec.variables)]
        functions += [ReadFunction(f"y{len(functions) + j}", tuple(start + i for i in fn.vars),
                                   fn.truth_table) for j, fn in enumerate(spec.functions)]
    return FamilySpec(tuple(variables), tuple(functions))


@settings(max_examples=150, deadline=None)
@given(repeated_block_unions(st.one_of(blocks(), one_function_blocks())))
def test_one_function_components_mixed_with_longer_ones_match_sequential_convolution(spec):
    got = sum_pmf(spec).probs
    want = per_component_reference(spec)
    assert [p.hex() for p in got] == [p.hex() for p in want]


@pytest.mark.parametrize("make, end, residue", [
    (lambda: gen_block_tight(1, 1100, "1/3"), None, None),
    (lambda: disjoint_union(gen_block_tight(1, 600, "1/3"), gen_block_tight(3, 40, "1/4"),
                            gen_random_family(8, 8, 3, 3, 4), gen_block_tight(1, 500, "2/5")), None, None),
    (lambda: gen_block_tight(1, 2500, "1/3"), 0, 5e-324),
    (lambda: gen_block_tight(1, 2500, "2/3"), -1, 5e-324),
    (lambda: disjoint_union(*[gen_block_tight(1, 1, p) for _ in range(100) for p in ("1/3", "2/3")],
                            gen_block_tight(1, 450, "2/3"), gen_block_tight(1, 350, "1/3"),
                            gen_block_tight(1, 1500, "2/3")), -1, 5e-324),
    (lambda: gen_block_tight(1, 2500, "1/64"), -1, 0.0),
    (lambda: gen_block_tight(1, 2500, "63/64"), 0, 0.0),
], ids=["block-tight-1100", "mixed", "block-tight-2500-one-third", "block-tight-2500-two-thirds",
        "interleaved", "block-tight-2500-one-64th", "block-tight-2500-63-64ths"])
def test_one_function_components_with_subnormal_bins_match_sequential_convolution(make, end, residue):
    """Past 1100 blocks the fold keeps a run of ``5e-324`` at the leading (0) or trailing (-1) end.

    The interleaved family first alternates p = 1/3 and 2/3 blocks, so no
    run is kept there; then it keeps a leading run late in its 350 blocks
    at p = 1/3, drops it at the next block, and ends on a trailing run. At
    p = 1/64 and 63/64 the fold leaves out a run of ``0.0`` instead.
    """
    spec = make()
    got = sum_pmf(spec).probs
    assert 0.0 < min(p for p in got if p > 0.0) < sys.float_info.min  # subnormal bins
    if end is not None:
        assert (got[:8] if end == 0 else got[-8:]) == (residue,) * 8
    want = per_component_reference(spec)
    assert [p.hex() for p in got] == [p.hex() for p in want]


@settings(max_examples=150, deadline=None)
@given(repeated_block_unions())
def test_component_classes_match_oracle_keys(spec):
    comps = dependency_components(spec)
    classes = spec._classes.component_class.tolist()
    keys = [component_key(spec, c) for c in comps]
    assert len(classes) == len(comps)
    for a in range(len(comps)):
        for b in range(len(comps)):
            assert (classes[a] == classes[b]) == (keys[a] == keys[b])
    # each class is represented by its first component, classes numbered in that order
    firsts = [classes.index(c) for c in range(len(spec._classes.representatives))]
    assert firsts == sorted(firsts)
    assert spec._classes.representatives == tuple(comps[a] for a in firsts)


def per_function_marginal(spec, j):
    """``Pr[f_j = 1]`` by the one-function formula, on cell masses built for f_j alone."""
    masses, norm = np.array([1.0]), 1
    for i in spec.functions[j].vars:
        v = spec.variables[i]
        uniform = v.is_uniform
        law = np.ones(v.support_size) if uniform else np.array(v.probs)
        masses = np.multiply.outer(masses, law).ravel()
        norm *= v.support_size if uniform else 1
    table = np.frombuffer(spec.functions[j].truth_table.encode("ascii"), dtype=np.uint8) - ord("0")
    return min(float(masses[table == 1].sum()) / norm, 1.0)


#: Laws equal, near-equal or equal only by value: uniform beside one ulp off it, signed zeros.
SHAPE_LAWS = (
    (0.5, 0.5),
    (0.5000000000000001, 0.4999999999999999),
    (0.0, 1.0),
    (-0.0, 1.0),
    (1 / 3, 1 / 3, 1 / 3),
    (0.2, 0.3, 0.5),
)


@st.composite
def repeated_shapes(draw):
    """Functions drawn from a few shapes, so truth tables and read laws repeat, together or apart.

    Tables include all-zero ones and ones with more than 8 ones (up to 27 cells).
    """
    variables = tuple(
        Variable(f"x{i}", len(law), law)
        for i, law in enumerate(draw(st.lists(st.sampled_from(SHAPE_LAWS), min_size=1, max_size=8)))
    )
    indices = st.integers(0, len(variables) - 1)
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        read = draw(st.lists(indices, unique=True, max_size=min(3, len(variables))))
        size = math.prod(variables[i].support_size for i in read)
        kind = draw(st.sampled_from(["zeros", "ones", "any"]))
        table = "0" * size if kind == "zeros" else "1" * size if kind == "ones" else draw(
            st.text(alphabet="01", min_size=size, max_size=size)
        )
        shapes.append((tuple(read), table))
    picks = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=12))
    # A permuted read keeps the table's length but may change the laws it is read under.
    functions = tuple(
        ReadFunction(f"y{j}", tuple(draw(st.permutations(read))), table)
        for j, (read, table) in enumerate(picks)
    )
    return FamilySpec(variables, functions)


@settings(max_examples=200, deadline=None)
@given(repeated_shapes())
def test_marginals_are_bit_identical_to_per_function_formula(spec):
    got = function_marginals(spec).per_function
    want = [per_function_marginal(spec, j) for j in range(spec.num_functions)]
    assert [p.hex() for p in got] == [p.hex() for p in want]


def test_marginals_per_shape_on_wide_tables_and_near_equal_laws():
    # x0 uniform, x1 one ulp off uniform, x2 and x4 of support 3: tables of 12 cells, 9 and 12 ones
    variables = (
        Variable("x0", 2, (0.5, 0.5)),
        Variable("x1", 2, (0.5000000000000001, 0.4999999999999999)),
        Variable("x2", 3, (0.2, 0.3, 0.5)),
        Variable("x3", 2, (0.5, 0.5)),
        Variable("x4", 3, (1 / 3, 1 / 3, 1 / 3)),
    )
    shapes = [((0, 1, 2), "111011101100"), ((3, 1, 2), "111011101100"),
              ((0, 1, 2), "1" * 12), ((1, 0, 2), "0" * 12), ((0, 2), "110111"),
              ((2,), "011"), ((4,), "011")]
    spec = FamilySpec(variables, tuple(
        ReadFunction(f"y{j}", read, table) for j, (read, table) in enumerate(shapes * 3)
    ))
    got = function_marginals(spec).per_function
    want = [per_function_marginal(spec, j) for j in range(spec.num_functions)]
    assert [p.hex() for p in got] == [p.hex() for p in want]
    assert got[0] == got[1] and got[2] == 1.0 and got[3] == 0.0
    assert got[5] == 0.8 and got[6] == 2 / 3  # one table read under two laws


@pytest.mark.parametrize("seed", range(6))
def test_marginals_match_scalar_reference(seed):
    rng = np.random.default_rng(100 + seed)
    spec = weighted_variant(
        gen_random_family(m=5, r=4, k=2, max_arity=2, seed=seed), rng
    )
    per = function_marginals(spec).per_function
    for j in range(spec.num_functions):
        want = math.fsum(
            w for a, w, _ in reference_rows(spec) if eval_function(spec, j, a) == 1
        )
        assert per[j] == pytest.approx(want, abs=EXACT_TOL)


@pytest.mark.parametrize("seed", range(6))
def test_conditional_marginals_match_scalar_reference(seed):
    rng = np.random.default_rng(200 + seed)
    spec = weighted_variant(
        gen_random_family(m=5, r=4, k=2, max_arity=2, seed=seed), rng
    )
    t = 2
    rows = [(a, w) for a, w, total in reference_rows(spec) if total >= t]
    mass = math.fsum(w for _, w in rows)
    if mass == 0.0:
        pytest.skip("tail empty for this seed")
    got = conditional_function_marginals(spec, TailQuery(t, "ge"))
    for j in range(spec.num_functions):
        want = math.fsum(w for a, w in rows if eval_function(spec, j, a) == 1) / mass
        assert got[j] == pytest.approx(want, abs=1e-10)


def reference_verify_rows(spec, tol):
    """``readk verify``'s rows through the public API, one query pair per threshold."""
    pmf = sum_pmf(spec)
    r = spec.num_functions
    k = max(read_width(spec), 1)
    p = function_marginals(spec).mean
    rows = []
    for tail, direction in (("upper", "ge"), ("lower", "le")):
        for t in range(r + 1):
            eps = t / r - p if tail == "upper" else p - t / r
            if eps <= 0:
                continue
            exact = tail_prob(pmf, TailQuery(float(t), direction))
            bound = read_k_tail_bound(BoundQuery(r, k, p, eps, tail)).bound
            rows.append((tail, t, exact, bound, bound - exact, exact <= bound * (1.0 + tol)))
    return r, k, rows


def assert_verify_rows_match_reference(spec, tol=1e-9):
    r, k, rows = _verify_rows(spec, tol)
    want_r, want_k, want = reference_verify_rows(spec, tol)
    assert (r, k) == (want_r, want_k)
    assert all(list(row) == ["tail", "t", "exact", "bound", "slack", "ok"] for row in rows)
    got = [(row["tail"], row["t"], row["exact"].hex(), row["bound"].hex(), row["slack"].hex(),
            row["ok"]) for row in rows]
    assert got == [(tail, t, e.hex(), b.hex(), s.hex(), ok) for tail, t, e, b, s, ok in want]


@pytest.mark.parametrize("k, blocks, p", list(itertools.product(
    range(1, 5), (2, 5, 9), ("1/2", "1/3", "2/3"))))
def test_verify_rows_match_public_api_on_block_families(k, blocks, p):
    assert_verify_rows_match_reference(gen_block_tight(k, blocks, p))


@settings(max_examples=150, deadline=None)
@given(weighted_families(), st.sampled_from([0.0, 1e-9]))
def test_verify_rows_match_public_api_on_weighted_families(spec, tol):
    assert_verify_rows_match_reference(spec, tol)


def test_trace_terms_match_distribution_level_reference():
    check_trace_terms(gen_random_family(m=5, r=5, k=2, max_arity=2, seed=9), t=3)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_weighted_trace_terms_match_distribution_level_reference(seed):
    spec = gen_random_family(m=5, r=5, k=2, max_arity=2, seed=seed)
    check_trace_terms(weighted_variant(spec, np.random.default_rng(seed)), t=3)


def check_trace_terms(spec, t, rows=None):
    """All five trace terms against the product law materialized scalar-style.

    ``rows`` is ``list(reference_rows(spec))``, computed here when not given.
    """
    r = spec.num_functions
    k = read_width(spec)
    trace = proof_trace(spec, TailQuery(t, "ge"))

    if rows is None:
        rows = list(reference_rows(spec))
    outcomes = tuple(a for a, _, _ in rows)
    mu = Distribution(outcomes, tuple(w for _, w, _ in rows))
    mass = math.fsum(w for _, w, total in rows if total >= t)
    law = Distribution(outcomes, tuple(w / mass if total >= t else 0.0 for _, w, total in rows))

    assert trace.neg_log_tail == pytest.approx(kl_divergence(law, mu), rel=1e-12)

    shearer = math.fsum(
        kl_divergence(project(law, fn.vars), project(mu, fn.vars)) for fn in spec.functions
    )
    assert trace.shearer_term == pytest.approx(shearer / k, rel=1e-12)

    def one_prob(d, j):
        return math.fsum(p for a, p in zip(d.outcomes, d.probs) if eval_function(spec, j, a))

    p_js = [one_prob(mu, j) for j in range(r)]
    q_js = [one_prob(law, j) for j in range(r)]
    dpi = math.fsum(kl_binary(q, p) for q, p in zip(q_js, p_js)) / k
    assert trace.dpi_term == pytest.approx(dpi, rel=1e-12)

    q_bar, p_bar = math.fsum(q_js) / r, math.fsum(p_js) / r
    assert trace.convexity_term == pytest.approx(
        (r / k) * kl_binary(q_bar, p_bar), rel=1e-12
    )
    assert trace.final_term == pytest.approx(
        (r / k) * kl_binary(max(t / r, p_bar), p_bar), rel=1e-12
    )


#: ``gen_random_family`` shapes ``(m, r, k, max_arity)``, each feasible.
TRACE_SHAPES = ((5, 5, 3, 2), (6, 6, 2, 2), (4, 6, 3, 2), (6, 4, 2, 3), (5, 7, 3, 2), (8, 5, 2, 3))


@st.composite
def random_families(draw):
    """A ``gen_random_family`` family, uniform or with random variable laws."""
    spec = gen_random_family(*draw(st.sampled_from(TRACE_SHAPES)), draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        spec = weighted_variant(spec, np.random.default_rng(draw(st.integers(0, 2**16))))
    return spec


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_families(), weighted_families()))
def test_trace_final_term_is_the_bound_exponent(spec):
    # The last chain step is read_k_tail_bound's exponent at the trace's own
    # threshold, with its bits, and 0 where the event is no deviation.
    pmf = sum_pmf(spec)
    r = spec.num_functions
    k = max(read_width(spec), 1)
    p = function_marginals(spec).mean
    for tail, direction in (("upper", "ge"), ("lower", "le")):
        for t in range(r + 1):
            query = TailQuery(t, direction)
            if tail_prob(pmf, query) == 0.0:
                continue
            eps = t / r - p if tail == "upper" else p - t / r
            want = -read_k_tail_bound(BoundQuery(r, k, p, eps, tail)).log_bound if eps > 0 else 0.0
            assert proof_trace(spec, query, check=False).final_term == want, (tail, t)


@pytest.mark.parametrize("weighted", [False, True])
def test_scan_on_supports_wider_than_a_byte(weighted):
    # Variable 0 takes values up to 256, so the digits need two bytes, and
    # y3's table has 257 * 256 cells, so its positions need more than two.
    rng = np.random.default_rng(257)
    sizes = (257, 256, 2)
    functions = []
    for j, read in enumerate([(0,), (1, 2), (2, 0), (0, 1)]):
        table = rng.choice(["0", "1"], math.prod(sizes[i] for i in read))
        functions.append(ReadFunction(f"y{j}", read, "".join(table)))
    spec = FamilySpec(tuple(Variable(f"x{i}", s) for i, s in enumerate(sizes)), tuple(functions))
    if weighted:
        spec = weighted_variant(spec, rng)
    got = sum_pmf_enumerate(spec).probs
    assert all(abs(a - b) <= EXACT_TOL for a, b in zip(got, sum_pmf(spec).probs))

    t = 2
    law = conditional_law(spec, TailQuery(t, "ge"))
    rows = list(reference_rows(spec))
    tail = [(a, w) for a, w, total in rows if total >= t]
    assert law._digits.dtype == np.uint16
    assert law.outcomes == tuple(a for a, _ in tail)
    assert law._digits.T.tolist() == [list(a) for a, _ in tail]
    mass = math.fsum(w for _, w in tail)
    assert law.probs == pytest.approx([w / mass for _, w in tail], rel=1e-12)
    assert hex_pair(shearer_kl_gap(spec, law)) == hex_pair(reference_shearer_kl_gap(spec, law))
    check_trace_terms(spec, t, rows)


def test_scan_positions_do_not_wrap_on_a_wide_table():
    # The 400-cell table of test_wide_table_positions_do_not_overflow: its
    # positions reach 399 from digits below 20, and every cell from 256 on
    # is 1, so a position computed in the digits' uint8 would wrap and read 0.
    table = "".join("1" if cell >= 256 else "0" for cell in range(400))
    spec = FamilySpec((Variable("x", 20), Variable("z", 20)), (ReadFunction("y", (0, 1), table),))
    assert sum_pmf_enumerate(spec) == sum_pmf(spec) == SumPmf((0.64, 0.36))
    rows = list(reference_rows(spec))
    check_trace_terms(spec, 1, rows)
    query = TailQuery(1, "ge")
    law = conditional_law(spec, query)
    assert law.outcomes == tuple(a for a, _, total in rows if total >= 1)
    assert law.probs == (1 / 144,) * 144
    assert conditional_function_marginals(spec, query) == (1.0,)
    assert hex_pair(shearer_kl_gap(spec, law)) == hex_pair(reference_shearer_kl_gap(spec, law))


def test_positions_hold_the_support_that_multiplies_them():
    # z's 256 values multiply x's single one: the largest position is 255,
    # but the type that holds the positions must also hold 256.
    table = "".join("1" if cell % 3 else "0" for cell in range(256))
    spec = FamilySpec((Variable("x", 1), Variable("z", 256)), (ReadFunction("y", (0, 1), table),))
    assert sum_pmf_enumerate(spec) == sum_pmf(spec)
    query = TailQuery(1, "ge")
    assert estimate_tail(spec, query, 1000, 0).estimate == reference_estimate(spec, query, 1000, 0)


@settings(max_examples=150, deadline=None)
@given(weighted_families(), st.integers(0, 5), st.sampled_from(["ge", "le"]))
def test_weighted_trace_chain_holds_and_inverts_tail(spec, t, direction):
    query = TailQuery(t, direction)
    exact = tail_prob(sum_pmf(spec), query)
    assume(exact > 0.0)
    trace = proof_trace(spec, query)
    assert trace.chain_holds()
    assert math.exp(-trace.neg_log_tail) == pytest.approx(exact, rel=1e-9, abs=EXACT_TOL)


def reference_push_forward(d, phi):
    """Merging by a dict of lists, one ``math.fsum`` per image, outcomes sorted."""
    fn = phi.__getitem__ if isinstance(phi, Mapping) else phi
    acc = {}
    for a, p in zip(d.outcomes, d.probs):
        acc.setdefault(fn(a), []).append(p)
    outcomes = sorted(acc)
    return Distribution(tuple(outcomes), tuple(math.fsum(acc[b]) for b in outcomes))


def reference_project(d, coords):
    return reference_push_forward(d, lambda a: tuple(a[c] for c in coords))


@st.composite
def tuple_laws(draw):
    """Laws over distinct equal-width tuples of int or string labels, some with zero mass."""
    width = draw(st.integers(1, 4))
    labels = draw(st.sampled_from([st.integers(0, 2), st.sampled_from("abc")]))
    outcome = st.tuples(*[labels] * width)
    outcomes = draw(st.lists(outcome, min_size=1, max_size=40, unique=True))
    raw = draw(st.lists(
        st.just(0.0) | st.floats(1e-12, 1.0), min_size=len(outcomes), max_size=len(outcomes)
    ))
    total = math.fsum(raw)
    assume(total > 0.0)
    return Distribution(tuple(outcomes), tuple(x / total for x in raw))


def assert_same_law(got, want):
    assert got.outcomes == want.outcomes
    assert got.probs == want.probs  # bit for bit


@settings(max_examples=300, deadline=None)
@given(tuple_laws(), st.data())
def test_project_is_bit_identical_to_dict_reference(law, data):
    width = len(law.outcomes[0])
    # any subset in any order, the empty one included
    coords = data.draw(st.permutations(range(width)))[: data.draw(st.integers(0, width))]
    assert_same_law(project(law, coords), reference_project(law, coords))


@settings(max_examples=300, deadline=None)
@given(tuple_laws(), st.data())
def test_push_forward_is_bit_identical_to_dict_reference(law, data):
    image = data.draw(st.sampled_from([st.integers(0, 3), st.sampled_from("pq")]))
    phi = {a: data.draw(image) for a in law.outcomes}  # a merging map
    assert_same_law(push_forward(law, phi), reference_push_forward(law, phi))
    assert_same_law(push_forward(law, phi.get), reference_push_forward(law, phi.get))


def reference_conditional_entropy(joint, target, given):
    """Outcomes of positive mass merged through a dict of dicts of lists:
    conditioning values, then target values, each in first-seen order."""
    groups = {}
    for a, p in zip(joint.outcomes, joint.probs):
        if p == 0.0:
            continue
        g = tuple(a[c] for c in given)
        t = tuple(a[c] for c in target)
        groups.setdefault(g, {}).setdefault(t, []).append(p)
    total = 0.0
    for cases in groups.values():
        masses = [math.fsum(ps) for ps in cases.values()]
        z = math.fsum(masses)
        total += z * math.fsum(-(m / z) * math.log(m / z) for m in masses if m > 0.0)
    return max(total, 0.0)


@st.composite
def conditioned_laws(draw):
    """A law with many zero masses, target and conditioning coordinates.

    Labels include 1, 1.0 and True, which are one value. The law and the
    coordinates come from a seeded generator: conditioning values whose
    order changes the rounding show up on such cases far more often than
    on the short lists and simple floats hypothesis prefers.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = rng.randint(2, 4)
    labels = [0, 1, 1.0, True, False, 2]
    drawn = [tuple(rng.choices(labels, k=width)) for _ in range(rng.randint(1, 100))]
    outcomes = list(dict.fromkeys(drawn))  # equal tuples, 1 and True alike, count once
    zero_share = rng.choice([0.3, 0.6])
    raw = [0.0 if rng.random() < zero_share else rng.random() for _ in outcomes]
    total = math.fsum(raw)
    assume(total > 0.0)
    coords = rng.sample(range(width), width)
    cut = rng.randint(0, width - 1)
    target, given = coords[:cut], coords[cut:rng.randint(cut + 1, width)]
    return Distribution(tuple(outcomes), tuple(x / total for x in raw)), target, given


@settings(max_examples=300, deadline=None)
@given(conditioned_laws())
def test_conditional_entropy_is_bit_identical_to_nested_dict_reference(case):
    assert conditional_entropy(*case).hex() == reference_conditional_entropy(*case).hex()


@st.composite
def uniform_families(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    arity = draw(st.integers(1, min(3, m)))
    r = draw(st.integers(1, min(5, m * k // arity)))
    return gen_random_family(m, r, k, arity, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(
    uniform_families() | weighted_families(), st.integers(0, 5), st.sampled_from(["ge", "le"])
)
def test_kl_gap_matches_trace_terms(spec, t, direction):
    k = read_width(spec)
    assume(k >= 1)
    query = TailQuery(t, direction)
    assume(tail_prob(sum_pmf(spec), query) > 0.0)
    trace = proof_trace(spec, query, check=False)
    lhs, rhs = shearer_kl_gap(spec, conditional_law(spec, query))
    # abs_tol: a whole-space event gives divergences that are 0 up to rounding
    assert math.isclose(lhs, k * trace.neg_log_tail, rel_tol=1e-12, abs_tol=1e-14)
    assert math.isclose(rhs, k * trace.shearer_term, rel_tol=1e-12, abs_tol=1e-14)


def test_entropy_gap_rejects_mixed_tuple_and_scalar_outcomes():
    # The shape check comes first: coordinate 1 being uncovered is not the fault.
    joint = Distribution(((0, 0), 1), (0.5, 0.5))
    with pytest.raises(DomainError, match="outcomes must all be tuples of one common length"):
        shearer_entropy_gap(joint, [[0]], 1)


def reference_kl_sum(probs, masses, norm):
    """``sum p ln(p * norm / mass)`` over ``p > 0``, ``+inf`` off the support of ``masses``."""
    terms = []
    for p, mass in zip(probs, masses):
        if p > 0.0:
            if mass == 0.0:
                return math.inf
            terms.append(p * math.log(p * norm / mass))
    return math.fsum(terms)


def reference_shearer_kl_gap(spec, law):
    """The divergence corollary by scalar table positions, merged through a dict of lists."""
    k = read_width(spec)
    masses = [m for m, _ in spec.laws]
    norm = math.prod(n for _, n in spec.laws)
    mass = [math.prod(float(masses[i][v]) for i, v in enumerate(a)) for a in law.outcomes]
    lhs = k * max(reference_kl_sum(law.probs, mass, norm), 0.0) if k else 0.0
    terms = []
    for j, (cell_masses, cell_norm) in enumerate(zip(*spec._cell_laws)):
        acc = {}
        for a, p in zip(law.outcomes, law.probs):
            acc.setdefault(table_index(spec, j, a), []).append(p)
        cells = [math.fsum(acc.get(c, [])) for c in range(len(spec.tables[j]))]
        terms.append(max(reference_kl_sum(cells, cell_masses.tolist(), cell_norm), 0.0))
    return lhs, math.fsum(terms)


def reference_shearer_entropy_gap(joint, cover, k):
    """Shearer's inequality through dict-of-lists projections, one per cover set."""
    sets = [tuple(dict.fromkeys(p)) for p in cover]
    return k * entropy(joint), math.fsum(entropy(reference_project(joint, p)) for p in sets)


def hex_pair(pair):
    return tuple(x.hex() for x in pair)


def assert_gaps_match_oracle(spec, law, cover, k):
    for joint in (law, Distribution(law.outcomes, law.probs)):  # kept digits, then none
        assert hex_pair(shearer_kl_gap(spec, joint)) == hex_pair(
            reference_shearer_kl_gap(spec, joint)
        )
        assert hex_pair(shearer_entropy_gap(joint, cover, k)) == hex_pair(
            reference_shearer_entropy_gap(joint, cover, k)
        )


@settings(max_examples=150, deadline=None)
@given(
    uniform_families() | weighted_families(),
    st.integers(0, 5),
    st.sampled_from(["ge", "le"]),
    st.data(),
)
def test_shearer_gaps_are_bit_identical_to_dict_oracle(spec, t, direction, data):
    query = TailQuery(t, direction)
    assume(tail_prob(sum_pmf(spec), query) > 0.0)
    law = conditional_law(spec, query)
    assert law._digits is not None
    # the read sets, and some sets of any coordinates, repeats included
    coords = st.integers(0, spec.num_variables - 1)
    extra = data.draw(st.lists(st.lists(coords, max_size=4), max_size=3))
    cover = [fn.vars for fn in spec.functions] + extra
    k = min(sum(i in p for p in cover) for i in range(spec.num_variables))
    assert_gaps_match_oracle(spec, law, cover, k)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_families(), weighted_families()), st.randoms(use_true_random=False))
def test_shearer_gaps_do_not_depend_on_outcome_order(spec, rnd):
    # The conditioned law listed in a shuffled order, and so without the
    # scan's digits, gives both audits the same bits at every threshold.
    pmf = sum_pmf(spec)
    cover = [fn.vars for fn in spec.functions]
    k = min(sum(i in p for p in cover) for i in range(spec.num_variables))
    for direction in ("ge", "le"):
        for t in range(spec.num_functions + 1):
            query = TailQuery(t, direction)
            if tail_prob(pmf, query) == 0.0:
                continue
            law = conditional_law(spec, query)
            order = list(range(len(law.outcomes)))
            rnd.shuffle(order)
            shuffled = Distribution(
                tuple(law.outcomes[i] for i in order), tuple(law.probs[i] for i in order)
            )
            assert shuffled._digits is None
            assert hex_pair(shearer_kl_gap(spec, shuffled)) == hex_pair(
                shearer_kl_gap(spec, law)
            ), (direction, t)
            assert hex_pair(shearer_entropy_gap(shuffled, cover, k)) == hex_pair(
                shearer_entropy_gap(law, cover, k)
            ), (direction, t)


def kept_arrays(law):
    """Every array a law keeps: the conditioned law's, and the group-bys' first outcomes."""
    kept = [law._digits, law._prob_array, law._masses]
    return [a for a in kept if a is not None] + [first for first, _ in law._groups.values()]


@settings(max_examples=100, deadline=None)
@given(
    uniform_families() | weighted_families(),
    st.integers(0, 5),
    st.sampled_from(["ge", "le"]),
    st.booleans(),
)
def test_kept_group_bys_keep_the_oracle_bits(spec, t, direction, kl_first):
    # Either audit may run first and make the group-bys the other reads;
    # a second call reads them all. Conditioned and explicit laws alike.
    query = TailQuery(t, direction)
    assume(tail_prob(sum_pmf(spec), query) > 0.0)
    cover = [fn.vars for fn in spec.functions]
    k = min(cover_multiplicity(cover, spec.num_variables))
    law = conditional_law(spec, query)
    explicit = Distribution(law.outcomes, law.probs)
    want_kl = hex_pair(reference_shearer_kl_gap(spec, law))
    want_entropy = hex_pair(reference_shearer_entropy_gap(law, cover, k))
    for joint in (law, explicit):
        shown = repr(joint), dataclasses.asdict(joint)
        for _ in range(2):
            if kl_first:
                assert hex_pair(shearer_kl_gap(spec, joint)) == want_kl
            assert hex_pair(shearer_entropy_gap(joint, cover, k)) == want_entropy
            if not kl_first:
                assert hex_pair(shearer_kl_gap(spec, joint)) == want_kl
        # what the audits keep is no part of the law's value
        assert joint == explicit and hash(joint) == hash(explicit)
        assert (repr(joint), dataclasses.asdict(joint)) == shown
        kept = kept_arrays(joint)
        assert len(kept) == (3 if joint is law else 1) + len(set(map(tuple, cover)))
        assert not any(a.flags.writeable for a in kept)


@settings(max_examples=100, deadline=None)
@given(
    uniform_families() | weighted_families(),
    st.integers(0, 5),
    st.sampled_from(["ge", "le"]),
    st.integers(0, 2**16),
)
def test_kept_masses_serve_only_their_own_family(spec, t, direction, seed):
    # A family of the same shape with other weights, and one equal to the
    # law's own but another object: each gets its own oracle's bits, so the
    # masses the law keeps are read only for the family they belong to.
    query = TailQuery(t, direction)
    assume(tail_prob(sum_pmf(spec), query) > 0.0)
    law = conditional_law(spec, query)
    other = weighted_variant(spec, np.random.default_rng(seed))
    equal = FamilySpec(spec.variables, spec.functions)
    for family in (other, spec, equal, other):
        assert hex_pair(shearer_kl_gap(family, law)) == hex_pair(
            reference_shearer_kl_gap(family, law)
        )
    assert law._family is spec


@pytest.mark.parametrize(
    "outcomes",
    [
        (("a", "x"), ("b", "x"), ("a", "y"), ("c", "z"), ("b", "y")),
        # 1, 1.0 and True are one value, as are 0 and False: tuples compare equal by value
        ((1, "a"), (1.0, "b"), (True, "c"), (0, "a"), (False, "b"), (2, "a")),
    ],
    ids=["strings", "mixed-int-float-bool"],
)
def test_entropy_gap_groups_labels_by_equality(outcomes):
    rng = np.random.default_rng(3)
    raw = rng.random(len(outcomes)) + 0.1
    joint = Distribution(outcomes, tuple((raw / raw.sum()).tolist()))
    for cover in ([[0], [1]], [[0, 1], [0]], [[1, 0], [1]], [[], [0], [1]]):
        assert hex_pair(shearer_entropy_gap(joint, cover, 1)) == hex_pair(
            reference_shearer_entropy_gap(joint, cover, 1)
        )
    # three labels of coordinate 0 merge into one, so its projection has three outcomes
    if isinstance(outcomes[0][0], int):
        assert len(project(joint, [0]).outcomes) == 3


def with_digits(law):
    """The same law carrying its outcomes as digits, as a conditioned law does."""
    digits = np.array(law.outcomes, dtype=np.int32).T.copy()
    digits.flags.writeable = False
    return Distribution._trusted(law.outcomes, law.probs, digits)


def test_entropy_gap_on_a_cover_set_wider_than_int64_keys():
    # 70 binary coordinates span 2**70 keys. The outcomes differ only in
    # their first 6 bits, whose place values 2**64..2**69 wrap to 0 in
    # int64, so an unchecked key would merge all 64 of them into one.
    rng = np.random.default_rng(70)
    tail = tuple(rng.integers(0, 2, 64).tolist())
    outcomes = [tuple(bits) + tail for bits in itertools.product((0, 1), repeat=6)]
    outcomes += [tuple(rng.integers(0, 2, 70).tolist()) for _ in range(40)]
    outcomes = list(dict.fromkeys(outcomes))
    raw = rng.random(len(outcomes)) + 0.1
    joint = Distribution(tuple(outcomes), tuple((raw / raw.sum()).tolist()))
    cover = [list(range(70)), list(range(69, -1, -1)), list(range(3, 70))]
    want = reference_shearer_entropy_gap(joint, cover, 2)
    for law in (joint, with_digits(joint)):
        lhs, rhs = shearer_entropy_gap(law, cover, 2)
        assert hex_pair((lhs, rhs)) == hex_pair(want)
        # the full cover sets keep every outcome apart: each adds H(joint)
        assert rhs >= lhs


def test_law_of_another_family_of_the_same_width_is_out_of_range():
    wide = FamilySpec((Variable("a", 3), Variable("b", 3)), (ReadFunction("f", (0, 1), "0" * 9),))
    narrow = FamilySpec((Variable("a", 2), Variable("b", 2)), (ReadFunction("f", (0, 1), "0110"),))
    law = conditional_law(wide, TailQuery(0, "ge"))
    message = "outcome (0, 2): value 2 out of range at position 1"
    for joint in (law, Distribution(law.outcomes, law.probs)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            shearer_kl_gap(narrow, joint)


def test_kl_gap_with_a_norm_past_two_to_the_53():
    # 3**40 has no float64 of its own: the full-law divergence takes
    # p * float(norm) / mass, which must round as the scalar p * norm / mass.
    m = 40
    variables = tuple(Variable(f"x{i}", 3) for i in range(m))
    functions = tuple(
        ReadFunction(f"f{j}", (j, (j + 1) % m), "011010100") for j in range(0, m, 2)
    )
    spec = FamilySpec(variables, functions)
    assert math.prod(norm for _, norm in spec.laws) == 3**40 > 2**53
    law = Distribution(((0,) * m, tuple(i % 3 for i in range(m))), (0.3, 0.7))
    assert hex_pair(shearer_kl_gap(spec, law)) == hex_pair(reference_shearer_kl_gap(spec, law))


def test_kl_gap_overflows_to_inf_as_the_scalar_sum_does():
    # Pr[tail] = 1e-310: the full-law ratio p * norm / mass is 2e310, which
    # the scalar sum rounds to inf without a warning.
    spec = FamilySpec(
        (Variable("a", 2, (1e-310, 1 - 1e-310)), Variable("b", 2)),
        (ReadFunction("f", (0,), "10"), ReadFunction("g", (1,), "01")),
    )
    law = conditional_law(spec, TailQuery(2, "ge"))
    assert shearer_kl_gap(spec, law) == reference_shearer_kl_gap(spec, law) == (math.inf, math.inf)


@pytest.mark.parametrize(
    "span, itemsize", [(256, 1), (257, 2), (65536, 2), (65537, 4)], ids=str
)
def test_entropy_gap_at_the_key_type_boundaries(span, itemsize):
    # Coordinate 0 takes the values 0 and span - 1, so its cover set spans
    # exactly span keys: keys one type too narrow would wrap span - 1 onto
    # a smaller key and merge two outcomes of different values.
    rng = np.random.default_rng(span)
    outcomes = [(v, b) for v in (0, 1, span - 2, span - 1) for b in (0, 1)]
    raw = rng.random(len(outcomes)) + 0.1
    joint = with_digits(Distribution(tuple(outcomes), tuple((raw / raw.sum()).tolist())))
    keys = _mixed_radix([joint._digits[0]], [span], len(outcomes))
    assert keys.dtype.itemsize == itemsize and int(keys.max()) == span - 1
    cover = [[0], [1], [0, 1], [1, 0]]
    want = reference_shearer_entropy_gap(joint, cover, 2)
    for law in (joint, Distribution(joint.outcomes, joint.probs)):  # kept digits, then none
        assert hex_pair(shearer_entropy_gap(law, cover, 2)) == hex_pair(want)


def digit_columns(rng, radices, n, signed):
    """``n`` random rows of digits below ``radices``: int64 columns, or each in its narrowest unsigned type."""
    return [rng.integers(radix, size=n).astype(np.int64 if signed else np.min_scalar_type(radix - 1))
            for radix in radices]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 300) | st.sampled_from([255, 256, 257, 65535, 65536, 65537]),
             min_size=1, max_size=6),
    st.integers(0, 40), st.booleans(), st.integers(0, 2**32 - 1),
)
def test_mixed_radix_is_ravel_multi_index_in_the_narrowest_type(radices, n, signed, seed):
    # Ones among the radices leave a radix equal to the span: 256 beside
    # ones spans codes 0..255, a uint8, but the products must hold 256.
    while math.prod(radices) > _KEY_LIMIT:
        radices = radices[:-1]
    span = math.prod(radices)
    columns = digit_columns(np.random.default_rng(seed), radices, n, signed)
    before = [column.copy() for column in columns]
    codes = _mixed_radix(columns, radices, n)
    assert codes.dtype == np.min_scalar_type(span - 1)
    assert codes.tolist() == np.ravel_multi_index(columns, radices).tolist()
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(columns, before))
    # A lone column already of the codes' type is the codes, uncopied.
    assert (codes is columns[0]) == (len(columns) == 1 and not signed)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 7]), min_size=40, max_size=90),
       st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
def test_mixed_radix_past_the_key_limit_keeps_rows_apart_and_in_order(radices, n, signed, seed):
    # As in test_entropy_gap_on_a_cover_set_wider_than_int64_keys: past
    # 2**62 the leading columns' place values would wrap in int64.
    radices = [2] * 70 if math.prod(radices) <= _KEY_LIMIT else radices
    rng = np.random.default_rng(seed)
    columns = digit_columns(rng, radices, n, signed)
    # Rows repeat, and some differ from others only in their leading columns.
    picks = rng.integers(n, size=n)
    for c, column in enumerate(columns):
        column[:] = column[picks] if c >= 6 else column
    codes = _mixed_radix(columns, radices, n)
    assert codes.dtype.kind == "u"
    rows = list(zip(*[column.tolist() for column in columns]))
    keys = codes.tolist()
    for a, b in itertools.product(range(n), repeat=2):
        assert (keys[a] == keys[b]) == (rows[a] == rows[b])
        assert (keys[a] < keys[b]) == (rows[a] < rows[b])


def test_mixed_radix_edges():
    # A radix equal to the span: the codes fit a uint8, the product 1 * 256 does not.
    zeros, column = np.zeros(5, np.uint8), np.array([0, 1, 254, 255, 7], np.uint8)
    for columns, radices in (([zeros, column], [1, 256]), ([column, zeros], [256, 1])):
        codes = _mixed_radix(columns, radices, 5)
        assert codes.dtype == np.uint8 and codes.tolist() == column.tolist()
    wide = np.array([0, 1, 65535], np.uint16)
    codes = _mixed_radix([np.zeros(3, np.uint8), np.zeros(3, np.uint8), wide], [1, 1, 65536], 3)
    assert codes.dtype == np.uint16 and codes.tolist() == wide.tolist()
    # No column at all, a function of no variable: every row's code is 0.
    for size in (0, 1, 9):
        codes = _mixed_radix([], [], size)
        assert codes.dtype == np.uint8 and codes.tolist() == [0] * size
    # A lone unsigned column of a type wider than needed is returned itself.
    assert _mixed_radix([wide], [3], 3) is wide
    # Both sides of _KEY_LIMIT: a span of exactly 2**62 still gives positions; a
    # span that crosses it at the last column, or at the second, is re-coded to
    # ranks there, first over the leading columns ``radices[:cut]``.
    rng = np.random.default_rng(3)
    n = 40
    for (radices, cut), signed in itertools.product(
            [([2] * 62, None), ([2] * 63, 62), ([2**40, 2**30], 1)], [True, False]):
        picks = rng.integers(n // 2, size=n)  # rows repeat
        columns = [column[picks] for column in digit_columns(rng, radices, n, signed)]
        codes = _mixed_radix(columns, radices, n)
        rows = list(zip(*[column.tolist() for column in columns]))
        keys = codes.tolist()
        assert len(set(rows)) < n
        for a, b in itertools.product(range(n), repeat=2):
            assert (keys[a] == keys[b]) == (rows[a] == rows[b])
            assert (keys[a] < keys[b]) == (rows[a] < rows[b])
        if cut is None:
            assert codes.dtype == np.uint64
            assert keys == np.ravel_multi_index(columns, radices).tolist()
        else:
            leading = len({row[:cut] for row in rows})
            assert codes.dtype == np.min_scalar_type(leading * math.prod(radices[cut:]) - 1)


@st.composite
def repeated_values(draw):
    """Probabilities and masses drawn from small pools: heavy repeats, zeros and subnormals."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pool = [1.0] + [rng.random() for _ in range(rng.randint(1, 6))]
    n = rng.randint(0, 60)
    probs = [rng.choice(pool + [0.0, 1e-310, 5e-324]) for _ in range(n)]
    # Masses in [0, 1]. A zero mass makes the divergence inf, and so does a
    # subnormal one under most probabilities: only some cases hold them.
    rare = [x for x in (0.0, 1e-310) if rng.random() < 0.3]
    masses = [rng.choice(pool + rare) for _ in range(n)]
    norm = rng.choice([1, 3, 2**53 + 1, 3**40])
    return probs, masses, norm


@settings(max_examples=300, deadline=None)
@given(repeated_values())
def test_log_sum_is_bit_identical_to_per_outcome_sums(case):
    probs, masses, norm = case
    positive = np.array([p for p in probs if p > 0.0])
    assert max(_log_sum(-positive, positive), 0.0).hex() == _entropy_sum(probs).hex()
    divergence = _array_kl_sum(np.array(probs), np.array(masses), norm)
    assert divergence.hex() == _kl_sum(probs, masses, norm).hex()


def reference_kl_divergence(d1, d2):
    """The former loop of ``kl_divergence``: ``max(fsum(p ln(p/q)), 0)``, ``+inf`` off support."""
    terms = []
    for p, q in zip(d1.probs, d2.probs):
        if p == 0.0:
            continue
        if q == 0.0:
            return math.inf
        terms.append(p * math.log(p / q))
    return max(math.fsum(terms), 0.0)


@st.composite
def law_pairs(draw):
    """Two laws over one outcome set, zero and subnormal masses included."""
    n = draw(st.integers(1, 8))
    laws = []
    for _ in range(2):
        raw = draw(st.lists(st.just(0.0) | st.floats(1e-310, 1.0), min_size=n, max_size=n))
        total = math.fsum(raw)
        assume(total > 0.0)
        laws.append(Distribution(tuple(range(n)), tuple(x / total for x in raw)))
    return laws


@settings(max_examples=300, deadline=None)
@given(law_pairs())
def test_kl_divergence_is_bit_identical_to_loop_reference(laws):
    assert kl_divergence(*laws) == reference_kl_divergence(*laws)


def reference_components(spec):
    """Blocks by brute force: Warshall's transitive closure of "reads a common variable"."""
    reads = [set(fn.vars) for fn in spec.functions]
    r = len(reads)
    linked = [[a == b or bool(reads[a] & reads[b]) for b in range(r)] for a in range(r)]
    for via in range(r):
        for a in range(r):
            for b in range(r):
                linked[a][b] = linked[a][b] or (linked[a][via] and linked[via][b])
    blocks = sorted({tuple(b for b in range(r) if linked[a][b]) for a in range(r)})
    return tuple(
        Component(js, tuple(sorted(set().union(*(reads[j] for j in js))))) for js in blocks
    )


@st.composite
def read_structures(draw):
    """Binary variables read in any order; functions may read nothing, variables may go unread."""
    m = draw(st.integers(1, 8))
    functions = []
    for j in range(draw(st.integers(1, 10))):
        read = draw(st.lists(st.integers(0, m - 1), max_size=min(m, 4), unique=True))
        functions.append(ReadFunction(f"y{j}", tuple(read), "0" * 2 ** len(read)))
    return FamilySpec(tuple(Variable(f"x{i}", 2) for i in range(m)), tuple(functions))


@settings(max_examples=300, deadline=None)
@given(read_structures())
def test_dependency_components_match_brute_force_connectivity(spec):
    assert dependency_components(spec) == reference_components(spec)


def reference_draw_values(spec, uniforms):
    """The former inverse CDF: a clamped right ``searchsorted`` per variable, one row each."""
    values = np.empty(uniforms.shape[::-1], dtype=np.int64)
    for i, v in enumerate(spec.variables):
        cum = np.cumsum(np.asarray(v.probs))
        values[i] = np.minimum(np.searchsorted(cum, uniforms[:, i], side="right"), len(cum) - 1)
    return values


@st.composite
def mixed_variables(draw):
    """A seeded numpy generator, and 1-6 variables of supports 1-300 with some zero masses."""
    sizes = draw(st.lists(
        st.integers(1, 8) | st.sampled_from([20, 255, 256, 257]) | st.integers(1, 300),
        min_size=1, max_size=6,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.9]))
    variables = []
    for i, size in enumerate(sizes):
        raw = rng.random(size) * (rng.random(size) >= zero_share)
        raw[rng.integers(size)] += 1.0
        variables.append(Variable(f"x{i}", size, tuple((raw / raw.sum()).tolist())))
    return rng, tuple(variables)


@st.composite
def families_and_uniforms(draw):
    """Supports 1-300, on both sides of a uint8 count, zero masses, and edge uniforms.

    Each uniform is 0.0, the largest double below 1, one of its variable's
    cumulative thresholds or a neighbour of one, or an ordinary draw.
    """
    rng, variables = draw(mixed_variables())
    spec = FamilySpec(variables, (ReadFunction("y", (), "0"),))
    sizes = [v.support_size for v in variables]
    n = draw(st.integers(1, 40))
    uniforms = rng.random((n, len(sizes)))
    for i, v in enumerate(spec.variables):
        cum = np.cumsum(np.asarray(v.probs))
        edges = np.concatenate([
            [0.0, np.nextafter(1.0, 0.0)], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)
        ])
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        pick = rng.random(n) < 0.7
        uniforms[pick, i] = rng.choice(edges, size=int(pick.sum()))
    return spec, uniforms


@settings(max_examples=300, deadline=None)
@given(families_and_uniforms())
def test_draw_values_is_bit_identical_to_searchsorted_reference(case):
    spec, uniforms = case
    cdf = _inverse_cdf(spec)
    stale = np.full(uniforms.shape[::-1], 7, dtype=spec._layout.digits)
    # the sampler holds variable i in row cdf.rows[i]; back to variable order
    got = _draw_values(cdf, uniforms, stale)[cdf.rows]
    assert np.array_equal(got, reference_draw_values(spec, uniforms))


def reference_estimate(spec, query, samples, seed):
    """Tail fraction over samples drawn by the former inverse CDF, each looked up scalar-style."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = reference_draw_values(spec, rng.random((samples, spec.num_variables)))
    t = query.effective_threshold()
    hits = 0
    for assignment in zip(*values.tolist()):
        total = sum(eval_function(spec, j, assignment) for j in range(spec.num_functions))
        hits += total >= t if query.direction == "ge" else total <= t
    return hits / samples


@st.composite
def estimator_cases(draw):
    """Mixed supports in one family, reads in any order, repeated or reordered
    read tuples, constant functions, and sample counts across a chunk boundary."""
    rng, variables = draw(mixed_variables())
    sizes = [v.support_size for v in variables]
    reads = []
    for _ in range(draw(st.integers(1, 6))):
        if reads and draw(st.booleans()):
            read = draw(st.permutations(draw(st.sampled_from(reads))))
        else:
            read = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=3, unique=True))
        while math.prod(sizes[i] for i in read) > 4096:
            read = read[:-1]
        reads.append(tuple(read))
    functions = []
    for j, read in enumerate(reads):
        table = rng.choice(["0", "1"], math.prod(sizes[i] for i in read))
        functions.append(ReadFunction(f"y{j}", read, "".join(table)))
    query = TailQuery(draw(st.integers(-1, len(reads) + 1)), draw(st.sampled_from(["ge", "le"])))
    samples = draw(st.sampled_from([1, 2, 97, _SAMPLE_CHUNK, _SAMPLE_CHUNK + 1]))
    return FamilySpec(variables, tuple(functions)), query, samples, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(estimator_cases())
def test_estimate_matches_reference_sampler(case):
    spec, query, samples, seed = case
    assert estimate_tail(spec, query, samples, seed).estimate == reference_estimate(*case)


@st.composite
def kernel_cases(draw):
    """A family, digits of each of its variables, and a shuffled row layout for them.

    Tables of 1 to 4096 cells, with a 64-cell and a 65-cell table (the
    largest with a word, and the smallest without) read through two
    variables each, one in reverse order, so a group of tables over 64 cells
    stands beside a word group of the same arity; a function of four
    variables, which no drawn read has, so its group holds it alone;
    supports up to 300, so digits and positions take uint8 and uint16;
    functions of no and of one variable, and read tuples in any order.
    """
    rng, variables = draw(mixed_variables())
    variables += tuple(Variable(f"b{i}", size) for i, size in enumerate((8, 8, 5, 13, 2)))
    sizes = [v.support_size for v in variables]
    m = len(sizes)
    reads = [(m - 5, m - 4), (m - 2, m - 3), (m - 1, m - 5, m - 3, m - 2)]
    for _ in range(draw(st.integers(0, 6))):
        read = draw(st.permutations(range(m)))[:draw(st.integers(0, 3))]
        while math.prod(sizes[i] for i in read) > 4096:
            read = read[:-1]
        reads.append(tuple(read))
    functions = []
    for j, read in enumerate(reads):
        table = rng.choice(["0", "1"], math.prod(sizes[i] for i in read))
        functions.append(ReadFunction(f"y{j}", read, "".join(table)))
    spec = FamilySpec(variables, tuple(functions))
    n = draw(st.integers(1, 50))
    dtype = np.min_scalar_type(max(sizes) - 1)
    digits = np.array([rng.integers(size, size=n) for size in sizes], dtype=dtype)
    rows = draw(st.permutations(range(m)))
    return spec, digits, rows


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_table_positions_and_function_sums_match_scalar_reference(case):
    spec, digits, rows = case
    values = np.empty_like(digits)
    values[rows] = digits
    n = digits.shape[1]
    assignments = list(zip(*digits.tolist()))
    sizes = [v.support_size for v in spec.variables]
    # Blocks of one column, of 7, and of the default budget: a batch spans
    # several blocks, and its last one is short.
    for cells in (1, 7 * spec.num_functions, _LOOKUP_CELLS):
        with mock.patch("readk.exact._LOOKUP_CELLS", cells):
            lookup = _Lookup(spec, rows, n)
        # A batch of other assignments first leaves junk in every buffer.
        lookup.sums_of(values[:, ::-1])
        # The full batch, then a shorter one: its last columns.
        for batch, cut in ((values, assignments), (values[:, n // 2:], assignments[n // 2:])):
            for j, fn in enumerate(spec.functions):
                columns = [batch[rows[i]] for i in fn.vars]
                pos = _mixed_radix(columns, [sizes[i] for i in fn.vars], batch.shape[1])
                assert pos.tolist() == [table_index(spec, j, a) for a in cut]
                if len(fn.vars) == 1:
                    assert np.shares_memory(pos, batch)
            want = [sum(eval_function(spec, j, a) for j in range(spec.num_functions)) for a in cut]
            assert lookup.sums_of(batch).tolist() == want
