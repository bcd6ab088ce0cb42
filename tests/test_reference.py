"""Cross-validation of the vectorized engine against a scalar reference.

The reference path enumerates assignments with itertools.product and
evaluates functions one at a time through the scalar truth-table lookup,
so it shares no indexing or reduction code with the numpy engine.
"""

import itertools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from readk.audit import conditional_law, proof_trace, shearer_entropy_gap, shearer_kl_gap
from readk.errors import DomainError
from readk.exact import (
    TailQuery,
    _eliminate_pmf,
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
    dependency_components,
    eval_function,
    read_width,
)
from readk.generators import gen_random_family
from readk.info_theory import (
    Distribution,
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


def per_component_reference(spec):
    """Every component eliminated on its own, then the same sequential convolution."""
    acc = None
    for comp in dependency_components(spec):
        part = _eliminate_pmf(spec, comp, enumeration_guard())
        acc = part if acc is None else np.convolve(acc, part)
    return tuple(float(p) for p in acc)


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
    # Equal keys: 0.0 == -0.0, and a zero's sign never reaches the pmf.
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
def repeated_block_unions(draw):
    """Disjoint unions of random blocks, some repeated, plus the look-alikes, in any order.

    Each copy of a block reads its own variables, scattered over the family
    by a random permutation; a copy either keeps its variables' relative
    order (equal signature) or takes them in permuted order.
    """
    originals = draw(st.lists(blocks(), min_size=1, max_size=4))
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


def test_trace_terms_match_distribution_level_reference():
    check_trace_terms(gen_random_family(m=5, r=5, k=2, max_arity=2, seed=9), t=3)


@pytest.mark.parametrize("seed", [9, 10, 11])
def test_weighted_trace_terms_match_distribution_level_reference(seed):
    spec = gen_random_family(m=5, r=5, k=2, max_arity=2, seed=seed)
    check_trace_terms(weighted_variant(spec, np.random.default_rng(seed)), t=3)


def check_trace_terms(spec, t):
    """All five trace terms against the product law materialized scalar-style."""
    r = spec.num_functions
    k = read_width(spec)
    trace = proof_trace(spec, TailQuery(t, "ge"))

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
    stale = np.full(uniforms.shape[::-1], 7, dtype=cdf.dtype)
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
