import itertools
import math
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from readk.audit import shearer_entropy_gap
from readk.bounds import BoundQuery, shearer_and_bound
from readk.errors import DomainError, ValidationError, _check_real
from readk.exact import SumPmf, TailQuery, _verify_rows
from readk.family import (
    FamilySpec,
    ReadFunction,
    Variable,
    dependency_components,
    eval_function,
    family_from_json,
    family_to_json,
    read_width,
)
from readk.generators import gen_block_tight, gen_random_family
from readk.info_theory import Distribution
from readk.sampler import estimate_tail


def spec_of(pattern, m=None):
    """Family of fair bits whose j-th function reads the j-th index set."""
    m = m if m is not None else max((i for p in pattern for i in p), default=0) + 1
    variables = tuple(Variable(f"x{i}", 2) for i in range(m))
    functions = tuple(
        ReadFunction(f"y{j}", tuple(p), "01" * (2 ** len(p) // 2) if p else "1")
        for j, p in enumerate(pattern)
    )
    return FamilySpec(variables, functions)


class TestReadWidth:
    def test_disjoint_reads(self):
        assert read_width(spec_of([(0,), (1,), (2,)])) == 1

    def test_shared_index_counts_occurrences(self):
        assert read_width(spec_of([(0, 1), (1, 2), (1,)])) == 3

    def test_block_family(self, block_family):
        assert read_width(block_family) == 2

    def test_all_constants(self):
        spec = FamilySpec((Variable("x0", 2),), (ReadFunction("y0", (), "1"),))
        assert read_width(spec) == 0


class TestEvalFunction:
    def test_nullary_constant(self):
        spec = FamilySpec((Variable("x0", 2),), (ReadFunction("c1", (), "1"),))
        assert eval_function(spec, 0, (0,)) == 1
        assert eval_function(spec, 0, (1,)) == 1

    def test_xor_rows(self, xor_family):
        assert eval_function(xor_family, 1, (1, 0)) == 1
        assert eval_function(xor_family, 1, (1, 1)) == 0
        assert eval_function(xor_family, 1, (0, 1)) == 1
        assert eval_function(xor_family, 1, (0, 0)) == 0

    def test_exhaustive_against_direct_indexing(self):
        # three-valued x0, binary x1: first listed variable most significant
        spec = FamilySpec(
            (Variable("x0", 3), Variable("x1", 2)),
            (ReadFunction("y0", (0, 1), "010011"),),
        )
        table = "010011"
        for v0, v1 in itertools.product(range(3), range(2)):
            assert eval_function(spec, 0, (v0, v1)) == int(table[v0 * 2 + v1])

    def test_listed_order_sets_significance(self):
        spec = FamilySpec(
            (Variable("x0", 2), Variable("x1", 2)),
            (ReadFunction("y0", (1, 0), "0100"),),
        )
        # table row 1 corresponds to x1=0, x0=1
        assert eval_function(spec, 0, (1, 0)) == 1
        assert eval_function(spec, 0, (0, 1)) == 0

    def test_out_of_range_value(self, xor_family):
        with pytest.raises(DomainError):
            eval_function(xor_family, 0, (2, 0))


class TestDependencyComponents:
    def test_disjoint_gives_singletons(self):
        comps = dependency_components(spec_of([(0,), (1,), (2,)]))
        assert [c.functions for c in comps] == [(0,), (1,), (2,)]
        assert [c.variables for c in comps] == [(0,), (1,), (2,)]

    def test_star_is_one_component(self):
        comps = dependency_components(spec_of([(0, 1), (0, 2), (0, 3)]))
        assert len(comps) == 1
        assert comps[0].functions == (0, 1, 2)
        assert comps[0].variables == (0, 1, 2, 3)

    def test_chain_merges_transitively(self):
        comps = dependency_components(spec_of([(0, 1), (1,), (2,)]))
        assert [c.functions for c in comps] == [(0, 1), (2,)]

    def test_is_a_partition(self):
        spec = spec_of([(0, 1), (2,), (1, 3), (4,)], m=6)
        comps = dependency_components(spec)
        seen_functions = sorted(j for c in comps for j in c.functions)
        assert seen_functions == list(range(spec.num_functions))
        seen_vars = [i for c in comps for i in c.variables]
        assert len(seen_vars) == len(set(seen_vars))  # variable sets disjoint
        assert 5 not in seen_vars  # unread variable attached to no component


class TestKeptStructure:
    """What a family keeps: shared read-only laws of unchanged values, and the compact partition."""

    LAWS = ((0.5, 0.5), (0.5000000000000001, 0.4999999999999999), (0.0, 1.0), (-0.0, 1.0), (0.5, 0.5))

    def spec(self):
        variables = tuple(Variable(f"x{i}", 2, law) for i, law in enumerate(self.LAWS))
        functions = tuple(ReadFunction(f"y{j}", (j % 5, (j + 1) % 5), "0111") for j in range(10))
        return FamilySpec(variables, functions)

    def test_laws_keep_every_bit_and_share_equal_ones(self):
        spec = self.spec()
        for v, (masses, norm) in zip(spec.variables, spec.laws):
            want = [1.0, 1.0] if v.is_uniform else list(v.probs)
            assert [x.hex() for x in masses.tolist()] == [x.hex() for x in want]
            assert norm == (2 if v.is_uniform else 1)
            assert not masses.flags.writeable
        assert spec.laws[0] is spec.laws[4]
        assert len({id(law) for law in spec.laws}) == 4

    def test_cell_laws_keep_every_bit(self):
        spec = self.spec()
        cells, norms = spec._cell_laws
        for fn, masses, norm in zip(spec.functions, cells, norms):
            (a, na), (b, nb) = (spec.laws[i] for i in fn.vars)
            want = np.multiply.outer(np.multiply.outer([1.0], a).ravel(), b).ravel()
            assert [x.hex() for x in masses.tolist()] == [x.hex() for x in want.tolist()]
            assert norm == na * nb
            assert not masses.flags.writeable
        assert cells[0] is cells[5]  # y0 and y5 read (x0, x1) and (x0, x1)

    def test_partition_is_compact_and_read_only(self):
        spec = spec_of([(0, 1), (2,), (1, 3), (4,), ()], m=6)
        part, classes = spec._partition, spec._classes
        assert part.function_component.tolist() == [0, 1, 0, 2, 3]
        assert part.variable_component.tolist() == [0, 0, 1, 0, 2, -1]
        assert (part.components, part.read_width) == (4, 2)
        # y1 and y3 each read one fair bit through "01": one class
        assert classes.component_class.tolist() == [0, 1, 1, 2]
        assert [c.functions for c in classes.representatives] == [(0, 2), (1,), (4,)]
        for array in (part.function_component, part.variable_component, classes.component_class):
            assert not array.flags.writeable

    def test_words_hold_the_tables_of_at_most_64_cells(self):
        # Tables of 1, 2, 9, 64, 65 and 128 cells, grouped by arity and lookup mode.
        sizes = (2, 3, 3, 8, 8, 5, 13, 2)
        variables = tuple(Variable(f"x{i}", s) for i, s in enumerate(sizes))
        rng = np.random.default_rng(64)
        reads = [(), (0,), (1, 2), (3, 4), (6, 5), (3, 4, 7)]
        tables = ["".join(rng.choice(["0", "1"], math.prod(sizes[i] for i in read))) for read in reads]
        spec = FamilySpec(variables, tuple(
            ReadFunction(f"y{j}", read, table) for j, (read, table) in enumerate(zip(reads, tables))
        ))
        assert [len(t) for t in spec.tables] == [1, 2, 9, 64, 65, 128]
        layout = spec._layout
        assert layout.ones == int(tables[0])  # y0 reads nothing: the same on every assignment
        groups = {(len(g.reads), g.words is not None): g for g in layout.groups}
        members = {(1, True): [1], (2, True): [2, 3], (2, False): [4], (3, False): [5]}
        assert list(groups) == list(members)  # in order of their first function
        for key, fns in members.items():
            group = groups[key]
            assert group.reads.T.tolist() == [list(reads[j]) for j in fns]
            assert group.radices[..., 0].T.tolist() == [[sizes[i] for i in reads[j][1:]] for j in fns]
            for array in (group.reads, group.radices, group.words, group.offsets, group.cells):
                assert array is None or not array.flags.writeable
            if group.words is None:  # concatenated, each table at its offset
                assert group.offsets[:, 0].tolist() == [0] and group.cells.tolist() == [
                    int(c) for c in tables[fns[0]]]
                continue
            for word, j in zip(group.words[:, 0].tolist(), fns):
                table = spec.tables[j]
                assert [(word >> c) & 1 for c in range(len(table))] == table.tolist()
                assert word >> len(table) == 0
        # Each group's words take the narrowest type that holds them: the 64-cell table sets y2's.
        assert groups[(1, True)].words.dtype == np.uint8
        assert groups[(2, True)].words.dtype == np.uint64
        # Positions hold the digits, every radix and each table's largest position.
        assert [groups[key].positions for key in members] == [np.uint8, np.uint8, np.uint8, np.uint8]
        assert spec._layout is spec._layout
        assert self.spec()._layout.groups[0].words.dtype == np.uint8  # tables of 4 cells


class TestValidation:
    def test_wrong_table_length(self):
        with pytest.raises(ValidationError):
            FamilySpec((Variable("x", 2),), (ReadFunction("y", (0,), "0110"),))

    def test_bad_table_characters(self):
        with pytest.raises(ValidationError):
            FamilySpec((Variable("x", 2),), (ReadFunction("y", (0,), "ab"),))

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValidationError):
            FamilySpec((Variable("x", 2),), (ReadFunction("y", (0, 0), "0110"),))

    def test_unnormalized_variable(self):
        with pytest.raises(ValidationError):
            Variable("x", 2, (0.5, 0.6))

    def test_var_index_out_of_range(self):
        with pytest.raises(ValidationError):
            FamilySpec((Variable("x", 2),), (ReadFunction("y", (1,), "01"),))

    def test_numpy_probs_equal_tuple_probs(self):
        assert Variable("x", 2, np.array([0.3, 0.7])) == Variable("x", 2, (0.3, 0.7))

    def test_empty_probs_array_means_uniform(self):
        assert Variable("x", 2, np.array([])) == Variable("x", 2)


_BITS = FamilySpec((Variable("x", 2), Variable("z", 2)), (ReadFunction("y", (0, 1), "0110"),))
_LAW = Distribution(((0, 0), (1, 1)), (0.5, 0.5))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Variable("x", True), ValidationError,
         "support_size must be a positive int, got True"),
        (lambda: FamilySpec(_BITS.variables, (ReadFunction("y", (True,), "01"),)),
         ValidationError, "function 'y': variable index True is not an int"),
        (lambda: FamilySpec(_BITS.variables, (ReadFunction("y", (np.int64(0),), "01"),)),
         ValidationError, "function 'y': variable index np.int64(0) is not an int"),
        (lambda: BoundQuery(True, 1, 0.5, 0.5), DomainError, "r must be a positive int, got True"),
        (lambda: BoundQuery(4, True, 0.5, 0.25), DomainError, "k must be a positive int, got True"),
        (lambda: shearer_entropy_gap(_LAW, [(0,), (1,)], True), DomainError,
         "k must be a non-negative int, got True"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), True, 0), DomainError,
         "samples must be a positive int, got True"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), 2.5, 0), DomainError,
         "samples must be a positive int, got 2.5"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), np.int64(10), 0), DomainError,
         "samples must be a positive int, got np.int64(10)"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), 10, True), DomainError,
         "seed must be a non-negative int, got True"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), 10, 1.5), DomainError,
         "seed must be a non-negative int, got 1.5"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), 10, -1), DomainError,
         "seed must be a non-negative int, got -1"),
        (lambda: gen_block_tight(True, 2, "1/2"), DomainError, "k must be a positive int, got True"),
        (lambda: gen_block_tight(2, 2.0, "1/2"), DomainError,
         "blocks must be a positive int, got 2.0"),
        (lambda: gen_random_family(True, 1, 1, 1, 0), DomainError,
         "m must be a positive int, got True"),
        (lambda: gen_random_family(4, 3, True, 2, 0), DomainError,
         "k must be a positive int, got True"),
        (lambda: gen_random_family(4, 3, 2, 2, -1), DomainError,
         "seed must be a non-negative int, got -1"),
    ],
    ids=["support", "read-index", "read-index-numpy", "bound-r", "bound-k", "shearer-k",
         "samples-bool", "samples-float", "samples-numpy", "seed-bool", "seed-float",
         "seed-negative", "block-k-bool", "block-count-float", "random-m-bool", "random-k-bool",
         "random-seed-negative"],
)
def test_booleans_and_non_ints_are_rejected_where_ints_belong(call, error, message):
    # bool is a subclass of int: True would otherwise pass as 1
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is error


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TailQuery("3"), "threshold must be a real number, got '3'"),
        (lambda: TailQuery(None), "threshold must be a real number, got None"),
        (lambda: TailQuery(True), "threshold must be a real number, got True"),
        (lambda: TailQuery(np.bool_(True), "le"), "threshold must be a real number, got np.True_"),
        (lambda: BoundQuery(10, 2, "0.5", 0.1), "p must be a real number, got '0.5'"),
        (lambda: BoundQuery(10, 2, 0.5, "0.1"), "eps must be a real number, got '0.1'"),
        (lambda: BoundQuery(10, 2, True, 0.1), "p must be a real number, got True"),
        (lambda: BoundQuery(10, 2, 0.5, True), "eps must be a real number, got True"),
    ],
    ids=["threshold-str", "threshold-none", "threshold-bool", "threshold-numpy-bool",
         "bound-p-str", "bound-eps-str", "bound-p-bool", "bound-eps-bool"],
)
def test_booleans_and_non_numbers_are_rejected_where_reals_belong(call, message):
    # bool is a subclass of int: True would otherwise pass as 1
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is DomainError


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Variable("x", 2, (True, False)), "variable 'x': a probability must be a real number, got True"),
        (lambda: Variable("x", 2, ("0.5", "0.5")), "variable 'x': a probability must be a real number, got '0.5'"),
        (lambda: Variable("x", 2, (0.5, np.bool_(True))),
         "variable 'x': a probability must be a real number, got np.True_"),
        (lambda: Variable("x", 2, (Decimal("0.5"), 0.5)),
         "variable 'x': a probability must be a real number, got Decimal('0.5')"),
        (lambda: Distribution(("a", "b"), (True, False)), "distribution: a probability must be a real number, got True"),
        (lambda: Distribution(("a", "b"), (0.5, None)), "distribution: a probability must be a real number, got None"),
        (lambda: SumPmf(("1", 0)), "pmf: a probability must be a real number, got '1'"),
    ],
    ids=["variable-bool", "variable-str", "variable-numpy-bool", "variable-decimal", "distribution-bool",
         "distribution-none", "pmf-str"],
)
def test_booleans_and_non_numbers_are_rejected_as_probabilities(call, message):
    # float() would take True as 1.0 and "0.5" as 0.5
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is ValidationError


@pytest.mark.parametrize("probs", [
    (1, 0), (0.25, 0.75), (Fraction(1, 3), Fraction(2, 3)), (np.float32(0.5), np.float64(0.5)),
    (np.int64(0), 1), (1, 0.0),
], ids=repr)
def test_real_probabilities_of_every_kind_pass_as_floats(probs):
    for got in (Variable("x", 2, probs).probs, Distribution(("a", "b"), probs).probs, SumPmf(probs).probs):
        assert got == tuple(map(float, probs)) and {type(p) for p in got} == {float}


def test_float_and_int_probabilities_are_checked_without_numbers_or_numpy():
    code = ("import sys; from readk.info_theory import Distribution; "
            "Distribution(('a', 'b'), (0.25, 0.75)); Distribution(('a', 'b'), (1, 0)); "
            "print('numbers' in sys.modules, 'numpy' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout == "False False\n"


class _Count(int):
    pass


@pytest.mark.parametrize("value, real", [
    (5, True), (-3, True), (0, True), (2**70, True), (2.5, True), (_Count(4), True),
    (Fraction(1, 3), True), (np.int64(2), True), (np.float32(2.5), True),
    (True, False), (np.bool_(False), False), (Decimal("1"), False), ("3", False),
    (None, False), (1j, False),
], ids=repr)
def test_real_check_verdicts(value, real):
    if real:
        _check_real(value, "x")
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(f'x must be a real number, got {value!r}')}$"):
            _check_real(value, "x")


def test_ints_and_floats_pass_the_real_check_without_the_numbers_module():
    code = ("import sys; from readk.bounds import BoundQuery; from readk.errors import _check_real; "
            "_check_real(5, 't'); _check_real(2.5, 't'); BoundQuery(10, 1, 1, 0.5, 'lower'); "
            "print('numbers' in sys.modules, 'numpy' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout == "False False\n"


def test_numpy_numbers_are_accepted_where_reals_belong():
    assert TailQuery(np.float32(2.5)).effective_threshold() == 3
    assert TailQuery(np.int64(2), "le").effective_threshold() == 2
    query = BoundQuery(10, 2, np.float64(0.5), np.float32(0.25))
    assert query.shifted_mean() == 0.75


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Variable(1, 2), "variable name 1 is not a str"),
        (lambda: FamilySpec(_BITS.variables, (ReadFunction(1, (0,), "01"),)),
         "function name 1 is not a str"),
        (lambda: FamilySpec(_BITS.variables, (ReadFunction("y", (0,), [0, 1]),)),
         "function 'y': truth table [0, 1] is not a str"),
        (lambda: FamilySpec(_BITS.variables, (ReadFunction("y", (2,), "01"),)),
         "function 'y': variable index 2 out of range"),
    ],
    ids=["variable-name", "function-name", "table-list", "read-index-range"],
)
def test_library_path_rejects_what_the_file_format_rejects(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FamilySpec((), _BITS.functions), ValidationError,
         "family needs at least one variable"),
        (lambda: FamilySpec(_BITS.variables, ()), ValidationError,
         "family needs at least one function"),
        (lambda: family_from_json('{"variables": []}'), ValidationError,
         "family: missing keys ['functions']"),
        (lambda: eval_function(_BITS, 9, (0,) * _BITS.num_variables), DomainError,
         "function index 9 out of range"),
        (lambda: eval_function(_BITS, 0, (0,)), DomainError,
         f"assignment has 1 values for {_BITS.num_variables} variables"),
        (lambda: Distribution.uniform([]), ValidationError,
         "uniform distribution needs a non-empty set"),
        (lambda: Distribution.point_mass("c", ["a", "b"]), DomainError,
         "'c' is not among the outcomes"),
        (lambda: Distribution.uniform(["a", "b"]).prob_of("c"), DomainError,
         "'c' is not among the outcomes"),
        (lambda: gen_block_tight(1, 2, "x/y"), DomainError,
         "cannot read 'x/y' as a rational: "),
        (lambda: TailQuery(1, "gt"), DomainError, "direction must be 'ge' or 'le', got 'gt'"),
        (lambda: BoundQuery(10, 2, 0.5, 0.1, direction="side"), DomainError,
         "direction must be 'upper' or 'lower', got 'side'"),
        (lambda: shearer_and_bound(3, 1, 1.5), DomainError, "p must lie in [0, 1], got 1.5"),
        (lambda: _verify_rows(_BITS, math.nan), DomainError,
         "tol must be finite and >= 0, got nan"),
    ],
    ids=["no-variables", "no-functions", "json-missing-key", "eval-index", "eval-length",
         "uniform-empty", "point-mass-unlisted", "prob-of-missing", "rational", "tail-direction",
         "bound-direction", "and-bound-p", "verify-tol"],
)
def test_bad_arguments_raise_their_class_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}") as raised:
        call()
    assert type(raised.value) is error
    assert "\n" not in str(raised.value)


#: One well-formed variable, for cases whose fault is in the functions.
ONE_VARIABLE = '[{"name": "x", "support": 2}]'
TWO_VARIABLES = '[{"name": "x", "support": 2}, {"name": "z", "support": 2}]'
#: One well-formed function of a binary variable 0, for cases whose fault is in the variables.
ONE_FUNCTION = '[{"name": "y", "vars": [0], "truth_table": "01"}]'


class TestFileFormat:
    def test_round_trip(self, xor_family):
        text = family_to_json(xor_family)
        again = family_from_json(text)
        assert again == xor_family
        assert family_to_json(again) == text

    def test_probs_optional_means_uniform(self):
        for variable in ('{"name": "x", "support": 4}', '{"name": "x", "support": 4, "probs": []}'):
            spec = family_from_json(
                f'{{"variables": [{variable}],'
                ' "functions": [{"name": "y", "vars": [0], "truth_table": "0101"}]}'
            )
            assert spec.variables[0].probs == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_wrong_length_table(self):
        with pytest.raises(ValidationError):
            family_from_json(
                '{"variables": [{"name": "x", "support": 2}],'
                ' "functions": [{"name": "y", "vars": [0], "truth_table": "011"}]}'
            )

    def test_rejects_unnormalized_probs(self):
        with pytest.raises(ValidationError):
            family_from_json(
                '{"variables": [{"name": "x", "support": 2, "probs": [0.9, 0.2]}],'
                ' "functions": [{"name": "y", "vars": [0], "truth_table": "01"}]}'
            )

    def test_rejects_malformed_json(self):
        with pytest.raises(ValidationError):
            family_from_json("{not json")

    @pytest.mark.parametrize(
        "variables, functions",
        [
            ("5", "[]"),
            ("[3]", "[]"),
            ('[{"name": "x", "support": 2, "probs": [0.5, null]}]', "[]"),
            ('[{"name": "x", "support": 2, "probs": "ab"}]', "[]"),
            (ONE_VARIABLE, '{"name": "y"}'),
            (ONE_VARIABLE, '["y"]'),
            (ONE_VARIABLE, '[{"name": "y", "vars": 0, "truth_table": "01"}]'),
            (ONE_VARIABLE, '[{"name": "y", "vars": [[0]], "truth_table": "01"}]'),
            # JSON booleans are not numbers; each family below is otherwise valid.
            ('[{"name": "x", "support": true}]', ONE_FUNCTION),
            ('[{"name": "x", "support": 2, "probs": [true, false]}]', ONE_FUNCTION),
            (TWO_VARIABLES, '[{"name": "y", "vars": [true], "truth_table": "01"}]'),
            (ONE_VARIABLE, '[{"name": "y", "vars": [0], "truth_table": 10}]'),
            # Only a missing "probs" (or []) means uniform; a falsy non-list does not.
            ('[{"name": "x", "support": 2, "probs": 0}]', ONE_FUNCTION),
            ('[{"name": "x", "support": 2, "probs": false}]', ONE_FUNCTION),
            ('[{"name": "x", "support": 2, "probs": ""}]', ONE_FUNCTION),
            ('[{"name": "x", "support": 2, "probs": null}]', ONE_FUNCTION),
            ('[{"name": true, "support": 2}]', ONE_FUNCTION),
            ('[{"name": null, "support": 2}]', ONE_FUNCTION),
            (ONE_VARIABLE, '[{"name": 7, "vars": [0], "truth_table": "01"}]'),
            (ONE_VARIABLE, '[{"name": false, "vars": [0], "truth_table": "01"}]'),
        ],
        ids=["variables-number", "variable-number", "probs-null", "probs-string",
             "functions-object", "function-string", "vars-number", "vars-nested",
             "support-bool", "probs-bool", "vars-bool", "table-number",
             "probs-zero", "probs-false", "probs-empty-string", "probs-is-null",
             "variable-name-bool", "variable-name-null", "function-name-number",
             "function-name-bool"],
    )
    def test_rejects_wrong_json_types(self, variables, functions):
        with pytest.raises(ValidationError) as info:
            family_from_json(f'{{"variables": {variables}, "functions": {functions}}}')
        assert "\n" not in str(info.value)
        assert "has the wrong JSON type" in str(info.value)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            family_from_json(
                '{"variables": [{"name": "x", "support": 2, "weight": 1}],'
                ' "functions": [{"name": "y", "vars": [0], "truth_table": "01"}]}'
            )
