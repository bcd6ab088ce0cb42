import itertools
import re

import pytest

from readk.audit import shearer_entropy_gap
from readk.bounds import BoundQuery
from readk.errors import DomainError, ValidationError
from readk.exact import TailQuery
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


_BITS = FamilySpec((Variable("x", 2), Variable("z", 2)), (ReadFunction("y", (0, 1), "0110"),))
_LAW = Distribution(((0, 0), (1, 1)), (0.5, 0.5))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Variable("x", True), ValidationError,
         "support_size must be a positive int, got True"),
        (lambda: FamilySpec(_BITS.variables, (ReadFunction("y", (True,), "01"),)),
         ValidationError, "function 'y': variable index True out of range"),
        (lambda: BoundQuery(True, 1, 0.5, 0.5), DomainError, "r must be a positive int, got True"),
        (lambda: BoundQuery(4, True, 0.5, 0.25), DomainError, "k must be a positive int, got True"),
        (lambda: shearer_entropy_gap(_LAW, [(0,), (1,)], True), DomainError,
         "k must be a non-negative int, got True"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), True, 0), DomainError,
         "samples must be >= 1, got True"),
        (lambda: estimate_tail(_BITS, TailQuery(1, "ge"), 2.5, 0), DomainError,
         "samples must be >= 1, got 2.5"),
    ],
    ids=["support", "read-index", "bound-r", "bound-k", "shearer-k", "samples-bool",
         "samples-float"],
)
def test_booleans_and_non_ints_are_rejected_where_ints_belong(call, error, message):
    # bool is a subclass of int: True would otherwise pass as 1
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call()
    assert type(raised.value) is error


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
        spec = family_from_json(
            '{"variables": [{"name": "x", "support": 4}],'
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
        ],
        ids=["variables-number", "variable-number", "probs-null", "probs-string",
             "functions-object", "function-string", "vars-number", "vars-nested",
             "support-bool", "probs-bool", "vars-bool", "table-number"],
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
