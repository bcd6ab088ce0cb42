"""Library results pinned bit for bit, as ``float.hex`` strings.

The tolerance tests elsewhere would pass a change that moves a result in
its last bits; these do not. Each family is a seeded
``gen_random_family(m, r, k, max_arity, seed)`` and its weighted variant,
in which every variable is weighted and variable 0 has a value of
probability zero. The tail event is ``Y >= ceil(E[Y])``, and the entropy
gap takes the functions' read sets as the cover, at the least multiplicity.
"""

import math

import pytest

from readk import (
    FamilySpec,
    TailQuery,
    Variable,
    conditional_law,
    function_marginals,
    gen_random_family,
    proof_trace,
    shearer_entropy_gap,
    shearer_kl_gap,
    sum_pmf,
    sum_pmf_enumerate,
)


def weighted(spec: FamilySpec) -> FamilySpec:
    """Every variable weighted: variable 0 as (0, 1, ..., 1), the others as (0.7, 1.7, ...)."""
    variables = list(spec.variables)
    for i in range(len(variables)):
        s = variables[i].support_size
        w = [0.0] + [1.0] * (s - 1) if i == 0 else [j + 0.7 for j in range(s)]
        variables[i] = Variable(variables[i].name, s, tuple(x / sum(w) for x in w))
    return FamilySpec(tuple(variables), spec.functions)


def results(spec: FamilySpec) -> dict[str, list[str]]:
    query = TailQuery(float(math.ceil(sum_pmf(spec).mean() - 1e-9)), "ge")
    law = conditional_law(spec, query)
    cover = [fn.vars for fn in spec.functions]
    k = min(sum(i in c for c in cover) for i in range(spec.num_variables))
    values = {
        "function_marginals": function_marginals(spec).per_function,
        "proof_trace": proof_trace(spec, query, check=False).terms(),
        "shearer_kl_gap": shearer_kl_gap(spec, law),
        "shearer_entropy_gap": shearer_entropy_gap(law, cover, k),
        "sum_pmf_enumerate": sum_pmf_enumerate(spec).probs,
    }
    return {name: [float(x).hex() for x in v] for name, v in values.items()}


PINNED = {
    ((6, 5, 2, 2, 3), "uniform"): {
        "function_marginals": [
            "0x1.5555555555555p-3", "0x1.5555555555555p-2", "0x1.8000000000000p-1",
            "0x1.0000000000000p+0", "0x1.5555555555555p-2",
        ],
        "proof_trace": [
            "0x1.54dcf2eb79b04p-1", "0x1.34e36ab8c2d08p-2", "0x1.f70aab58ed5b0p-3",
            "0x1.443bea575ea43p-3", "0x1.1f2ceca67758ap-5",
        ],
        "shearer_kl_gap": [
            "0x1.54dcf2eb79b05p+0", "0x1.34e36ab8c2d08p-1",
        ],
        "shearer_entropy_gap": [
            "0x1.1375cd6fcab1cp+2", "0x1.b67db45cbe81bp+2",
        ],
        "sum_pmf_enumerate": [
            "0x0.0p+0", "0x1.5555555555555p-3", "0x1.471c71c71c71cp-2", "0x1.5555555555555p-2",
            "0x1.0000000000000p-3", "0x1.c71c71c71c71cp-5",
        ],
    },
    ((6, 5, 2, 2, 3), "weighted"): {
        "function_marginals": [
            "0x1.2aaaaaaaaaaabp-3", "0x1.0000000000000p-1", "0x1.fe38e38e38e3ap-2",
            "0x1.0000000000000p+0", "0x1.01ac5701ac571p-2",
        ],
        "proof_trace": [
            "0x1.9afb1797e8abfp-1", "0x1.956bac16d370bp-2", "0x1.561fe2e928983p-2",
            "0x1.ca62cc25b7893p-3", "0x1.2c917d07af132p-4",
        ],
        "shearer_kl_gap": [
            "0x1.9afb1797e8abfp+0", "0x1.956bac16d3710p-1",
        ],
        "shearer_entropy_gap": [
            "0x1.dc1e8afb63022p+1", "0x1.80cfac8c5a90cp+2",
        ],
        "sum_pmf_enumerate": [
            "0x0.0p+0", "0x1.00e38e38e38e5p-2", "0x1.343ccb03e775bp-2", "0x1.2534fc188a518p-2",
            "0x1.002dbbf4d866bp-3", "0x1.2c9e6581f3bb0p-5",
        ],
    },
    ((7, 6, 3, 3, 2), "uniform"): {
        "function_marginals": [
            "0x1.0000000000000p+0", "0x1.8000000000000p-2", "0x1.0000000000000p-1",
            "0x1.5555555555555p-1", "0x1.0000000000000p-1", "0x1.8000000000000p-1",
        ],
        "proof_trace": [
            "0x1.ba375ff60a580p-2", "0x1.7c855cdbb6e91p-3", "0x1.99d4376788d6bp-4",
            "0x1.30e4ad1d8b902p-4", "0x1.5890a4a2a41a0p-8",
        ],
        "shearer_kl_gap": [
            "0x1.4ba987f887c20p+0", "0x1.1d6405a4c92e7p-1",
        ],
        "shearer_entropy_gap": [
            "0x1.4eca7bcbcdb62p+2", "0x1.3ea48d8422307p+3",
        ],
        "sum_pmf_enumerate": [
            "0x0.0p+0", "0x1.0000000000000p-5", "0x1.4000000000000p-3", "0x1.4e38e38e38e39p-3",
            "0x1.6e38e38e38e39p-2", "0x1.c71c71c71c71cp-3", "0x1.1c71c71c71c72p-4",
        ],
    },
    ((7, 6, 3, 3, 2), "weighted"): {
        "function_marginals": [
            "0x1.0000000000000p+0", "0x1.e755555555556p-2", "0x1.6aaaaaaaaaaabp-1",
            "0x1.7ed097b425ed2p-1", "0x1.8071c71c71c72p-1", "0x1.fe38e38e38e3ap-2",
        ],
        "proof_trace": [
            "0x1.d90f44aa8611bp-1", "0x1.d291ce4409871p-2", "0x1.b83759af23dc3p-3",
            "0x1.6272644a89bdfp-3", "0x1.944a1568bbc38p-4",
        ],
        "shearer_kl_gap": [
            "0x1.62cb737fe48d5p+1", "0x1.5ded5ab307254p+0",
        ],
        "shearer_entropy_gap": [
            "0x1.c52d4a6877874p+1", "0x1.b1c65941e45abp+2",
        ],
        "sum_pmf_enumerate": [
            "0x0.0p+0", "0x1.ef57f7926fac0p-6", "0x1.46974f0329165p-5", "0x1.1fd25393d743ep-3",
            "0x1.91d45447a34b3p-2", "0x1.351c69598c1dcp-2", "0x1.8576bced63618p-4",
        ],
    },
    ((5, 5, 3, 2, 2), "uniform"): {
        "function_marginals": [
            "0x1.aaaaaaaaaaaabp-1", "0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
            "0x1.0000000000000p-2",
        ],
        "proof_trace": [
            "0x1.39e8d4582829fp-1", "0x1.4448caff0b928p-2", "0x1.2c3edc5848d13p-3",
            "0x1.d26872e5d54a7p-5", "0x1.7ee690ddf4763p-6",
        ],
        "shearer_kl_gap": [
            "0x1.d6dd3e843c3f0p+0", "0x1.e66d307e915bcp-1",
        ],
        "shearer_entropy_gap": [
            "0x1.a1094eaf01acep+1", "0x1.6c6633ca857fap+2",
        ],
        "sum_pmf_enumerate": [
            "0x0.0p+0", "0x1.5555555555555p-4", "0x1.8000000000000p-2", "0x1.aaaaaaaaaaaabp-2",
            "0x1.0000000000000p-3", "0x0.0p+0",
        ],
    },
    ((5, 5, 3, 2, 2), "weighted"): {
        "function_marginals": [
            "0x1.b555555555556p-1", "0x0.0p+0", "0x1.6aaaaaaaaaaabp-1", "0x1.0000000000000p+0",
            "0x1.00e38e38e38e4p-1",
        ],
        "proof_trace": [
            "0x1.08d665f8e10f9p+0", "0x1.9bf82cd87a89fp-1", "0x1.96ebb116d945dp-2",
            "0x1.14cf25f16e97cp-3", "0x1.14cf25f16e97cp-3",
        ],
        "shearer_kl_gap": [
            "0x1.8d4198f551974p+1", "0x1.34fa21a25be77p+1",
        ],
        "shearer_entropy_gap": [
            "0x1.4bfa1085a92a3p+0", "0x1.4bfa1085a92a4p+0",
        ],
        "sum_pmf_enumerate": [
            "0x0.0p+0", "0x1.5c71c71c71c74p-5", "0x1.a612f684bda15p-3", "0x1.957b425ed097cp-2",
            "0x1.6bed097b425eep-2", "0x0.0p+0",
        ],
    },
}


@pytest.mark.parametrize("args, kind", PINNED, ids=[f"{a}-{kind}" for a, kind in PINNED])
def test_results_are_bit_identical_to_the_pinned_values(args, kind):
    spec = gen_random_family(*args)
    assert results(weighted(spec) if kind == "weighted" else spec) == PINNED[args, kind]
