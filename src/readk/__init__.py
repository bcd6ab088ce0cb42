"""Tail bounds, exact oracles and entropy audits for read-k families.

A read-k family is a collection of Boolean functions of independent
finite random variables in which every variable influences at most k of
the functions. The package models such families explicitly, computes the
exact distribution of their function sum, evaluates the Chernoff-style
closed-form tail bounds with exponent divided by k, and numerically
audits the entropy inequalities those bounds rest on.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it. Names resolve on
#: first access (PEP 562), so ``import readk`` loads no submodule and no
#: numpy; a name's submodule, and whatever that imports, loads when the
#: name is first used.
_SUBMODULE = {
    "AuditError": "errors",
    "BoundQuery": "bounds",
    "BoundResult": "bounds",
    "CHAIN_REL_TOL": "audit",
    "Component": "family",
    "DEFAULT_GUARD": "exact",
    "Distribution": "info_theory",
    "DomainError": "errors",
    "FamilySpec": "family",
    "Marginals": "exact",
    "McEstimate": "sampler",
    "Nats": "info_theory",
    "ProofTrace": "audit",
    "ReadFunction": "family",
    "ReadkError": "errors",
    "ResourceError": "errors",
    "SumPmf": "exact",
    "TailQuery": "exact",
    "ValidationError": "errors",
    "Variable": "family",
    "conditional_entropy": "info_theory",
    "conditional_function_marginals": "exact",
    "conditional_law": "audit",
    "dependency_components": "family",
    "entropy": "info_theory",
    "enumeration_guard": "exact",
    "estimate_tail": "sampler",
    "eval_function": "family",
    "family_from_json": "family",
    "family_to_json": "family",
    "function_marginals": "exact",
    "gen_block_tight": "generators",
    "gen_random_family": "generators",
    "kl_binary": "info_theory",
    "kl_divergence": "info_theory",
    "load_family": "family",
    "project": "info_theory",
    "proof_trace": "audit",
    "push_forward": "info_theory",
    "read_k_tail_bound": "bounds",
    "read_width": "family",
    "sample_assignment": "sampler",
    "save_family": "family",
    "shearer_and_bound": "bounds",
    "shearer_entropy_gap": "audit",
    "shearer_kl_gap": "audit",
    "simplified_tail_bound": "bounds",
    "sum_pmf": "exact",
    "sum_pmf_enumerate": "exact",
    "tail_prob": "exact",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
