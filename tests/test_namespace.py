import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import readk

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The public names, as the package listed them when it imported every submodule eagerly.
PUBLIC = [
    "AuditError", "BoundQuery", "BoundResult", "CHAIN_REL_TOL", "Component", "DEFAULT_GUARD",
    "Distribution", "DomainError", "FamilySpec", "Marginals", "McEstimate", "Nats",
    "ProofTrace", "ReadFunction", "ReadkError", "ResourceError", "SumPmf", "TailQuery",
    "ValidationError", "Variable", "conditional_entropy", "conditional_function_marginals",
    "conditional_law", "dependency_components", "entropy", "enumeration_guard",
    "estimate_tail", "eval_function", "family_from_json", "family_to_json",
    "function_marginals", "gen_block_tight", "gen_random_family", "kl_binary",
    "kl_divergence", "load_family", "project", "proof_trace", "push_forward",
    "read_k_tail_bound", "read_width", "sample_assignment", "save_family",
    "shearer_and_bound", "shearer_entropy_gap", "shearer_kl_gap", "simplified_tail_bound",
    "sum_pmf", "sum_pmf_enumerate", "tail_prob",
]

#: Defining submodules of the names whose value carries no ``__module__`` of readk.
CONSTANTS = {"CHAIN_REL_TOL": "audit", "DEFAULT_GUARD": "exact", "Nats": "info_theory"}


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 50
    assert readk.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_the_defining_submodules_object(name):
    value = getattr(readk, name)
    module = CONSTANTS.get(name) or value.__module__.removeprefix("readk.")
    assert getattr(importlib.import_module(f"readk.{module}"), name) is value


def test_star_import_binds_every_name():
    namespace = {}
    exec("from readk import *", namespace)
    assert all(namespace[name] is getattr(readk, name) for name in PUBLIC)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(readk))


def test_version():
    assert readk.__version__ == "0.1.0"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'readk' has no attribute 'no_such_name'$"):
        readk.no_such_name


def test_first_access_loads_only_the_defining_submodule():
    # a fresh interpreter: this process may already have loaded every submodule
    code = (
        "import sys, readk; before = set(sys.modules); readk.kl_binary; "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('readk')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "['readk.errors', 'readk.info_theory']\n"
