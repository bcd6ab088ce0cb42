"""Smoke test of the benchmark itself, every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that each run emits exactly the metrics ``BENCHMARK.json``
declares, that every check passes on the program as it is, and that a
deliberately wrong reference is counted as a failure.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.pin_environment()

import references  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _tiny_run(name: str, trace: bool = False):
    return harness.run(workloads.WORKLOADS[name], seed=5, seconds=0, trace=trace, tiny=True)


def test_declared_workloads_and_metrics_match_the_harness():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_emits_declared_metrics(name, trace):
    detail, result = _tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and detail["fail_ratio"] == 0.0
    assert result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("per_layer" if trace else "end_to_end")
    json.dumps(result, allow_nan=False)


WRONG_REFERENCES = {
    "exact-large": (references, "half_binomial_pmf", lambda n: [1.0 / (n + 1)] * (n + 1)),
    "audit-sweep": (workloads, "sum_pmf_enumerate", lambda spec: types.SimpleNamespace(probs=(1.0,))),
    "mc": (references, "tail_ge", lambda pmf, t: 1.0),
}


@pytest.mark.parametrize("name", list(WRONG_REFERENCES))
def test_wrong_reference_counts_as_failure(name, monkeypatch):
    module, attr, wrong = WRONG_REFERENCES[name]
    monkeypatch.setattr(module, attr, wrong)
    detail, result = _tiny_run(name)
    assert not result["correct"]
    assert result["failed"] > 0 and detail["fail_ratio"] > 0.0
