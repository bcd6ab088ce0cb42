#!/usr/bin/env python3
"""Print every benchmark metric by name, with its unit, and the check verdict.

    python3 bench/report.py [--workload NAME ...] [--seed 1] [--seconds 10]

For each workload (all of those in ``BENCHMARK.json`` by default) it runs
``bench/run.py`` once untraced and once traced, one child at a time, and
prints the end-to-end metrics, the extra figures of the detail line and
the per-layer metrics. Exits 1 when any run's outputs failed a check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _row(name: str, metric: dict) -> str:
    return f"  {name:40s} {metric['value']:>18.9g} {metric['unit']}"


def main(argv: list[str] | None = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in args.workload or [w["name"] for w in declared["workloads"]]:
        for trace in (0, 1):
            detail, result = _run(workload, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            verdict = "PASS" if result["correct"] else "FAIL"
            print(f"{workload} (seed {args.seed}, trace {trace}): checks {verdict}, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"fail_ratio {detail['fail_ratio']:.6g}, warm rounds {detail['rounds']}")
            for failure in detail["failures"]:
                print(f"  failure: {failure}")
            for name, metric in result["metrics"].items():
                print(_row(name, metric))
            if trace == 0:
                tail = detail["op_tail_s"]
                if tail is None:
                    print(f"  {'op_tail_s':40s} {'-':>18} (fewer operations than a p90 needs)")
                else:
                    print(_row("op_tail_s", tail)
                          + f" (p{tail['percentile']} of {tail['samples']} operations)")
                if "samples_per_s" in detail:
                    print(_row("samples_per_s", detail["samples_per_s"]))
                print(_row("cold_round_s", detail["cold_round_s"]))
                for name in ("setup_s", "wall_s", "op_p50_s"):
                    print(_row(f"raw {name}", {"value": detail["raw"][name], "unit": "s"}))
                print(_row("host_scale", {"value": detail["raw"]["host_scale"], "unit": "ratio"}))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
