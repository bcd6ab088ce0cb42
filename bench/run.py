#!/usr/bin/env python3
"""Run one workload of the readk benchmark and print its result.

    python3 bench/run.py --workload exact-large --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; readk is imported from ``src/``, not
from an installed copy. Standard output ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it holds the run's detail: environment, rounds, failure
messages, the operation-time tail and, for ``mc``, samples per second.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "readk" / "__init__.py").is_file():
        print(f"error: no readk package under {harness.SRC}", file=sys.stderr)
        return 2
    # Thread counts must be pinned before numpy is first imported.
    harness.pin_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    detail, result = harness.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
