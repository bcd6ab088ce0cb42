"""Timing loop, span tracer and metric assembly for the readk benchmark.

The load is a closed loop with a single client: one process, no extra
threads, one operation at a time. A run sets its workload up several
times (``SETUP_REPS``) and reports the median set-up time. It then runs
one cold round of the workload's operations and repeats warm rounds for
``seconds``. Every round must reproduce the cold round's results exactly,
and those results are checked against the workload's reference after the
timed region. End-to-end times are scaled to a reference host speed
(``HostSpeed``).

With ``trace`` off, the run reports end-to-end metrics. With ``trace`` on,
rounds alternate between untraced and traced; the traced rounds record a
span around each call into readk and give per-layer self times and
counts per round, and the two kinds of round together give
``trace_overhead``.

This module imports neither numpy nor readk, so that ``pin_environment``
can run before either is loaded.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SPAN_DIR = ROOT / ".bench_out"

#: Thread-pool sizes of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_REPS = 5

#: Fewest measured rounds per run: a traced run needs one untraced and one
#: traced round.
MIN_ROUNDS = 2

#: Operations beyond the tail percentile, and the lowest percentile that
#: is still reported as a tail.
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run; times and counts are per traced round,
#: ``generators.*`` per set-up. A layer a workload does not call reads 0.
PER_LAYER = {
    "exact.sum_pmf_s": "s",
    "exact.function_marginals_s": "s",
    "exact.tail_prob_s": "s",
    "exact.assignments": "count",
    "exact.underflow_bins": "count",
    "family.load_family_s": "s",
    "family.dependency_components_s": "s",
    "family.read_width_s": "s",
    "family.components": "count",
    "family.largest_component_assignments": "count",
    "bounds.read_k_tail_bound_s": "s",
    "bounds.read_k_tail_bound.calls": "count",
    "bounds.vacuous_checks": "count",
    "bounds.underflow_violations": "count",
    "audit.proof_trace_s": "s",
    "audit.conditional_law_s": "s",
    "audit.shearer_kl_gap_s": "s",
    "audit.shearer_entropy_gap_s": "s",
    "audit.law_outcomes": "count",
    "audit.trace_assignments": "count",
    "sampler.estimate_tail_s": "s",
    "sampler.samples": "count",
    "sampler.uniforms": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.bound_s": "s",
    "cli.gen_s": "s",
    "cli.exact_s": "s",
    "cli.mc_s": "s",
    "cli.verify_s": "s",
    "cli.trace_s": "s",
    "cli.shearer_s": "s",
    "cli.stdout_bytes": "bytes",
    "generators.gen_random_family_s": "s",
    "generators.gen_block_tight_s": "s",
    "bench.harness_s": "s",
    "trace.layer_share": "ratio",
    "trace_overhead": "ratio",
}

#: Spans the harness itself opens around the calls into readk.
HARNESS_SPANS = ("round", "op")


def pin_environment() -> None:
    """One BLAS/OpenMP thread, no enumeration-guard override, readk from ``src``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("READK_ENUM_GUARD", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the pinned one, readk from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run one child to completion; on timeout it is killed and reaped."""
    return subprocess.run(cmd, cwd=cwd, env=child_env(), capture_output=True, timeout=120)


# --- tracing -------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    round: int | None
    op: str | None
    name: str
    start: float
    end: float


class Tracer:
    """Spans and counts around the benchmark's calls into readk.

    Disabled, ``call`` is a plain call and ``count``/``peak`` do nothing,
    so untraced rounds pay one extra Python call per readk call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.peaks: dict[str, int] = {}
        self.round: int | None = None
        self.op: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, self.round, self.op, name, start, end)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        with self.span(name):
            return fn(*args)

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += n

    def peak(self, name: str, n: int) -> None:
        if self.enabled:
            self.peaks[name] = max(self.peaks.get(name, 0), n)


def self_times(spans: list[Span]) -> tuple[dict[str, float], Counter[str]]:
    """Per span name: total self time (duration minus child spans) and calls."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for s in spans:
        totals[s.name] += (s.end - s.start) - covered[s.id]
        calls[s.name] += 1
    return totals, calls


# --- host speed ------------------------------------------------------------------

#: Time of one calibration slice on the host where the benchmark was defined
#: (2-vCPU Intel Xeon VM, Python 3.11): its typical value there, in seconds.
SLICE_REF_S = 3.0e-4

#: One slice runs after every this many seconds of timed work (at least one
#: per timed step), so slices sample the host at the pace of the work.
SLICE_EVERY_S = 0.05

_SLICE_TABLE = {(i % 7, i % 5): float(i) for i in range(35)}
_SLICE_KEYS = [(i % 7, i % 5) for i in range(4000)]


class HostSpeed:
    """How fast this host runs right now, from fixed slices of interpreter work.

    On a shared host the speed of the same code drifts by 10-30% over
    seconds to minutes, in CPU time as much as in wall time, so medians of
    runs made minutes apart disagree by more than any useful bound. A slice
    (dictionary lookups and float adds; it allocates nothing the garbage
    collector tracks) runs after each timed step, in proportion to the
    step's length. ``scale`` converts the steps' seconds into seconds at
    the reference speed ``SLICE_REF_S``, which cancels the drift.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.slices = 0

    def sample(self, step_seconds: float) -> None:
        for _ in range(max(1, round(step_seconds / SLICE_EVERY_S))):
            started = time.perf_counter()
            total = 0.0
            for key in _SLICE_KEYS:
                total += _SLICE_TABLE[key]
            self.seconds += time.perf_counter() - started
            self.slices += 1

    def scale(self) -> float:
        return SLICE_REF_S / (self.seconds / self.slices)


# --- the run ---------------------------------------------------------------------

@dataclass(frozen=True)
class OpError:
    """The outcome of an operation that raised: always a failure."""

    message: str


@dataclass
class Round:
    """One round's raw times (host-speed slices excluded) and its host-speed scale."""

    traced: bool
    wall: float
    op_times: list[float]
    scale: float

    @property
    def norm_wall(self) -> float:
        return self.wall * self.scale

    @property
    def norm_op_times(self) -> list[float]:
        return [t * self.scale for t in self.op_times]


def _run_round(workload, tracer: Tracer, number: int, traced: bool):
    tracer.enabled = traced
    tracer.round = number
    results = {}
    op_times = []
    speed = HostSpeed()
    with tracer.span("round"):
        started = time.perf_counter()
        for key, op in workload.ops():
            tracer.op = key
            with tracer.span("op"):
                t0 = time.perf_counter()
                try:
                    results[key] = op(tracer)
                except Exception as e:  # a failed operation is counted, not fatal
                    results[key] = OpError(f"{type(e).__name__}: {e}")
                op_times.append(time.perf_counter() - t0)
            speed.sample(op_times[-1])
        wall = time.perf_counter() - started - speed.seconds
    tracer.enabled = False
    tracer.round = tracer.op = None
    return results, Round(traced, wall, op_times, speed.scale())


def _import_probe() -> None:
    proc = run_child([sys.executable, "-c", "import readk"], ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"importing readk failed: {proc.stderr.decode(errors='replace')}")


def _setup(workload_cls, seed: int, workdir: Path, tiny: bool, tracer: Tracer, trace: bool):
    """One set-up: import readk in a fresh interpreter, then build the inputs.

    Returns the raw seconds, the host-speed scale and the built workload.
    """
    speed = HostSpeed()
    started = time.perf_counter()
    _import_probe()
    probe = time.perf_counter() - started
    speed.sample(probe)
    started = time.perf_counter()
    workload = workload_cls(seed, workdir, tiny)
    tracer.enabled = trace
    workload.build(tracer)
    tracer.enabled = False
    build = time.perf_counter() - started
    speed.sample(build)
    return probe + build, speed.scale(), workload


def _op_tail(op_times: list[float]) -> dict | None:
    """Highest percentile with at least ``TAIL_BEYOND`` operations beyond it."""
    n = len(op_times)
    if n <= TAIL_BEYOND:
        return None
    percentile = 100.0 * (n - TAIL_BEYOND) / n
    if percentile < TAIL_MIN_PERCENTILE:
        return None
    value = sorted(op_times)[n - TAIL_BEYOND - 1]
    return {"value": value, "unit": "s", "percentile": round(percentile, 2), "samples": n}


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _commit() -> str | None:
    """Commit of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loadavg_start": _loadavg(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _write_spans(spans: list[Span], name: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.__dict__) + "\n")
    return path


def run(workload_cls, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Set up, measure and check one workload; returns ``(detail, result)``."""
    env = _environment()
    workdir = WORK_DIR / f"{workload_cls.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        setups = []  # (raw seconds, host-speed scale) per set-up
        for _ in range(SETUP_REPS):
            elapsed, scale, workload = _setup(workload_cls, seed, workdir, tiny, tracer, trace)
            setups.append((elapsed, scale))

        # Round 0 is the first pass over the inputs. It pays the first-touch
        # costs and fills any cache the program keeps, so it is reported on
        # its own (``cold_round_s`` in the detail line) and kept out of the
        # medians. Its results are what later rounds must repeat and what
        # the references check.
        first, cold = _run_round(workload, tracer, 0, False)
        rounds: list[Round] = []
        failed_ops: Counter = Counter()
        mismatches: list[str] = []
        deadline = time.perf_counter() + seconds
        # start a round only if one more of the last length still fits
        while len(rounds) < MIN_ROUNDS or time.perf_counter() + rounds[-1].wall <= deadline:
            traced = trace and len(rounds) % 2 == 1
            results, rnd = _run_round(workload, tracer, len(rounds) + 1, traced)
            rounds.append(rnd)
            for key, res in results.items():
                if res != first[key]:
                    failed_ops[key] += 1
                    mismatches.append(f"{key}: round {len(rounds)} differs from round 0")
        peak_rss_kb = resource.getrusage(workload.rss_scope).ru_maxrss

        failures = list(mismatches)
        for key, res in first.items():
            problem = res.message if isinstance(res, OpError) else workload.check(key, res)
            if problem is not None:
                failures.append(f"{key}: {problem}")
                # the same operation failed in every round that matched round 0
                failed_ops[key] = 1 + len(rounds)
        attempted = len(first) * (1 + len(rounds))
        failed = sum(failed_ops.values())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Times below are at the reference host speed (see ``HostSpeed``);
    # "raw" holds the same medians as the clock read them.
    plain = [r for r in rounds if not r.traced]
    plain_ops = [t for r in plain for t in r.norm_op_times]
    wall_s = statistics.median(r.norm_wall for r in plain)
    detail = {
        "workload": workload_cls.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),  # warm rounds, after the cold round 0
        "traced_rounds": len(rounds) - len(plain),
        "fail_ratio": failed / attempted,
        "failures": failures[:20],
        "op_tail_s": _op_tail(plain_ops),
        "cold_round_s": _metric(cold.norm_wall, "s"),
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "wall_s": statistics.median(r.wall for r in plain),
            "op_p50_s": statistics.median(t for r in plain for t in r.op_times),
            "round_walls_s": [r.wall for r in rounds],
            "host_scale": statistics.median(r.scale for r in rounds),
        },
        "environment": env,
    }
    if workload.samples_per_round:
        detail["samples_per_s"] = _metric(workload.samples_per_round / wall_s, "1/s")
    detail["environment"]["loadavg_end"] = _loadavg()

    if trace:
        metrics = _layer_metrics(tracer, workload, rounds, setups)
        detail["spans_file"] = str(_write_spans(tracer.spans, workload_cls.name, seed))
    else:
        values = {
            "setup_s": statistics.median(raw * scale for raw, scale in setups),
            "wall_s": wall_s,
            "op_p50_s": statistics.median(plain_ops),
            "peak_rss_mb": peak_rss_kb / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def _layer_metrics(tracer: Tracer, workload, rounds: list[Round], setups: list) -> dict:
    """Raw self times and counts per traced round (``generators.*`` per set-up)."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    n = len(traced)
    round_spans = [s for s in tracer.spans if s.round is not None]
    totals, calls = self_times(round_spans)
    setup_totals, _ = self_times([s for s in tracer.spans if s.round is None])

    values: dict[str, float] = {name: 0 for name in PER_LAYER}
    for name, total in totals.items():
        if name not in HARNESS_SPANS:
            values[f"{name}_s"] = total / n
    for name, total in setup_totals.items():
        values[f"{name}_s"] = total / len(setups)
    values["bounds.read_k_tail_bound.calls"] = calls["bounds.read_k_tail_bound"] / n
    for name, total in tracer.counts.items():
        values[name] = total / n
    values.update(tracer.peaks)
    values.update(workload.output_counts)

    layers = sum(t for name, t in totals.items() if name not in HARNESS_SPANS) / n
    traced_wall = statistics.fmean(r.wall for r in traced)
    values["bench.harness_s"] = traced_wall - layers
    values["trace.layer_share"] = layers / traced_wall
    values["trace_overhead"] = (
        statistics.median(r.norm_wall for r in traced)
        / statistics.median(r.norm_wall for r in plain) - 1.0
    )
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    return {name: _metric(values[name], PER_LAYER[name]) for name in PER_LAYER}
