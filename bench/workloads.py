"""The benchmark's four workloads.

A workload class is built from ``(seed, workdir, tiny)``. ``build`` makes
the inputs from the seed (the program receives only these generated
inputs), ``ops`` lists the operations of one round as ``(key, op)`` pairs
where ``op(tracer)`` returns a comparable result, and ``check`` tests an
operation's result against an independent reference and returns ``None``
or a message. ``tiny`` shrinks every input for warm-up and the smoke test.

Every call into readk goes through ``tracer.call`` under the name
``<module>.<function>``, so a traced round attributes time to the module
that was called. Work done inside a call (``info_theory`` inside the
audits, say) is attributed to the module called.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from readk import (
    BoundQuery,
    FamilySpec,
    ReadFunction,
    TailQuery,
    Variable,
    conditional_law,
    dependency_components,
    estimate_tail,
    function_marginals,
    gen_block_tight,
    gen_random_family,
    load_family,
    proof_trace,
    read_k_tail_bound,
    read_width,
    save_family,
    shearer_entropy_gap,
    shearer_kl_gap,
    sum_pmf,
    sum_pmf_enumerate,
    tail_prob,
)

import harness
import references

#: Relative slack of the verify sweep, as in ``readk verify``.
VERIFY_TOL = 1e-9
#: Largest allowed |pmf - reference| per bin.
PMF_TOL = 1e-12
#: Relative slack between the proof trace's first term and -log(tail).
TRACE_TOL = 1e-9

XOR, XNOR = "0110", "1001"
WEIGHTED = (0.3, 0.7)


def chain_family(n: int, probs: tuple[float, float] | None, tables: list[str]) -> FamilySpec:
    """Bits ``x_0 .. x_{n-1}``, link ``j`` reads ``(x_j, x_{j+1})`` through ``tables[j]``.

    One dependency component of ``2**n`` assignments.
    """
    variables = tuple(Variable(f"x{i}", 2, probs or ()) for i in range(n))
    functions = tuple(ReadFunction(f"y{j}", (j, j + 1), tables[j]) for j in range(n - 1))
    return FamilySpec(variables, functions)


def link_tables(rng: random.Random, n: int) -> list[str]:
    """XOR or XNOR per link: the same work, a seed-dependent pmf."""
    return [rng.choice((XOR, XNOR)) for _ in range(n - 1)]


@dataclass(frozen=True)
class Sizes:
    """Input size of one family, computed from the input, not timed."""

    components: int
    assignments: int  # summed over components: what sum_pmf enumerates
    largest: int  # assignments of the largest component
    total: int  # assignments of the whole family: what the audits enumerate


def family_sizes(spec: FamilySpec) -> Sizes:
    comps = dependency_components(spec)
    per = [math.prod(spec.variables[i].support_size for i in c.variables) for c in comps]
    total = math.prod(v.support_size for v in spec.variables)
    return Sizes(len(comps), sum(per), max(per), total)


def count_pmf_work(tr: harness.Tracer, sizes: Sizes) -> None:
    tr.count("family.components", sizes.components)
    tr.count("exact.assignments", sizes.assignments)
    tr.peak("family.largest_component_assignments", sizes.largest)


def verify_sweep(tr: harness.Tracer, spec: FamilySpec, pmf) -> tuple:
    """Exact tail and read-k bound at every deviating threshold, as ``readk verify``."""
    r = spec.num_functions
    k = max(tr.call("family.read_width", read_width, spec), 1)
    p = tr.call("exact.function_marginals", function_marginals, spec).mean
    rows = []
    for tail, direction in (("upper", "ge"), ("lower", "le")):
        for t in range(r + 1):
            eps = t / r - p if tail == "upper" else p - t / r
            if eps <= 0:
                continue
            exact = tr.call("exact.tail_prob", lambda: tail_prob(pmf, TailQuery(float(t), direction)))
            bound = tr.call(
                "bounds.read_k_tail_bound", lambda: read_k_tail_bound(BoundQuery(r, k, p, eps, tail))
            ).bound
            rows.append((tail, t, exact, bound))
    return tuple(rows)


def _above_bound(rows: tuple, underflowed: bool) -> list[tuple[str, int]]:
    """Thresholds where the exact tail exceeds the bound, split by whether
    the bound lies below the smallest normal double."""
    return [
        (tail, t)
        for tail, t, exact, bound in rows
        if exact > bound * (1.0 + VERIFY_TOL) and (bound < sys.float_info.min) == underflowed
    ]


def sweep_problem(rows: tuple) -> str | None:
    """A bound violated where both sides are normal doubles is a wrong answer."""
    bad = _above_bound(rows, underflowed=False)
    return f"exact tail above the bound at {bad[:5]}" if bad else None


def sweep_defect_counts(rows: tuple) -> dict[str, int]:
    """Known underflow defect, counted rather than failed: below the smallest
    normal double the bound rounds to 0 or a subnormal while the convolved
    pmf keeps subnormal residue, so the comparison is not meaningful."""
    return {
        "bounds.vacuous_checks": sum(1 for _, _, exact, bound in rows if exact == 0.0 and bound == 0.0),
        "bounds.underflow_violations": len(_above_bound(rows, underflowed=True)),
    }


def pmf_problem(probs, reference) -> str | None:
    if len(probs) != len(reference):
        return f"pmf has {len(probs)} bins, reference {len(reference)}"
    worst = max(abs(a - b) for a, b in zip(probs, reference))
    return f"pmf differs from the reference by {worst!r}" if worst > PMF_TOL else None


class Workload:
    name = ""
    #: What ``peak_rss_mb`` reads: this process, or the children it waited for.
    rss_scope = resource.RUSAGE_SELF
    #: Monte Carlo samples drawn per round; gives ``samples_per_s`` when set.
    samples_per_round = 0

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        # numpy's PCG64 and the CLI take non-negative seeds only
        self.seed = seed % 2**32
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tiny = tiny
        # counts read off checked outputs, reported with the per-layer metrics
        self.output_counts: dict[str, int] = {}


class ExactLarge(Workload):
    """``sum_pmf`` and the verify sweep on three families that stress ``exact``.

    A uniform XOR chain of 2^22 assignments (one component, the integer-
    count path), a weighted chain of 2^20 (the float-weight path), and a
    block-tight family of 5000 one-bit components (convolution and the
    O(r^2) sweep). A change that speeds the per-assignment kernel and slows
    many-component convolution, or the reverse, shows here.
    """

    name = "exact-large"

    def build(self, tr: harness.Tracer) -> None:
        rng = random.Random(self.seed)
        n_uniform, n_weighted, blocks = (10, 8, 50) if self.tiny else (22, 20, 5000)
        uniform_tables = link_tables(rng, n_uniform)
        weighted_tables = link_tables(rng, n_weighted)
        self.blocks = blocks
        self.families = {
            "chain-uniform": chain_family(n_uniform, None, uniform_tables),
            "chain-weighted": chain_family(n_weighted, WEIGHTED, weighted_tables),
            "block-tight": tr.call("generators.gen_block_tight", gen_block_tight, 1, blocks, "1/3"),
        }
        self.weighted_tables = weighted_tables
        self.sizes = {key: family_sizes(spec) for key, spec in self.families.items()}

    def ops(self):
        return [(key, partial(self._op, key)) for key in self.families]

    def _op(self, key: str, tr: harness.Tracer):
        spec = self.families[key]
        count_pmf_work(tr, self.sizes[key])
        pmf = tr.call("exact.sum_pmf", sum_pmf, spec)
        return pmf, verify_sweep(tr, spec, pmf)

    def check(self, key: str, result) -> str | None:
        pmf, rows = result
        spec = self.families[key]
        if key == "chain-uniform":
            reference = references.half_binomial_pmf(spec.num_functions)
        elif key == "chain-weighted":
            reference = references.chain_pmf(WEIGHTED, self.weighted_tables)
        else:
            log_reference = references.binomial_log_pmf(self.blocks, 1 / 3)
            reference = [math.exp(x) for x in log_reference]
            # Known defect: bins far below the smallest double read 0.0.
            self.output_counts["exact.underflow_bins"] = sum(
                1 for p, x in zip(pmf.probs, log_reference) if p == 0.0 and math.isfinite(x)
            )
            self.output_counts.update(sweep_defect_counts(rows))
        return pmf_problem(pmf.probs, reference) or sweep_problem(rows)


@dataclass(frozen=True)
class AuditEntry:
    path: Path
    spec: FamilySpec
    sizes: Sizes
    cover: tuple[tuple[int, ...], ...]
    lemma_k: int


@dataclass(frozen=True)
class AuditResult:
    pmf: object
    rows: tuple
    query: TailQuery
    trace: object
    kl_gap: tuple[float, float]
    entropy_gap: tuple[float, float]


#: Families per audit-sweep round: one full cycle of the parameter grid.
FAMILIES = 252


class AuditSweep(Workload):
    """A few hundred small random families through the whole audit path.

    The same ``exact`` layer as ``exact-large`` but through per-call
    overhead on tiny spaces; ``audit`` (the ``shearer_*`` calls most of
    all) does most of the work.
    """

    name = "audit-sweep"

    def build(self, tr: harness.Tracer) -> None:
        rng = random.Random(self.seed)
        self.entries = []
        for i in range(12 if self.tiny else FAMILIES):
            # Fixed parameter cycles (periods 6, 12, 36 and 7) meet every
            # (m, k, arity, r) combination once in 252 families.
            m, k, arity = 5 + i % 6, 2 + (i // 6) % 2, 1 + (i // 12) % 3
            r = min(2 + i % 7, m * k // arity)
            # Redraw until half the variables (rounded down) have support 3:
            # the space each family spans is then fixed by m, and the
            # seed moves only which variables are larger, the read sets and
            # the tables. Without it the round time follows the seed.
            while True:
                spec = tr.call(
                    "generators.gen_random_family", gen_random_family, m, r, k, arity,
                    rng.randrange(2**32),
                )
                if sum(v.support_size == 3 for v in spec.variables) == m // 2:
                    break
            path = self.workdir / f"family-{i:03d}.json"
            save_family(spec, path)
            cover = tuple(fn.vars for fn in spec.functions)
            # largest k the entropy inequality applies to: the least-covered coordinate
            lemma_k = min(sum(v in c for c in cover) for v in range(m))
            self.entries.append(AuditEntry(path, spec, family_sizes(spec), cover, lemma_k))

    def ops(self):
        return [(f"family-{i:03d}", partial(self._op, e)) for i, e in enumerate(self.entries)]

    def _op(self, entry: AuditEntry, tr: harness.Tracer) -> AuditResult:
        spec = tr.call("family.load_family", load_family, entry.path)
        tr.call("family.dependency_components", dependency_components, spec)
        count_pmf_work(tr, entry.sizes)
        pmf = tr.call("exact.sum_pmf", sum_pmf, spec)
        rows = verify_sweep(tr, spec, pmf)
        # Pr[Y >= E[Y]] > 0 for an integer Y, so this event is never empty.
        query = TailQuery(float(math.ceil(pmf.mean() - 1e-9)), "ge")
        trace = tr.call("audit.proof_trace", lambda: proof_trace(spec, query, check=False))
        tr.count("audit.trace_assignments", entry.sizes.total)
        law = tr.call("audit.conditional_law", conditional_law, spec, query)
        tr.count("audit.law_outcomes", len(law.outcomes))
        kl_gap = tr.call("audit.shearer_kl_gap", shearer_kl_gap, spec, law)
        entropy_gap = tr.call(
            "audit.shearer_entropy_gap", shearer_entropy_gap, law, entry.cover, entry.lemma_k
        )
        return AuditResult(pmf, rows, query, trace, kl_gap, entropy_gap)

    def check(self, key: str, result: AuditResult) -> str | None:
        entry = self.entries[int(key.rsplit("-", 1)[1])]
        problem = pmf_problem(result.pmf.probs, sum_pmf_enumerate(entry.spec).probs)
        if problem:
            return problem
        if not result.trace.chain_holds():
            return f"proof chain violated: {result.trace.terms()!r}"
        expected = -math.log(tail_prob(result.pmf, result.query))
        if not math.isclose(result.trace.neg_log_tail, expected, rel_tol=TRACE_TOL, abs_tol=TRACE_TOL):
            return f"neg_log_tail {result.trace.neg_log_tail!r} != -log(tail) {expected!r}"
        return sweep_problem(result.rows)


class MonteCarlo(Workload):
    """``estimate_tail`` at 10^6 samples on two families; ``exact`` does nothing.

    A seeded ``gen_random_family(40, 30, 3, 2)`` and the weighted 2^20
    chain, whose exact tail the transfer-matrix reference gives. Each
    estimate is repeated with the same seed every round.
    """

    name = "mc"

    def build(self, tr: harness.Tracer) -> None:
        rng = random.Random(self.seed)
        self.samples = 10_000 if self.tiny else 1_000_000
        n_chain = 8 if self.tiny else 20
        self.chain_tables = link_tables(rng, n_chain)
        chain = chain_family(n_chain, WEIGHTED, self.chain_tables)
        pmf = references.chain_pmf(WEIGHTED, self.chain_tables)
        # A tail of at most 5%: its Monte Carlo spread is far inside the
        # Hoeffding half-width, so a correct estimator never fails the check.
        t_chain = next(t for t in range(len(pmf)) if math.fsum(pmf[t:]) <= 0.05)
        random_family = tr.call("generators.gen_random_family", gen_random_family, 40, 30, 3, 2, self.seed)
        self.cases = {
            "random-40": (random_family, TailQuery(15.0, "ge")),
            "chain-weighted": (chain, TailQuery(float(t_chain), "ge")),
        }
        self.samples_per_round = self.samples * len(self.cases)

    def ops(self):
        return [(key, partial(self._op, key)) for key in self.cases]

    def _op(self, key: str, tr: harness.Tracer):
        spec, query = self.cases[key]
        tr.count("sampler.samples", self.samples)
        tr.count("sampler.uniforms", self.samples * spec.num_variables)
        return tr.call("sampler.estimate_tail", estimate_tail, spec, query, self.samples, self.seed)

    def check(self, key: str, est) -> str | None:
        if est.samples != self.samples or not (0.0 <= est.estimate <= 1.0):
            return f"malformed estimate {est!r}"
        if key != "chain-weighted":
            return None
        t = self.cases[key][1].effective_threshold()
        exact = references.tail_ge(references.chain_pmf(WEIGHTED, self.chain_tables), t)
        half = references.hoeffding_half_width(self.samples)
        if abs(est.estimate - exact) > half or not (est.ci_low <= exact <= est.ci_high):
            return f"estimate {est.estimate!r} is not within {half!r} of the exact tail {exact!r}"
        return None


class Cli(Workload):
    """One ``python -m readk`` child per subcommand, run one at a time.

    The only workload that measures the ``cli`` layer: process start,
    imports, argparse and JSON emit. Each round also runs a bare
    interpreter and a bare ``import readk.cli`` to separate those costs.
    """

    name = "cli"
    rss_scope = resource.RUSAGE_CHILDREN

    def build(self, tr: harness.Tracer) -> None:
        m, r, samples = (6, 4, 2_000) if self.tiny else (8, 6, 20_000)
        spec = tr.call("generators.gen_random_family", gen_random_family, m, r, 3, 2, self.seed)
        save_family(spec, self.workdir / "fam.json")
        # Pr[Y >= E[Y]] > 0 for an integer Y: an upper tail that is never empty.
        mean = sum_pmf_enumerate(spec).mean()
        tail = ["--t", str(math.ceil(mean - 1e-9)), "--tail", "upper"]
        readk = [sys.executable, "-m", "readk"]
        self.commands = {
            "cli.interpreter": [sys.executable, "-c", "pass"],
            "cli.import": [sys.executable, "-c", "import readk.cli"],
            "cli.bound": readk + ["bound", "--r", "100", "--k", "4", "--p", "0.5", "--eps", "0.25",
                                  "--tail", "upper"],
            "cli.gen": readk + ["gen", "--preset", "random", "--m", str(m), "--r", str(r), "--k", "3",
                                "--max-arity", "2", "--seed", str(self.seed), "--out", "gen.json"],
            "cli.exact": readk + ["exact", "fam.json"] + tail,
            "cli.mc": readk + ["mc", "fam.json"] + tail + ["--samples", str(samples),
                                                           "--seed", str(self.seed)],
            "cli.verify": readk + ["verify", "fam.json"],
            "cli.trace": readk + ["trace", "fam.json"] + tail,
            "cli.shearer": readk + ["shearer", "fam.json"] + tail,
        }

    def ops(self):
        return [(key, partial(self._op, key)) for key in self.commands]

    def _op(self, key: str, tr: harness.Tracer):
        proc = tr.call(key, harness.run_child, self.commands[key], self.workdir)
        tr.count("cli.stdout_bytes", len(proc.stdout))
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, key: str, result) -> str | None:
        returncode, stdout, stderr = result
        if returncode != 0:
            return f"exit code {returncode}: {stderr.decode(errors='replace').strip()[:200]}"
        for line in stdout.decode().splitlines():
            try:
                json.loads(line)
            except json.JSONDecodeError:
                return f"stdout line is not JSON: {line[:80]!r}"
        return None


WORKLOADS = {w.name: w for w in (ExactLarge, AuditSweep, MonteCarlo, Cli)}
