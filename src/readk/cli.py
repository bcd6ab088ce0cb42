"""Command-line front end.

Subcommands cover bound evaluation, the exact oracle, Monte Carlo
estimation, the per-family soundness audit (``verify``), the proof-chain
trace, the Shearer inequality report, and family generation. Output is
JSON lines for machines (``--pretty`` renders aligned tables instead);
every float is printed with 17 significant digits and runs are
byte-identical for identical inputs and seeds.

Exit codes: 0 success, 1 a checked inequality failed, 2 usage or
validation errors. The environment variable ``READK_ENUM_GUARD`` overrides
the exact engine's guard (default ``2**24``). For ``exact`` and ``verify``
it bounds the cells of the largest factor formed while eliminating one
dependency component; for ``trace`` and ``shearer``, which enumerate the
full assignment space, it bounds the number of assignments.

Each subcommand imports only the modules it uses, when it runs: ``bound``
loads ``bounds``, ``info_theory`` and ``errors`` and never numpy, and
``exact`` loads neither the audits, the sampler nor the generators.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from .errors import AuditError, DomainError, ReadkError

def _fmt(x) -> str:
    """One JSON token; floats at 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return f"{x:.16e}"
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=False)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{_fmt(str(k))}: {_fmt(v)}" for k, v in x.items()) + "}"
    raise TypeError(f"cannot serialize {x!r}")


def _emit(obj: dict, pretty: bool = False) -> None:
    if not pretty:
        print(_fmt(obj))
        return
    for key, value in obj.items():
        print(f"{key:>14} = {_fmt(value)}")


def _tail_query(args):
    """The ``--t``/``--tail`` pair as an ``exact.TailQuery``."""
    from .exact import _DIRECTIONS, TailQuery

    return TailQuery(args.t, _DIRECTIONS[args.tail])


def _cmd_bound(args) -> int:
    from .bounds import BoundQuery, _check_rkp, _deviation, read_k_tail_bound, simplified_tail_bound

    _check_rkp(args.r, args.k, args.p)
    if args.t is None:
        eps = args.eps
    else:
        eps = _deviation(args.t, args.r, args.p, args.tail)
        if eps <= 0:
            raise DomainError(
                f"threshold t={args.t} lies on the wrong side of the mean p*r="
                f"{args.p * args.r}; the {args.tail} tail there is not a deviation"
            )
    query = BoundQuery(r=args.r, k=args.k, p=args.p, eps=eps, direction=args.tail)
    result = simplified_tail_bound(query) if args.simplified else read_k_tail_bound(query)
    _emit(asdict(result), args.pretty)
    return 0


def _cmd_exact(args) -> int:
    from .exact import sum_pmf, tail_prob
    from .family import load_family

    spec = load_family(args.family)
    pmf = sum_pmf(spec)
    out = {"pmf": list(pmf.probs)}
    if args.t is not None:
        query = _tail_query(args)
        out.update(t=args.t, tail=args.tail, tail_prob=tail_prob(pmf, query))
    _emit(out, args.pretty)
    return 0


def _cmd_mc(args) -> int:
    from .family import load_family
    from .sampler import estimate_tail

    spec = load_family(args.family)
    est = estimate_tail(spec, _tail_query(args), args.samples, args.seed)
    _emit(asdict(est), args.pretty)
    return 0


def _cmd_verify(args) -> int:
    from .exact import _verify_rows
    from .family import load_family

    r, k, rows = _verify_rows(load_family(args.family), args.tol)
    violations = sum(1 for row in rows if not row["ok"])
    if args.pretty:
        print(f"{'tail':>6} {'t':>4} {'exact':>24} {'bound':>24} {'slack':>24} ok")
        for row in rows:
            print(
                f"{row['tail']:>6} {row['t']:>4} {row['exact']:>24.16e} "
                f"{row['bound']:>24.16e} {row['slack']:>24.16e} {str(row['ok']).lower()}"
            )
        print(f"result: {'PASS' if violations == 0 else 'FAIL'} "
              f"(r={r}, k={k}, thresholds={len(rows)}, violations={violations})")
    else:
        for row in rows:
            _emit(row)
        _emit({"result": "PASS" if violations == 0 else "FAIL", "r": r, "k": k,
               "thresholds": len(rows), "violations": violations})
    return 0 if violations == 0 else 1


def _cmd_trace(args) -> int:
    from .audit import proof_trace
    from .family import load_family

    spec = load_family(args.family)
    trace = proof_trace(spec, _tail_query(args), check=False)
    ok = trace.chain_holds()
    _emit({**asdict(trace), "chain_ok": ok, "result": "PASS" if ok else "FAIL"}, args.pretty)
    return 0 if ok else 1


def _cmd_shearer(args) -> int:
    from .audit import conditional_law, shearer_entropy_gap, shearer_kl_gap
    from .family import load_family, read_width
    from .info_theory import cover_multiplicity

    spec = load_family(args.family)
    law = conditional_law(spec, _tail_query(args))
    cover = [fn.vars for fn in spec.functions]
    # Largest k the entropy inequality applies to: the least-covered coordinate.
    lemma_k = min(cover_multiplicity(cover, spec.num_variables))
    ok = True
    try:
        lemma_lhs, lemma_rhs = shearer_entropy_gap(law, cover, lemma_k)
    except AuditError:
        ok = False
        lemma_lhs, lemma_rhs = math.nan, math.nan
    try:
        cor_lhs, cor_rhs = shearer_kl_gap(spec, law)
    except AuditError:
        ok = False
        cor_lhs, cor_rhs = math.nan, math.nan
    _emit(
        {
            "lemma_k": lemma_k,
            "lemma_lhs": lemma_lhs,
            "lemma_rhs": lemma_rhs,
            "corollary_k": read_width(spec),
            "corollary_lhs": cor_lhs,
            "corollary_rhs": cor_rhs,
            "result": "PASS" if ok else "FAIL",
        },
        args.pretty,
    )
    return 0 if ok else 1


def _cmd_gen(args) -> int:
    from .family import save_family
    from .generators import gen_block_tight, gen_random_family

    if args.preset == "block-tight":
        if args.k is None or args.blocks is None or args.p is None:
            raise DomainError("gen --preset block-tight needs --k, --blocks and --p")
        spec = gen_block_tight(args.k, args.blocks, args.p)
    else:
        if None in (args.m, args.r, args.k, args.max_arity, args.seed):
            raise DomainError(
                "gen --preset random needs --m, --r, --k, --max-arity and --seed"
            )
        spec = gen_random_family(args.m, args.r, args.k, args.max_arity, args.seed)
    save_family(spec, args.out)
    _emit({"written": str(args.out)}, args.pretty)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="readk",
        description="Tail bounds and exact oracles for read-k families of Boolean functions.",
        epilog=(
            "READK_ENUM_GUARD overrides the exact engine's guard (default 2^24): the cells "
            "of the largest elimination factor for exact and verify, the assignments "
            "enumerated for trace and shearer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="human-aligned output")
    family = argparse.ArgumentParser(add_help=False, parents=[pretty])
    family.add_argument("family", help="family file (JSON)")
    event = argparse.ArgumentParser(add_help=False, parents=[family])
    event.add_argument("--t", type=float, required=True)
    event.add_argument("--tail", choices=("upper", "lower"), required=True)

    p = sub.add_parser("bound", parents=[pretty], help="closed-form tail bound for (r, k, p, eps)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, help="deviation of the mean fraction")
    group.add_argument("--t", type=float, help="raw threshold; converted via eps = t/r - p")
    p.add_argument("--tail", choices=("upper", "lower"), required=True)
    p.add_argument("--simplified", action="store_true", help="use exp(-2 eps^2 r/k)")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("exact", parents=[family],
                       help="exact pmf of the function sum; optional tail")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("mc", parents=[event], help="seeded Monte Carlo tail estimate")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("verify", parents=[family],
                       help="exact tail vs bound at every integer threshold")
    p.add_argument("--tol", type=float, default=1e-9, help="relative slack allowed")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("trace", parents=[event], help="proof-chain quantities for one tail event")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("shearer", parents=[event],
                       help="entropy inequality and its divergence corollary")
    p.set_defaults(fn=_cmd_shearer)

    p = sub.add_parser("gen", parents=[pretty], help="write a generated family file")
    p.add_argument("--preset", choices=("block-tight", "random"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--p", type=str, help="rational like 1/2 (block-tight)")
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--max-arity", type=int, dest="max_arity")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output family file")
    p.set_defaults(fn=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ReadkError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
