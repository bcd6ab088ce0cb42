"""Watching the tail-bound derivation run on a concrete family.

For a family and tail event, the trace evaluates the chain, with mu the
family's product law (uniform or weighted) and mu_j its projection

  -ln Pr >= (1/k) sum_j D(proj_j || mu_j)        projections (Shearer)
         >= (1/k) sum_j KL(q_j || p_j)           through each function
         >= (r/k) KL(qbar || pbar)               convexity
         >= (r/k) KL(t/r || pbar)                monotonicity

The per-step slack shows exactly where the bound loses ground on a given
instance; on the block construction every step is an equality, for any p.
"""

import math

from readk import TailQuery, gen_block_tight, gen_random_family, proof_trace, sum_pmf, tail_prob

LABELS = ("-ln Pr[tail]", "Shearer step", "per-fn KL step", "convexity step", "final KL form")


def show(name, spec, t):
    trace = proof_trace(spec, TailQuery(t, "ge"))
    print(f"{name}, event Y >= {t}:")
    for label, value in zip(LABELS, trace.terms()):
        print(f"  {label:<15} {value:.12f}")
    print(f"  chain holds: {trace.chain_holds()}\n")


show("random read-3 family", gen_random_family(m=6, r=7, k=3, max_arity=2, seed=8), t=5)
show("block construction (k=2, 3 blocks)", gen_block_tight(2, 3, "1/2"), t=6)
show("weighted block construction (k=2, 3 blocks, p=1/3)", gen_block_tight(2, 3, "1/3"), t=6)

spec = gen_random_family(m=6, r=7, k=3, max_arity=2, seed=8)
pmf = sum_pmf(spec)
print("first term always inverts the exact tail probability:")
trace = proof_trace(spec, TailQuery(5, "ge"))
print(f"  exp(-{trace.neg_log_tail:.10f}) = {math.exp(-trace.neg_log_tail):.12f}")
print(f"  exact oracle tail              = {tail_prob(pmf, TailQuery(5, 'ge')):.12f}")
