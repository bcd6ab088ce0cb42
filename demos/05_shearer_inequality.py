"""Shearer's entropy inequality and its divergence corollary, numerically.

If every coordinate of a joint distribution is covered at least k times by
a family of sets, then k times the joint entropy is at most the sum of the
projected entropies. Dually, when every coordinate is covered at *most* k
times, k times the divergence from a product law (uniform or weighted)
dominates the sum of projected divergences; that flip is what makes the
tail bound work.
"""

import itertools

from readk import (
    Distribution,
    TailQuery,
    conditional_law,
    gen_random_family,
    shearer_entropy_gap,
    shearer_kl_gap,
)

# the classic cover: three fair bits, all three pairs, k = 2
bits3 = Distribution.uniform(tuple(itertools.product((0, 1), repeat=3)))
lhs, rhs = shearer_entropy_gap(bits3, [(0, 1), (1, 2), (0, 2)], k=2)
print("three fair bits, pair cover, k=2 (independence makes it an equality):")
print(f"  2 H(joint)            = {lhs:.12f}")
print(f"  sum of pair entropies = {rhs:.12f}\n")

# a correlated joint: x2 = x0 xor x1, uniform over the 4 solutions
parity = Distribution.uniform(((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
lhs, rhs = shearer_entropy_gap(parity, [(0, 1), (1, 2), (0, 2)], k=2)
print("parity-constrained joint under the same cover (strict inequality):")
print(f"  2 H(joint)            = {lhs:.12f}")
print(f"  sum of pair entropies = {rhs:.12f}\n")

# the corollary on a family: condition a random read-2 family on its tail
spec = gen_random_family(m=5, r=5, k=2, max_arity=2, seed=2)
law = conditional_law(spec, TailQuery(4, "ge"))
lhs, rhs = shearer_kl_gap(spec, law)
print("divergence corollary on a conditioned random read-2 family:")
print(f"  k * D(law || product law)  = {lhs:.12f}")
print(f"  sum of projected D's       = {rhs:.12f}")
print(f"  slack                      = {lhs - rhs:.12f}  (never negative)")
