"""The exact oracle: pmf of the function sum by variable elimination.

Families decompose into dependency components (functions that share no
variables are independent), so the engine eliminates the variables of
each component in turn and convolves the partial sums. Weighted variables are handled exactly; there
is no sampling or approximation anywhere in this path.
"""

from readk import (
    FamilySpec,
    ReadFunction,
    TailQuery,
    Variable,
    dependency_components,
    function_marginals,
    sum_pmf,
    tail_prob,
)

# Y0 reads x0; Y1 reads x0 xor x1; Y2 reads a third, unrelated biased bit.
family = FamilySpec(
    variables=(
        Variable("x0", 2),
        Variable("x1", 2),
        Variable("x2", 2, probs=(0.9, 0.1)),
    ),
    functions=(
        ReadFunction("y0", (0,), "01"),
        ReadFunction("y1", (0, 1), "0110"),
        ReadFunction("y2", (2,), "01"),
    ),
)

print("dependency components (function idxs, variable idxs):")
for comp in dependency_components(family):
    print(" ", comp)

pmf = sum_pmf(family)
print("\npmf of Y = y0 + y1 + y2:")
for s, pr in enumerate(pmf.probs):
    print(f"  Pr[Y = {s}] = {pr:.10f}")

marg = function_marginals(family)
print(f"\nper-function marginals: {marg.per_function}")
print(f"mean marginal p = {marg.mean:.10f}")
print(f"pmf mean        = {pmf.mean():.10f}   (equals sum of marginals)")

for t in (2, 2.5, 3):
    print(f"Pr[Y >= {t}] = {tail_prob(pmf, TailQuery(t, 'ge')):.10f}")
print("(fractional thresholds round toward the event: >= 2.5 means >= 3)")
