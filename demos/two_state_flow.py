"""The simplest convolution semigroup: a symmetric two-state flow.

Functions on the two-element group form a commutative bialgebra; the
functional gamma(F) = F(g) - F(e) generates the continuous-time Markov
chain that hops between the two points at unit rate.  Everything about it
is known in closed form, which makes it the canonical smoke test: the
state mass at the flipped point is (1 - exp(-2t))/2, the distance to the
counit is 1 - exp(-2t), and the quantitative generator bound is tight
(norm 2 against twice the constant 1).
"""

import math

import numpy as np

import cstarconv as cc

z2 = cc.cyclic_group(2)
b = cc.function_bialgebra(z2)
gamma = b.algebra.functional([[[-1.0]], [[1.0]]])
flow = cc.associated_semigroup(b, gamma)

print("generator diagnostics:", cc.generating_functional(b, gamma))
print()
print("  t      mass at g      closed form     |lambda_t - eps|   1-exp(-2t)")
for t in (0.0, 0.125, 0.5, 1.0, 2.0, 4.0):
    mass = flow.functional_at(t).dual_blocks[1][0, 0].real
    modulus = flow.moduli([t])[0]
    print(
        f"  {t:<5g}  {mass:<13.10f}  {(1 - math.exp(-2 * t)) / 2:<14.10f} "
        f"{modulus:<18.10f} {1 - math.exp(-2 * t):.10f}"
    )

print()
print("associated semigroup at t = 1 acts on function coordinates as")
print(np.round(flow.operator_at(1.0).matrix.real, 6))
print("(a symmetric stochastic matrix: the chain's transition kernel)")

print()
grid = [2.0**-k for k in range(0, 35)]
bound = flow.norm_bound(grid)
print(
    f"norm bound: |gamma| = {cc.functional_norm(gamma)} <= 2 * C = {2 * bound.c_hat}"
    f"  (C estimated as {bound.c_hat})"
)
