"""Which operators on the algebra come from convolution?

Operators induced by functionals through the coproduct (right-convolution
operators, and in particular every associated semigroup map) are cut out
among all linear maps by equivalent conditions: commuting with every
left-convolution operator, intertwining the coproduct, or being rebuilt
from their counit compression.  The demo measures these residuals for maps
on functions over S3 that are, and are not, of convolution form.
"""

import numpy as np

import cstarconv as cc
from cstarconv.sampling import random_functional, random_generating_functional

rng = np.random.default_rng(12)
b = cc.function_bialgebra(cc.s3_group())
alg = b.algebra

gamma = random_generating_functional(b, rng)
sg = cc.associated_semigroup(b, gamma)
point_mass = np.eye(alg.dim)[3]
indicator = np.eye(alg.dim)[0]

candidates = {
    "identity": cc.LinearMap.identity(alg),
    "associated P_1": sg.operator_at(1.0),
    "associated P_0.1": sg.operator_at(0.1),
    "right convolution by a random functional": cc.right_convolution_operator(
        b, random_functional(alg, rng)
    ),
    # a -> (mu (x) id)(delta a) for mu the point mass at 3
    "left convolution by a point mass": cc.LinearMap(alg, alg, b.left_matrix(point_mass)),
    # functions multiply pointwise
    "multiplication by an indicator": cc.LinearMap(alg, alg, np.diag(indicator)),
    "random dense map": cc.LinearMap(
        alg,
        alg,
        rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim)),
    ),
}

print(f"{'map':<42} {'commutation':>12} {'weak inv':>12}  of R-form?")
for name, t_map in candidates.items():
    commutation = cc.commutation_residual(b, t_map)
    weak = cc.weak_invariance_residual(b, t_map)
    print(f"{name:<42} {commutation:>12.2e} {weak:>12.2e}  {bool(cc.within(weak, 1e-9))}")

print()
print("note: the commutation column measures commutators against every")
print("left-convolution operator; on functions over the nonabelian S3 the")
print("dual convolution algebra is noncommutative, so a left convolution by")
print("a point mass fails it (and with it the invariance conditions).")

recovered = cc.recover_functional(b, sg.operator_at(1.0))
gap = cc.functional_norm(recovered - sg.functional_at(1.0))
print(f"\nrecovering the state from P_1 through the counit: gap {gap:.2e}")
