"""A cocommutative flow on the group C*-algebra of S3.

The sign character of S3 gives the Hermitian, conditionally positive
function psi = sign - 1 vanishing at the identity.  Transported to the
group C*-algebra it becomes a generating functional whose exponentials are
states for every t (the Schoenberg correspondence), and whose associated
semigroup is completely positive and unital.  The flow interpolates
between the counit (t = 0) and the average of the counit with the sign
character (t -> infinity).
"""

import numpy as np

import cstarconv as cc

s3 = cc.s3_group()
irreps = cc.s3_irreps()
b = cc.group_cstar_bialgebra(s3, irreps)
print("algebra blocks:", b.algebra.blocks, " (trivial, sign, standard irreps)")
print(f"cocommutativity residual: {b.cocommutativity_residual():.1e}")

psi = (cc.s3_sign() - 1.0).astype(complex)
gamma = cc.functional_from_function(s3, irreps, psi)
print("generator valid:", cc.generating_functional(b, gamma).valid)

# column g holds the coordinates of the translation unitary lam_g
lam_g, _ = cc.fourier_matrices(s3, irreps)
flow = cc.associated_semigroup(b, gamma)

print()
print("  t        min dual eig   unit value   pointwise e^{t psi} check")
for t in (0.0, 0.25, 1.0, 4.0):
    lam = flow.functional_at(t)
    check = cc.state_check(lam)
    # the state evaluated on translation unitaries is exactly exp(t psi)
    gap = np.abs(lam.dual @ lam_g - np.exp(t * psi)).max()
    print(
        f"  {t:<7g}  {check.min_eigenvalue:>12.3e}  {check.unit_value.real:.9f}"
        f"    max gap {gap:.2e}"
    )

print()
for t in (0.5, 2.0):
    p_t = flow.operator_at(t)
    report = cc.is_completely_positive(p_t)
    print(
        f"P_{t}: completely positive = {report.cp}, "
        f"Choi spectra floor = {min(report.min_choi_eigenvalues):.3e}, "
        f"unitality residual = {cc.unitality_residual(p_t):.2e}"
    )

print()
# a positive spike at a transposition: Hermitian and zero at the identity,
# but not conditionally positive-definite
spike = np.zeros(s3.order, dtype=complex)
spike[3] = 5.0
bad = cc.functional_from_function(s3, irreps, spike)
diag = cc.generating_functional(b, bad)
print(
    f"a corrupted generator (hermitian = {diag.hermitian}, vanishes at unit = "
    f"{diag.vanishes_at_unit}, conditionally positive = {diag.conditionally_positive})"
)
bad_flow = cc.associated_semigroup(b, bad)
violations = [
    (t, cc.state_check(bad_flow.functional_at(t)).violation())
    for t in (2.0**k for k in range(-10, 4))
]
failing = [(t, v) for t, v in violations if not cc.within(v, 1e-9)]
first_t, first = failing[0]
print(
    f"its state check fails at {len(failing)} of {len(violations)} grid times, "
    f"first at t = {first_t:g} (violation {first:.3e})"
)
