"""Shifting conditionally positive-definite functions, two independent ways.

A Hermitian, conditionally positive-definite function vanishing at the
identity becomes positive-definite after adding a constant.  The closed
form for the smallest such constant is the negated mean of the function:
the all-ones vector then sits in the kernel of the shifted translation
kernel, conditional positivity covers its orthogonal complement, and any
smaller constant makes the ones-vector quadratic form negative.

The same constant falls out of a completely different construction: push
the function to a generating functional on the group C*-algebra, compress
away the counit block, and read the GNS vector state back on the
translation unitaries.  The demo runs both routes side by side.
"""

import numpy as np

import cstarconv as cc


def random_shifted_gram_function(table, rng, dim=3):
    vectors = rng.standard_normal((table.order, dim)) + 1j * rng.standard_normal(
        (table.order, dim)
    )
    phi = np.array(
        [np.sum(vectors.conj() * vectors[table.table[g]]) for g in range(table.order)]
    )
    return phi - phi[table.identity]


print("=== hand example: psi = sign - 1 on S3 ===")
s3 = cc.s3_group()
irreps = cc.s3_irreps()
psi = (cc.s3_sign() - 1.0).astype(complex)
cert = cc.guichardet_constant(s3, psi)
print("constant:", cert.constant)
print("shifted function:", np.round(cert.shifted_values.real, 6), " (the sign character)")
print("kernel min eigenvalue:", f"{cert.min_eigenvalue:.2e}")
print("ones vector annihilated:", f"{cert.ones_residual:.2e}")
print(
    f"minimality: lowering by {cert.minimality_delta} drives an eigenvalue to "
    f"{cert.minimality_min_eigenvalue:.4f} <= {-cert.minimality_delta * s3.order}"
)

via_gns = cc.guichardet_via_gns(s3, irreps, psi)
print(
    f"GNS route: constant {via_gns.constant}, representation dimension "
    f"{via_gns.gns_data.dimension}, function deviation {via_gns.function_deviation:.2e}"
)

print()
print("=== seeded random functions on Z4, S3, Q8 ===")
rng = np.random.default_rng(99)
for name in ("zn:4", "s3", "q8"):
    table, irr = cc.builtin_group(name)
    gaps = []
    for _ in range(25):
        candidate = random_shifted_gram_function(table, rng)
        kernel_route = cc.guichardet_constant(table, candidate, tol=1e-8)
        gns_route = cc.guichardet_via_gns(table, irr, candidate, tol=1e-8)
        gaps.append(abs(kernel_route.constant - gns_route.constant))
    print(f"{name}: 25 random functions, max route disagreement {max(gaps):.2e}")
