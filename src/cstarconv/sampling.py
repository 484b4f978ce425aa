"""Seeded random data: functionals and generating functionals.

All generators take a ``numpy.random.Generator`` so the property suites and
the command-line smoke checks are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Functional, functional_norm
from .bialgebra import Bialgebra, discrete_type_decomposition


def random_duals(algebra: Algebra, rng: np.random.Generator, count: int) -> np.ndarray:
    """Dual vectors, shape ``(count, dim)``, of ``count`` random functionals.

    Their entries are independent standard complex Gaussians.  Each row takes
    ``2 * dim`` values in turn, per block the ``n * n`` real parts and then
    the ``n * n`` imaginary parts of its dual matrix ``rho_i``, row-major;
    the transposes of these matrices fill the dual vector.  One draw of
    ``count`` rows thus gives the functionals that ``count`` calls of
    :func:`random_functional` would return, in order, and leaves the
    generator in the same state.
    """
    draw = rng.standard_normal((count, 2 * algebra.dim))
    out = np.empty((count, algebra.dim), dtype=np.complex128)
    for n, _, idx in algebra.blocks_by_size:
        # block i fills coordinates off_i + r and takes draws 2 off_i + r (real)
        # and 2 off_i + n * n + r (imaginary)
        real = idx + idx[:, :1]
        mats = (draw[:, real] + 1j * draw[:, real + n * n]).reshape(count, -1, n, n)
        out[:, idx] = mats.swapaxes(-1, -2).reshape(count, -1, n * n)
    return out


def random_functional(algebra: Algebra, rng: np.random.Generator) -> Functional:
    """Functional with independent standard complex Gaussian dual entries."""
    return algebra.functional_from_dual_coords(random_duals(algebra, rng, 1))


def random_generating_functional(
    b: Bialgebra, rng: np.random.Generator, norm: float | None = None
) -> Functional:
    """Valid generating functional: PSD off the counit block, zero at the unit.

    If ``norm`` is given, the result is rescaled to that dual norm.
    """
    dec = discrete_type_decomposition(b)
    blocks = []
    for i, n in enumerate(b.algebra.blocks):
        if i == dec.omega_index:
            blocks.append(np.zeros((1, 1)))
            continue
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(x @ x.conj().T / n)
    trace_off = sum(np.trace(blk).real for blk in blocks)
    blocks[dec.omega_index] = np.array([[-trace_off]])
    gamma = b.algebra.functional(blocks)
    if norm is not None:
        current = functional_norm(gamma)
        if current > 0:
            gamma = gamma * (norm / current)
    return gamma

