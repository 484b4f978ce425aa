"""Seeded random test data: elements, functionals, states, generators.

All generators take a ``numpy.random.Generator`` so the property suites and
the command-line smoke checks are reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Element, Functional, functional_norm
from .bialgebra import Bialgebra, discrete_type_decomposition


def _gaussian_blocks(algebra: Algebra, rng: np.random.Generator) -> list[np.ndarray]:
    return [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in algebra.blocks
    ]


def random_element(algebra: Algebra, rng: np.random.Generator) -> Element:
    """Element with independent standard complex Gaussian entries."""
    return algebra.element(_gaussian_blocks(algebra, rng))


def random_functional(algebra: Algebra, rng: np.random.Generator) -> Functional:
    """Functional with independent standard complex Gaussian dual entries."""
    return algebra.functional(_gaussian_blocks(algebra, rng))


def random_state(algebra: Algebra, rng: np.random.Generator) -> Functional:
    """State with a random full-rank density: PSD dual blocks of unit total trace."""
    blocks = []
    for n in algebra.blocks:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(x @ x.conj().T + 1e-3 * np.eye(n))
    total = sum(np.trace(b).real for b in blocks)
    return algebra.functional([b / total for b in blocks])


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


def corrupted_generating_functional(
    b: Bialgebra,
    rng: np.random.Generator,
    violation: float = 1e-2,
) -> Functional:
    """Hermitian functional vanishing at the unit but not conditionally positive.

    Starts from a valid unit-norm generator and pushes one eigenvalue of a
    non-counit dual block down to exactly ``-violation``, compensating the
    trace on the counit block so the value at the unit stays zero.
    """
    dec = discrete_type_decomposition(b)
    gamma = random_generating_functional(b, rng, norm=1.0)
    candidates = [i for i in range(len(b.algebra.blocks)) if i != dec.omega_index]
    target = int(rng.choice(candidates))
    blocks = [np.array(blk) for blk in gamma.dual_blocks]
    rho = (blocks[target] + blocks[target].conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(rho)
    vec = eigvecs[:, 0]
    shift = eigvals[0] + violation
    rho = rho - shift * np.outer(vec, vec.conj())
    trace_change = (rho - blocks[target]).trace().real
    blocks[target] = rho
    blocks[dec.omega_index] = blocks[dec.omega_index] - trace_change
    return b.algebra.functional(blocks)
