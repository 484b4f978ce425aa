import numpy as np
import pytest

import cstarconv as cc

SEED = 20260810


def hermitian_defect(matrix: np.ndarray) -> float:
    """Max-abs deviation of a square matrix from its conjugate transpose."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def min_hermitian_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix.

    ``nan`` if an entry is not finite: LAPACK would return zeros for it.
    """
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    if not np.isfinite(matrix).all():
        return float("nan")
    return float(np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0).min())


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def z2():
    return cc.cyclic_group(2)


@pytest.fixture(scope="session")
def z2_functions(z2):
    return cc.function_bialgebra(z2)


@pytest.fixture(scope="session")
def z2_rate_functional(z2_functions):
    """The generator F -> F(g) - F(e) of the symmetric two-state flow."""
    return z2_functions.algebra.functional([[[-1.0]], [[1.0]]])


@pytest.fixture(scope="session")
def s3():
    return cc.s3_group()


@pytest.fixture(scope="session")
def s3_irreps():
    return cc.s3_irreps()


@pytest.fixture(scope="session")
def s3_dual(s3, s3_irreps):
    return cc.group_cstar_bialgebra(s3, s3_irreps)


@pytest.fixture(scope="session")
def s3_functions(s3):
    return cc.function_bialgebra(s3)


@pytest.fixture(scope="session")
def q8_dual():
    table, irreps = cc.builtin_group("q8")
    return cc.group_cstar_bialgebra(table, irreps)
