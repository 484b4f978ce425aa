import os
from pathlib import Path

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.bialgebra import _TableBialgebra
from cstarconv.sampling import random_functional

SEED = 20260810

# a loop of order 5: every row and column is a permutation and 0 is a
# two-sided unit, but 36 triples are not associative, e.g. (1*1)*2 = 2 and
# 1*(1*2) = 4; the table kernel relies on SemigroupTable refusing it
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

# subprocesses (``python -m cstarconv``, the demos) import the package from this checkout
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


def random_element(algebra: cc.Algebra, rng: np.random.Generator) -> cc.Element:
    """Element with independent standard complex Gaussian entries.

    It takes ``2 * dim`` values in turn, per block the ``n * n`` real parts
    and then the ``n * n`` imaginary parts of its matrix, row-major.
    """
    draw = rng.standard_normal(2 * algebra.dim)
    mats, start = [], 0
    for n in algebra.blocks:
        real, imag = draw[start : start + n * n], draw[start + n * n : start + 2 * n * n]
        mats.append((real + 1j * imag).reshape(n, n))
        start += 2 * n * n
    return algebra.element(mats)


def random_state(algebra: cc.Algebra, rng: np.random.Generator) -> cc.Functional:
    """State with a random full-rank density: PSD dual blocks of unit total trace."""
    blocks = []
    for n in algebra.blocks:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        blocks.append(x @ x.conj().T + 1e-3 * np.eye(n))
    total = sum(np.trace(b).real for b in blocks)
    return algebra.functional([b / total for b in blocks])


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


def tensor_element(a, b):
    """Elementary tensor ``a (x) b``: per block pair exactly ``numpy.kron``."""
    perm = cc.mixing_permutation(a.algebra, b.algebra)
    return cc.Element(cc.tensor_algebra(a.algebra, b.algebra), np.kron(a.coords, b.coords)[perm])


def tensor_functional(mu, nu):
    """Product functional with ``(mu (x) nu)(a (x) b) = mu(a) * nu(b)``."""
    perm = cc.mixing_permutation(mu.algebra, nu.algebra)
    return cc.Functional(cc.tensor_algebra(mu.algebra, nu.algebra), np.kron(mu.dual, nu.dual)[perm])


def tensor_flip(algebra) -> np.ndarray:
    """Coordinate matrix of the flip ``a (x) b -> b (x) a`` on the tensor square."""
    dim = algebra.dim
    perm = cc.mixing_permutation(algebra, algebra)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    mat = np.zeros((dim * dim, dim * dim))
    for r in range(dim * dim):
        k1, k2 = divmod(perm[r], dim)
        mat[r, inv[k2 * dim + k1]] = 1.0
    return mat


def functional_norm_witness(algebra, mu):
    """A norm-one element ``a`` with ``mu(a)`` the dual norm of ``mu``.

    Per block the adjoint of the polar unitary of the dual matrix: with
    ``rho = U S Vh`` it is ``V @ Uh``, so that ``trace(rho @ a) = trace(S)``.
    """
    mats = []
    for rho in mu.dual_blocks:
        u, _, vh = np.linalg.svd(rho)
        mats.append(vh.conj().T @ u.conj().T)
    return algebra.element(mats)


def translation_unitary(irreps, g: int):
    """The element ``(+)_pi pi(g)`` of the group C*-algebra."""
    return cc.Algebra(irreps.dims).element([pi[g] for pi in irreps.matrices])


def on_table_kernel(b) -> bool:
    """Whether ``b`` runs on the table kernel, which only ``function_bialgebra`` builds."""
    return isinstance(b, _TableBialgebra)


def axiom_residuals(report) -> np.ndarray:
    """The residual of each check of a ``ValidationReport``, in report order."""
    return np.array([r for _, r, _ in report.checks(cc.DEFAULT_TOL)])


def smoke_residuals_reference(b, rng, samples: int) -> tuple[float, float, float]:
    """Associativity, unit and submultiplicativity residuals of the sampled
    convolution checks, one functional triple at a time.  Each sample's
    residual is divided by ``max(1, scale)``: ``|lam| |mu| |nu|``, ``|mu|``
    and ``|lam| |mu|`` respectively.  A check's is the max over the samples
    and 0 (``nan`` if a sample's is)."""
    assoc = [0.0]
    unital = [0.0]
    submult = [0.0]
    eps = b.epsilon
    norm = cc.functional_norm
    for _ in range(samples):
        lam = random_functional(b.algebra, rng)
        mu = random_functional(b.algebra, rng)
        nu = random_functional(b.algebra, rng)
        left = cc.convolve(b, cc.convolve(b, lam, mu), nu)
        right = cc.convolve(b, lam, cc.convolve(b, mu, nu))
        assoc.append(norm(left - right) / max(1.0, norm(lam) * norm(mu) * norm(nu)))
        unital.append(norm(cc.convolve(b, eps, mu) - mu) / max(1.0, norm(mu)))
        unital.append(norm(cc.convolve(b, mu, eps) - mu) / max(1.0, norm(mu)))
        scale = max(1.0, norm(lam) * norm(mu))
        submult.append((norm(cc.convolve(b, lam, mu)) - norm(lam) * norm(mu)) / scale)
    return float(np.max(assoc)), float(np.max(unital)), float(np.max(submult))


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
