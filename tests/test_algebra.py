import ast
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cstarconv as cc
from cstarconv.algebra import GNS_RANK_TOL, psd_violation, psd_within
from cstarconv.sampling import random_functional, random_generating_functional

from conftest import (
    functional_norm_witness,
    hermitian_defect,
    min_hermitian_eigenvalue,
    random_element,
    random_state,
    tensor_element,
    tensor_functional,
)


def test_algebra_shape_data():
    alg = cc.Algebra((2, 3))
    assert alg.dim == 13
    assert alg.rep_dim == 5
    assert alg.coord_offsets == (0, 4)
    with pytest.raises(cc.ShapeError):
        cc.Algebra((2, 0))
    with pytest.raises(cc.ShapeError):
        cc.Algebra(())


def test_coordinate_roundtrip(rng):
    alg = cc.Algebra((2, 1, 3))
    coords = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    assert np.allclose(alg.to_coords(alg.from_coords(coords)), coords)
    dual = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    mu = alg.functional_from_dual_coords(dual)
    assert np.allclose(alg.dual_coords(mu), dual)
    # pairing through dual coordinates equals the trace pairing
    a = alg.from_coords(coords)
    assert abs(mu(a) - dual @ coords) < 1e-12


def test_element_norm_trivial_cases():
    alg = cc.Algebra((2, 3))
    assert cc.element_norm(alg, alg.unit()) == 1.0
    m2 = cc.Algebra((2,))
    assert cc.element_norm(m2, m2.element([np.diag([2.0, -3.0])])) == pytest.approx(3.0)


def test_cstar_identity_random(rng):
    # oracle: the spectral norm squared equals the top eigenvalue of a* a
    alg = cc.Algebra((2, 3, 1))
    for _ in range(25):
        a = random_element(alg, rng)
        norm = cc.element_norm(alg, a)
        star_prod = a.adjoint() * a
        top = max(np.linalg.eigvalsh(blk).max() for blk in star_prod.blocks)
        assert abs(cc.element_norm(alg, star_prod) - norm**2) < 1e-9
        assert abs(top - norm**2) < 1e-9


def test_norm_submultiplicative(rng):
    alg = cc.Algebra((3, 2))
    for _ in range(25):
        a, b = random_element(alg, rng), random_element(alg, rng)
        assert cc.element_norm(alg, a * b) <= (
            cc.element_norm(alg, a) * cc.element_norm(alg, b) + 1e-9
        )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_hermitian_spectrum_equals_per_matrix_reference(rng):
    for lead in ((7,), (3, 4)):
        for n in range(1, 6):
            for dtype in (np.float64, np.complex128):
                mats = rng.standard_normal(lead + (n, n))
                if dtype is np.complex128:
                    mats = mats + 1j * rng.standard_normal(lead + (n, n))
                stacks = [mats, (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2]
                for bad in (np.nan, np.inf, -np.inf):
                    broken = mats.copy()
                    broken.reshape(-1)[rng.integers(broken.size)] = bad
                    stacks.append(broken)
                for stack in stacks:
                    defects, min_eigs = cc.hermitian_spectrum(stack)
                    flat = stack.reshape((-1, n, n))
                    np.testing.assert_array_equal(
                        defects, np.reshape([hermitian_defect(m) for m in flat], lead)
                    )
                    np.testing.assert_array_equal(
                        min_eigs, np.reshape([min_hermitian_eigenvalue(m) for m in flat], lead)
                    )


def _eigvalsh_sites():
    """``(module, innermost enclosing function)`` of every ``eigvalsh`` in ``src/``."""
    src = Path(cc.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.split(".")[-1] for alias in node.names}
            else:
                names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if "eigvalsh" in names:
                scope = node
                while scope in parents and not isinstance(scope, ast.FunctionDef):
                    scope = parents[scope]
                yield path.name, getattr(scope, "name", None)


def test_eigvalsh_is_called_only_in_hermitian_spectrum():
    """Every positivity gate goes through the one spectrum routine."""
    assert list(_eigvalsh_sites()) == [("algebra.py", "hermitian_spectrum")]


def test_functional_norm_values(rng):
    alg = cc.Algebra((2, 2))
    state = random_state(alg, rng)
    assert cc.functional_norm(state) == pytest.approx(1.0, abs=1e-12)
    single = cc.Algebra((2,))
    mu = single.functional([np.diag([1.0, -1.0])])
    assert cc.functional_norm(mu) == pytest.approx(2.0)


def test_functional_norm_witness(rng):
    # oracle: the polar witness attains the dual norm at a unit-norm element
    alg = cc.Algebra((2, 3))
    for _ in range(25):
        mu = random_functional(alg, rng)
        witness = functional_norm_witness(alg, mu)
        assert cc.element_norm(alg, witness) <= 1.0 + 1e-12
        assert abs(mu(witness) - cc.functional_norm(mu)) < 1e-9


def test_duality_inequality(rng):
    alg = cc.Algebra((2, 1, 2))
    for _ in range(25):
        mu = random_functional(alg, rng)
        a = random_element(alg, rng)
        assert abs(mu(a)) <= cc.functional_norm(mu) * cc.element_norm(alg, a) + 1e-9


def test_state_predicate_and_cauchy_schwarz(rng):
    alg = cc.Algebra((2, 3))
    mu = random_state(alg, rng)
    assert cc.within(cc.state_check(mu).violation(), 1e-9)
    assert cc.is_positive_functional(mu)
    for _ in range(25):
        a, b = random_element(alg, rng), random_element(alg, rng)
        lhs = abs(mu(a.adjoint() * b)) ** 2
        rhs = mu(a.adjoint() * a).real * mu(b.adjoint() * b).real
        assert lhs <= rhs + 1e-9
    not_state = mu - alg.functional(
        [np.zeros((2, 2)), np.diag([1e-3, 0.0, 0.0])]
    )
    assert not cc.within(cc.state_check(not_state).violation(), 1e-9)


def test_tensor_algebra_shapes():
    m2, m3 = cc.Algebra((2,)), cc.Algebra((3,))
    prod = cc.tensor_algebra(m2, m3)
    assert prod.blocks == (6,)
    mixed = cc.tensor_algebra(cc.Algebra((1, 2)), cc.Algebra((3,)))
    assert mixed.blocks == (3, 6)


@pytest.mark.parametrize("blocks", [(1,), (3,), (1, 2), (2, 1, 3), (1, 1, 1, 1), (2, 2)])
def test_product_table_multiplies_matrix_units_in_the_representation(blocks):
    alg = cc.Algebra(blocks)
    # each matrix unit as a rep_dim x rep_dim matrix of the block-diagonal representation
    units = np.zeros((alg.dim, alg.rep_dim, alg.rep_dim))
    x, start = 0, 0
    for n in blocks:
        for r in range(n):
            for s in range(n):
                units[x, start + r, start + s] = 1.0
                x += 1
        start += n
    products = (units[:, None] @ units[None]).reshape(alg.dim, alg.dim, 1, -1)
    match = (products == units.reshape(1, 1, alg.dim, -1)).all(axis=-1)
    zero = ~products.any(axis=(-2, -1))
    expected = np.where(zero, -1, match.argmax(axis=-1))
    assert (match.sum(axis=-1) == ~zero).all()
    assert np.array_equal(alg.product_table, expected)


def test_tensor_unit_and_pairing(rng):
    a1, a2 = cc.Algebra((2, 1)), cc.Algebra((2,))
    prod = cc.tensor_algebra(a1, a2)
    unit = tensor_element(a1.unit(), a2.unit())
    assert cc.element_norm(prod, unit - prod.unit()) == 0.0
    for _ in range(10):
        x, y = random_element(a1, rng), random_element(a2, rng)
        mu, nu = random_functional(a1, rng), random_functional(a2, rng)
        assert abs(tensor_functional(mu, nu)(tensor_element(x, y)) - mu(x) * nu(y)) < 1e-10


def test_tensor_bilinearity(rng):
    a1, a2 = cc.Algebra((2,)), cc.Algebra((1, 2))
    x, x2 = random_element(a1, rng), random_element(a1, rng)
    y = random_element(a2, rng)
    prod = cc.tensor_algebra(a1, a2)
    lhs = tensor_element(x + 2.5 * x2, y)
    rhs = tensor_element(x, y) + 2.5 * tensor_element(x2, y)
    assert cc.element_norm(prod, lhs - rhs) < 1e-10


def test_tensor_state_is_state(rng):
    # oracle: Kronecker products of PSD dual blocks stay PSD
    a1, a2 = cc.Algebra((2, 1)), cc.Algebra((3,))
    mu, nu = random_state(a1, rng), random_state(a2, rng)
    tensor = tensor_functional(mu, nu)
    for blk in tensor.dual_blocks:
        assert np.linalg.eigvalsh(blk).min() >= -1e-12
    assert cc.within(cc.state_check(tensor).violation(), 1e-9)


# ---------------------------------------------------------------------------
# GNS
# ---------------------------------------------------------------------------


def _gram_rank(alg, omega, tol=1e-9):
    basis = alg.basis()
    gram = np.array([[omega(x.adjoint() * y) for y in basis] for x in basis])
    svals = np.linalg.svd(gram, compute_uv=False)
    return int((svals > tol * svals.max()).sum()) if svals.max() > 0 else 0


def test_gns_rank_matches_gram_rank():
    m2 = cc.Algebra((2,))
    omega = m2.functional([np.diag([1.0, 0.0])])
    data = cc.gns(m2, omega)
    assert data.dimension == 2 == _gram_rank(m2, omega)
    faithful = m2.functional([np.diag([0.5, 0.5])])
    assert cc.gns(m2, faithful).dimension == 4 == _gram_rank(m2, faithful)


def test_gns_tolerance_gates_positivity_only():
    """``tol`` decides positivity; the rank threshold stays fixed."""
    m2 = cc.Algebra((2,))
    faint = m2.functional([np.diag([1.0, 1e-6])])
    assert cc.gns(m2, faint, tol=1e-3).dimension == 4 == cc.gns(m2, faint).dimension
    slightly_negative = m2.functional([np.diag([1.0, -1e-11])])
    assert cc.gns(m2, slightly_negative, tol=1e-9).dimension == 2
    with pytest.raises(cc.PreconditionError):
        cc.gns(m2, slightly_negative, tol=1e-12)


def test_gns_character_is_one_dimensional():
    alg = cc.Algebra((1, 1))
    omega = alg.functional([[[1.0]], [[0.0]]])
    data = cc.gns(alg, omega)
    assert data.dimension == 1
    # the representation is the projection onto the chosen coordinate
    e0, e1 = alg.basis()
    assert abs(_represent(data, alg, e0)[0, 0] - 1.0) < 1e-12
    assert abs(_represent(data, alg, e1)[0, 0]) < 1e-12


def _represent(data, alg, a):
    """``pi(a) = to_space @ L_a @ from_space``, with ``L_a`` from the public
    left-multiplication matrix rather than the product table."""
    return data.to_space @ cc.left_multiplication_matrix(alg, a) @ data.from_space


def test_gns_reproduces_functional_and_is_star_homomorphism(rng):
    alg = cc.Algebra((2, 1))
    omega = random_state(alg, rng)
    data = cc.gns(alg, omega)
    eta = data.cyclic_vector
    basis = alg.basis()
    for ex in basis:
        pix = _represent(data, alg, ex)
        assert abs(np.vdot(eta, pix @ eta) - omega(ex)) < 1e-8
        star = _represent(data, alg, ex.adjoint())
        assert np.abs(star - pix.conj().T).max() < 1e-8
        for ey in basis:
            lhs = pix @ _represent(data, alg, ey)
            rhs = _represent(data, alg, ex * ey)
            assert np.abs(lhs - rhs).max() < 1e-8
    unit_rep = _represent(data, alg, alg.unit())
    assert np.abs(unit_rep - np.eye(data.dimension)).max() < 1e-10


def test_gns_requires_positive_functional(rng):
    alg = cc.Algebra((2,))
    with pytest.raises(cc.PreconditionError):
        cc.gns(alg, alg.functional([np.diag([1.0, -1.0])]))


def _tensor_gns(alg, omega):
    """Reference: the GNS data from the dense tensor of basis products.

    Returns the dimension, the quotient map and its right inverse, the
    cyclic vector, and every basis element's representing matrix formed
    from the tensor."""
    eye = np.eye(alg.dim)
    products = alg.multiply(eye[:, None, :], eye)  # [x, y] -> coords(e_x e_y)
    gram = products[alg.star_perm] @ alg.dual_coords(omega)
    gram = (gram + gram.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(gram)
    top = float(eigvals.max(initial=0.0))
    keep = eigvals > GNS_RANK_TOL * max(top, 0.0)
    if top <= 0.0:
        keep = np.zeros_like(keep)
    svals = eigvals[keep]
    vecs = eigvecs[:, keep]
    d = int(keep.sum())
    to_space = (np.sqrt(svals)[:, None]) * vecs.conj().T
    from_space = vecs / np.sqrt(svals)[None, :] if d else vecs
    reps = to_space @ products.transpose(0, 2, 1) @ from_space
    return d, to_space, from_space, to_space @ alg.unit_coords, reps


def _gns_functionals(alg, rng):
    """A full-rank state, a rank-deficient positive functional and zero."""
    full, thin = [], []
    for i, n in enumerate(alg.blocks):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        full.append(a @ a.conj().T)
        thin.append(v @ v.conj().T if i % 2 == 0 else np.zeros((n, n)))
    zero = alg.functional_from_dual_coords(np.zeros(alg.dim))
    return [alg.functional(full), alg.functional(thin), zero]


GNS_LAYOUTS = [(1, 2), (2, 1, 3), (3,), (1, 1, 2, 2), (2, 2, 2, 1), (4, 3)]


@pytest.mark.parametrize("source", GNS_LAYOUTS + ["s3", "d4", "q8", "zn:6"], ids=str)
def test_gns_equals_the_basis_product_tensor_bit_for_bit(source, rng):
    if isinstance(source, str):
        alg = cc.group_cstar_bialgebra(*cc.builtin_group(source)).algebra
    else:
        alg = cc.Algebra(source)
    for omega in _gns_functionals(alg, rng):
        data = cc.gns(alg, omega)
        dimension, to_space, from_space, eta, reps = _tensor_gns(alg, omega)
        assert data.dimension == dimension
        assert np.array_equal(data.to_space, to_space)
        assert np.array_equal(data.from_space, from_space)
        assert np.array_equal(data.cyclic_vector, eta)
        rebuilt = [_represent(data, alg, ex) for ex in alg.basis()]
        assert np.array_equal(np.reshape(rebuilt, reps.shape), reps)


def _gns_of_a_faithful_state_on_128_blocks():
    alg = cc.Algebra((1,) * 128)
    data = cc.gns(alg, alg.functional_from_dual_coords(np.full(alg.dim, 1.0 / alg.dim)))
    assert data.dimension == alg.dim


def _guichardet_via_gns_on_z128():
    group, irreps = cc.builtin_group("zn:128")
    psi = np.eye(group.order)[group.identity] - 1.0  # -(1 - delta_e)
    assert cc.guichardet_via_gns(group, irreps, psi).function_deviation < 1e-9


def test_gns_of_a_faithful_state_stays_small_on_many_blocks():
    """dim 128 of 1x1 blocks, alone and on the Guichardet route of ``Z_128``:
    no dim^3 tensor of basis products and no ``(dim, d, d)`` stack of
    representing matrices is formed, so each traced peak stays under 8 MB.

    The time is the best of three calls on fresh algebras, so that a first
    touch of fresh memory pages is not counted.
    """

    def run(call):
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    for call in (_gns_of_a_faithful_state_on_128_blocks, _guichardet_via_gns_on_z128):
        tracemalloc.start()
        try:
            run(call)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, call.__name__
        assert min(run(call) for _ in range(3)) < 1.0, call.__name__


def test_multiplication_matrices(rng):
    alg = cc.Algebra((2, 3))
    a, b = random_element(alg, rng), random_element(alg, rng)
    left = cc.left_multiplication_matrix(alg, a) @ alg.to_coords(b)
    assert np.allclose(left, alg.to_coords(a * b), atol=1e-12)


def test_multiply_matches_per_block_matmul(rng):
    # sizes 1 and 2 take the broadcast-sum path, 3 to 5 the batched matmul
    alg = cc.Algebra((1, 2, 3, 2, 4, 1, 5))

    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x = gaussian((3, 1, alg.dim))
    y = gaussian((4, alg.dim))
    product = alg.multiply(x, y)
    assert product.shape == (3, 4, alg.dim)
    for i in range(3):
        for j in range(4):
            expected = np.concatenate(
                [(a @ b).ravel() for a, b in zip(alg.split(x[i, 0]), alg.split(y[j]))]
            )
            assert np.abs(product[i, j] - expected).max() <= 1e-12


def _random_blocks(rng):
    return tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 9)))


def test_batched_norms_equal_per_block_loop(rng):
    for _ in range(40):
        alg = cc.Algebra(_random_blocks(rng))
        a = random_element(alg, rng)
        mu = random_functional(alg, rng)
        per_block_norm = max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in a.blocks)
        traces = [np.linalg.svd(r, compute_uv=False).sum() for r in mu.dual_blocks]
        # the trace norm of a 1x1 block is taken as its modulus
        per_block_dual = float(
            sum(np.abs(r)[0, 0] if r.shape == (1, 1) else t for r, t in zip(mu.dual_blocks, traces))
        )
        assert np.array_equal(cc.element_norm(alg, a), per_block_norm)
        assert np.array_equal(cc.functional_norm(mu), per_block_dual)
        assert cc.functional_norm(mu) == pytest.approx(float(sum(traces)), rel=1e-15)


def _loop_mixing_permutation(blocks1, blocks2):
    """Reference: one index grid per pair of blocks."""
    a1, a2 = cc.Algebra(blocks1), cc.Algebra(blocks2)
    parts = []
    for off1, n in zip(a1.coord_offsets, blocks1):
        for off2, m in zip(a2.coord_offsets, blocks2):
            r1, r2, s1, s2 = np.ix_(range(n), range(m), range(n), range(m))
            k1 = off1 + r1 * n + s1
            k2 = off2 + r2 * m + s2
            parts.append((k1 * a2.dim + k2).ravel())
    return np.concatenate(parts)


def test_mixing_permutation_matches_block_pair_loop(rng):
    layouts = [((1,), (1,)), ((1,) * 64, (1,) * 64), ((2, 1, 2), (1, 3, 1, 3))]
    layouts += [(_random_blocks(rng), _random_blocks(rng)) for _ in range(40)]
    for blocks1, blocks2 in layouts:
        perm = cc.mixing_permutation(cc.Algebra(blocks1), cc.Algebra(blocks2))
        assert np.array_equal(perm, _loop_mixing_permutation(blocks1, blocks2))


def test_batched_state_checks_equal_per_block_loop(rng):
    for _ in range(40):
        alg = cc.Algebra(_random_blocks(rng))
        for mu in (random_functional(alg, rng), random_state(alg, rng)):
            check = cc.state_check(mu)
            blocks = mu.dual_blocks
            assert check.hermitian_defect == max(hermitian_defect(r) for r in blocks)
            assert check.min_eigenvalue == min(min_hermitian_eigenvalue(r) for r in blocks)
            assert check.unit_value == complex(sum(np.trace(r) for r in blocks))
            assert cc.is_positive_functional(mu) == all(
                hermitian_defect(r) <= 1e-9 and min_hermitian_eigenvalue(r) >= -1e-9
                for r in blocks
            )


def test_nan_block_among_block_sizes_fails_state_checks(rng):
    """A ``nan`` block reads ``nan``, never the zeros LAPACK returns for it."""
    alg = cc.Algebra((1, 2, 1, 2))
    state = random_state(alg, rng)
    for i in range(len(alg.blocks)):
        blocks = [r.copy() for r in state.dual_blocks]
        blocks[i][0, 0] = np.nan
        mu = alg.functional(blocks)
        check = cc.state_check(mu)
        assert np.isnan(check.min_eigenvalue) and np.isnan(check.violation())
        assert not cc.within(check.violation(), 1e-9)
        assert not cc.is_positive_functional(mu)
    table, irreps = cc.builtin_group("d4")
    b = cc.group_cstar_bialgebra(table, irreps)
    omega = cc.discrete_type_decomposition(b).omega_index
    gamma = random_generating_functional(b, rng)
    assert cc.generating_functional(b, gamma).valid
    for i in range(len(b.algebra.blocks)):
        blocks = [r.copy() for r in gamma.dual_blocks]
        blocks[i][0, 0] = np.nan
        diag = cc.generating_functional(b, b.algebra.functional(blocks))
        assert not diag.hermitian
        assert diag.conditionally_positive == (i == omega)


# ---------------------------------------------------------------------------
# Property tests over generated matrices
# ---------------------------------------------------------------------------

finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(st.lists(finite, min_size=8, max_size=8), st.lists(finite, min_size=8, max_size=8))
def test_cstar_identity_hypothesis(re, im):
    alg = cc.Algebra((2,))
    mat = (np.array(re) + 1j * np.array(im)).reshape(2, 2, 2)
    a = alg.element([mat[0] + mat[1] @ mat[1]])
    norm = cc.element_norm(alg, a)
    assert abs(cc.element_norm(alg, a.adjoint() * a) - norm**2) <= 1e-9 * max(1.0, norm**2)


@settings(max_examples=30, deadline=None)
@given(st.lists(finite, min_size=8, max_size=8))
def test_functional_norm_dominates_pairing_hypothesis(entries):
    alg = cc.Algebra((2,))
    rho = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    mu = alg.functional([rho])
    witness = functional_norm_witness(alg, mu)
    assert abs(mu(witness)) <= cc.functional_norm(mu) + 1e-9
    assert abs(mu(witness) - cc.functional_norm(mu)) <= 1e-9


# values at and around +-tol, the non-finite values and plain random values
edge = st.sampled_from(
    [0.0, 1e-9, -1e-9, 1e-9 * (1 + 1e-15), -1e-9 * (1 + 1e-15), np.nan, np.inf, -np.inf]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(edge, finite), min_size=1, max_size=6), st.data())
def test_psd_within_is_within_of_the_violation(defects, data):
    """One PSD rule: the verdict is ``within`` of ``psd_violation``, elementwise."""
    size = len(defects)
    min_eigs = data.draw(st.lists(st.one_of(edge, finite), min_size=size, max_size=size))
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1.0]))
    verdict = psd_within(defects, min_eigs, tol)
    assert np.array_equal(verdict, cc.within(psd_violation(defects, min_eigs), tol))
    # the violation passes exactly when both the defect and the eigenvalue do
    both = cc.within(np.array(defects), tol) & cc.within(-np.array(min_eigs), tol)
    assert np.array_equal(verdict, both)
