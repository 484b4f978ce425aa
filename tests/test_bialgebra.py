import json
import tracemalloc

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.io import load_bialgebra

from conftest import SEED, tensor_element, tensor_flip, translation_unitary


def test_z2_function_bialgebra_exact(z2_functions):
    b = z2_functions
    report = cc.validate_bialgebra(b)
    assert report.max_residual() == 0.0
    # coproduct columns follow the group law: delta(d_e) = d_e(x)d_e + d_g(x)d_g
    delta = b.delta.matrix.real
    assert np.array_equal(delta[:, 0], np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.array_equal(delta[:, 1], np.array([0.0, 1.0, 1.0, 0.0]))


def test_counit_laws_hold_for_any_monoid():
    table = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    b = cc.function_bialgebra(cc.SemigroupTable(table, 0))
    report = cc.validate_bialgebra(b)
    assert report.max_residual() == 0.0


@pytest.mark.parametrize("name", ["zn:2", "zn:5", "s3", "d4", "q8"])
def test_group_cstar_bialgebras_validate(name):
    table, irreps = cc.builtin_group(name)
    b = cc.group_cstar_bialgebra(table, irreps)
    assert cc.validate_bialgebra(b).max_residual() <= 1e-12


def test_corrupted_coproduct_detected(s3_dual):
    rng = np.random.default_rng(SEED)
    noise = 1e-3 * rng.standard_normal(s3_dual.delta.matrix.shape)
    corrupted = cc.Bialgebra(
        s3_dual.algebra,
        cc.LinearMap(s3_dual.delta.source, s3_dual.delta.target, s3_dual.delta.matrix + noise),
        s3_dual.epsilon,
    )
    report = cc.validate_bialgebra(corrupted)
    assert report.coassoc_residual >= 1e-4


def _einsum_coassoc_residual(b):
    """Reference: both sides of coassociativity as full dim^4 einsums."""
    t3 = b.structure_tensor
    left = np.einsum("kjl,abj->kabl", t3, t3)
    right = np.einsum("kjl,abk->abjl", t3, t3)
    return float(np.max(np.abs(left - right)))


def _builtin_bialgebra(spec):
    dual = spec.startswith("dual:")
    table, irreps = cc.builtin_group(spec.removeprefix("dual:"))
    return cc.group_cstar_bialgebra(table, irreps) if dual else cc.function_bialgebra(table)


# zn:36 has dim 36, so a column chunk is 5 wide and the last chunk is partial
@pytest.mark.parametrize(
    "spec", ["zn:4", "zn:36", "s3", "d4", "q8", "dual:zn:4", "dual:s3", "dual:d4", "dual:q8"]
)
def test_coassociativity_matches_einsum_reference(spec):
    b = _builtin_bialgebra(spec)
    residual = cc.validate_bialgebra(b).coassoc_residual
    assert abs(residual - _einsum_coassoc_residual(b)) <= 1e-12
    assert residual <= 1e-12


def test_coassociativity_of_perturbed_coproduct_matches_einsum_reference(s3_dual):
    rng = np.random.default_rng(SEED)
    noise = rng.standard_normal(s3_dual.delta.matrix.shape)
    perturbed = cc.Bialgebra(
        s3_dual.algebra,
        cc.LinearMap(s3_dual.delta.source, s3_dual.delta.target, s3_dual.delta.matrix + noise),
        s3_dual.epsilon,
    )
    residual = cc.validate_bialgebra(perturbed).coassoc_residual
    assert residual > 1.0
    assert abs(residual - _einsum_coassoc_residual(perturbed)) <= 1e-12


def test_validation_runs_in_bounded_memory():
    # at dim 128 the dense coproduct is 32 MB, and so was the dim^3 tensor of
    # basis products and each step of the dense homomorphism loop
    b = cc.function_bialgebra(cc.cyclic_group(128))
    tracemalloc.start()
    try:
        report = cc.validate_bialgebra(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_residual() == 0.0
    assert peak < 32 * 2**20
    assert "delta" not in b.__dict__ and "tensor_square" not in b.__dict__


def test_delta_of_translation_unitaries(s3, s3_irreps, s3_dual):
    square = s3_dual.tensor_square
    for g in range(s3.order):
        lam = translation_unitary(s3_irreps, g)
        image = s3_dual.delta(lam)
        expected = tensor_element(lam, lam)
        assert cc.element_norm(square, image - expected) < 1e-10
        assert abs(s3_dual.epsilon(lam) - 1.0) < 1e-12


def test_fourier_roundtrip(s3, s3_irreps):
    lam, fourier = cc.fourier_matrices(s3, s3_irreps)
    assert np.abs(fourier @ lam - np.eye(s3.order)).max() < 1e-10
    assert np.abs(lam @ fourier - np.eye(sum(d * d for d in s3_irreps.dims))).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 9))
def test_cyclic_self_duality(n):
    """The dual-group construction of Z_n lands on functions on Z_n exactly."""
    table = cc.cyclic_group(n)
    functions = cc.function_bialgebra(table)
    dual = cc.group_cstar_bialgebra(table, cc.cyclic_irreps(n))
    assert dual.algebra.blocks == functions.algebra.blocks
    assert np.abs(dual.delta.matrix - functions.delta.matrix).max() < 1e-10
    eps_dev = [
        np.abs(a - b).max()
        for a, b in zip(dual.epsilon.dual_blocks, functions.epsilon.dual_blocks)
    ]
    assert max(eps_dev) < 1e-12


def test_flip_and_cocommutativity(z2_functions, s3_functions, s3_dual):
    sigma = tensor_flip(s3_dual.algebra)
    assert np.array_equal(sigma @ sigma, np.eye(len(sigma)))
    assert cc.is_cocommutative(s3_dual)
    assert not cc.is_cocommutative(s3_functions)
    assert cc.is_cocommutative(z2_functions)
    assert cc.is_cocommutative(cc.function_bialgebra(cc.cyclic_group(3)))
    # residual through the flip matrix agrees with the structure-tensor route
    for b in (s3_functions, s3_dual):
        sigma = tensor_flip(b.algebra)
        via_flip = float(np.abs(sigma @ b.delta.matrix - b.delta.matrix).max())
        assert abs(via_flip - b.cocommutativity_residual()) < 1e-12


def test_discrete_type_decomposition(z2_functions, s3_dual):
    dec = cc.discrete_type_decomposition(z2_functions)
    assert dec.omega_index == 0  # the identity element's block
    assert abs(z2_functions.epsilon(dec.omega) - 1.0) < 1e-14
    dec3 = cc.discrete_type_decomposition(s3_dual)
    assert s3_dual.algebra.blocks[dec3.omega_index] == 1
    assert abs(s3_dual.epsilon(dec3.omega) - 1.0) < 1e-14
    # compressions by the ideal unit are killed by the counit
    for a in s3_dual.algebra.basis():
        compressed = dec3.ideal_unit * a * dec3.ideal_unit
        assert abs(s3_dual.epsilon(compressed)) <= 1e-12


def test_decomposition_rejects_non_character(z2_functions):
    broken = cc.Bialgebra(
        z2_functions.algebra,
        z2_functions.delta,
        z2_functions.algebra.functional([[[1.0]], [[0.5]]]),
    )
    with pytest.raises(cc.ConstructionError):
        cc.discrete_type_decomposition(broken)


# ---------------------------------------------------------------------------
# Hyperbialgebra mode
# ---------------------------------------------------------------------------


def s3_class_hyperbialgebra():
    """Conjugacy-class hypergroup of S3: classes {e}, transpositions, rotations.

    The coproduct spreads a class over the pairs multiplying into it with
    the normalized class-multiplication probabilities; it is completely
    positive and unital but not multiplicative.
    """
    alg = cc.Algebra((1, 1, 1))
    square = cc.tensor_algebra(alg, alg)
    # k[a][b, c]: probability that the product of classes b and c lands in a
    k = np.zeros((3, 3, 3))
    k[0, 0, 0] = 1.0
    k[1, 0, 1] = k[1, 1, 0] = 1.0
    k[2, 0, 2] = k[2, 2, 0] = 1.0
    k[0, 1, 1], k[2, 1, 1] = 1.0 / 3.0, 2.0 / 3.0
    k[1, 1, 2] = k[1, 2, 1] = 1.0
    k[0, 2, 2], k[2, 2, 2] = 0.5, 0.5
    delta = np.zeros((9, 3), dtype=np.complex128)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                delta[b * 3 + c, a] = k[a, b, c]
    eps = alg.functional([[[1.0]], [[0.0]], [[0.0]]])
    return cc.Bialgebra(alg, cc.LinearMap(alg, square, delta), eps, mode="hyper")


def test_class_hypergroup_validates_in_hyper_mode():
    b = s3_class_hyperbialgebra()
    report = cc.validate_bialgebra(b)
    assert report.hom_residual is None
    assert report.coassoc_residual <= 1e-12
    assert report.counit_residual <= 1e-12
    assert report.character_residual <= 1e-12
    assert report.unit_residual <= 1e-12
    assert report.cp_min_eig >= -1e-12
    assert report.passes(1e-10)


def test_class_hypergroup_fails_hom_mode():
    b = s3_class_hyperbialgebra()
    as_hom = cc.Bialgebra(b.algebra, b.delta, b.epsilon, mode="hom")
    report = cc.validate_bialgebra(as_hom)
    assert report.hom_residual > 0.1
    assert not report.passes(1e-10)


# ---------------------------------------------------------------------------
# Contraction kernels: the table kernel against the dense oracle
# ---------------------------------------------------------------------------


def _dense(b):
    """The same bialgebra forced onto the dense kernel (the oracle)."""
    dense = cc.Bialgebra(b.algebra, b.delta, b.epsilon, b.mode)
    dense.__dict__["_table"] = None
    return dense


def _function_bialgebra_file(tmp_path, table, identity):
    """Functions on a group, written in the bialgebra JSON schema."""
    m = len(table)
    delta = [[[int(table[g][h] == l), 0] for l in range(m)] for g in range(m) for h in range(m)]
    eps = [[[[int(g == identity), 0]]] for g in range(m)]
    path = tmp_path / "functions.json"
    path.write_text(json.dumps({"blocks": [1] * m, "mode": "hom", "delta": delta, "epsilon": eps}))
    return load_bialgebra(str(path))


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("spec", ["zn:1", "zn:2", "zn:7", "zn:64", "s3", "d4", "q8", "json:s3"])
def test_table_kernel_matches_dense_oracle(spec, tmp_path):
    if spec == "json:s3":
        b = _function_bialgebra_file(tmp_path, cc.s3_group().table, 0)
    else:
        b = _builtin_bialgebra(spec)
    assert b._table is not None
    dense = _dense(b)
    rng = np.random.default_rng(SEED)
    dim = b.algebra.dim
    for _ in range(3):
        x, y = _random_complex(rng, dim), _random_complex(rng, dim)
        assert np.array_equal(b.left_matrix(x), dense.left_matrix(x))
        assert np.array_equal(b.right_matrix(x), dense.right_matrix(x))
        assert np.abs(b.convolve(x, y) - dense.convolve(x, y)).max() <= 1e-12
        mat = _random_complex(rng, dim, dim)
        invariant = b.right_matrix(x)
        for m in (mat, invariant):
            assert b.invariance_residual(m) == dense.invariance_residual(m)
    # right translations commute with left ones
    assert b.invariance_residual(invariant) == 0.0
    assert b.coassociativity_residual() == dense.coassociativity_residual() == 0.0
    assert b.counit_residual() == dense.counit_residual() == 0.0
    assert b.cocommutativity_residual() == dense.cocommutativity_residual()
    assert "structure_tensor" not in b.__dict__


def _latin_square_bialgebra():
    """``x * y = x - y (mod 3)``: every left translation is a bijection, so the
    table kernel is selected, but ``(x - y) - z != x - (y - z)``."""
    idx = np.arange(3)
    return _table_coproduct((1, 1, 1), (idx[:, None] - idx[None, :]) % 3)


@pytest.mark.parametrize(
    "spec", ["zn:1", "zn:2", "zn:7", "zn:64", "s3", "d4", "q8", "json:s3", "latin"]
)
def test_validation_report_matches_dense_oracle(spec, tmp_path):
    if spec == "json:s3":
        b = _function_bialgebra_file(tmp_path, cc.s3_group().table, 0)
    elif spec == "latin":
        b = _latin_square_bialgebra()
    else:
        b = _builtin_bialgebra(spec)
    assert b._table is not None
    report = cc.validate_bialgebra(b)
    if spec.startswith("zn:") or spec in ("s3", "d4", "q8"):
        # built from the group table: validation forms neither the dense
        # coproduct nor the tensor square
        assert "delta" not in b.__dict__ and "tensor_square" not in b.__dict__
    assert report == cc.validate_bialgebra(_dense(b))
    assert report.max_residual() == (1.0 if spec == "latin" else 0.0)


def _table_coproduct(blocks, table):
    """The coproduct ``delta(e_l) = sum_{f[k, j] = l} e_k (x) e_j`` as a dense
    matrix, with the counit on the first coordinate."""
    alg = cc.Algebra(blocks)
    square = cc.tensor_algebra(alg, alg)
    delta = np.zeros((square.dim, alg.dim), dtype=np.complex128)
    delta[np.arange(square.dim), table.ravel()[cc.mixing_permutation(alg, alg)]] = 1.0
    eps = alg.functional_from_dual_coords(np.eye(alg.dim)[0])
    return cc.Bialgebra(alg, cc.LinearMap(alg, square, delta), eps)


_LAWS = ("unit_residual", "star_residual", "homomorphism_residual")


@pytest.mark.parametrize(
    "name, broken",
    [
        # (k + j) mod 5 breaks all three laws
        ("sum", {"unit_residual", "star_residual", "homomorphism_residual"}),
        # f[k, j] = j: delta(e_l) = (sum_k e_k) (x) e_l keeps the adjoint only
        ("right", {"unit_residual", "homomorphism_residual"}),
    ],
)
def test_crafted_table_coproducts_on_a_matrix_block_fail_equally_on_both_kernels(name, broken):
    idx = np.arange(5)
    table = {"sum": (idx[:, None] + idx) % 5, "right": np.tile(idx, (5, 1))}[name]
    b = _table_coproduct((1, 2), table)
    assert b._table is not None
    dense = _dense(b)
    for law in _LAWS:
        residual = getattr(b, law)()
        assert residual == getattr(dense, law)()
        assert (residual >= 1.0) == (law in broken)
    report = cc.validate_bialgebra(b)
    assert report == cc.validate_bialgebra(dense)
    assert not report.passes(1e-9)


@pytest.mark.parametrize("blocks", [(1, 2), (2, 1), (1, 1, 2), (2, 2), (3,)])
def test_random_table_coproducts_validate_equally_on_both_kernels(blocks):
    rng = np.random.default_rng(SEED)
    dim = sum(n * n for n in blocks)
    for _ in range(4):
        table = np.array([rng.permutation(dim) for _ in range(dim)])
        b = _table_coproduct(blocks, table)
        assert b._table is not None
        dense = _dense(b)
        assert [getattr(b, law)() for law in _LAWS] == [getattr(dense, law)() for law in _LAWS]
        assert cc.validate_bialgebra(b) == cc.validate_bialgebra(dense)


@pytest.mark.parametrize("blocks", [(1, 2), (2, 1, 3), (1, 1, 1)])
def test_character_residual_matches_the_basis_product_tensor(blocks):
    """A counit that is not a character, against ``coords(e_x e_y)`` from ``multiply``."""
    rng = np.random.default_rng(SEED)
    alg = cc.Algebra(blocks)
    b = _table_coproduct(blocks, np.array([rng.permutation(alg.dim) for _ in range(alg.dim)]))
    eps = _random_complex(rng, alg.dim)
    eye = np.eye(alg.dim)
    products = alg.multiply(eye[:, None, :], eye)
    expected = max(
        np.abs(products @ eps - np.outer(eps, eps)).max(),
        abs(eps @ alg.unit_coords - 1.0),
        np.abs(eps[alg.star_perm] - eps.conj()).max(),
    )
    report = cc.validate_bialgebra(cc.Bialgebra(alg, b.delta, alg.functional_from_dual_coords(eps)))
    assert report.character_residual == expected


@pytest.mark.parametrize(
    "table",
    [
        cc.cyclic_group(1).table,
        cc.cyclic_group(7).table,
        cc.s3_group().table,
        cc.builtin_group("d4")[0].table,
        cc.builtin_group("q8")[0].table,
        np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]]),  # a monoid that is not a group
    ],
)
def test_coproduct_formed_from_the_table_is_the_dense_construction(table):
    b = cc.function_bialgebra(cc.SemigroupTable(table, 0))
    assert "delta" not in b.__dict__
    m = len(table)
    expected = np.zeros((m * m, m), dtype=np.complex128)
    expected[np.arange(m * m), table.ravel()] = 1.0
    assert b.delta.matrix.dtype == expected.dtype
    assert np.array_equal(b.delta.matrix, expected)
    assert b.delta.target is b.tensor_square
    group = (np.sort(table, axis=1) == np.arange(m)).all()
    assert (b._table is not None) == group


def test_one_tensor_square_per_bialgebra(s3_dual, tmp_path):
    loaded = _function_bialgebra_file(tmp_path, cc.s3_group().table, 0)
    for b in (s3_dual, loaded):
        assert b.delta.target is b.tensor_square
    alg = s3_dual.algebra
    assert cc.tensor_algebra(alg, cc.Algebra(alg.blocks)) is s3_dual.tensor_square


@pytest.mark.parametrize("spec", ["zn:5", "s3", "d4", "q8"])
def test_group_functions_select_table_kernel(spec):
    b = _builtin_bialgebra(spec)
    assert b._table is not None
    assert np.array_equal(b._table, cc.builtin_group(spec)[0].table)


@pytest.mark.parametrize("spec", ["dual:zn:4", "dual:zn:24", "dual:s3", "dual:d4", "dual:q8"])
def test_group_cstar_bialgebras_select_dense_kernel(spec):
    # the Fourier-built coproduct carries rounding fill; it is never rounded away
    assert _builtin_bialgebra(spec)._table is None


def test_monoid_that_is_not_a_group_selects_dense_kernel():
    table = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    b = cc.function_bialgebra(cc.SemigroupTable(table, 0))
    assert b._table is None
    assert cc.validate_bialgebra(b).max_residual() == 0.0


def test_coproduct_entry_off_one_selects_dense_kernel_and_fails_validation(s3_functions):
    b = s3_functions
    delta = b.delta.matrix.copy()
    # row (g, h) = (1, 2), away from the identity element 0
    row = 1 * 6 + 2
    delta[row, np.flatnonzero(delta[row])] = 1.0 + 1e-9
    coproduct = cc.LinearMap(b.delta.source, b.delta.target, delta)
    perturbed = cc.Bialgebra(b.algebra, coproduct, b.epsilon)
    assert perturbed._table is None
    report = cc.validate_bialgebra(perturbed)
    assert report.coassoc_residual > 5e-10
    assert not report.passes(1e-10)


def test_non_associative_latin_square_fails_coassociativity_on_both_kernels():
    b = _latin_square_bialgebra()
    assert b._table is not None
    assert cc.validate_bialgebra(b).coassoc_residual == 1.0
    assert cc.validate_bialgebra(_dense(b)).coassoc_residual == 1.0
    assert _einsum_coassoc_residual(b) == 1.0


def test_invariance_residual_runs_in_bounded_memory():
    # a dim^3 complex tensor at dim 128 would be 32 MB, and so would structure_tensor
    b = cc.function_bialgebra(cc.cyclic_group(128))
    assert b._table is not None
    rng = np.random.default_rng(SEED)
    t_map = cc.LinearMap(b.algebra, b.algebra, _random_complex(rng, 128, 128))
    tracemalloc.start()
    try:
        residual = cc.commutation_residual(b, t_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual > 0.1
    assert peak < 16 * 2**20
    assert "structure_tensor" not in b.__dict__


@pytest.fixture(scope="module")
def z512_functions():
    # the dense coproduct would be 512**3 complex entries, 2 GB
    return cc.function_bialgebra(cc.cyclic_group(512))


def _traced_peak(run):
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_flow_on_functions_on_z512_runs_without_the_dense_coproduct(z512_functions):
    b = z512_functions
    gamma = np.zeros(512)
    gamma[[1, 5, 100]] = [0.5, 0.3, 0.2]
    gamma[0] = -1.0
    flow = cc.associated_semigroup(b, b.algebra.functional_from_dual_coords(gamma))

    def run():
        state = flow.functional_at(0.5)
        quotient = flow.quotient_at(0.5)
        return state, quotient, flow.operator_at(0.5)

    (state, quotient, p_t), peak = _traced_peak(run)
    # 4 MB per 512 x 512 complex matrix, a few of them inside expm
    assert peak < 48 * 2**20
    assert abs(state(b.algebra.unit()) - 1.0) < 1e-12
    assert np.abs(quotient.dual - (state.dual - b.counit_coords) / 0.5).max() < 1e-12
    assert np.abs(p_t.matrix.sum(axis=1) - 1.0).max() < 1e-12
    assert "delta" not in b.__dict__ and "tensor_square" not in b.__dict__


def test_invariance_on_functions_on_z512_runs_without_the_dense_coproduct(z512_functions):
    b = z512_functions
    jump = np.zeros(512)
    jump[3] = 1.0
    shift = b.right_matrix(jump)
    residual, peak = _traced_peak(lambda: b.invariance_residual(shift))
    assert residual == 0.0
    assert peak < 16 * 2**20
    assert "delta" not in b.__dict__ and "structure_tensor" not in b.__dict__


def test_nan_axiom_residual_is_not_read_as_exact():
    """A nan counit value makes max_residual nan, not the 0.0 of an exact bialgebra."""
    b = cc.function_bialgebra(cc.cyclic_group(3))
    eps = b.algebra.functional_from_dual_coords(np.array([1.0, np.nan, 0.0]))
    report = cc.validate_bialgebra(cc.Bialgebra(b.algebra, b.delta, eps))
    assert np.isnan(report.counit_residual) and np.isnan(report.character_residual)
    assert np.isnan(report.max_residual())
    assert not report.passes(1e-9)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("spec", ["zn:3", "dual:s3"])
def test_non_finite_entry_gives_nan_character_and_homomorphism_residuals(spec, bad):
    b = _builtin_bialgebra(spec)
    dual = np.array(b.counit_coords)
    dual[1] = bad
    eps = b.algebra.functional_from_dual_coords(dual)
    assert np.isnan(cc.validate_bialgebra(cc.Bialgebra(b.algebra, b.delta, eps)).character_residual)
    delta = np.array(b.delta.matrix)
    delta[4, 1] = bad
    coproduct = cc.LinearMap(b.algebra, b.tensor_square, delta)
    report = cc.validate_bialgebra(cc.Bialgebra(b.algebra, coproduct, b.epsilon))
    assert np.isnan(report.hom_residual) and np.isnan(report.unit_residual)
    assert not report.passes(1e-9)
