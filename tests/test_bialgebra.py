import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cstarconv as cc
from cstarconv import bialgebra, cli
from cstarconv.io import load_bialgebra, to_pairs

from conftest import (
    SEED,
    axiom_residuals,
    basis,
    on_table_kernel,
    tensor_element,
    tensor_flip,
    translation_unitary,
)


def test_z2_function_bialgebra_exact(z2_functions):
    b = z2_functions
    report = cc.validate_bialgebra(b)
    assert (axiom_residuals(report) == 0.0).all()
    # coproduct columns follow the group law: delta(d_e) = d_e(x)d_e + d_g(x)d_g
    delta = b.delta.matrix.real
    assert np.array_equal(delta[:, 0], np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.array_equal(delta[:, 1], np.array([0.0, 1.0, 1.0, 0.0]))


def test_counit_laws_hold_for_any_monoid():
    table = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    b = cc.function_bialgebra(cc.SemigroupTable(table, 0))
    report = cc.validate_bialgebra(b)
    assert (axiom_residuals(report) == 0.0).all()


@pytest.mark.parametrize("name", ["zn:2", "zn:5", "s3", "d4", "q8"])
def test_group_cstar_bialgebras_validate(name):
    table, irreps = cc.builtin_group(name)
    b = cc.group_cstar_bialgebra(table, irreps)
    assert axiom_residuals(cc.validate_bialgebra(b)).max() <= 1e-12


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
    assert (axiom_residuals(report) == 0.0).all()
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
    assert s3_dual.cocommutativity_residual() <= cc.DEFAULT_TOL
    assert s3_functions.cocommutativity_residual() > cc.DEFAULT_TOL
    assert z2_functions.cocommutativity_residual() == 0.0
    assert cc.function_bialgebra(cc.cyclic_group(3)).cocommutativity_residual() == 0.0
    # residual through the flip matrix agrees with the structure-tensor route
    for b in (s3_functions, s3_dual):
        sigma = tensor_flip(b.algebra)
        via_flip = float(np.abs(sigma @ b.delta.matrix - b.delta.matrix).max())
        assert abs(via_flip - b.cocommutativity_residual()) < 1e-12


def test_discrete_type_decomposition(z2_functions, s3_dual):
    dec = cc.discrete_type_decomposition(z2_functions)
    assert dec.omega_index == 0  # the identity element's block
    omega = z2_functions.algebra.unit() - dec.ideal_unit
    assert abs(z2_functions.epsilon(omega) - 1.0) < 1e-14
    dec3 = cc.discrete_type_decomposition(s3_dual)
    assert s3_dual.algebra.blocks[dec3.omega_index] == 1
    omega3 = s3_dual.algebra.unit() - dec3.ideal_unit
    assert abs(s3_dual.epsilon(omega3) - 1.0) < 1e-14
    # omega is the unit of the counit's block alone
    carrier = s3_dual.algebra.coord_offsets[dec3.omega_index]
    assert np.flatnonzero(omega3.coords).tolist() == [carrier]
    # compressions by the ideal unit are killed by the counit
    for a in basis(s3_dual.algebra):
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


def test_decomposition_rejects_a_nan_counit_value():
    b = cc.function_bialgebra(cc.cyclic_group(3))
    eps = b.algebra.functional_from_dual_coords(np.array([np.nan, 0.0, 0.0]))
    with pytest.raises(cc.ConstructionError, match="not a character"):
        cc.discrete_type_decomposition(cc.Bialgebra(b.algebra, b.delta, eps))


# ---------------------------------------------------------------------------
# A completely positive coproduct that is not a *-homomorphism
# ---------------------------------------------------------------------------


def s3_class_hyperbialgebra():
    """Conjugacy-class hypergroup of S3: classes {e}, transpositions, rotations.

    The coproduct spreads a class over the pairs multiplying into it with
    the normalized class-multiplication probabilities; it is completely
    positive, unital and coassociative but not multiplicative, so it is not
    a bialgebra in the paper's sense and ``validate`` must refuse it.
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
    return cc.Bialgebra(alg, cc.LinearMap(alg, square, delta), eps)


def test_class_hypergroup_fails_hom_mode():
    """Every law but the homomorphism one holds; validate refuses the coproduct."""
    b = s3_class_hyperbialgebra()
    assert cc.is_completely_positive(b.delta).cp
    report = cc.validate_bialgebra(b)
    assert report.hom_residual > 0.1
    assert [(name, bool(cc.within(r, 1e-10))) for name, r in report.checks()] == [
        ("coassociativity", True),
        ("counit_laws", True),
        ("counit_character", True),
        ("coproduct_unital", True),
        ("coproduct_homomorphism", False),
    ]


# ---------------------------------------------------------------------------
# Contraction kernels: the table kernel against the dense oracle
# ---------------------------------------------------------------------------


def _dense(b):
    """The same bialgebra on the dense kernel (the oracle)."""
    return cc.Bialgebra(b.algebra, b.delta, b.epsilon)


def _function_bialgebra_file(tmp_path, table, identity):
    """Path of the functions on a group, written in the bialgebra JSON schema."""
    m = len(table)
    delta = [[[int(table[g][h] == l), 0] for l in range(m)] for g in range(m) for h in range(m)]
    eps = [[[[int(g == identity), 0]]] for g in range(m)]
    path = tmp_path / "functions.json"
    path.write_text(json.dumps({"blocks": [1] * m, "mode": "hom", "delta": delta, "epsilon": eps}))
    return str(path)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _table_built(case):
    """A bialgebra that ``function_bialgebra`` builds, and its Fourier-built
    oracle when it is the CLI's C*(Z_n) (``case`` ``dual:zn:<n>``)."""
    if case.startswith("dual:"):
        name = case.removeprefix("dual:")
        table, irreps = cc.builtin_group(name)
        return cli._builtin_group_cstar(name, table), cc.group_cstar_bialgebra(table, irreps)
    return _builtin_bialgebra(case), None


# how each method the table kernel overrides is compared: the call on the
# kernel under test and on its oracle, given dual vectors x, y and matrices
ORACLE_CALLS = {
    "left_matrix": lambda b, x, y, mats: np.array([b.left_matrix(v) for v in x]),
    "right_matrix": lambda b, x, y, mats: np.array([b.right_matrix(v) for v in x]),
    "invariance_residual": lambda b, x, y, mats: np.array([b.invariance_residual(m) for m in mats]),
    **{
        law: lambda b, *inputs, law=law: getattr(b, law)()
        for law in (
            "coassociativity_residual", "unit_residual", "star_residual",
            "homomorphism_residual", "cocommutativity_residual",
        )
    },
}


def _oracle_inputs(b, rng, unit):
    """``(x, y, mats)``: three dual vectors each, and a random matrix, a right
    translation, which commutes with every ``T[k]``, and that translation
    with one entry 1e-8 off.  With ``unit`` the dual vectors have dual norm
    one and the random matrix row and column sums of absolute values at most
    one."""
    dim = b.algebra.dim
    duals, mat = _random_complex(rng, 6, dim), _random_complex(rng, dim, dim)
    if unit:
        duals /= cc.functional_norms(b.algebra, duals)[:, None]
        mat /= max(np.abs(mat).sum(axis=0).max(), np.abs(mat).sum(axis=1).max())
    translation = b.right_matrix(duals[0])
    off = translation.copy()
    off[dim - 1, dim // 2] += 1e-8
    return duals[:3], duals[3:], (mat, translation, off)


# the built-in groups' function bialgebras, and the CLI's C*(Z_n)
TABLE_BUILT_CASES = ["zn:1", "zn:2", "zn:7", "zn:64", "s3", "d4", "q8"] + [
    f"dual:zn:{n}" for n in (1, 2, 3, 5, 8, 24, 64)
]


@pytest.mark.parametrize("case", TABLE_BUILT_CASES)
def test_validation_report_matches_dense_oracle(case):
    b, _ = _table_built(case)
    assert on_table_kernel(b)
    report = cc.validate_bialgebra(b)
    # built from the group table: validation forms neither the dense
    # coproduct nor the tensor square
    assert "delta" not in b.__dict__ and "tensor_square" not in b.__dict__
    assert report == cc.validate_bialgebra(_dense(b))
    assert axiom_residuals(report).max() == 0.0


@pytest.mark.parametrize("case", TABLE_BUILT_CASES)
def test_table_kernel_matches_dense_oracle(case):
    """Every method the table kernel overrides against the dense kernel on
    the same coproduct, exactly, and for C*(Z_n) also against Fourier
    inversion within 1e-12; the inherited ``convolve`` within 1e-12 of both.
    The invariance residual, a bound on the table kernel, must lie in
    ``[R, 2 R]`` of the oracle's exact ``R``.

    The Fourier coproduct carries rounding fill (2.5e-13 at n = 64), which a
    contraction sums over its inputs, so the inputs it sees have unit norm.
    """
    b, fourier = _table_built(case)
    assert on_table_kernel(b)
    # names that override a Bialgebra attribute; the cached index tables are new ones
    overrides = {
        name for name in vars(type(b)) if hasattr(cc.Bialgebra, name) and not name.startswith("__")
    }
    assert set(ORACLE_CALLS) == overrides - {"kernel"}
    dense = _dense(b)
    rng = np.random.default_rng(SEED)
    raw = _oracle_inputs(b, rng, unit=False)
    unit = _oracle_inputs(b, rng, unit=True)
    # right translations commute with left ones; one entry off fails at 1e-9
    # (on Z_1 there is no left translation but the identity)
    assert b.invariance_residual(raw[2][1]) == 0.0
    assert not cc.within(b.invariance_residual(raw[2][2]), 1e-9) or b.algebra.dim == 1
    for name, call in ORACLE_CALLS.items():
        if name == "invariance_residual":
            assert_within_factor_two(call(b, *raw), call(dense, *raw), 0.0)
            if fourier is not None:
                assert_within_factor_two(call(b, *unit), call(fourier, *unit), 1e-12)
            continue
        assert np.abs(call(b, *raw) - call(dense, *raw)).max() == 0.0, name
        if fourier is not None:
            assert np.abs(call(b, *unit) - call(fourier, *unit)).max() <= 1e-12, name
    (x, y, _), (x_unit, y_unit, _) = raw, unit
    assert np.abs(b.convolve(x, y) - dense.convolve(x, y)).max() <= 1e-12
    if fourier is not None:
        assert np.abs(b.convolve(x_unit, y_unit) - fourier.convolve(x_unit, y_unit)).max() <= 1e-12
    assert "structure_tensor" not in b.__dict__


@pytest.mark.parametrize("case", ["zn:1", "zn:7", "s3", "q8", "dual:zn:8"])
def test_left_matrix_of_a_stack_is_the_stack_of_left_matrices(case):
    """A ``(3, dim)`` stack gives the three single calls: exactly on the table
    kernel and on its 0/1 dense oracle, where every entry is one product.
    The Fourier-built C*(G) sums rounded products, and BLAS sums one row
    (gemv) and several (gemm) in different orders, so there they agree to
    rounding."""
    b, _ = _table_built(case)
    fourier = _builtin_bialgebra("dual:" + case.removeprefix("dual:"))
    stack = _random_complex(np.random.default_rng(SEED), 3, b.algebra.dim)
    for kernel, tol in [(b, 0.0), (_dense(b), 0.0), (fourier, 1e-14)]:
        single = np.array([kernel.left_matrix(v) for v in stack])
        assert kernel.left_matrix(stack).shape == single.shape
        assert np.abs(kernel.left_matrix(stack) - single).max() <= tol


def test_convolve_is_defined_once():
    """Both kernels convolve through ``y @ left_matrix(x)``, on ``Bialgebra``."""
    kernels = [cls for cls in vars(bialgebra).values() if isinstance(cls, type)]
    kernels = [cls for cls in kernels if issubclass(cls, cc.Bialgebra)]
    assert len(kernels) == 2
    assert [cls for cls in kernels if "convolve" in vars(cls)] == [cc.Bialgebra]


def assert_within_factor_two(bound, exact, tol):
    """``exact <= bound <= 2 exact``, each side within ``tol``."""
    assert np.all(exact - tol <= bound) and np.all(bound <= 2.0 * exact + tol), (bound, exact)


def _table_coproduct(blocks, table):
    """The coproduct ``delta(e_l) = sum_{f[k, j] = l} e_k (x) e_j`` as a dense
    matrix on an algebra with matrix blocks, with the counit on the first
    coordinate.  Off 1x1 blocks this is no pullback of functions, so the
    unit, ``*`` and homomorphism laws can fail."""
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
def test_table_coproducts_on_a_matrix_block_break_their_laws(name, broken):
    idx = np.arange(5)
    table = {"sum": (idx[:, None] + idx) % 5, "right": np.tile(idx, (5, 1))}[name]
    b = _table_coproduct((1, 2), table)
    assert not on_table_kernel(b)
    for law in _LAWS:
        assert (getattr(b, law)() >= 1.0) == (law in broken)
    assert not all(cc.within(r, 1e-9) for _, r in cc.validate_bialgebra(b).checks())


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_pullback_along_any_table_is_a_unital_star_homomorphism(m):
    """Why the table kernel reads the unit, ``*`` and homomorphism laws as 0.

    ``delta(g)(k, j) = g(f[k, j])`` on functions on ``m`` points is a unital
    *-homomorphism for every map ``f``, associative or not, with permutation
    rows or without: the dense laws on the formed coproduct read exactly 0.
    """
    rng = np.random.default_rng(SEED)
    tables = [rng.integers(0, m, (m, m)) for _ in range(20)]
    tables += [np.array([rng.permutation(m) for _ in range(m)]) for _ in range(20)]
    for table in tables:
        b = _table_coproduct((1,) * m, table)
        assert [getattr(b, law)() for law in _LAWS] == [0.0, 0.0, 0.0]


def test_function_bialgebra_file_runs_dense_like_the_table_built_one(tmp_path, capsys):
    """A 0/1 coproduct from a file stays on the dense kernel; its validation
    report equals that of functions on S3, and ``evolve`` on it prints the
    report of ``evolve s3`` (inputs and the kernel that decided it aside)
    within 1e-12."""
    from test_golden import assert_matches

    path = _function_bialgebra_file(tmp_path, cc.s3_group().table, 0)
    loaded = load_bialgebra(path)
    assert not on_table_kernel(loaded)
    table_built = cc.function_bialgebra(cc.s3_group())
    assert cc.validate_bialgebra(loaded) == cc.validate_bialgebra(table_built)
    gamma_path = tmp_path / "gamma.json"
    jumps = [-2.25, 0.5, 0.25, 1.0, 0.3, 0.2]  # sum_g c_g (delta_g - delta_e)
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[c, 0.0]]] for c in jumps]}))

    def report(ref):
        code = cli.main(["evolve", ref, str(gamma_path), "--times", "0,0.5,2"])
        return code, json.loads(capsys.readouterr().out)

    (file_code, from_file), (code, builtin) = report(path), report("s3")
    assert file_code == code == 0
    assert from_file.pop("inputs")[0]["source"] == path
    assert builtin.pop("inputs")[0]["source"] == "s3"
    assert (from_file.pop("kernel"), builtin.pop("kernel")) == ("dense", "table")
    assert_matches(from_file, builtin)


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
    m = len(table)
    group = (np.sort(table, axis=1) == np.arange(m)).all()
    assert ("delta" not in b.__dict__) == group  # a monoid's is formed at construction
    expected = np.zeros((m * m, m), dtype=np.complex128)
    expected[np.arange(m * m), table.ravel()] = 1.0
    assert b.delta.matrix.dtype == expected.dtype
    assert np.array_equal(b.delta.matrix, expected)
    assert b.delta.target is b.tensor_square
    assert on_table_kernel(b) == group


def test_one_tensor_square_per_bialgebra(s3_dual, tmp_path):
    loaded = load_bialgebra(_function_bialgebra_file(tmp_path, cc.s3_group().table, 0))
    for b in (s3_dual, loaded):
        assert b.delta.target is b.tensor_square
    alg = s3_dual.algebra
    assert cc.tensor_algebra(alg, cc.Algebra(alg.blocks)) is s3_dual.tensor_square


@pytest.mark.parametrize("spec", ["zn:5", "s3", "d4", "q8"])
def test_group_functions_select_table_kernel(spec):
    b = _builtin_bialgebra(spec)
    assert on_table_kernel(b)
    assert np.array_equal(b._f, cc.builtin_group(spec)[0].table)


@pytest.mark.parametrize("spec", ["dual:zn:4", "dual:zn:24", "dual:s3", "dual:d4", "dual:q8"])
def test_group_cstar_bialgebras_select_dense_kernel(spec):
    # the Fourier-built coproduct carries rounding fill; it is never rounded away
    assert not on_table_kernel(_builtin_bialgebra(spec))
    # the CLI builds C*(Z_n) from its character-basis table; the other groups stay dense
    assert on_table_kernel(cli._resolve_bialgebra(spec)) == spec.startswith("dual:zn:")


def test_group_cstar_from_files_selects_dense_kernel(tmp_path):
    table, irreps = cc.builtin_group("zn:3")
    (tmp_path / "z3.json").write_text(
        json.dumps({"order": 3, "identity": 0, "table": table.table.tolist()})
    )
    stacks = [[to_pairs(m) for m in stack] for stack in irreps.matrices]
    (tmp_path / "irr.json").write_text(
        json.dumps({"irreps": [{"dim": 1, "matrices": mats} for mats in stacks]})
    )
    dense = cc.group_cstar_bialgebra(table, irreps)
    payload = {
        "blocks": list(dense.algebra.blocks),
        "mode": "hom",
        "delta": to_pairs(dense.delta.matrix),
        "epsilon": [to_pairs(blk) for blk in dense.epsilon.dual_blocks],
    }
    (tmp_path / "cstar_z3.json").write_text(json.dumps(payload))
    paths = [str(tmp_path / name) for name in ("z3.json", "irr.json", "cstar_z3.json")]
    kernels = [on_table_kernel(b) for _, b in cli._resolve_validate_targets(paths)]
    # functions on Z_3, then C*(Z_3) from the irrep file, then the bialgebra file
    assert kernels == [True, False, False]
    assert not on_table_kernel(cli._resolve_bialgebra(paths[2]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 24, 64])
def test_table_built_cyclic_group_cstar_matches_dense_oracle(n):
    """C*(Z_n) from its character-basis table has the coproduct and counit
    of Fourier inversion; its contractions are compared in
    ``test_table_kernel_matches_dense_oracle``."""
    name = f"zn:{n}"
    table, irreps = cc.builtin_group(name)
    b = cli._builtin_group_cstar(name, table)
    dense = cc.group_cstar_bialgebra(table, irreps)
    assert on_table_kernel(b) and b.algebra == dense.algebra
    assert np.abs(b.delta.matrix - dense.delta.matrix).max() <= 1e-12
    assert np.array_equal(b.counit_coords, dense.counit_coords)


def test_monoid_that_is_not_a_group_selects_dense_kernel():
    table = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    b = cc.function_bialgebra(cc.SemigroupTable(table, 0))
    assert not on_table_kernel(b)
    assert (axiom_residuals(cc.validate_bialgebra(b)) == 0.0).all()


def test_coproduct_entry_off_one_selects_dense_kernel_and_fails_validation(s3_functions):
    b = s3_functions
    delta = b.delta.matrix.copy()
    # row (g, h) = (1, 2), away from the identity element 0
    row = 1 * 6 + 2
    delta[row, np.flatnonzero(delta[row])] = 1.0 + 1e-9
    coproduct = cc.LinearMap(b.delta.source, b.delta.target, delta)
    perturbed = cc.Bialgebra(b.algebra, coproduct, b.epsilon)
    assert not on_table_kernel(perturbed)
    report = cc.validate_bialgebra(perturbed)
    assert report.coassoc_residual > 5e-10
    assert not all(cc.within(r, 1e-10) for _, r in report.checks())


def test_non_associative_latin_square_fails_dense_coassociativity():
    """``x * y = x - y (mod 3)`` has bijective translations but is neither
    associative nor unital; :class:`SemigroupTable` refuses it, so only a
    coproduct formed from it reaches a kernel, the dense one."""
    idx = np.arange(3)
    table = (idx[:, None] - idx[None, :]) % 3
    with pytest.raises(cc.ConstructionError):
        cc.SemigroupTable(table, 0)
    b = _table_coproduct((1, 1, 1), table)
    assert cc.validate_bialgebra(b).coassoc_residual == 1.0
    assert _einsum_coassoc_residual(b) == 1.0


def table_kernel_doors(source: str) -> list[tuple[int, str, str | None]]:
    """``(line, name, innermost enclosing function)`` of every use of the
    name ``_TableBialgebra`` but its class statement, and of every ``_table``
    name, attribute, keyword, argument or string."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            continue
        fields = ("id", "attr", "arg", "name", "asname", "value")
        named = {getattr(node, field, None) for field in fields} & {"_TableBialgebra", "_table"}
        scope = node
        while scope in parents and not isinstance(scope, ast.FunctionDef):
            scope = parents[scope]
        found += [(node.lineno, name, getattr(scope, "name", None)) for name in named]
    return sorted(found)


PLANTED_DOORS = """
class _TableBialgebra(Bialgebra):
    pass

def function_bialgebra(monoid):
    return _TableBialgebra(alg, eps, monoid)

def door(alg, eps, table):
    b = _TableBialgebra(alg, eps, table)
    kernel = bialgebra._TableBialgebra
    setattr(b, "_table", table)
    return object.__new__(_TableBialgebra)
"""


@pytest.mark.parametrize("source", ["src", "planted"])
def test_only_function_bialgebra_builds_the_table_kernel(source):
    """A second door onto the table kernel would let ``coassociativity_residual``
    read 0 for a table that :class:`SemigroupTable` never checked."""
    expected = [("_TableBialgebra", "function_bialgebra")]
    if source == "src":
        texts = [path.read_text() for path in Path(cc.__file__).parent.glob("*.py")]
    else:
        texts = [PLANTED_DOORS]
        expected += [("_TableBialgebra", "door")] * 2 + [("_table", "door"), ("_TableBialgebra", "door")]
    assert [door[1:] for text in texts for door in table_kernel_doors(text)] == expected


def test_invariance_residual_runs_in_bounded_memory():
    """The orbit bound holds one gather of ``dim**2`` entries: at dim 256 a
    complex one is 1 MB, where the chunked ``dim**3`` loop it replaced peaked
    at 8 MB, a dim^3 complex tensor would take 256 MB, and so would
    ``structure_tensor``."""
    b = cc.function_bialgebra(cc.cyclic_group(256))
    assert on_table_kernel(b)
    rng = np.random.default_rng(SEED)
    t_map = cc.LinearMap(b.algebra, b.algebra, _random_complex(rng, 256, 256))
    tracemalloc.start()
    try:
        residual = cc.commutation_residual(b, t_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual > 0.1
    assert peak < 3 * 2**20
    assert "structure_tensor" not in b.__dict__


def test_cocommutativity_residual_runs_in_bounded_memory():
    """The dense flip check runs over chunks of ``k``: on the Fourier-built
    C*(``Z_128``) its temporaries peak near 8 MB, where the whole difference
    and its ``abs`` took 48 MB, and it returns the unchunked value."""
    b = cc.group_cstar_bialgebra(cc.cyclic_group(128), cc.cyclic_irreps(128))
    t3 = b.structure_tensor
    tracemalloc.start()
    try:
        residual = b.cocommutativity_residual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == np.max(np.abs(t3 - t3.transpose(1, 0, 2)))
    assert peak < 10 * 2**20


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
    """A nan counit value makes residuals nan, not the 0.0 of an exact bialgebra."""
    b = cc.function_bialgebra(cc.cyclic_group(3))
    eps = b.algebra.functional_from_dual_coords(np.array([1.0, np.nan, 0.0]))
    report = cc.validate_bialgebra(cc.Bialgebra(b.algebra, b.delta, eps))
    assert np.isnan(report.counit_residual) and np.isnan(report.character_residual)
    assert np.isnan(axiom_residuals(report)).any()
    assert not all(cc.within(r, 1e-9) for _, r in report.checks())


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
    assert not all(cc.within(r, 1e-9) for _, r in report.checks())
