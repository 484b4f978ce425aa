import math

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.convolution import _PADE_THETA, expm
from cstarconv.sampling import random_functional, random_generating_functional

from conftest import (
    hermitian_defect,
    left_convolution,
    left_multiplication_matrix,
    min_hermitian_eigenvalue,
    on_table_kernel,
    random_state,
)

GRID = (0.0, 2.0**-6, 0.25, 1.0, 4.0)


def random_map(b, rng):
    dim = b.algebra.dim
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return cc.LinearMap(b.algebra, b.algebra, mat)


def test_zero_generator_gives_identity_flow(s3_dual):
    zero = s3_dual.algebra.functional([np.zeros((n, n)) for n in s3_dual.algebra.blocks])
    sg = cc.associated_semigroup(s3_dual, zero)
    for t in GRID:
        assert np.abs(sg.operator_at(t).matrix - np.eye(s3_dual.algebra.dim)).max() < 1e-12


def test_two_state_flow_stochastic_matrix(z2_functions, z2_rate_functional):
    sg = cc.associated_semigroup(z2_functions, z2_rate_functional)
    for t in (0.0, 0.5, 1.0, 2.5):
        p = (1 - math.exp(-2 * t)) / 2
        expected = np.array([[1 - p, p], [p, 1 - p]])
        assert np.abs(sg.operator_at(t).matrix.real - expected).max() < 1e-12


def test_exponential_route_matches_translation_route(s3_dual, q8_dual, rng):
    for b in (s3_dual, q8_dual):
        gamma = random_generating_functional(b, rng)
        sg = cc.associated_semigroup(b, gamma)
        for t in GRID:
            via_exp = sg.operator_at(t).matrix
            via_translation = cc.right_convolution_operator(
                b, cc.convolution_exp(b, gamma, t)
            ).matrix
            assert np.abs(via_exp - via_translation).max() < 1e-8


def test_recover_functional(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    sg = cc.associated_semigroup(b, gamma)
    assert (
        cc.functional_norm(
            cc.recover_functional(b, cc.LinearMap.identity(b.algebra)) - b.epsilon
        )
        == 0.0
    )
    for t in GRID:
        recovered = cc.recover_functional(b, sg.operator_at(t))
        assert cc.functional_norm(recovered - sg.functional_at(t)) < 1e-9


def test_flow_builds_its_convolution_matrix_once(s3_functions, s3_dual, rng, monkeypatch):
    calls = []

    for b in (s3_functions, s3_dual):
        left_matrix = type(b).left_matrix

        def counted(self, dual):
            calls.append(dual)
            return left_matrix(self, dual)

        gamma = random_generating_functional(b, rng)
        sg = cc.associated_semigroup(b, gamma)
        monkeypatch.setattr(type(b), "left_matrix", counted)
        states = [sg.functional_at(t) for t in GRID]
        quotients = [sg.quotient_at(t) for t in GRID]
        monkeypatch.setattr(type(b), "left_matrix", left_matrix)
        assert len(calls) == 1
        calls.clear()
        dim = b.algebra.dim
        mult = b.left_matrix(gamma.dual).T
        for t, lam, quotient in zip(GRID, states, quotients):
            assert np.array_equal(lam.dual, cc.convolution_exp(b, gamma, t).dual)
            # the phi_1 formula through the augmented exponential, on its own
            # matrix; small times take the phi_1 series instead
            aug = np.zeros((dim + 1, dim + 1), dtype=np.complex128)
            aug[:dim, :dim] = t * mult
            aug[:dim, dim] = gamma.dual
            want = expm(aug)[:dim, dim]
            if t * np.abs(mult).sum(axis=0).max() <= _PADE_THETA[3]:
                assert np.abs(quotient.dual - want).sum() <= 1e-14 * np.abs(want).sum()
            else:
                assert np.array_equal(quotient.dual, want)


def test_flow_refuses_negative_times_and_foreign_functionals(s3_functions, s3_dual, rng):
    sg = cc.associated_semigroup(s3_dual, random_generating_functional(s3_dual, rng))
    for stage in (sg.functional_at, sg.quotient_at, sg.operator_at):
        with pytest.raises(cc.PreconditionError):
            stage(-1.0)
    foreign = random_generating_functional(s3_functions, rng)
    with pytest.raises(cc.ShapeError):
        cc.associated_semigroup(s3_dual, foreign)


def test_associated_maps_pass_all_characterisations(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    sg = cc.associated_semigroup(b, gamma)
    for t in GRID:
        p_t = sg.operator_at(t)
        assert cc.commutation_residual(b, p_t) < 1e-9
        assert cc.strong_invariance_residual(b, p_t) < 1e-9
        assert cc.weak_invariance_residual(b, p_t) < 1e-9


def test_commutation_detects_noncommutative_convolution(s3_functions, s3_dual):
    """Translation by a noncentral measure fails to commute on C(S3).

    Functions on a nonabelian group have a noncommutative convolution dual
    (measures under group convolution), so left translations do not all
    commute there.  The cocommutative C*(S3) has a commutative dual and its
    left translations commute across the board.
    """
    worst = 0.0
    for k in range(s3_functions.algebra.dim):
        mu = s3_functions.algebra.functional_from_dual_coords(
            np.eye(s3_functions.algebra.dim)[k]
        )
        t_map = left_convolution(s3_functions, mu)
        worst = max(worst, cc.commutation_residual(s3_functions, t_map))
    assert worst > 0.01
    cocommutative_worst = 0.0
    for k in range(s3_dual.algebra.dim):
        mu = s3_dual.algebra.functional_from_dual_coords(np.eye(s3_dual.algebra.dim)[k])
        t_map = left_convolution(s3_dual, mu)
        cocommutative_worst = max(cocommutative_worst, cc.commutation_residual(s3_dual, t_map))
    assert cocommutative_worst < 1e-12


def test_identity_commutes(s3_dual):
    assert cc.commutation_residual(s3_dual, cc.LinearMap.identity(s3_dual.algebra)) == 0.0


def test_weak_invariance_of_translations_and_random_maps(s3_dual, rng):
    b = s3_dual
    for _ in range(10):
        mu = random_functional(b.algebra, rng)
        r_map = cc.right_convolution_operator(b, mu)
        assert cc.weak_invariance_residual(b, r_map) < 1e-10
    for _ in range(10):
        t_map = random_map(b, rng)
        assert cc.weak_invariance_residual(b, t_map) > 1e-3


def test_perturbed_associated_map_fails_both_ways(s3_dual, rng):
    """Maps failing weak invariance also fail the commutation property."""
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    p_1 = cc.associated_semigroup(b, gamma).operator_at(1.0)
    for _ in range(10):
        noise = random_map(b, rng)
        perturbed = cc.LinearMap(b.algebra, b.algebra, p_1.matrix + 0.01 * noise.matrix)
        assert cc.weak_invariance_residual(b, perturbed) > 1e-3
        assert cc.commutation_residual(b, perturbed) > 1e-3


def test_multiplication_map_is_not_translation_unless_scalar():
    z3 = cc.function_bialgebra(cc.cyclic_group(3))
    alg = z3.algebra
    point = alg.functional_from_dual_coords(np.eye(3)[0])  # delta at the identity
    mult = cc.LinearMap(alg, alg, left_multiplication_matrix(alg, alg.from_coords([1, 0, 0])))
    assert not cc.within(cc.weak_invariance_residual(z3, mult), 1e-9)
    scalar = cc.LinearMap(alg, alg, left_multiplication_matrix(alg, 0.7 * alg.unit()))
    assert cc.within(cc.weak_invariance_residual(z3, scalar), 1e-9)
    assert cc.within(cc.weak_invariance_residual(z3, cc.LinearMap.identity(alg)), 1e-12)


def test_reconstruction_exact_on_translation_range(s3_dual, rng):
    b = s3_dual
    mu = random_functional(b.algebra, rng)
    r_map = cc.right_convolution_operator(b, mu)
    rebuilt = cc.right_convolution_operator(b, cc.recover_functional(b, r_map))
    assert np.abs(r_map.matrix - rebuilt.matrix).max() < 1e-10


# ---------------------------------------------------------------------------
# Invariance residuals against the dim^4 einsum reference
# ---------------------------------------------------------------------------


def reference_commutation_residual(b, t_map):
    t3 = b.structure_tensor
    mat = t_map.matrix
    left_all = np.einsum("kjl,lm->kjm", t3, mat) - np.einsum("jl,klm->kjm", mat, t3)
    return float(np.max(np.abs(left_all)))


def reference_strong_invariance_residual(b, t_map):
    t3 = b.structure_tensor
    mat = t_map.matrix
    lhs = np.einsum("kjl,lm->kjm", t3, mat)
    rhs = np.einsum("kjm,ij->kim", t3, mat)
    return float(np.max(np.abs(lhs - rhs)))


def bialgebra_battery():
    out = {}
    for name in ("zn:4", "s3", "d4", "q8"):
        table, irreps = cc.builtin_group(name)
        out[f"functions[{name}]"] = cc.function_bialgebra(table)
        out[f"group_cstar[{name}]"] = cc.group_cstar_bialgebra(table, irreps)
    return out


def map_battery(b, rng):
    """Invariant maps (semigroup maps, translations) and random maps that are not."""
    gamma = random_generating_functional(b, rng)
    sg = cc.associated_semigroup(b, gamma)
    maps = {f"P_{t}": sg.operator_at(t) for t in (0.0, 0.5, 2.0)}
    maps["left_translation"] = left_convolution(b, random_functional(b.algebra, rng))
    maps["identity"] = cc.LinearMap.identity(b.algebra)
    for i in range(2):
        maps[f"random_{i}"] = random_map(b, rng)
    return maps


def test_invariance_residuals_match_einsum_reference(rng):
    worst_invariant = 0.0
    largest_random = 0.0
    for label, b in bialgebra_battery().items():
        for name, t_map in map_battery(b, rng).items():
            commutation = cc.commutation_residual(b, t_map)
            strong = cc.strong_invariance_residual(b, t_map)
            # the equality that lets evolve compute the tensor once
            assert commutation == strong, (label, name)
            for ref in (
                reference_commutation_residual(b, t_map),
                reference_strong_invariance_residual(b, t_map),
            ):
                # the table kernel's orbit bound lies in [R, 2 R]
                factor = 2.0 if on_table_kernel(b) else 1.0
                assert ref - 1e-12 <= commutation <= factor * ref + 1e-12, (
                    label, name, commutation, ref,
                )
            if name.startswith("random"):
                largest_random = max(largest_random, commutation)
                assert commutation > 0.1, (label, name)
            elif name != "left_translation":
                worst_invariant = max(worst_invariant, commutation)
    assert worst_invariant < 1e-9
    assert largest_random > 1.0


# ---------------------------------------------------------------------------
# Complete positivity
# ---------------------------------------------------------------------------


def test_identity_is_completely_positive():
    alg = cc.Algebra((2, 1))
    report = cc.is_completely_positive(cc.LinearMap.identity(alg))
    assert report.cp
    assert min(report.min_choi_eigenvalues) >= -1e-12


def test_transpose_is_not_completely_positive():
    m2 = cc.Algebra((2,))
    # transpose permutes matrix-unit coordinates: (r, s) -> (s, r)
    mat = np.zeros((4, 4))
    for r in range(2):
        for s in range(2):
            mat[s * 2 + r, r * 2 + s] = 1.0
    report = cc.is_completely_positive(cc.LinearMap(m2, m2, mat))
    assert not report.cp
    assert min(report.min_choi_eigenvalues) == pytest.approx(-1.0, abs=1e-12)


def reference_choi_report(t_map):
    """Choi matrices with the target embedded in its faithful representation."""
    src, tgt = t_map.source, t_map.target
    big_n = sum(tgt.blocks)  # the faithful block-diagonal representation
    min_eigs, defects = [], []
    for off, n in zip(src.coord_offsets, src.blocks):
        cols = t_map.matrix[:, off : off + n * n].T
        embedded = np.zeros((n * n, big_n, big_n), dtype=np.complex128)
        pos = 0
        for t_off, m in zip(tgt.coord_offsets, tgt.blocks):
            embedded[:, pos : pos + m, pos : pos + m] = cols[:, t_off : t_off + m * m].reshape(
                n * n, m, m
            )
            pos += m
        images = embedded.reshape(n, n, big_n, big_n)
        choi = images.transpose(0, 2, 1, 3).reshape(n * big_n, n * big_n)
        defects.append(hermitian_defect(choi))
        min_eigs.append(min_hermitian_eigenvalue(choi))
    return min_eigs, defects


def assert_choi_matches_reference(t_map):
    report = cc.is_completely_positive(t_map)
    min_eigs, defects = reference_choi_report(t_map)
    assert len(report.min_choi_eigenvalues) == len(t_map.source.blocks)
    assert np.abs(np.array(report.min_choi_eigenvalues) - min_eigs).max() <= 1e-12
    # the violation is the largest Hermitian defect or negated eigenvalue
    assert abs(report.violation - max(max(defects), -min(min_eigs))) <= 1e-12
    return report


def kraus_map(source, target, rng, count=2):
    """A random CP map: Kraus operators on the faithful representations,
    followed by the (CP) compression onto the target's diagonal blocks."""
    src_pos = np.cumsum((0,) + source.blocks)
    tgt_pos = np.cumsum((0,) + target.blocks)
    mat = np.zeros((target.dim, source.dim), dtype=np.complex128)
    eye = np.eye(source.dim)
    kraus = [
        rng.standard_normal((tgt_pos[-1], src_pos[-1]))
        + 1j * rng.standard_normal((tgt_pos[-1], src_pos[-1]))
        for _ in range(count)
    ]
    for col in range(source.dim):
        x = np.zeros((src_pos[-1], src_pos[-1]), dtype=np.complex128)
        for i, blk in enumerate(source.split(eye[col])):
            x[src_pos[i] : src_pos[i + 1], src_pos[i] : src_pos[i + 1]] = blk
        y = sum(v @ x @ v.conj().T for v in kraus)
        mat[:, col] = np.concatenate(
            [
                y[tgt_pos[i] : tgt_pos[i + 1], tgt_pos[i] : tgt_pos[i + 1]].ravel()
                for i in range(len(target.blocks))
            ]
        )
    return cc.LinearMap(source, target, mat)


def test_choi_matches_embedded_reference(rng):
    for b in bialgebra_battery().values():
        for t_map in map_battery(b, rng).values():
            assert_choi_matches_reference(t_map)
    for blocks_in, blocks_out in (((1, 2), (3, 1, 2)), ((2, 2, 1), (1, 3)), ((3,), (2, 1, 2))):
        source, target = cc.Algebra(blocks_in), cc.Algebra(blocks_out)
        report = assert_choi_matches_reference(kraus_map(source, target, rng))
        assert report.cp
        assert min(report.min_choi_eigenvalues) > -1e-12
        noise = rng.standard_normal((target.dim, source.dim))
        assert_choi_matches_reference(cc.LinearMap(source, target, noise))


def test_transpose_between_different_block_sizes_is_not_cp():
    """(a, X) in M_1 + M_2  ->  (X^T, a) in M_2 + M_1 pins the Choi reshape order."""
    source, target = cc.Algebra((1, 2)), cc.Algebra((2, 1))
    mat = np.zeros((target.dim, source.dim))
    mat[4, 0] = 1.0  # a -> the M_1 block of the target
    for r in range(2):
        for s in range(2):
            mat[s * 2 + r, 1 + r * 2 + s] = 1.0  # E_rs -> E_sr
    report = assert_choi_matches_reference(cc.LinearMap(source, target, mat))
    assert not report.cp
    # the M_1 block lands in M_1 only, so its Choi matrix has zero pieces too
    assert report.min_choi_eigenvalues == pytest.approx((0.0, -1.0), abs=1e-12)
    assert report.violation == pytest.approx(1.0, abs=1e-12)
    # the map without the transpose is a *-isomorphism, hence CP
    swap = np.zeros_like(mat)
    swap[4, 0] = 1.0
    swap[:4, 1:] = np.eye(4)
    assert cc.is_completely_positive(cc.LinearMap(source, target, swap)).cp


def test_choi_violation_reads_a_hermitian_defect_the_eigenvalue_hides():
    """``1j * id`` on M_2: its Choi matrix is ``1j`` times a PSD matrix of
    eigenvalue 2, whose Hermitian part is 0, so only the defect shows."""
    alg = cc.Algebra((2,))
    report = cc.is_completely_positive(cc.LinearMap(alg, alg, 1j * np.eye(alg.dim)))
    assert report.min_choi_eigenvalues == (0.0,)
    assert report.violation == 2.0 and report.cp is False


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_map_is_never_cp():
    alg = cc.Algebra((2, 1))
    for bad in (np.nan, np.inf, -np.inf):
        mat = np.eye(alg.dim, dtype=np.complex128)
        mat[0, 0] = bad
        report = cc.is_completely_positive(cc.LinearMap(alg, alg, mat))
        assert not report.cp and math.isnan(report.violation)
        assert math.isnan(report.min_choi_eigenvalues[0])
        assert report.min_choi_eigenvalues[1] == 0.0
        mat[0, 0], mat[1, 2] = 1.0, bad
        assert math.isnan(cc.is_completely_positive(cc.LinearMap(alg, alg, mat)).min_choi_eigenvalues[0])


def test_flow_is_cp_and_unital_iff_state(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    sg = cc.associated_semigroup(b, gamma)
    for t in GRID:
        p_t = sg.operator_at(t)
        report = cc.is_completely_positive(p_t)
        assert report.cp
        assert cc.unitality_residual(p_t) < 1e-10
        assert cc.within(cc.state_check(sg.functional_at(t)).violation(), 1e-9)


def test_non_state_translation_fails_cp(s3_dual, rng):
    b = s3_dual
    mu = random_state(b.algebra, rng) - 0.05 * random_generating_functional(b, rng, norm=1.0)
    # mu(1) = 1 still, but some dual eigenvalue may dip negative; engineer one:
    blocks = [np.array(blk) for blk in mu.dual_blocks]
    blocks[-1] = blocks[-1] - 0.2 * np.eye(blocks[-1].shape[0])
    blocks[0] = blocks[0] + 0.4
    bad = b.algebra.functional(blocks)
    assert not cc.within(cc.state_check(bad).violation(), 1e-9)
    report = cc.is_completely_positive(cc.right_convolution_operator(b, bad))
    assert not report.cp


# ---------------------------------------------------------------------------
# Generator pairing
# ---------------------------------------------------------------------------


def test_generator_pairing_identity(s3_dual, q8_dual, rng):
    for b in (s3_dual, q8_dual):
        gamma = random_generating_functional(b, rng)
        assert cc.generator_pairing_residual(b, gamma) < 1e-10
        zero = b.algebra.functional([np.zeros((n, n)) for n in b.algebra.blocks])
        assert cc.generator_pairing_residual(b, zero) == 0.0


def test_generator_pairing_separates_functionals(s3_dual, rng):
    """Pairing the generator of gamma against a different functional fails."""
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    other = random_generating_functional(b, rng)
    z_matrix = cc.right_convolution_operator(b, gamma).matrix
    t3 = b.structure_tensor
    paired = np.einsum("j,kjl->kl", b.algebra.dual_coords(other), t3)
    assert np.abs(z_matrix - paired).max() > 1e-3


def test_generator_pairing_catches_swapped_convolution_side(s3_functions, rng, monkeypatch):
    """With the left operator in place of the right one the residual is O(1)."""
    b = s3_functions
    gamma = random_generating_functional(b, rng)
    assert cc.generator_pairing_residual(b, gamma) < 1e-12
    monkeypatch.setattr(
        "cstarconv.semigroup.right_convolution_operator", left_convolution
    )
    assert cc.generator_pairing_residual(b, gamma) > 1e-3


def test_generator_pairing_catches_swapped_tensor_legs(s3_functions, rng):
    """Tensor legs exchanged in the storage the kernel contracts are caught.

    The right side pairs the coproduct matrix itself, not the kernel's
    storage, so this bookkeeping error shows whenever the swap changes the
    generator, i.e. on a coproduct that is not cocommutative.  C(S3) runs
    on the table kernel (the swap is ``f.T`` of its table ``_f``).
    Functions on the monoid ``{e, a, b}`` with ``xy = x`` for ``x != e`` run
    on the dense kernel (a left translation is constant, so not a
    bijection), and the swap exchanges the first two axes of the structure
    tensor.
    """
    left_zero = cc.function_bialgebra(
        cc.SemigroupTable(np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]]), 0)
    )
    for good, storage, swap in (
        (s3_functions, "_f", lambda f: f.T),
        (left_zero, "structure_tensor", lambda t3: t3.transpose(1, 0, 2)),
    ):
        gamma = random_generating_functional(good, rng)
        if storage == "_f":
            b = cc.function_bialgebra(cc.s3_group())
            assert on_table_kernel(b)
            b.delta  # formed from the table before the swap
        else:
            b = cc.Bialgebra(good.algebra, good.delta, good.epsilon)
        b.__dict__[storage] = swap(getattr(good, storage))
        assert cc.generator_pairing_residual(b, gamma) > 1e-3


def test_generator_commutes_with_translations(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    z_map = cc.right_convolution_operator(b, gamma)
    assert cc.commutation_residual(b, z_map) < 1e-9


def test_strong_continuity_modulus(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    sg = cc.associated_semigroup(b, gamma)
    norm = cc.functional_norm(gamma)
    eye = np.eye(b.algebra.dim)
    for t in (2.0**-10, 2.0**-4, 0.25, 1.0):
        deviation = np.abs(sg.operator_at(t).matrix - eye).max()
        assert deviation <= t * norm * math.exp(t * norm) + 1e-12


def test_semigroup_law_triangular_grid(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    sg = cc.associated_semigroup(b, gamma)
    times = (0.125, 0.5, 1.0, 2.0)
    for s in times:
        for t in times:
            lhs = sg.operator_at(s).matrix @ sg.operator_at(t).matrix
            assert np.abs(lhs - sg.operator_at(s + t).matrix).max() < 1e-8
