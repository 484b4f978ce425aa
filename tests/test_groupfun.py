import math

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.sampling import random_state


def gram_built_function(group, rng, dim=3):
    """Positive-definite function phi(g) = sum_h <v_h, v_{gh}> from random vectors."""
    m = group.order
    vectors = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    values = np.empty(m, dtype=np.complex128)
    for g in range(m):
        values[g] = np.sum(vectors.conj() * vectors[group.table[g]]).item()
    return values


def random_valid_kernel_function(group, rng, dim=3):
    """Hermitian, conditionally positive-definite, vanishing at the identity."""
    phi = gram_built_function(group, rng, dim)
    return phi - phi[group.identity]


def test_gram_built_functions_are_positive_definite(rng):
    for name in ("zn:4", "s3", "q8"):
        group, _ = cc.builtin_group(name)
        for _ in range(5):
            values = gram_built_function(group, rng)
            assert cc.is_positive_definite(group, values, tol=1e-8)


def test_kernel_matrix_basic(z2, s3):
    indicator = np.zeros(6)
    indicator[s3.identity] = 1.0
    assert np.array_equal(cc.kernel_matrix(s3, indicator), np.eye(6))
    constant = np.full(6, 2.5 + 0j)
    assert np.allclose(cc.kernel_matrix(s3, constant), 2.5 * np.ones((6, 6)))
    kernel = cc.kernel_matrix(z2, np.array([0.0, -2.0]))
    assert np.array_equal(kernel.real, np.array([[0.0, -2.0], [-2.0, 0.0]]))


def test_kernel_requires_group():
    monoid = cc.SemigroupTable(np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]]), 0)
    with pytest.raises(cc.ConstructionError):
        cc.kernel_matrix(monoid, np.zeros(3))


def test_kernel_translation_invariance(s3, rng):
    """Row sums of every translation kernel equal the total function sum."""
    for _ in range(10):
        values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        kernel = cc.kernel_matrix(s3, values)
        total = values.sum()
        assert np.abs(kernel @ np.ones(6) - total * np.ones(6)).max() < 1e-12


def test_positive_definite_examples(s3):
    sign = cc.s3_sign().astype(complex)
    assert cc.is_positive_definite(s3, sign)
    indicator = np.zeros(6)
    indicator[0] = 1.0
    assert cc.is_positive_definite(s3, indicator)
    lopsided = np.zeros(6, dtype=complex)
    lopsided[5] = 1.0  # supported on a single transposition: kernel not PSD
    assert not cc.is_positive_definite(s3, lopsided)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_fail_kernel_gates(s3, s3_irreps, bad):
    """A non-finite value fails every gate instead of stopping LAPACK."""
    for g in range(s3.order):
        values = np.zeros(s3.order, dtype=complex)
        values[g] = bad
        assert not cc.is_positive_definite(s3, values)
        assert not cc.is_conditionally_positive_definite(s3, values)
        with pytest.raises(cc.PreconditionError):
            cc.guichardet_constant(s3, values)
        with pytest.raises(cc.PreconditionError):
            cc.guichardet_via_gns(s3, s3_irreps, values)


def test_hermitian_function_predicate(z2):
    assert cc.is_hermitian_function(z2, np.array([0.0, -2.0]))
    # the nontrivial element is its own inverse, so an imaginary value breaks it
    assert not cc.is_hermitian_function(z2, np.array([0.0, 1j]))


def test_conditionally_positive_definite_z2(z2):
    values = np.array([0.0, -2.0])
    assert cc.is_conditionally_positive_definite(z2, values)
    # by hand: z = (1, -1) gives z* K z = 4 >= 0
    kernel = cc.kernel_matrix(z2, values)
    z = np.array([1.0, -1.0])
    assert z @ kernel.real @ z == pytest.approx(4.0)
    assert not cc.is_positive_definite(z2, values)


def test_shifted_positive_definite_is_conditionally(s3, rng):
    phi = gram_built_function(s3, rng)
    psi = phi - phi[s3.identity]
    assert cc.is_hermitian_function(s3, psi, tol=1e-8)
    assert cc.is_conditionally_positive_definite(s3, psi, tol=1e-8)
    assert abs(psi[s3.identity]) < 1e-12


def test_schur_product(s3, rng):
    for _ in range(10):
        first = gram_built_function(s3, rng)
        second = gram_built_function(s3, rng)
        assert cc.is_positive_definite(s3, first * second, tol=1e-9 * 36)


def test_schoenberg_exponential(s3):
    psi = cc.s3_sign() - 1.0
    assert np.allclose(cc.schoenberg_exp(s3, psi, 0.0), np.ones(6))
    for t in (0.125, 0.5, 1.0, 4.0):
        values = cc.schoenberg_exp(s3, psi, t)
        expected = (1 + math.exp(-2 * t)) / 2 + (1 - math.exp(-2 * t)) / 2 * cc.s3_sign()
        assert np.abs(values - expected).max() < 1e-12
        assert cc.is_positive_definite(s3, values)


def test_schoenberg_exponential_fails_without_conditional_positivity(s3):
    # positive spike at a self-inverse element: Hermitian, vanishes at the
    # identity, yet not conditionally positive-definite
    psi = np.zeros(6)
    psi[3] = 5.0
    assert cc.is_hermitian_function(s3, psi)
    assert not cc.is_conditionally_positive_definite(s3, psi)
    violations = [
        t
        for t in cc.SCHOENBERG_GRID
        if not cc.is_positive_definite(s3, cc.schoenberg_exp(s3, psi, t))
    ]
    assert violations


# ---------------------------------------------------------------------------
# Guichardet decomposition
# ---------------------------------------------------------------------------


def test_guichardet_z2_by_hand(z2):
    cert = cc.guichardet_constant(z2, np.array([0.0, -2.0]))
    assert cert.constant == pytest.approx(1.0)
    kernel = cc.kernel_matrix(z2, cert.shifted_values)
    assert np.allclose(kernel.real, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(np.linalg.eigvalsh(kernel), [0.0, 2.0], atol=1e-12)
    assert cert.passes(1e-9)


def test_guichardet_s3_sign(s3):
    psi = (cc.s3_sign() - 1.0).astype(complex)
    cert = cc.guichardet_constant(s3, psi)
    assert abs(cert.constant - 1.0) <= 1e-12
    assert np.abs(cert.shifted_values - cc.s3_sign()).max() < 1e-12
    assert cert.passes(1e-9)


def test_guichardet_zero_function(s3):
    cert = cc.guichardet_constant(s3, np.zeros(6))
    assert cert.constant == 0.0
    assert cert.passes(1e-9)


def test_guichardet_minimality(s3, rng):
    psi = random_valid_kernel_function(s3, rng)
    cert = cc.guichardet_constant(s3, psi, tol=1e-8)
    assert cert.min_eigenvalue >= -1e-8
    assert cert.ones_residual <= 1e-8
    # lowering the constant by delta drives an eigenvalue below -delta * |G|
    assert cert.minimality_min_eigenvalue <= -1e-3 * 6 + 1e-9


def test_guichardet_precondition_reporting(s3):
    with pytest.raises(cc.PreconditionError, match="vanish at the identity"):
        cc.guichardet_constant(s3, np.full(6, 0.1))
    with pytest.raises(cc.PreconditionError, match="Hermitian"):
        cc.guichardet_constant(s3, np.array([0.0, 0.0, 1j, 0.0, 0.0, 0.0]))
    with pytest.raises(cc.PreconditionError, match="conditionally"):
        bad = np.zeros(6)
        bad[3] = 5.0  # positive spike at a transposition is not cond-PSD
        cc.guichardet_constant(s3, bad)


# ---------------------------------------------------------------------------
# Function <-> functional correspondence
# ---------------------------------------------------------------------------


def test_constant_one_corresponds_to_counit(s3, s3_irreps, s3_dual):
    omega = cc.functional_from_function(s3, s3_irreps, np.ones(6))
    assert cc.functional_norm(omega - s3_dual.epsilon) < 1e-12


def test_indicator_of_identity_gives_normalized_trace(s3, s3_irreps):
    indicator = np.zeros(6)
    indicator[0] = 1.0
    omega = cc.functional_from_function(s3, s3_irreps, indicator)
    for d, block in zip(s3_irreps.dims, omega.dual_blocks):
        assert np.abs(block - (d / 6) * np.eye(d)).max() < 1e-12
    values = cc.function_from_functional(s3, s3_irreps, omega)
    assert np.abs(values - indicator).max() < 1e-10


def test_correspondence_roundtrips(s3, s3_irreps, rng):
    alg = cc.Algebra(s3_irreps.dims)
    for _ in range(10):
        values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        omega = cc.functional_from_function(s3, s3_irreps, values)
        back = cc.function_from_functional(s3, s3_irreps, omega)
        assert np.abs(back - values).max() < 1e-10
    for _ in range(10):
        omega = random_state(alg, rng)
        values = cc.function_from_functional(s3, s3_irreps, omega)
        rebuilt = cc.functional_from_function(s3, s3_irreps, values)
        assert cc.functional_norm(rebuilt - omega) < 1e-10


def test_positivity_transfers_both_ways(s3, s3_irreps, rng):
    alg = cc.Algebra(s3_irreps.dims)
    for _ in range(10):
        values = gram_built_function(s3, rng)
        omega = cc.functional_from_function(s3, s3_irreps, values)
        assert cc.is_positive_functional(omega, tol=1e-8)
    for _ in range(10):
        omega = random_state(alg, rng)
        values = cc.function_from_functional(s3, s3_irreps, omega)
        assert cc.is_positive_definite(s3, values, tol=1e-8)


def test_translation_unitaries(s3, s3_irreps, s3_dual):
    alg = s3_dual.algebra
    assert cc.element_norm(alg, cc.translation_unitary(s3_irreps, 0) - alg.unit()) < 1e-15
    for g in range(6):
        lam_g = cc.translation_unitary(s3_irreps, g)
        for blk in lam_g.blocks:
            assert np.abs(blk @ blk.conj().T - np.eye(blk.shape[0])).max() < 1e-12
        for h in range(6):
            prod = lam_g * cc.translation_unitary(s3_irreps, h)
            target = cc.translation_unitary(s3_irreps, s3.table[g, h])
            assert cc.element_norm(alg, prod - target) < 1e-12


# ---------------------------------------------------------------------------
# Compound Poisson measures
# ---------------------------------------------------------------------------


def test_compound_poisson_zero_rate(z2):
    out = cc.compound_poisson(z2, np.array([0.0, 1.0]), 0.0, 5.0)
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_compound_poisson_z2_closed_form(z2):
    for t in (0.1, 0.5, 1.0, 2.0):
        out = cc.compound_poisson(z2, np.array([0.0, 1.0]), 1.0, t)
        assert abs(out[1] - (1 - math.exp(-2 * t)) / 2) < 1e-12
        assert cc.is_probability(out, tol=1e-12)


def test_compound_poisson_matches_convolution_exponential(rng):
    """Two independent algorithms: Poisson series vs dual matrix exponential."""
    groups = [cc.cyclic_group(2), cc.cyclic_group(6), cc.s3_group()]
    for monoid in groups:
        b = cc.function_bialgebra(monoid)
        m = monoid.order
        for rate in (0.0, 0.5, 2.0):
            weights = rng.random(m)
            weights /= weights.sum()
            point_mass = np.zeros(m)
            point_mass[monoid.identity] = 1.0
            gamma = cc.measure_functional(b.algebra, rate * (weights - point_mass))
            for t in (0.0, 0.25, 1.0, 4.0):
                series = cc.compound_poisson(monoid, weights, rate, t)
                exponential = cc.convolution_exp(b, gamma, t)
                via_dual = np.array(
                    [blk[0, 0].real for blk in exponential.dual_blocks]
                )
                assert np.abs(series - via_dual).max() < 1e-9
                assert cc.is_probability(series, tol=1e-10)


def test_compound_poisson_large_intensity_keeps_mass():
    """At rate * t = 740 one series starts from the subnormal exp(-740)."""
    z3 = cc.cyclic_group(3)
    out = cc.compound_poisson(z3, np.array([0.0, 1.0, 0.0]), 2.0, 370.0)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.abs(out - 1.0 / 3.0).max() <= 1e-12
    # the squared pieces agree with the closed form of a lazy jump on Z_2
    z2 = cc.cyclic_group(2)
    for t in (25.0, 40.0, 100.0, 740.0):
        out = cc.compound_poisson(z2, np.array([0.99, 0.01]), 1.0, t)
        assert abs(out[1] - (1 - math.exp(-0.02 * t)) / 2) <= 1e-12
        assert abs(out.sum() - 1.0) <= 1e-12


def test_compound_poisson_rejects_bad_input(z2):
    with pytest.raises(cc.PreconditionError):
        cc.compound_poisson(z2, np.array([0.5, 0.6]), 1.0, 1.0)
    with pytest.raises(cc.PreconditionError):
        cc.compound_poisson(z2, np.array([0.5, 0.5]), -1.0, 1.0)
    for rate, t in ((math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(cc.PreconditionError):
            cc.compound_poisson(z2, np.array([0.5, 0.5]), rate, t)


# ---------------------------------------------------------------------------
# GNS route
# ---------------------------------------------------------------------------


def test_guichardet_via_gns_s3_sign(s3, s3_irreps):
    psi = (cc.s3_sign() - 1.0).astype(complex)
    result = cc.guichardet_via_gns(s3, s3_irreps, psi)
    assert abs(result.constant - 1.0) < 1e-12
    assert result.function_deviation < 1e-10
    kernel_route = cc.guichardet_constant(s3, psi)
    assert abs(result.constant - kernel_route.constant) < 1e-12
    assert cc.is_positive_definite(s3, result.shifted_values, tol=1e-9)


def test_guichardet_via_gns_zero(s3, s3_irreps):
    result = cc.guichardet_via_gns(s3, s3_irreps, np.zeros(6))
    assert result.constant == 0.0
    assert result.gns_data.dimension == 0
    assert np.abs(result.shifted_values).max() == 0.0


def test_guichardet_routes_agree_on_z4(rng):
    group, irreps = cc.builtin_group("zn:4")
    for _ in range(10):
        psi = random_valid_kernel_function(group, rng)
        kernel_route = cc.guichardet_constant(group, psi, tol=1e-8)
        gns_route = cc.guichardet_via_gns(group, irreps, psi, tol=1e-8)
        assert abs(kernel_route.constant - gns_route.constant) < 1e-9
        assert gns_route.function_deviation < 1e-9
        assert cc.is_positive_definite(group, gns_route.shifted_values, tol=1e-8)
