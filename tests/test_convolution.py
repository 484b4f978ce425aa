import math

import numpy as np
import pytest
import scipy.linalg

import cstarconv as cc
from cstarconv import cli
from cstarconv.convolution import _PADE_THETA, _PHI1_COEFFS, _pade_expm, expm
from cstarconv.sampling import random_functional, random_generating_functional

from conftest import (
    SCHOENBERG_GRID,
    SEED,
    corrupted_generating_functional,
    function_values,
    functional_norm_witness,
    left_convolution,
    random_state,
)


def dual_basis_functional(b, k):
    return cc.Functional(b.algebra, np.eye(b.algebra.dim)[k])


def test_point_mass_convolution_follows_group_law(z2, z2_functions):
    b = z2_functions
    for g in range(2):
        for h in range(2):
            conv = cc.convolve(b, dual_basis_functional(b, g), dual_basis_functional(b, h))
            expected = np.eye(2)[z2.table[g, h]]
            assert np.allclose(b.algebra.dual_coords(conv), expected, atol=1e-14)


def test_counit_is_convolution_unit(s3_dual, rng):
    b = s3_dual
    for _ in range(20):
        mu = random_functional(b.algebra, rng)
        assert cc.functional_norm(cc.convolve(b, b.epsilon, mu) - mu) < 1e-10
        assert cc.functional_norm(cc.convolve(b, mu, b.epsilon) - mu) < 1e-10


def test_convolution_associative_and_submultiplicative(s3_dual, s3_functions, rng):
    for b in (s3_dual, s3_functions):
        for _ in range(25):
            lam = random_functional(b.algebra, rng)
            mu = random_functional(b.algebra, rng)
            nu = random_functional(b.algebra, rng)
            left = cc.convolve(b, cc.convolve(b, lam, mu), nu)
            right = cc.convolve(b, lam, cc.convolve(b, mu, nu))
            assert cc.functional_norm(left - right) < 1e-9
            assert cc.functional_norm(cc.convolve(b, lam, mu)) <= (
                cc.functional_norm(lam) * cc.functional_norm(mu) + 1e-9
            )


def test_convolution_is_pointwise_product_on_group_dual(s3, s3_irreps, s3_dual, rng):
    # oracle: evaluate both sides on every translation unitary
    b = s3_dual
    for _ in range(5):
        lam = random_functional(b.algebra, rng)
        mu = random_functional(b.algebra, rng)
        conv_values = function_values(s3, s3_irreps, cc.convolve(b, lam, mu))
        pointwise = function_values(s3, s3_irreps, lam) * function_values(s3, s3_irreps, mu)
        assert np.abs(conv_values - pointwise).max() < 1e-10


def test_group_dual_flow_is_the_pointwise_exponential(s3, s3_irreps, s3_dual):
    """On the translation unitaries the C*(S3) flow of ``psi = sign - 1`` is
    ``exp(t psi) = (1 + e^{-2t})/2 + (1 - e^{-2t})/2 sign``."""
    sign = cc.s3_sign()
    flow = cc.associated_semigroup(s3_dual, cc.functional_from_function(s3, s3_irreps, sign - 1.0))
    lam_g, _ = cc.fourier_matrices(s3, s3_irreps)
    for t in (0.0, 0.25, 1.0, 4.0):
        values = flow.functional_at(t).dual @ lam_g
        expected = (1 + math.exp(-2 * t)) / 2 + (1 - math.exp(-2 * t)) / 2 * sign
        assert np.abs(values - expected).max() < 1e-12, t


def test_translation_operators_of_counit_are_identity(s3_dual):
    b = s3_dual
    eye = np.eye(b.algebra.dim)
    assert np.abs(left_convolution(b, b.epsilon).matrix - eye).max() < 1e-12
    assert np.abs(cc.right_convolution_operator(b, b.epsilon).matrix - eye).max() < 1e-12


def test_right_translation_is_permutation_on_functions(s3, s3_functions):
    # oracle: permutation matrix built directly from the Cayley table
    b = s3_functions
    for h in range(s3.order):
        point_mass = dual_basis_functional(b, h)
        matrix = cc.right_convolution_operator(b, point_mass).matrix.real
        expected = np.zeros((6, 6))
        for g in range(6):
            expected[g, s3.table[g, h]] = 1.0
        assert np.abs(matrix - expected).max() < 1e-14


def test_functional_recovered_from_translations(s3_dual, rng):
    b = s3_dual
    eps = b.algebra.dual_coords(b.epsilon)
    for _ in range(20):
        mu = random_functional(b.algebra, rng)
        for op in (left_convolution(b, mu), cc.right_convolution_operator(b, mu)):
            recovered = cc.Functional(b.algebra, eps @ op.matrix)
            assert cc.functional_norm(recovered - mu) < 1e-10


def test_left_right_translations_commute_with_common_expression(s3_dual, rng):
    b = s3_dual
    t3 = b.structure_tensor
    for _ in range(10):
        mu = random_functional(b.algebra, rng)
        nu = random_functional(b.algebra, rng)
        lmat = left_convolution(b, mu).matrix
        rmat = cc.right_convolution_operator(b, nu).matrix
        dmu = b.algebra.dual_coords(mu)
        dnu = b.algebra.dual_coords(nu)
        # (mu (x) id (x) nu) applied to the twice-iterated coproduct
        common = np.einsum("a,c,ajl,bcj->bl", dmu, dnu, t3, t3)
        assert np.abs(lmat @ rmat - rmat @ lmat).max() < 1e-10
        assert np.abs(lmat @ rmat - common).max() < 1e-10


def test_right_map_is_algebra_morphism(s3_dual, rng):
    b = s3_dual
    for _ in range(10):
        lam = random_functional(b.algebra, rng)
        mu = random_functional(b.algebra, rng)
        composed = cc.right_convolution_operator(b, lam).matrix @ cc.right_convolution_operator(
            b, mu
        ).matrix
        direct = cc.right_convolution_operator(b, cc.convolve(b, lam, mu)).matrix
        assert np.abs(composed - direct).max() < 1e-10


def test_translation_norm_brackets_functional_norm(s3_dual, rng):
    b = s3_dual
    for _ in range(10):
        mu = random_functional(b.algebra, rng)
        lop = left_convolution(b, mu)
        bound = cc.functional_norm(mu)
        for _ in range(50):
            a = cc.Element(
                b.algebra,
                rng.standard_normal(b.algebra.dim) + 1j * rng.standard_normal(b.algebra.dim),
            )
            assert cc.element_norm(b.algebra, lop(a)) <= bound * cc.element_norm(
                b.algebra, a
            ) + 1e-9
        witness = functional_norm_witness(b.algebra, mu)
        assert cc.element_norm(b.algebra, lop(witness)) >= bound - 1e-9


# ---------------------------------------------------------------------------
# Convolution exponentials
# ---------------------------------------------------------------------------


def _gaussian(n, norm, complex_, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    if complex_:
        a = a + 1j * rng.standard_normal((n, n))
    return a * (norm / np.abs(a).sum(axis=0).max())


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# both sides of each Pade degree's threshold, plus one norm deep enough that
# the degree-13 branch squares several times (s = 4)
THETA_NORMS = [1e-6, 50.0] + [f * th for th in _PADE_THETA.values() for f in (0.99, 1.01)]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 5, 65])
def test_expm_matches_scipy(n, complex_):
    for k, norm in enumerate(THETA_NORMS):
        a = _gaussian(n, norm, complex_, [n, complex_, k])
        got, want = expm(a), scipy.linalg.expm(a)
        assert got.dtype == want.dtype
        assert _relative_error(got, want) < 1e-12, norm


@pytest.mark.parametrize("n", [5, 65])
@pytest.mark.parametrize("norm", [300.0, 1000.0])
def test_expm_matches_scipy_deep_in_squaring(n, norm):
    """s = 6 and s = 8 squarings on random complex matrices."""
    a = _gaussian(n, norm, True, [n, int(norm)])
    assert _relative_error(expm(a), scipy.linalg.expm(a)) < 1e-12


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [1, 2, 5, 65])
def test_expm_of_hermitian_matches_spectral_oracle(n, complex_):
    """Deep in the squaring branch against ``Q exp(w) Q*`` from ``eigh``.

    Hermitian matrices make ``exp`` well conditioned, so the spectral route is
    an accurate second oracle where scipy itself can be 1e-11 off (real 2x2
    and 5x5 matrices with eigenvalues in the hundreds).
    """
    a = _gaussian(n, 1.0, complex_, [n, complex_, 300])
    a = a + a.conj().T
    a *= 300.0 / np.abs(a).sum(axis=0).max()
    w, q = np.linalg.eigh(a)
    assert _relative_error(expm(a), (q * np.exp(w)) @ q.conj().T) < 1e-12


def test_expm_edge_cases():
    assert expm(np.zeros((0, 0))).shape == (0, 0)
    for dtype in (np.float64, np.complex128):
        ident = expm(np.zeros((4, 4), dtype=dtype))
        assert ident.dtype == dtype and np.array_equal(ident, np.eye(4))
    assert expm(np.array([[0, 1], [0, 0]])).dtype == np.float64
    with pytest.raises(cc.ShapeError):
        expm(np.zeros((2, 3)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_expm_non_finite_and_huge_input():
    for bad in (np.inf, -np.inf, np.nan):
        a = np.eye(3, dtype=np.complex128)
        a[1, 2] = bad
        assert not np.isfinite(expm(a)).all()
    # s = 1021 squarings; no OverflowError from forming 2**s or 4**s
    for sign in (1.0, -1.0):
        out = expm(np.full((3, 3), sign * 1e308 / 3))
        assert out.shape == (3, 3) and not np.isfinite(out).all()


@pytest.mark.parametrize("n", [1, 2, 5, 65])
def test_expm_of_complex_input_with_zero_imaginary_part(n):
    """Real arithmetic agrees with the complex path and keeps the dtype.

    The identity at zero and the all-``nan`` result on a ``nan`` entry are
    kept, whether the ``nan`` sits in the real or the imaginary part.
    """
    for k, norm in enumerate(THETA_NORMS + [300.0]):
        a = _gaussian(n, norm, False, [n, 7, k]).astype(np.complex128)
        got = expm(a)
        assert got.dtype == np.complex128 and not got.imag.any()
        assert _relative_error(got, _pade_expm(a)) < 1e-13, norm
    assert np.array_equal(expm(np.zeros((n, n), dtype=np.complex128)), np.eye(n))
    for bad in (np.nan, complex(0.0, np.nan)):
        a = np.eye(n, dtype=np.complex128)
        a[0, 0] = bad
        out = expm(a)
        assert out.dtype == np.complex128 and np.isnan(out).all()


def test_exp_at_zero_is_counit(s3_dual, rng):
    b = s3_dual
    gamma = random_functional(b.algebra, rng)
    lam = cc.convolution_exp(b, gamma, 0.0)
    assert np.array_equal(lam.dual, b.epsilon.dual)
    with pytest.raises(cc.PreconditionError):
        cc.convolution_exp(b, gamma, -0.5)


def test_two_state_flow_closed_form(z2, z2_functions, z2_rate_functional):
    """Mass at the flip element is (1 - exp(-2t))/2; two independent oracles."""
    b = z2_functions
    gamma = z2_rate_functional
    # oracle 2: rate-matrix exponential on measures, built from the table only
    rate = np.zeros((2, 2))
    for g in range(2):
        rate[g, g] -= 1.0
        rate[z2.table[g, 1], g] += 1.0
    for t in (0.0, 0.125, 0.5, 1.0, 3.0):
        lam = cc.convolution_exp(b, gamma, t)
        mass = lam.dual_blocks[1][0, 0].real
        assert abs(mass - (1 - math.exp(-2 * t)) / 2) < 1e-12
        oracle = scipy.linalg.expm(t * rate) @ np.array([1.0, 0.0])
        assert abs(mass - oracle[1]) < 1e-12


def test_exponential_semigroup_law(s3_dual, rng):
    b = s3_dual
    gamma = random_functional(b.algebra, rng) * 0.4
    for s, t in ((0.25, 0.5), (1.0, 1.5), (0.1, 2.0)):
        left = cc.convolve(b, cc.convolution_exp(b, gamma, s), cc.convolution_exp(b, gamma, t))
        right = cc.convolution_exp(b, gamma, s + t)
        assert cc.functional_norm(left - right) < 1e-8


def test_exponential_agrees_with_star_power_series(q8_dual, rng):
    """Independent oracle: truncated convolution power series."""
    b = q8_dual
    gamma = random_functional(b.algebra, rng) * 0.5
    t = 0.8
    norm = cc.functional_norm(gamma)
    term = b.epsilon
    series = b.epsilon
    n = 0
    # tail of sum (t norm)^k / k! past N is below (t norm)^{N+1} e^{t norm} / (N+1)!
    while (t * norm) ** (n + 1) / math.factorial(n + 1) * math.exp(t * norm) > 1e-12:
        n += 1
        term = cc.convolve(b, term, gamma) * (t / n)
        series = series + term
    lam = cc.convolution_exp(b, gamma, t)
    assert cc.functional_norm(lam - series) < 1e-9


def test_difference_quotient_recovers_generator(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    norm = cc.functional_norm(gamma)
    flow = cc.associated_semigroup(b, gamma)
    assert cc.functional_norm(flow.quotient_at(0.0) - gamma) < 1e-12
    for h in (0.5, 0.1, 0.01, 1e-4, 1e-8):
        quotient = flow.quotient_at(h)
        lam = cc.convolution_exp(b, gamma, h)
        # the direct evaluation cancels catastrophically as h -> 0, so the
        # agreement tolerance scales like machine epsilon over h
        direct = (lam - b.epsilon) * (1.0 / h)
        assert cc.functional_norm(quotient - direct) < 1e-12 / h
        # series tail bound for the convergence rate
        assert cc.functional_norm(quotient - gamma) <= h * norm**2 * math.exp(h * norm) + 1e-12


def _augmented_quotient(flow, t):
    """The phi_1 quotient through one exponential of the augmented matrix."""
    dim = len(flow.dual_gamma)
    aug = np.zeros((dim + 1, dim + 1), dtype=np.complex128)
    aug[:dim, :dim] = t * flow.convolution_matrix
    aug[:dim, dim] = flow.dual_gamma
    return expm(aug)[:dim, dim]


def _zn64_flow():
    """Functions on Z_64 with a seeded ``2 (mu - delta_e)``, mu on eight points."""
    rng = np.random.default_rng(SEED)
    b = cc.function_bialgebra(cc.cyclic_group(64))
    dual = np.zeros(64)
    dual[rng.choice(np.arange(1, 64), size=8, replace=False)] = 2.0 * rng.dirichlet(np.ones(8))
    dual[0] = -2.0
    return cc.associated_semigroup(b, cc.Functional(b.algebra, dual))


def test_phi1_series_tail_is_below_unit_roundoff():
    theta, n = _PADE_THETA[3], len(_PHI1_COEFFS)
    assert np.array_equal(_PHI1_COEFFS, [1.0 / math.factorial(k + 1) for k in range(n)])

    def tail(first):
        return sum(theta**k / math.factorial(k + 1) for k in range(first, first + 30))

    # the terms past the last one summed, and not one term fewer, fit below 2**-53
    assert tail(n) < 2.0**-53 <= tail(n - 1)


@pytest.mark.parametrize("case", ["zn:64", "dual:s3"])
def test_small_time_quotients_match_the_augmented_exponential(case, s3_dual, rng):
    """The phi_1 series below ``t |M|_1 = theta_3`` and the augmented
    exponential above it agree with the augmented exponential within a
    relative 1e-14: on the norm-bound grid of ``evolve`` and at the threshold."""
    flow = _zn64_flow() if case == "zn:64" else cc.associated_semigroup(
        s3_dual, random_generating_functional(s3_dual, rng)
    )
    norm = np.abs(flow.convolution_matrix).sum(axis=0).max()
    at = _PADE_THETA[3] / norm
    grid = cli._norm_bound_grid(8.0, cc.functional_norm(flow.gamma), 1e-9)
    times = grid + [at, np.nextafter(at, 0.0), np.nextafter(at, np.inf), 1.01 * at]
    for t in times:
        want = _augmented_quotient(flow, t)
        got = flow.quotient_at(t).dual
        assert np.abs(got - want).sum() <= 1e-14 * np.abs(want).sum(), t
    # both branches ran: the series leaves its Krylov vectors on the flow
    assert "_krylov" in flow.__dict__
    assert sum(t * norm <= _PADE_THETA[3] for t in times) < len(times)
    assert np.array_equal(flow.quotient_at(0.0).dual, flow.dual_gamma)


def test_small_time_quotient_of_a_huge_generator_stays_finite(s3_dual, rng):
    """The Krylov vectors are scaled by a power of two near ``|M|_1``, so a
    generator of norm 1e200 has no power that overflows."""
    gamma = random_generating_functional(s3_dual, rng) * 1e200
    flow = cc.associated_semigroup(s3_dual, gamma)
    t = 1e-210
    quotient = flow.quotient_at(t)
    assert np.isfinite(quotient.dual).all()
    norm = cc.functional_norm(gamma)
    assert cc.functional_norm(quotient - gamma) <= 2.0 * t * norm * norm


def test_continuity_moduli_closed_form(z2_functions, z2_rate_functional):
    times = [0.0, 0.25, 1.0, 2.0]
    moduli = cc.continuity_moduli(z2_functions, z2_rate_functional, times)
    assert moduli[0] == 0.0
    for t, value in zip(times[1:], moduli[1:]):
        assert abs(value - (1 - math.exp(-2 * t))) < 1e-12


def test_continuity_moduli_tail_bound(s3_dual, rng):
    b = s3_dual
    gamma = random_functional(b.algebra, rng)
    norm = cc.functional_norm(gamma)
    times = [2.0**-k for k in range(0, 12)]
    for t, value in zip(times, cc.continuity_moduli(b, gamma, times)):
        assert value <= t * norm * math.exp(t * norm) + 1e-12


# ---------------------------------------------------------------------------
# Generating functionals and the Schoenberg correspondence
# ---------------------------------------------------------------------------


def test_compound_poisson_form_is_valid(s3_dual, rng):
    b = s3_dual
    nu = random_state(b.algebra, rng)
    gamma = 1.7 * (nu - b.epsilon)
    diag = cc.generating_functional(b, gamma)
    assert diag.valid


def test_counit_is_not_a_generator(s3_dual):
    diag = cc.generating_functional(s3_dual, s3_dual.epsilon)
    assert not diag.vanishes_at_unit
    assert not diag.valid


def test_schoenberg_forward(s3_dual, q8_dual, rng):
    for b in (s3_dual, q8_dual):
        for _ in range(10):
            gamma = random_generating_functional(b, rng)
            assert cc.generating_functional(b, gamma).valid
            for t in SCHOENBERG_GRID:
                assert cc.within(cc.state_check(cc.convolution_exp(b, gamma, t)).violation(), 1e-9)


def test_generator_valid_is_within_of_its_violation(s3_dual, q8_dual, rng):
    """``valid`` is ``within(violation, tol)`` and the conjunction of the three
    conditions, on valid, corrupted, non-Hermitian and non-finite generators."""
    for b in (s3_dual, q8_dual):
        gammas = [random_generating_functional(b, rng) for _ in range(5)]
        gammas += [corrupted_generating_functional(b, rng, violation=v) for v in (1e-2, 1e-10)]
        gammas += [b.epsilon, 1j * gammas[0], np.nan * gammas[0], np.inf * gammas[0]]
        for gamma in gammas:
            for tol in (0.0, 1e-9, 1e-1):
                diag = cc.generating_functional(b, gamma, tol)
                assert diag.valid is bool(cc.within(diag.violation, tol))
                conditions = diag.hermitian and diag.vanishes_at_unit
                assert diag.valid is (conditions and diag.conditionally_positive)


def test_flow_methods_are_the_free_functions(s3_dual, rng):
    b = s3_dual
    gamma = random_generating_functional(b, rng)
    flow = cc.associated_semigroup(b, gamma)
    times = [0.0, 1e-3, 0.5, 2.0]
    assert flow.moduli(times) == cc.continuity_moduli(b, gamma, times)
    assert flow.norm_bound(REFINED_GRID) == cc.norm_continuity_bound(b, gamma, REFINED_GRID)


def test_schoenberg_reverse(s3_dual, q8_dual, rng):
    """Broken conditional positivity shows up as a state violation on the grid."""
    for b in (s3_dual, q8_dual):
        for _ in range(10):
            gamma = corrupted_generating_functional(b, rng)
            diag = cc.generating_functional(b, gamma)
            assert diag.hermitian and diag.vanishes_at_unit
            assert not diag.conditionally_positive
            worst = max(
                cc.state_check(cc.convolution_exp(b, gamma, t)).violation()
                for t in SCHOENBERG_GRID
            )
            assert worst > 1e-9


# ---------------------------------------------------------------------------
# Norm-continuity bound on discrete type
# ---------------------------------------------------------------------------

REFINED_GRID = [2.0**-k for k in range(0, 35)]


def test_norm_bound_zero_generator(s3_dual):
    zero = s3_dual.algebra.functional([np.zeros((n, n)) for n in s3_dual.algebra.blocks])
    bound = cc.norm_continuity_bound(s3_dual, zero, [0.5, 1.0, 2.0])
    assert bound.c_hat == 0.0
    assert bound.residual == 0.0


def test_norm_bound_z2_closed_form(z2_functions, z2_rate_functional):
    bound = cc.norm_continuity_bound(z2_functions, z2_rate_functional, REFINED_GRID)
    assert abs(bound.c_hat - 1.0) < 1e-9
    assert cc.functional_norm(z2_rate_functional) == pytest.approx(2.0, abs=1e-12)
    assert bound.residual == cc.functional_norm(z2_rate_functional) - 2.0 * bound.c_hat
    assert cc.within(bound.residual, cc.DEFAULT_TOL)


def test_norm_bound_random_generators(s3_dual, rng):
    for _ in range(20):
        gamma = random_generating_functional(s3_dual, rng, norm=1.0)
        bound = cc.norm_continuity_bound(s3_dual, gamma, REFINED_GRID)
        assert cc.within(bound.residual, cc.DEFAULT_TOL)


@pytest.mark.parametrize("name", ["zn:8", "dual:s3", "dual:q8"])
def test_norm_bound_holds_at_every_norm_and_grid_max(name):
    """The ``evolve`` grid certifies every valid generator from ``1e-8`` to
    ``1e3`` in norm, whether it halves down from 8 or starts below its floor."""
    b = cli._resolve_bialgebra(name)
    rng = np.random.default_rng(SEED)
    for k in range(-8, 4):
        gamma = random_generating_functional(b, rng, norm=10.0**k)
        for t_max in (8.0, 1e-300):
            grid = cli._norm_bound_grid(t_max, cc.functional_norm(gamma), 1e-9)
            bound = cc.norm_continuity_bound(b, gamma, grid)
            assert cc.within(bound.residual, cc.DEFAULT_TOL), (k, t_max, bound)


def test_norm_bound_rejects_invalid(s3_dual):
    with pytest.raises(cc.PreconditionError):
        cc.norm_continuity_bound(s3_dual, s3_dual.epsilon, [1.0])
    zero = s3_dual.algebra.functional([np.zeros((n, n)) for n in s3_dual.algebra.blocks])
    with pytest.raises(cc.PreconditionError):
        cc.norm_continuity_bound(s3_dual, zero, [])
    with pytest.raises(cc.PreconditionError):
        cc.norm_continuity_bound(s3_dual, zero, [0.0, 1.0])
