import json
import math

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.algebra import psd_within

from conftest import (
    SCHOENBERG_GRID,
    function_values,
    left_multiplication_matrix,
    random_state,
    translation_unitary,
)


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
    for t in (0.125, 0.5, 1.0, 4.0):
        values = np.exp(t * psi)
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
        for t in SCHOENBERG_GRID
        if not cc.is_positive_definite(s3, np.exp(t * psi))
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
    assert all(cc.within(r, 1e-9) for _, r in cert.checks())


def test_guichardet_s3_sign(s3):
    psi = (cc.s3_sign() - 1.0).astype(complex)
    cert = cc.guichardet_constant(s3, psi)
    assert abs(cert.constant - 1.0) <= 1e-12
    assert np.abs(cert.shifted_values - cc.s3_sign()).max() < 1e-12
    assert all(cc.within(r, 1e-9) for _, r in cert.checks())


def test_guichardet_zero_function(s3):
    cert = cc.guichardet_constant(s3, np.zeros(6))
    assert cert.constant == 0.0
    assert all(cc.within(r, 1e-9) for _, r in cert.checks())


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


def test_guichardet_preconditions_name_a_nan_value_at_the_identity(s3):
    psi = np.zeros(6)
    psi[s3.identity] = np.nan
    with pytest.raises(cc.PreconditionError, match=r"vanish at the identity \(value \(nan"):
        cc.guichardet_constant(s3, psi)


@pytest.mark.parametrize("length", [3, 7])
@pytest.mark.parametrize(
    "routine",
    [
        cc.is_hermitian_function,
        cc.is_conditionally_positive_definite,
        cc.is_positive_definite,
        cc.guichardet_constant,
        lambda group, values: cc.guichardet_via_gns(group, cc.s3_irreps(), values),
        lambda group, values: cc.functional_from_function(group, cc.s3_irreps(), values),
    ],
    ids=[
        "is_hermitian_function",
        "is_conditionally_positive_definite",
        "is_positive_definite",
        "guichardet_constant",
        "guichardet_via_gns",
        "functional_from_function",
    ],
)
def test_group_function_routines_refuse_a_wrong_length(s3, routine, length):
    """A function with one value too few or too many for S3 is refused by name,
    not by a broadcast or index error."""
    with pytest.raises(cc.PreconditionError, match=rf"expected 6 values, got shape \({length},\)"):
        routine(s3, np.zeros(length))


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
    values = function_values(s3, s3_irreps, omega)
    assert np.abs(values - indicator).max() < 1e-10


def test_correspondence_roundtrips(s3, s3_irreps, rng):
    alg = cc.Algebra(s3_irreps.dims)
    for _ in range(10):
        values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        omega = cc.functional_from_function(s3, s3_irreps, values)
        back = function_values(s3, s3_irreps, omega)
        assert np.abs(back - values).max() < 1e-10
    for _ in range(10):
        omega = random_state(alg, rng)
        values = function_values(s3, s3_irreps, omega)
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
        values = function_values(s3, s3_irreps, omega)
        assert cc.is_positive_definite(s3, values, tol=1e-8)


def test_translation_unitaries(s3, s3_irreps, s3_dual):
    alg = s3_dual.algebra
    assert cc.element_norm(alg, translation_unitary(s3_irreps, 0) - alg.unit()) < 1e-15
    for g in range(6):
        lam_g = translation_unitary(s3_irreps, g)
        for blk in lam_g.blocks:
            assert np.abs(blk @ blk.conj().T - np.eye(blk.shape[0])).max() < 1e-12
        for h in range(6):
            prod = lam_g * translation_unitary(s3_irreps, h)
            target = translation_unitary(s3_irreps, s3.table[g, h])
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
            gamma = b.algebra.functional_from_dual_coords(rate * (weights - point_mass))
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


def test_guichardet_via_gns_gates_positivity_at_the_callers_tolerance(s3, s3_irreps):
    """Both routes accept a function whose kernel certificate holds within ``tol``.

    The compressed functional handed to GNS has a negative eigenvalue of
    order 1e-11, inside the caller's tolerance.
    """
    tol = 1e-9
    odd = cc.s3_sign() < 0
    psi = np.where(np.arange(6) == s3.identity, 0.0, -1.0) + (1 / 3 + 1e-11) * odd
    kernel_route = cc.guichardet_constant(s3, psi, tol)
    assert all(cc.within(r, tol) for _, r in kernel_route.checks())
    gns_route = cc.guichardet_via_gns(s3, s3_irreps, psi, tol)
    assert abs(gns_route.constant - kernel_route.constant) <= tol
    assert gns_route.function_deviation <= tol


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


def _vector_values_per_element(irreps, data):
    """``<eta, pi(lam_g) eta>`` one group element at a time: the representing
    matrix ``to_space @ L @ from_space`` of each translation unitary, with
    ``L`` its left-multiplication matrix from ``Algebra.multiply``, then ``vdot``."""
    alg = cc.Algebra(irreps.dims)
    eta = data.cyclic_vector
    values = []
    for g in range(irreps.matrices[0].shape[0]):
        left = left_multiplication_matrix(alg, translation_unitary(irreps, g))
        rep = data.to_space @ left @ data.from_space
        values.append(complex(np.vdot(eta, rep @ eta)))
    return np.array(values)


def _s3_times_cyclic(n):
    """S3 x Z_n with ``(a, b)`` at index ``a * n + b`` and product irreps ``pi (x) chi``."""
    s3, z = cc.s3_group(), cc.cyclic_group(n)
    table = s3.table[:, None, :, None] * n + z.table[None, :, None, :]
    group = cc.SemigroupTable(table.reshape(6 * n, 6 * n), s3.identity * n + z.identity)
    irreps = cc.IrrepTable(
        tuple(
            (pi[:, None] * chi[None, :]).reshape(6 * n, pi.shape[1], pi.shape[1])
            for pi in cc.s3_irreps().matrices
            for chi in cc.cyclic_irreps(n).matrices
        )
    )
    irreps.validate(group)
    return group, irreps


GNS_GROUPS = {
    "zn:8": lambda: cc.builtin_group("zn:8"),
    "s3": lambda: cc.builtin_group("s3"),
    "d4": lambda: cc.builtin_group("d4"),
    "q8": lambda: cc.builtin_group("q8"),
    "s3xz3": lambda: _s3_times_cyclic(3),
}


@pytest.mark.parametrize("build", GNS_GROUPS.values(), ids=GNS_GROUPS.keys())
def test_gns_vector_state_matches_the_per_element_evaluation(build, rng):
    """One contraction on the basis, then one product with every translation
    unitary, gives the per-element vector state within 1e-12."""
    group, irreps = build()
    for psi in (random_valid_kernel_function(group, rng), np.zeros(group.order)):
        result = cc.guichardet_via_gns(group, irreps, psi, tol=1e-8)
        want = _vector_values_per_element(irreps, result.gns_data)
        assert result.shifted_values.shape == (group.order,)
        assert np.abs(result.shifted_values - want).max() <= 1e-12
        assert result.function_deviation < 1e-9
    assert result.gns_data.dimension == 0  # psi = 0 leaves an empty representation


# ---------------------------------------------------------------------------
# Each route decides each hypothesis once
# ---------------------------------------------------------------------------


def _projected_kernel(group, values):
    """The compressed kernel ``P K P`` with the projection ``P = I - J/|G|`` formed."""
    m = group.order
    proj = np.eye(m) - np.ones((m, m)) / m
    return proj @ cc.kernel_matrix(group, values) @ proj


def _projected_verdict(group, values, tol=1e-9):
    return bool(psd_within(*cc.hermitian_spectrum(_projected_kernel(group, values)), tol))


ROUTE_GROUPS = ("zn:5", "s3", "d4", "q8")


def _battery(group, rng):
    """Functions on either side of conditional positive-definiteness, away from its margin."""
    m, e = group.order, group.identity
    valid = random_valid_kernel_function(group, rng)
    spike = np.zeros(m, dtype=complex)
    spike[[1, group.inverses[1]]] = 5.0
    skew = valid.copy()
    skew[1] += 1j
    return [valid, 3.0 * valid + 2.0, -valid, spike, skew, valid + 1e-3j, np.zeros(m)]


@pytest.mark.parametrize("name", ROUTE_GROUPS)
def test_compressed_kernel_is_the_mean_shifted_kernel(name, rng):
    """``P K P = K - mean(f) J``: rows and columns of a translation kernel
    all sum to ``sum(f)``."""
    group, _ = cc.builtin_group(name)
    for _ in range(10):
        values = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        values *= 10.0 ** rng.integers(-3, 4)
        oracle = _projected_kernel(group, values)
        shifted = cc.kernel_matrix(group, values - values.mean())
        assert np.abs(shifted - oracle).max() <= 1e-12 * max(1.0, np.abs(values).max())


@pytest.mark.parametrize("name", ROUTE_GROUPS)
def test_conditional_positivity_agrees_with_the_projected_kernel(name, rng):
    group, _ = cc.builtin_group(name)
    verdicts = []
    for values in _battery(group, rng):
        verdict = cc.is_conditionally_positive_definite(group, values)
        assert verdict == _projected_verdict(group, values)
        verdicts.append(verdict)
    assert verdicts == [True, True, False, False, False, True, True]


def _counting(monkeypatch, module, name, record):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        record.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_one_guichardet_run_forms_one_kernel_spectrum(tmp_path, monkeypatch, capsys):
    """The CLI runs both routes; only the kernel route's certificate takes the
    spectrum of |G| x |G| matrices, the irreps are validated once and the GNS
    route transforms the function once."""
    from cstarconv import algebra, cli, groupfun

    psi = tmp_path / "psi.json"
    values = cc.s3_sign() - 1.0
    psi.write_text(json.dumps({"group": "s3", "values": [[v, 0.0] for v in values]}))
    spectra, validations, transforms = [], [], []
    for module in (algebra, groupfun):
        _counting(monkeypatch, module, "hermitian_spectrum", spectra)
    _counting(monkeypatch, cc.IrrepTable, "validate", validations)
    _counting(monkeypatch, groupfun, "fourier_matrices", transforms)
    assert cli.main(["guichardet", "s3", str(psi)]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    kernel_spectra = [a for (a,) in spectra if np.shape(a)[-2:] == (6, 6)]
    assert len(kernel_spectra) == 1 and np.shape(kernel_spectra[0]) == (2, 6, 6)
    assert len(validations) == 1
    assert len(transforms) == 1


@pytest.mark.parametrize("name", ROUTE_GROUPS)
def test_gns_route_forms_no_translation_kernel(name, rng, monkeypatch):
    from cstarconv import groupfun

    group, irreps = cc.builtin_group(name)
    kernels = []
    _counting(monkeypatch, groupfun, "kernel_matrix", kernels)
    for values in _battery(group, rng):
        try:
            cc.guichardet_via_gns(group, irreps, values, tol=1e-8)
        except cc.PreconditionError:
            pass
    assert kernels == []


def _refusal(route, *args):
    with pytest.raises(cc.PreconditionError) as info:
        route(*args)
    return str(info.value)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", ["s3", "q8", "zn:8"])
def test_both_routes_list_the_same_violated_hypotheses(name, rng):
    group, irreps = cc.builtin_group(name)
    m, e = group.order, group.identity
    valid = random_valid_kernel_function(group, rng)
    spike = np.zeros(m, dtype=complex)
    spike[[1, group.inverses[1]]] = 5.0
    skew = valid.copy()
    skew[2] += 1j
    lifted = valid.copy()
    lifted[e] += 0.1
    undefined = valid.copy()
    undefined[e] = np.nan
    cases = {
        "spike": (spike, ["function is not conditionally positive-definite"]),
        "skew": (
            skew,
            ["function is not Hermitian", "function is not conditionally positive-definite"],
        ),
        "lifted": (lifted, ["function does not vanish at the identity"]),
        "undefined": (
            undefined,
            [
                "function is not Hermitian",
                "function is not conditionally positive-definite",
                "function does not vanish at the identity",
            ],
        ),
    }
    for label, (values, expected) in cases.items():
        kernel_route = _refusal(cc.guichardet_constant, group, values)
        gns_route = _refusal(cc.guichardet_via_gns, group, irreps, values)
        assert kernel_route == gns_route, label
        assert [p.split(" (value")[0] for p in kernel_route.split("; ")] == expected, label
