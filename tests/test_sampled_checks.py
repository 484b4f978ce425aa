"""The batched sampled convolution checks of ``validate`` against per-sample loops.

``cli._smoke_checks`` draws all its functionals at once, convolves them as
stacks and takes their norms as stacks.  Each layer is compared here with
the one-at-a-time computation it replaces: the draws bit for bit, the
stacked convolutions and norms with per-vector references, and the three
residuals with the per-sample loop in ``conftest.smoke_residuals_reference``.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import cstarconv as cc
from cstarconv import cli
from cstarconv.sampling import random_duals, random_functional

from conftest import SEED, on_table_kernel, smoke_residuals_reference

FIXTURES = ["zn:24", "s3", "q8"]


# the bialgebras ``validate`` builds for these names, under its labels
BIALGEBRAS = dict(cli._resolve_validate_targets(FIXTURES))


@pytest.mark.parametrize("blocks", [(1,) * 24, (1, 1, 2), (3, 1, 2, 2, 1), (2, 2, 2, 1, 1)])
def test_one_draw_reproduces_repeated_random_functional_draws(blocks):
    alg = cc.Algebra(blocks)
    one_at_a_time = np.random.default_rng(SEED)
    stacked = np.random.default_rng(SEED)
    reference = np.array([random_functional(alg, one_at_a_time).dual for _ in range(60)])
    duals = random_duals(alg, stacked, 60)
    assert duals.shape == (60, alg.dim)
    assert np.array_equal(duals.view(np.uint8), reference.view(np.uint8))
    # the stream continues identically
    next_draw = random_functional(alg, stacked).dual
    assert np.array_equal(next_draw, random_functional(alg, one_at_a_time).dual)
    assert stacked.standard_normal() == one_at_a_time.standard_normal()


@pytest.mark.parametrize("label", BIALGEBRAS)
def test_stacked_convolve_matches_structure_tensor_contraction(label, rng):
    b = BIALGEBRAS[label]
    dim = b.algebra.dim
    x, y = random_duals(b.algebra, rng, 7), random_duals(b.algebra, rng, 7)
    reference = np.array(
        [np.einsum("k,j,kjl->l", xs, ys, b.structure_tensor) for xs, ys in zip(x, y)]
    )
    assert np.abs(b.convolve(x, y) - reference).max() <= 1e-12
    assert np.abs(b.convolve(x[2], y[2]) - reference[2]).max() <= 1e-12
    assert b.convolve(x[2], y[2]).shape == (dim,)
    # leading axes broadcast: the counit against a stack is its unit law
    assert np.abs(b.convolve(b.counit_coords, y) - y).max() <= 1e-12
    assert np.abs(b.convolve(y, b.counit_coords) - y).max() <= 1e-12
    assert b.convolve(x.reshape(7, 1, dim), y).shape == (7, 7, dim)


def test_both_kernels_are_exercised():
    kernels = {label: on_table_kernel(b) for label, b in BIALGEBRAS.items()}
    assert kernels["functions[zn:24]"] and kernels["group_cstar[zn:24]"]
    assert not kernels["group_cstar[s3]"] and not kernels["group_cstar[q8]"]


def test_functional_norms_of_a_stack_equal_per_functional_norms(rng):
    alg = cc.Algebra((1, 2, 1, 3, 2))
    duals = random_duals(alg, rng, 12) * 10.0 ** rng.integers(-3, 4, size=(12, 1))
    duals[4, 0] = np.nan
    duals[9, 5] = np.inf
    norms = cc.functional_norms(alg, duals.reshape(3, 4, alg.dim))
    assert norms.shape == (3, 4)
    for dual, norm in zip(duals, norms.ravel()):
        one = cc.functional_norm(cc.Functional(alg, dual))
        assert np.array_equal(norm, one, equal_nan=True)
    assert np.isnan(norms.ravel()[[4, 9]]).all() and np.isfinite(np.delete(norms, [4, 9])).all()


@pytest.mark.parametrize("label", BIALGEBRAS)
def test_batched_smoke_checks_match_the_per_sample_loop(label):
    b = BIALGEBRAS[label]
    batched_rng, loop_rng = np.random.default_rng(SEED), np.random.default_rng(SEED)
    checks = cli._smoke_checks(label, b, batched_rng, 1e-9)
    reference = smoke_residuals_reference(b, loop_rng, cli.SMOKE_SAMPLES)
    names = ["associativity", "unit", "submultiplicative"]
    assert [c["name"] for c in checks] == [
        f"{label}:convolution_{name}[sample]" for name in names
    ]
    for check, want in zip(checks, reference):
        assert abs(check["residual"] - want) <= 1e-12
        assert check["pass"] is (want <= 1e-9)
    # both consumed the same draws
    assert batched_rng.standard_normal() == loop_rng.standard_normal()


def test_validate_overflowing_coproduct_fails_with_null_sampled_residuals(tmp_path):
    """C*(S3) with one coproduct entry, in the 2x2 block, set to 1e300.

    The sampled triple products overflow, so the associativity check fails
    with a null residual, through the batched SVD of the 2x2 blocks, never a
    LinAlgError or a traceback.  One 1e300 entry cannot overflow a single
    convolution, so submultiplicativity fails with a finite residual.
    """
    b = BIALGEBRAS["group_cstar[s3]"]
    delta = np.array(b.delta.matrix)
    delta[-1, -1] = 1e300
    doc = {
        "blocks": list(b.algebra.blocks),
        "mode": "hom",
        "delta": [[[z.real, z.imag] for z in row] for row in delta],
        "epsilon": [
            [[[z.real, z.imag] for z in row] for row in blk] for blk in b.epsilon.dual_blocks
        ],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "cstarconv", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "LinAlgError" not in result.stderr
    report = json.loads(result.stdout)
    assert report["pass"] is False
    sampled = {
        c["name"].split(":convolution_")[1]: c
        for c in report["checks"]
        if c["name"].endswith("[sample]")
    }
    assoc = sampled["associativity[sample]"]
    assert assoc["residual"] is None and assoc["pass"] is False
    submult = sampled["submultiplicative[sample]"]
    assert submult["pass"] is False and submult["residual"] > 1e299
    assert all(c["pass"] is False for c in sampled.values() if c["residual"] is None)


@pytest.fixture(scope="module")
def z64_dual():
    return cc.group_cstar_bialgebra(*cc.builtin_group("zn:64"))


@pytest.mark.parametrize("seed", range(6))
def test_sampled_checks_pass_on_the_group_cstar_algebra_of_z64(z64_dual, seed):
    """Relative residuals: the absolute associativity residual on C*(Z_64) reads
    about 1e-9 at seeds 1-5, a relative error of about 1e-15."""
    checks = cli._smoke_checks("group_cstar[zn:64]", z64_dual, np.random.default_rng(seed), 1e-9)
    assert all(c["pass"] for c in checks)
    assert max(c["residual"] for c in checks) <= 1e-12


def test_validate_z64_at_seed_1_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "cstarconv", "--seed", "1", "validate", "zn:64"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout
    assert json.loads(result.stdout)["pass"] is True


def test_relative_associativity_check_still_sees_a_relative_1e_6_perturbation():
    """C*(S3) with its largest coproduct entry scaled by 1 + 1e-6: the relative
    associativity residual is about 1e-7, far above the tolerance."""
    b = BIALGEBRAS["group_cstar[s3]"]
    delta = np.array(b.delta.matrix)
    delta[np.unravel_index(np.argmax(np.abs(delta)), delta.shape)] *= 1 + 1e-6
    perturbed = cc.Bialgebra(b.algebra, cc.LinearMap(b.algebra, b.tensor_square, delta), b.epsilon)
    checks = cli._smoke_checks("s3", perturbed, np.random.default_rng(SEED), 1e-9)
    assoc = checks[0]
    assert assoc["name"] == "s3:convolution_associativity[sample]"
    assert assoc["residual"] > 1e-8 and assoc["pass"] is False
