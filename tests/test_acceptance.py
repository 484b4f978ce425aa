"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Every random battery is seeded; all expected values are
either closed forms or computed by an independent oracle inside the test.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

import cstarconv as cc
from cstarconv.sampling import random_functional, random_generating_functional

from conftest import SCHOENBERG_GRID, axiom_residuals, corrupted_generating_functional

SEED = 746143
GRID = SCHOENBERG_GRID
REFINED_GRID = tuple(2.0**-k for k in range(0, 35))


def _report(number, name, detail):
    print(f"[acceptance] criterion {number} ({name}): PASS ({detail})")


@pytest.fixture(scope="module")
def fixtures():
    """Named bialgebra battery reused across criteria."""
    out = {}
    for n in (2, 6):
        out[f"functions[Z{n}]"] = cc.function_bialgebra(cc.cyclic_group(n))
    out["functions[S3]"] = cc.function_bialgebra(cc.s3_group())
    for name in ("zn:4", "s3", "q8"):
        table, irreps = cc.builtin_group(name)
        out[f"group_cstar[{name}]"] = cc.group_cstar_bialgebra(table, irreps)
    return out


def test_criterion_01_bialgebra_axioms():
    start = time.perf_counter()
    worst = 0.0
    targets = [f"zn:{n}" for n in range(1, 9)] + ["s3", "d4", "q8"]
    for name in targets:
        table, irreps = cc.builtin_group(name)
        worst = max(
            worst,
            axiom_residuals(cc.validate_bialgebra(cc.function_bialgebra(table))).max(),
            axiom_residuals(cc.validate_bialgebra(cc.group_cstar_bialgebra(table, irreps))).max(),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 2.0
    _report(1, "bialgebra axioms", f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_convolution_banach_algebra(fixtures):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for b in fixtures.values():
        eps = b.epsilon
        for _ in range(200):
            lam = random_functional(b.algebra, rng)
            mu = random_functional(b.algebra, rng)
            nu = random_functional(b.algebra, rng)
            assoc = cc.functional_norm(
                cc.convolve(b, cc.convolve(b, lam, mu), nu)
                - cc.convolve(b, lam, cc.convolve(b, mu, nu))
            )
            unit = max(
                cc.functional_norm(cc.convolve(b, eps, mu) - mu),
                cc.functional_norm(cc.convolve(b, mu, eps) - mu),
            )
            submult = max(
                0.0,
                cc.functional_norm(cc.convolve(b, lam, mu))
                - cc.functional_norm(lam) * cc.functional_norm(mu),
            )
            worst = max(worst, assoc, unit, submult)
    assert worst <= 1e-9
    _report(2, "convolution Banach algebra", f"max residual {worst:.2e} over 200 triples x {len(fixtures)} fixtures")


def test_criterion_03_schoenberg_correspondence(fixtures):
    rng = np.random.default_rng(SEED)
    heavy = ["functions[Z6]", "group_cstar[s3]", "group_cstar[q8]"]
    worst_violation = 0.0
    detected = 0
    total_invalid = 0
    for name in heavy:
        b = fixtures[name]
        for _ in range(100):
            gamma = random_generating_functional(b, rng)
            assert cc.generating_functional(b, gamma).valid
            for t in GRID:
                check = cc.state_check(cc.convolution_exp(b, gamma, t))
                assert check.min_eigenvalue >= -1e-9
                assert abs(check.unit_value - 1.0) <= 1e-9
                worst_violation = max(worst_violation, check.violation())
        for _ in range(100):
            bad = corrupted_generating_functional(b, rng, violation=1e-2)
            assert not cc.generating_functional(b, bad).conditionally_positive
            total_invalid += 1
            if any(
                cc.state_check(cc.convolution_exp(b, bad, t)).violation() > 1e-9
                for t in GRID
            ):
                detected += 1
    assert detected == total_invalid
    _report(
        3,
        "Schoenberg correspondence",
        f"100 valid gammas per fixture within {worst_violation:.2e}; "
        f"{detected}/{total_invalid} corrupted gammas detected",
    )


def test_criterion_04_associated_semigroup_characterisations(fixtures):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for b in fixtures.values():
        gamma = random_generating_functional(b, rng)
        sg = cc.associated_semigroup(b, gamma)
        for t in (0.0, 0.25, 1.0, 4.0):
            p_t = sg.operator_at(t)
            lam_t = sg.functional_at(t)
            worst = max(
                worst,
                cc.commutation_residual(b, p_t),
                cc.strong_invariance_residual(b, p_t),
                cc.weak_invariance_residual(b, p_t),
                cc.functional_norm(cc.recover_functional(b, p_t) - lam_t),
            )
    assert worst <= 1e-9
    failures = 0
    for b in (fixtures["functions[S3]"], fixtures["group_cstar[s3]"]):
        dim = b.algebra.dim
        for _ in range(25):
            mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            t_map = cc.LinearMap(b.algebra, b.algebra, mat)
            if cc.weak_invariance_residual(b, t_map) > 1e-3:
                failures += 1
    assert failures == 50
    _report(
        4,
        "associated semigroup characterisations",
        f"residuals <= {worst:.2e}; 50/50 non-associated maps fail weak invariance",
    )


def test_criterion_05_exponential_consistency(fixtures):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for b in fixtures.values():
        gamma = random_generating_functional(b, rng)
        generator = cc.right_convolution_operator(b, gamma).matrix
        for t in GRID:
            translation = cc.right_convolution_operator(
                b, cc.convolution_exp(b, gamma, t)
            ).matrix
            exponential = scipy.linalg.expm(t * generator)
            worst = max(worst, float(np.abs(translation - exponential).max()))
    assert worst <= 1e-8
    _report(5, "translation/exponential consistency", f"max deviation {worst:.2e}")


def test_criterion_06_cp_unitality_equivalence(fixtures):
    rng = np.random.default_rng(SEED)
    heavy = ["functions[Z6]", "group_cstar[s3]", "group_cstar[q8]"]
    checked = 0
    reported_eigs = []
    for name in heavy:
        b = fixtures[name]
        generators = [random_generating_functional(b, rng) for _ in range(10)]
        generators += [corrupted_generating_functional(b, rng) for _ in range(10)]
        for gamma in generators:
            sg = cc.associated_semigroup(b, gamma)
            for t in (2.0**-6, 0.25, 1.0, 4.0):
                p_t = sg.operator_at(t)
                cp_report = cc.is_completely_positive(p_t, tol=1e-9)
                unital = cc.unitality_residual(p_t) <= 1e-9
                markov = cp_report.cp and unital
                state = cc.within(cc.state_check(sg.functional_at(t)).violation(), 1e-9)
                assert markov == state, (
                    f"{name}: CP/unitality and state predicate disagree at t={t}"
                )
                checked += 1
                reported_eigs.append(min(cp_report.min_choi_eigenvalues))
    assert min(reported_eigs) < -1e-6  # corrupted flows genuinely fail CP
    _report(
        6,
        "CP/unitality equivalence",
        f"{checked} (gamma, t) pairs agree; Choi eigenvalues down to {min(reported_eigs):.2e}",
    )


def test_criterion_07_generator_pairing(fixtures):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for b in fixtures.values():
        for _ in range(10):
            gamma = random_generating_functional(b, rng)
            worst = max(worst, cc.generator_pairing_residual(b, gamma))
    assert worst <= 1e-10
    _report(7, "generator pairing", f"max residual {worst:.2e}")


def test_criterion_08_quantitative_norm_bound(fixtures):
    rng = np.random.default_rng(SEED)
    for name in ("functions[Z6]", "group_cstar[s3]"):
        b = fixtures[name]
        for _ in range(100):
            gamma = random_generating_functional(b, rng, norm=1.0)
            bound = cc.norm_continuity_bound(b, gamma, REFINED_GRID, tol=1e-9)
            assert cc.within(bound.residual, 1e-9)
    z2 = cc.function_bialgebra(cc.cyclic_group(2))
    gamma = z2.algebra.functional([[[-1.0]], [[1.0]]])
    bound = cc.norm_continuity_bound(z2, gamma, REFINED_GRID)
    gamma_norm = cc.functional_norm(gamma)
    assert abs(bound.c_hat - 1.0) <= 1e-9
    assert abs(gamma_norm - 2.0) <= 1e-9
    assert cc.within(bound.residual, cc.DEFAULT_TOL)
    _report(
        8,
        "quantitative norm bound",
        f"100 generators per fixture satisfy |gamma| <= 2*C;"
        f" Z2 closed form C={bound.c_hat:.12g}, |gamma|={gamma_norm:.12g}",
    )


def test_criterion_09_guichardet():
    rng = np.random.default_rng(SEED)
    agreements = []
    for name in ("zn:4", "s3", "q8"):
        table, irreps = cc.builtin_group(name)
        m = table.order
        for _ in range(100):
            vectors = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
            phi = np.array(
                [np.sum(vectors.conj() * vectors[table.table[g]]) for g in range(m)]
            )
            psi = phi - phi[table.identity]
            cert = cc.guichardet_constant(table, psi, tol=1e-8)
            assert cert.constant == pytest.approx(-float(np.mean(psi).real), abs=1e-12)
            assert cert.min_eigenvalue >= -1e-8
            assert cert.ones_residual <= 1e-8
            assert cert.minimality_min_eigenvalue <= -1e-3 * m + 1e-8
            via_gns = cc.guichardet_via_gns(table, irreps, psi, tol=1e-8)
            agreements.append(abs(via_gns.constant - cert.constant))
            assert agreements[-1] <= 1e-9
            assert via_gns.function_deviation <= 1e-8
    s3 = cc.s3_group()
    hand = cc.guichardet_constant(s3, (cc.s3_sign() - 1.0).astype(complex))
    assert abs(hand.constant - 1.0) <= 1e-12
    _report(
        9,
        "Guichardet decomposition",
        f"300 certificates pass; route agreement <= {max(agreements):.2e}; "
        f"S3 hand example c = {hand.constant}",
    )


def test_criterion_10_commutative_oracle():
    rng = np.random.default_rng(SEED)
    monoids = {
        "Z2": cc.cyclic_group(2),
        "Z6": cc.cyclic_group(6),
        "S3": cc.s3_group(),
    }
    worst = 0.0
    for name, monoid in monoids.items():
        b = cc.function_bialgebra(monoid)
        m = monoid.order
        point_mass = np.zeros(m)
        point_mass[monoid.identity] = 1.0
        for rate in (0.0, 0.5, 2.0):
            weights = rng.random(m)
            weights /= weights.sum()
            gamma = cc.Functional(b.algebra, rate * (weights - point_mass))
            for t in GRID:
                series = cc.compound_poisson(monoid, weights, rate, t)
                dual = np.array(
                    [blk[0, 0].real for blk in cc.convolution_exp(b, gamma, t).dual_blocks]
                )
                worst = max(worst, float(np.abs(series - dual).max()))
    assert worst <= 1e-9
    _report(10, "compound Poisson vs dual exponential", f"max pointwise gap {worst:.2e}")


def test_criterion_11_cli_determinism(tmp_path):
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(json.dumps({"dual_blocks": [[[[-1.0, 0.0]]], [[[1.0, 0.0]]]]}))
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(
        json.dumps({"group": "s3", "values": [[0.0, 0.0]] * 3 + [[-2.0, 0.0]] * 3})
    )
    commands = [
        ("--seed", "3", "validate", "zn:4", "q8"),
        ("--seed", "3", "evolve", "zn:2", str(gamma_path), "--times", "0,0.5,1"),
        ("--seed", "3", "guichardet", "s3", str(psi_path)),
    ]
    for command in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "cstarconv", *command],
                capture_output=True,
                text=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
        assert runs[0].returncode == runs[1].returncode == 0
    # spot-check a reported value against the closed form
    evolve_out = subprocess.run(
        [sys.executable, "-m", "cstarconv", "evolve", "zn:2", str(gamma_path), "--times", "1"],
        capture_output=True,
        text=True,
    )
    mass = json.loads(evolve_out.stdout)["times"][0]["dual_blocks"][1][0][0][0]
    assert abs(mass - (1 - math.exp(-2)) / 2) <= 1e-9
    _report(11, "CLI determinism", "byte-identical reports for all three commands")
