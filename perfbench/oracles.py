"""Correctness gates for CLI invocations and the oracles behind them.

An invocation fails if any of these holds: the exit code is unexpected,
stderr contains ``Traceback``, stdout does not parse as JSON, the report says
``"pass": false``, the report names other inputs than the benchmark wrote,
or the result falls outside ``tol`` of an oracle.  The oracles use numpy
only and share no code path with the library:

* every command: each reported check meets its own tolerance;
* ``evolve`` on ``Z_n``: states equal ``ifft(exp(t fft(gamma)))``, because
  convolution on ``Z_n`` is circulant;
* ``evolve`` on a group C*-algebra: the state on ``lam_g`` equals
  ``exp(t gamma(lam_g))``, because the coproduct is cocommutative;
* ``guichardet``: the constant equals ``-mean(psi)``.

:func:`self_test` shows on real outputs that each gate rejects a perturbed
report and a nonzero exit.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, replace

import numpy as np

TRACEBACK = "Traceback (most recent call last):"


@dataclass(frozen=True)
class Invocation:
    """What one CLI run left behind."""

    exit_code: int
    stdout: str
    stderr: str


def evaluate_on_translations(blocks, irreps) -> np.ndarray:
    """``mu(lam_g) = sum_pi trace(rho_pi pi(g))`` for every group element g."""
    return sum(np.einsum("ij,gji->g", rho, mats) for rho, mats in zip(blocks, irreps))


def _is_number(x) -> bool:
    # the CLI prints 0.0 as 0, so an integer is a valid float here
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _time_entries(report: dict, times) -> tuple[list, list[str]]:
    entries = report.get("times")
    if not isinstance(entries, list) or len(entries) != len(times):
        return [], [f"expected {len(times)} time entries"]
    return entries, [f"unexpected time {e.get('t')!r}" for e, t in zip(entries, times) if e.get("t") != t]


def circulant_oracle(gamma: np.ndarray, times, tol: float):
    """Convolution on Z_n is circulant: states equal ``ifft(exp(t fft(gamma)))``."""
    spectrum = np.fft.fft(gamma)
    expected = [np.fft.ifft(np.exp(t * spectrum)) for t in times]

    def check(report: dict) -> list[str]:
        entries, problems = _time_entries(report, times)
        for entry, want in zip(entries, expected):
            got = np.array([_complex(blk[0][0]) for blk in entry["dual_blocks"]])
            err = float(np.max(np.abs(got - want))) if got.shape == want.shape else np.inf
            if not err <= tol:
                problems.append(f"state at t={entry['t']} off the circulant oracle by {err:.3g}")
        return problems

    return check


def cocommutative_oracle(gamma_blocks, irreps, times, tol: float):
    """On a cocommutative coproduct, ``exp(t gamma)(lam_g) = exp(t gamma(lam_g))``."""
    psi = evaluate_on_translations(gamma_blocks, irreps)
    expected = [np.exp(t * psi) for t in times]

    def check(report: dict) -> list[str]:
        entries, problems = _time_entries(report, times)
        for entry, want in zip(entries, expected):
            try:
                blocks = [
                    np.array([[_complex(v) for v in row] for row in blk])
                    for blk in entry["dual_blocks"]
                ]
                err = float(np.max(np.abs(evaluate_on_translations(blocks, irreps) - want)))
            except (ValueError, TypeError, IndexError):
                err = np.inf
            if not err <= tol:
                problems.append(f"state at t={entry['t']} off exp(t psi) by {err:.3g}")
        return problems

    return check


def guichardet_oracle(psi: np.ndarray, tol: float):
    """The Guichardet constant is ``-mean(psi)``; shifted values are ``psi + constant``."""
    constant = float(-np.mean(psi).real)

    def check(report: dict) -> list[str]:
        problems = []
        got = report.get("constant")
        if not _is_number(got) or not abs(got - constant) <= tol:
            problems.append(f"constant {got!r} differs from -mean(psi) = {constant!r}")
        shifted = np.array([_complex(v) for v in report.get("shifted_values", [])])
        if shifted.shape != psi.shape or not np.max(np.abs(shifted - psi - constant)) <= tol:
            problems.append("shifted values differ from psi + constant")
        return problems

    return check


def checks_meet_tolerance(report: dict) -> list[str]:
    """Every reported check passes, re-derived from its residual and tolerance."""
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        return ["report lists no checks"]
    problems = []
    for c in checks:
        residual, tol = c.get("residual"), c.get("tolerance")
        lower = "min_eig" in c.get("name", "") or c.get("name") == "kernel_psd_after_shift"
        ok = (
            c.get("pass") is True
            and _is_number(residual)
            and (residual >= -tol if lower else residual <= tol)
        )
        if not ok:
            problems.append(f"check {c.get('name')!r} fails (residual {residual!r})")
    return problems


def gate(inv: Invocation, command) -> list[str]:
    """All reasons why ``inv`` does not count as a correct run of ``command``."""
    problems = []
    if inv.exit_code != 0:
        problems.append(f"exit code {inv.exit_code}")
    if "Traceback" in inv.stderr:
        problems.append("traceback on stderr")
    try:
        report = json.loads(inv.stdout)
    except ValueError:
        return problems + ["stdout does not parse as JSON"]
    if not isinstance(report, dict):
        return problems + ["stdout is not a JSON object"]
    if report.get("pass") is not True:
        problems.append('report says "pass": false')
    if report.get("inputs") != command.inputs:
        problems.append("report names other inputs than the benchmark wrote")
    problems += checks_meet_tolerance(report)
    if command.oracle is not None:
        problems += command.oracle(report)
    return problems


def _perturb_result(report: dict, kind: str) -> dict:
    out = copy.deepcopy(report)
    if kind == "evolve":
        out["times"][-1]["dual_blocks"][0][0][0][0] += 1e-6
    elif kind == "guichardet":
        out["constant"] += 1e-6
    else:
        check = out["checks"][0]
        check["residual"] = 10.0 * check["tolerance"]
    return out


def self_test(inv: Invocation, command) -> int:
    """Show that each gate rejects a perturbed copy of a correct invocation.

    Returns the number of perturbations rejected; raises if the correct
    invocation is refused or a perturbation is accepted.
    """
    if gate(inv, command):
        raise RuntimeError(f"gate refuses a correct run: {gate(inv, command)}")
    report = json.loads(inv.stdout)
    failed_report = dict(report, **{"pass": False})
    perturbed = {
        "nonzero exit": replace(inv, exit_code=1),
        "traceback": replace(inv, stderr=inv.stderr + TRACEBACK + "\n"),
        "unparseable stdout": replace(inv, stdout=inv.stdout[: len(inv.stdout) // 2]),
        'report "pass": false': replace(inv, stdout=json.dumps(failed_report)),
        "result off the oracle": replace(
            inv, stdout=json.dumps(_perturb_result(report, command.kind))
        ),
    }
    for what, bad in perturbed.items():
        if not gate(bad, command):
            raise RuntimeError(f"{command.kind} gate accepts a run with {what}")
    return len(perturbed)
