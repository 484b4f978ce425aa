"""Seeded inputs and command lists for the three benchmark workloads.

Inputs depend only on the seed and on this file: they are built with numpy
here, not with the library under test, so a change to the library cannot
change them.  The library is used afterwards to validate every input
(irrep tables, generating functionals, conditional positive-definiteness),
and the group C*-coproduct written for ``nonabelian-mix`` is compared with
the library's own construction.  Each file's sha256 is recorded so that two
runs can be shown to have used the same inputs.

Workloads (why each one exists):

* ``zn-validate``: ``validate zn:24``.  Commutative and abelian group
  C*-bialgebras, 24 blocks of size 1x1, permutation-sparse coproducts.
  Time goes to axiom validation and the group C*-build; semigroup and
  groupfun stay idle.  It is the control for evolve-side work.  ``Z_24``
  (about 3 s a process) rather than ``Z_32`` (about 10 s) so that a run
  holds enough passes for a steady median.
* ``zn-evolve``: ``evolve zn:64 gamma.json --times ...`` with a seeded
  generator ``rate * (jump - delta_e)``.  Time goes to the semigroup checks
  and about 60 matrix exponentials; no axiom validation.  It is the control
  for validate-side work.
* ``nonabelian-mix``: G = S3 x Z6 (order 36; twelve 1x1 and six 2x2 blocks)
  from generated JSON files, running ``validate``, ``evolve`` and
  ``guichardet``.  Matrix blocks and several non-unit coproduct entries per
  column guard against optimisations that only hold for 1x1 blocks or 0/1
  coproducts; it is the only workload that runs ``gns``/``groupfun`` and
  parses large JSON.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import (
    circulant_oracle,
    cocommutative_oracle,
    evaluate_on_translations,
    guichardet_oracle,
)

TIMES = (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
TIMES_ARG = ",".join(format(t, "g") for t in TIMES)
ZN_VALIDATE_ORDER = 24
ZN_EVOLVE_ORDER = 64
MIX_CYCLIC_ORDER = 6
NNZ_TOL = 1e-12

WHY = {
    "zn-validate": "validate zn:24: abelian 1x1 blocks, time in axiom validation "
    "and the group C*-build",
    "zn-evolve": "evolve zn:64 on a seeded generator: time in semigroup checks and "
    "matrix exponentials, no validation",
    "nonabelian-mix": "S3 x Z6 from JSON files: 2x2 blocks, dense coproduct columns, "
    "gns/groupfun and large JSON parsing",
}
NAMES = tuple(WHY)


@dataclass
class Command:
    """One CLI invocation and what its report must contain."""

    kind: str
    argv: list[str]
    inputs: list[dict]
    oracle: Callable[[dict], list[str]] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    workdir: Path
    commands: list[Command]
    sizes: dict
    digests: dict = field(default_factory=dict)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _pairs(matrix) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def _write(workdir: Path, name: str, doc: dict, digests: dict) -> dict:
    data = json.dumps(doc).encode()
    (workdir / name).write_bytes(data)
    digests[name] = _sha256(data)
    return {"source": name, "sha256": digests[name]}


def _builtin(name: str) -> dict:
    return {"source": name, "sha256": _sha256(f"builtin:{name}".encode())}


# ---------------------------------------------------------------------------
# Group data built with numpy only
# ---------------------------------------------------------------------------


def cyclic(n: int):
    """Cayley table and 1x1 irreps of Z_n, identity 0."""
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    omega = np.exp(2j * np.pi / n)
    irreps = [(omega ** (j * idx)).reshape(n, 1, 1) for j in range(n)]
    return table, irreps


def s3():
    """Cayley table and irreps (trivial, sign, standard) of S3, identity 0."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = np.array(
        [[index[tuple(s[t[x]] for x in range(3))] for t in perms] for s in perms]
    )
    mats = np.zeros((6, 3, 3))
    for i, s in enumerate(perms):
        mats[i, list(s), [0, 1, 2]] = 1.0
    plane = np.array([[1, 1], [-1, 1], [0, -2]]) / np.array([np.sqrt(2), np.sqrt(6)])
    std = np.einsum("ai,gab,bj->gij", plane, mats, plane).astype(np.complex128)
    sign = np.array([1, 1, 1, -1, -1, -1], dtype=np.complex128).reshape(6, 1, 1)
    return table, [np.ones((6, 1, 1), dtype=np.complex128), sign, std]


def direct_product(first, second):
    """Table and Kronecker-product irreps of G x H; element (g, h) is g*|H| + h."""
    (t1, r1), (t2, r2) = first, second
    m1, m2 = len(t1), len(t2)
    g, h = np.divmod(np.arange(m1 * m2), m2)
    table = t1[g[:, None], g[None, :]] * m2 + t2[h[:, None], h[None, :]]
    irreps = [
        np.einsum("gij,gkl->gikjl", a[g], b[h]).reshape(m1 * m2, len(a[0]) * len(b[0]), -1)
        for a in r1
        for b in r2
    ]
    return table, irreps


def group_coproduct(irreps) -> np.ndarray:
    """Coproduct matrix of the group C*-algebra in Kronecker coordinates.

    ``delta(lam_g) = lam_g (x) lam_g`` on the translation unitaries, extended
    by Fourier inversion; the tensor square has one block per ordered pair of
    irreps, ``kron(pi_i(g), pi_j(g))`` raveled row-major.
    """
    m = len(irreps[0])
    pairs = np.concatenate(
        [np.einsum("gab,gcd->gacbd", a, b).reshape(m, -1) for a in irreps for b in irreps],
        axis=1,
    )
    fourier = np.concatenate(
        [(len(a[0]) / m) * a.conj().reshape(m, -1) for a in irreps], axis=1
    )
    return pairs.T @ fourier


def _psd_blocks(rng, dims, ridge: float):
    out = []
    for d in dims:
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out.append(x @ x.conj().T / d + ridge * np.eye(d))
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _sizes(order: int, dims, delta: np.ndarray) -> dict:
    return {
        "group_order": order,
        "dim": int(sum(d * d for d in dims)),
        "blocks": len(dims),
        "coproduct_nnz": int(np.count_nonzero(np.abs(delta) > NNZ_TOL)),
        "coproduct_entries": int(delta.size),
    }


def _function_coproduct(table: np.ndarray) -> np.ndarray:
    m = len(table)
    delta = np.zeros((m * m, m))
    delta[np.arange(m * m), table.ravel()] = 1.0
    return delta


def _zn_validate(seed: int, workdir: Path, tol: float) -> Workload:
    n = ZN_VALIDATE_ORDER
    spec = f"zn:{n}"
    table, _ = cyclic(n)
    cmd = Command("validate", ["--seed", str(seed), "validate", spec], [_builtin(spec)])
    return Workload(
        "zn-validate", seed, workdir, [cmd], _sizes(n, [1] * n, _function_coproduct(table))
    )


def _zn_evolve(seed: int, workdir: Path, tol: float) -> Workload:
    n = ZN_EVOLVE_ORDER
    spec = f"zn:{n}"
    rng = np.random.default_rng([seed, 1])
    table, _ = cyclic(n)
    jumps = rng.choice(np.arange(1, n), size=8, replace=False)
    jump = np.zeros(n)
    jump[jumps] = rng.dirichlet(np.ones(len(jumps)))
    rate = rng.uniform(0.5, 2.0)
    gamma = rate * jump
    gamma[0] -= rate
    digests: dict = {}
    doc = {"dual_blocks": [[[[float(x), 0.0]]] for x in gamma]}
    _check_zn_gamma(table, gamma)
    cmd = Command(
        "evolve",
        ["--seed", str(seed), "evolve", spec, "gamma.json", "--times", TIMES_ARG],
        [_builtin(spec), _write(workdir, "gamma.json", doc, digests)],
        circulant_oracle(gamma, TIMES, tol),
    )
    return Workload(
        "zn-evolve", seed, workdir, [cmd],
        _sizes(n, [1] * n, _function_coproduct(table)), digests,
    )


def _mix(seed: int, workdir: Path, tol: float) -> Workload:
    rng = np.random.default_rng([seed, 2])
    table, irreps = direct_product(s3(), cyclic(MIX_CYCLIC_ORDER))
    order = len(table)
    dims = [len(a[0]) for a in irreps]
    trivial = next(i for i, a in enumerate(irreps) if len(a[0]) == 1 and np.allclose(a, 1))
    delta = group_coproduct(irreps)
    eps = [np.zeros((d, d)) for d in dims]
    eps[trivial] = np.ones((1, 1))

    # gamma = rate * (phi - epsilon) with phi a random state
    phi = _psd_blocks(rng, dims, 1e-3)
    total = sum(np.trace(r).real for r in phi)
    rate = rng.uniform(0.5, 2.0)
    gamma = [rate * r / total for r in phi]
    gamma[trivial] = gamma[trivial] - rate
    # psi = f - f(e) with f the function of a random positive functional
    f = evaluate_on_translations(_psd_blocks(rng, dims, 0.1), irreps)
    psi = f - f[0]

    digests: dict = {}
    group = _write(
        workdir, "G.json", {"order": order, "identity": 0, "table": table.tolist()}, digests
    )
    irrep_file = _write(
        workdir,
        "G-irreps.json",
        {"irreps": [{"dim": d, "matrices": [_pairs(g) for g in a]} for d, a in zip(dims, irreps)]},
        digests,
    )
    bialgebra = _write(
        workdir,
        "G-bialgebra.json",
        {"blocks": dims, "mode": "hom", "delta": _pairs(delta), "epsilon": [_pairs(e) for e in eps]},
        digests,
    )
    gamma_file = _write(workdir, "gamma.json", {"dual_blocks": [_pairs(r) for r in gamma]}, digests)
    psi_file = _write(
        workdir, "psi.json", {"values": [[float(v.real), float(v.imag)] for v in psi]}, digests
    )
    s = str(seed)
    commands = [
        Command("validate", ["--seed", s, "validate", "G-bialgebra.json"], [bialgebra]),
        Command(
            "evolve",
            ["--seed", s, "evolve", "G-bialgebra.json", "gamma.json", "--times", TIMES_ARG],
            [bialgebra, gamma_file],
            cocommutative_oracle(gamma, irreps, TIMES, tol),
        ),
        Command(
            "guichardet",
            ["--seed", s, "guichardet", "G.json", "psi.json", "--irreps", "G-irreps.json"],
            [group, psi_file, irrep_file],
            guichardet_oracle(psi, tol),
        ),
    ]
    _check_mix_inputs(table, irreps, delta, gamma, psi)
    return Workload("nonabelian-mix", seed, workdir, commands, _sizes(order, dims, delta), digests)


def _check_mix_inputs(table, irreps, delta, gamma, psi) -> None:
    """Validate the generated inputs with the library before any timed run."""
    from cstarconv.bialgebra import group_cstar_bialgebra
    from cstarconv.convolution import generating_functional
    from cstarconv.groupfun import is_conditionally_positive_definite, is_hermitian_function
    from cstarconv.groups import IrrepTable, SemigroupTable

    group = SemigroupTable(table, 0)
    irrep_table = IrrepTable(tuple(irreps))
    irrep_table.validate(group)  # raises on any failed check
    b = group_cstar_bialgebra(group, irrep_table)
    if not np.allclose(b.delta.matrix, delta, rtol=0.0, atol=NNZ_TOL):
        raise RuntimeError("generated coproduct differs from the library's construction")
    if not generating_functional(b, b.algebra.functional(gamma)).valid:
        raise RuntimeError("generated gamma is not a valid generating functional")
    if not (is_hermitian_function(group, psi) and is_conditionally_positive_definite(group, psi)):
        raise RuntimeError("generated psi is not conditionally positive-definite")


def _check_zn_gamma(table, gamma) -> None:
    from cstarconv.bialgebra import function_bialgebra
    from cstarconv.convolution import generating_functional
    from cstarconv.groups import SemigroupTable

    b = function_bialgebra(SemigroupTable(table, 0))
    if not generating_functional(b, b.algebra.functional([[[x]] for x in gamma])).valid:
        raise RuntimeError("generated gamma is not a valid generating functional")


def build(name: str, seed: int, workdir: Path, tol: float = 1e-9) -> Workload:
    """Write the workload's input files into ``workdir`` and return its commands."""
    workdir.mkdir(parents=True, exist_ok=True)
    makers = {"zn-validate": _zn_validate, "zn-evolve": _zn_evolve, "nonabelian-mix": _mix}
    return makers[name](seed, workdir, tol)
