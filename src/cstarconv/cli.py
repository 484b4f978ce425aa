"""Command-line surface: validate structures, evolve states, decompose kernels.

Three subcommands wrap the library:

* ``validate``   -- bialgebra axioms plus seeded convolution smoke checks
* ``evolve``     -- exponentiate a generating functional and report state,
  complete-positivity and invariance diagnostics per time point
* ``guichardet`` -- shift a conditionally positive-definite group function,
  certificate included, with the GNS cross-check

Reports go to stdout as JSON (default) or flattened ``key = value`` text.
All numbers are serialized with 17 significant digits and the output is
byte-deterministic for fixed inputs and seed; wall-clock timing goes to
stderr only.  Exit codes: 0 all checks pass, 1 some check failed, 2 input
could not be parsed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .algebra import functional_norm, state_check
from .bialgebra import (
    Bialgebra,
    function_bialgebra,
    group_cstar_bialgebra,
    validate_bialgebra,
)
from .convolution import (
    continuity_moduli,
    convolution_exp,
    convolve,
    generating_functional,
    norm_continuity_bound,
)
from .errors import ConstructionError, PreconditionError, SchemaError
from .groups import builtin_group
from . import io as io_schemas
from .groupfun import guichardet_constant, guichardet_via_gns
from .sampling import random_functional
from .semigroup import (
    associated_semigroup,
    commutation_residual,
    is_completely_positive,
    recover_functional,
    unitality_residual,
    weak_invariance_residual,
)


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def render_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def render_text(obj, prefix: str = "") -> list[str]:
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            path = f"{prefix}.{k}" if prefix else str(k)
            lines.extend(render_text(v, path))
        return lines
    if isinstance(obj, (list, tuple)):
        lines = []
        for i, v in enumerate(obj):
            lines.extend(render_text(v, f"{prefix}[{i}]"))
        return lines
    if isinstance(obj, bool):
        return [f"{prefix} = {'true' if obj else 'false'}"]
    if obj is None:
        return [f"{prefix} = null"]
    if isinstance(obj, (float, np.floating)):
        return [f"{prefix} = {_fmt(obj)}"]
    return [f"{prefix} = {obj}"]


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _digest(source: str) -> dict:
    if _is_builtin(source):
        payload = f"builtin:{source}".encode()
    else:
        payload = Path(source).read_bytes()
    return {"source": source, "sha256": hashlib.sha256(payload).hexdigest()}


def _is_builtin(name: str) -> bool:
    key = name.strip().lower()
    if key.startswith("dual:"):
        key = key[5:]
    return key.startswith("zn:") or key in ("s3", "d4", "q8")


def _check(name: str, residual: float, tol: float, lower_bound: bool = False) -> dict:
    # a non-finite residual never passes and is reported as null
    finite = bool(np.isfinite(residual))
    ok = finite and (residual >= -tol if lower_bound else residual <= tol)
    return {
        "name": name,
        "residual": float(residual) if finite else None,
        "tolerance": float(tol),
        "pass": bool(ok),
    }


def _nonfinite_to_null(obj):
    """Replace every non-finite float in a report by ``None`` (JSON ``null``)."""
    if isinstance(obj, dict):
        return {k: _nonfinite_to_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_nonfinite_to_null(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _validation_checks(label: str, report, tol: float) -> list[dict]:
    checks = [
        _check(f"{label}:coassociativity", report.coassoc_residual, tol),
        _check(f"{label}:counit_laws", report.counit_residual, tol),
        _check(f"{label}:counit_character", report.character_residual, tol),
        _check(f"{label}:coproduct_unital", report.unit_residual, tol),
    ]
    if report.hom_residual is not None:
        checks.append(_check(f"{label}:coproduct_homomorphism", report.hom_residual, tol))
    if report.cp_min_eig is not None:
        checks.append(
            _check(f"{label}:coproduct_choi_min_eig", report.cp_min_eig, tol, lower_bound=True)
        )
    return checks


def _smoke_checks(label: str, b: Bialgebra, rng, tol: float, samples: int = 20) -> list[dict]:
    assoc = 0.0
    unital = 0.0
    submult = 0.0
    eps = b.epsilon
    for _ in range(samples):
        lam = random_functional(b.algebra, rng)
        mu = random_functional(b.algebra, rng)
        nu = random_functional(b.algebra, rng)
        left = convolve(b, convolve(b, lam, mu), nu)
        right = convolve(b, lam, convolve(b, mu, nu))
        assoc = max(assoc, functional_norm(left - right))
        unital = max(
            unital,
            functional_norm(convolve(b, eps, mu) - mu),
            functional_norm(convolve(b, mu, eps) - mu),
        )
        submult = max(
            submult,
            functional_norm(convolve(b, lam, mu))
            - functional_norm(lam) * functional_norm(mu),
        )
    return [
        _check(f"{label}:convolution_associativity[sample]", assoc, tol),
        _check(f"{label}:convolution_unit[sample]", unital, tol),
        _check(f"{label}:convolution_submultiplicative[sample]", max(0.0, submult), tol),
    ]


def _resolve_validate_targets(paths: list[str]) -> list[tuple[str, Bialgebra]]:
    targets = []
    last_group = None
    for path in paths:
        if _is_builtin(path):
            table, irreps = builtin_group(path)
            targets.append((f"functions[{path}]", function_bialgebra(table)))
            targets.append((f"group_cstar[{path}]", group_cstar_bialgebra(table, irreps)))
            last_group = (path, table)
            continue
        data = io_schemas.load_document(path)
        if "table" in data:
            table = io_schemas.load_semigroup(data)
            targets.append((f"functions[{path}]", function_bialgebra(table)))
            last_group = (path, table)
        elif "irreps" in data:
            if last_group is None:
                raise SchemaError(
                    f"at {path}: irrep file must follow a group (built-in or semigroup file)"
                )
            irreps = io_schemas.load_irreps(data)
            targets.append(
                (
                    f"group_cstar[{last_group[0]}+{path}]",
                    group_cstar_bialgebra(last_group[1], irreps),
                )
            )
        elif "blocks" in data:
            targets.append((f"bialgebra[{path}]", io_schemas.load_bialgebra(data)))
        else:
            raise SchemaError(f"at {path}: unrecognized schema (no table/irreps/blocks key)")
    return targets


def cmd_validate(args) -> tuple[dict, int]:
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    report = {
        "command": "validate",
        "seed": args.seed,
        "tolerance": tol,
        "inputs": [_digest(p) for p in args.specs],
    }
    checks = []
    for label, b in _resolve_validate_targets(args.specs):
        checks.extend(_validation_checks(label, validate_bialgebra(b, tol), tol))
        checks.extend(_smoke_checks(label, b, rng, tol))
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks)
    return report, 0 if report["pass"] else 1


def _resolve_bialgebra(ref: str) -> Bialgebra:
    dual = ref.startswith("dual:")
    name = ref[5:] if dual else ref
    if _is_builtin(name):
        table, irreps = builtin_group(name)
        return group_cstar_bialgebra(table, irreps) if dual else function_bialgebra(table)
    data = io_schemas.load_document(ref)
    if "table" in data:
        return function_bialgebra(io_schemas.load_semigroup(data))
    if "blocks" in data:
        return io_schemas.load_bialgebra(data)
    raise SchemaError(f"at {ref}: unrecognized bialgebra schema")


def _norm_bound_grid(t_max: float, generator_norm: float, tol: float) -> list[float]:
    # halve down from t_max; the floor scales with the generator norm so the
    # grid estimate of sup lambda_t(p)/t sits within tol of its t -> 0 limit.
    # It stays a positive normal number for tol = 0 and for a norm whose
    # square overflows (the product gives inf where ** would raise).
    floor = min(2.0**-10, tol / (4.0 * (1.0 + generator_norm * generator_norm)))
    floor = max(floor, sys.float_info.min)
    grid = []
    t = t_max
    while t > floor:
        grid.append(t)
        t /= 2.0
    grid.append(floor)
    return grid


def cmd_evolve(args) -> tuple[dict, int]:
    tol = args.tol
    b = _resolve_bialgebra(args.bialgebra)
    gamma = io_schemas.load_functional(b.algebra, args.gamma)
    times = args.times
    diag = generating_functional(b, gamma, tol)
    sg = associated_semigroup(b, gamma)
    moduli = continuity_moduli(b, gamma, times)

    report = {
        "command": "evolve",
        "seed": args.seed,
        "tolerance": tol,
        "inputs": [_digest(args.bialgebra), _digest(args.gamma)],
        "generating_functional": {
            "hermitian": diag.hermitian,
            "vanishes_at_unit": diag.vanishes_at_unit,
            "conditionally_positive": diag.conditionally_positive,
            "norm": functional_norm(gamma),
        },
    }
    checks = []
    if diag.valid:
        grid = _norm_bound_grid(args.grid_max, functional_norm(gamma), tol)
        bound = norm_continuity_bound(b, gamma, grid, tol)
        report["norm_bound"] = {
            "c_hat": bound.c_hat,
            "generator_norm": bound.generator_norm,
            "satisfied": bound.satisfied,
        }
        checks.append(
            _check(
                "generator_norm_bound",
                bound.generator_norm - 2.0 * bound.c_hat,
                tol,
            )
        )
    else:
        report["norm_bound"] = None
    entries = []
    for t, modulus in zip(times, moduli):
        lam = convolution_exp(b, gamma, t)
        p_t = sg.operator_at(t)
        state = state_check(lam)
        cp = is_completely_positive(p_t, tol)
        unital = unitality_residual(p_t)
        recovery = functional_norm(recover_functional(b, p_t) - lam)
        # over the coordinate dual basis the commutation and strong-invariance
        # residuals are the same tensor, so it is computed once for both checks
        invariance = commutation_residual(b, p_t)
        weak = weak_invariance_residual(b, p_t)
        entries.append(
            {
                "t": float(t),
                "dual_blocks": [
                    io_schemas.complex_matrix_to_json(blk) for blk in lam.dual_blocks
                ],
                "state_min_eigenvalue": state.min_eigenvalue,
                "state_unit_value": _complex_pair(state.unit_value),
                "state_hermitian_defect": state.hermitian_defect,
                "distance_to_counit": modulus,
                "choi_min_eigenvalues": list(cp.min_choi_eigenvalues),
                "unitality_residual": unital,
            }
        )
        tag = f"t={_fmt(t)}"
        checks.append(_check(f"state[{tag}]", state.violation(), tol))
        checks.append(
            _check(
                f"choi_min_eig[{tag}]",
                float(np.min(cp.min_choi_eigenvalues)),
                tol,
                lower_bound=True,
            )
        )
        checks.append(_check(f"unital[{tag}]", unital, tol))
        checks.append(_check(f"recovery[{tag}]", recovery, tol))
        checks.append(_check(f"commutation[{tag}]", invariance, tol))
        checks.append(_check(f"strong_invariance[{tag}]", invariance, tol))
        checks.append(_check(f"weak_invariance[{tag}]", weak, tol))
    report["times"] = entries
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks) and diag.valid
    # an overflowing exponential leaves nan/inf in the diagnostics; the
    # checks built from them have failed above
    return _nonfinite_to_null(report), 0 if report["pass"] else 1


def cmd_guichardet(args) -> tuple[dict, int]:
    tol = args.tol
    if _is_builtin(args.group):
        table, irreps = builtin_group(args.group)
    else:
        table = io_schemas.load_semigroup(args.group)
        irreps = io_schemas.load_irreps(args.irreps) if args.irreps else None
    ref, values = io_schemas.load_group_function(args.psi)
    if (
        ref is not None
        and _is_builtin(args.group)
        and ref.strip().lower() != args.group.strip().lower()
    ):
        raise SchemaError(
            f"at $.group: function file names group {ref!r}, command got {args.group!r}"
        )
    if values.shape != (table.order,):
        raise SchemaError(
            f"at $.values: expected {table.order} values, got {values.shape[0]}"
        )
    inputs = [_digest(args.group), _digest(args.psi)]
    if not _is_builtin(args.group) and args.irreps:
        inputs.append(_digest(args.irreps))
    report = {
        "command": "guichardet",
        "seed": args.seed,
        "tolerance": tol,
        "inputs": inputs,
    }
    try:
        cert = guichardet_constant(table, values, tol)
        via_gns = (
            guichardet_via_gns(table, irreps, values, tol) if irreps is not None else None
        )
    except PreconditionError as exc:
        report["precondition_failures"] = str(exc).split("; ")
        report["checks"] = [
            {"name": "preconditions", "residual": None, "tolerance": tol, "pass": False}
        ]
        report["pass"] = False
        return report, 1
    report["constant"] = cert.constant
    report["shifted_values"] = [_complex_pair(v) for v in cert.shifted_values]
    report["certificate"] = {
        "min_eigenvalue": cert.min_eigenvalue,
        "ones_residual": cert.ones_residual,
        "minimality_delta": cert.minimality_delta,
        "minimality_min_eigenvalue": cert.minimality_min_eigenvalue,
    }
    checks = [
        _check("kernel_psd_after_shift", cert.min_eigenvalue, tol, lower_bound=True),
        _check("ones_vector_annihilated", cert.ones_residual, tol),
        _check(
            "shift_minimality",
            cert.minimality_min_eigenvalue + cert.minimality_delta * table.order,
            tol,
        ),
    ]
    if via_gns is None:
        report["gns"] = None
    else:
        report["gns"] = {
            "dimension": via_gns.gns_data.dimension,
            "constant": via_gns.constant,
            "function_deviation": via_gns.function_deviation,
        }
        checks.append(
            _check("gns_constant_agreement", abs(cert.constant - via_gns.constant), tol)
        )
        checks.append(_check("gns_function_agreement", via_gns.function_deviation, tol))
    report["checks"] = checks
    report["pass"] = all(c["pass"] for c in checks)
    return report, 0 if report["pass"] else 1


def _times_list(text: str) -> list[float]:
    try:
        times = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list {text!r}: {exc}") from exc
    if not times or not all(np.isfinite(t) and t >= 0 for t in times):
        raise argparse.ArgumentTypeError("times must be finite, nonnegative and non-empty")
    return times


def _finite_nonnegative(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite nonnegative number, got {text!r}")
    return value


def _finite_positive(text: str) -> float:
    # a non-positive --grid-max would let the 1/T cap make the norm-bound gate vacuous
    value = _finite_nonnegative(text)
    if value == 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstarconv",
        description="Convolution semigroups of states on finite-dimensional C*-bialgebras.",
    )
    parser.add_argument(
        "--tol", type=_finite_nonnegative, default=1e-9, help="absolute tolerance"
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="report format"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_validate = sub.add_parser("validate", help="validate bialgebra structures")
    p_validate.add_argument(
        "specs",
        nargs="+",
        help="built-in names (zn:<n>, s3, d4, q8) or JSON files "
        "(semigroup, irreps, bialgebra schemas)",
    )
    p_validate.set_defaults(run=cmd_validate)

    p_evolve = sub.add_parser("evolve", help="evolve a generating functional")
    p_evolve.add_argument(
        "bialgebra",
        help="built-in name (functions on the monoid; prefix dual: for the "
        "group C*-algebra) or a bialgebra/semigroup JSON file",
    )
    p_evolve.add_argument("gamma", help="functional JSON file (dual_blocks schema)")
    p_evolve.add_argument(
        "--times", type=_times_list, default=[1.0], help="comma-separated times"
    )
    p_evolve.add_argument(
        "--grid-max",
        type=_finite_positive,
        default=8.0,
        dest="grid_max",
        help="largest time in the generator norm-bound grid",
    )
    p_evolve.set_defaults(run=cmd_evolve)

    p_gui = sub.add_parser("guichardet", help="decompose a group function")
    p_gui.add_argument("group", help="built-in group name or semigroup JSON file")
    p_gui.add_argument("psi", help="group function JSON file")
    p_gui.add_argument(
        "--irreps",
        default=None,
        help="irrep JSON file enabling the GNS cross-check for a file group "
        "(built-in groups carry their irreps)",
    )
    p_gui.set_defaults(run=cmd_guichardet)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.run(args)
    except (SchemaError, ConstructionError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            text = render_json(report)
        else:
            text = "\n".join(render_text(report))
    except ValueError as exc:  # a non-finite number that no check caught
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text + "\n")
    print(f"# elapsed seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
