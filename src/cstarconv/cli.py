"""Command-line surface: validate structures, evolve states, decompose kernels.

Three subcommands wrap the library:

* ``validate``   -- bialgebra axioms plus seeded convolution smoke checks
* ``evolve``     -- exponentiate a generating functional and report state,
  complete-positivity and invariance diagnostics per time point
* ``guichardet`` -- shift a conditionally positive-definite group function,
  certificate included, with the GNS cross-check

Every check passes exactly when its residual is finite and at most
``--tol``, and a report passes exactly when all its checks do.  A PSD check's
residual is its violation, the larger of the Hermitian defect and the negated
smallest eigenvalue.  The sampled checks of ``validate`` are relative: each
sample's residual is divided by ``max(1, scale)``, the product of the norms
of the functionals it involves.

Reports go to stdout as JSON (default) or flattened ``key = value`` text.
All numbers are serialized with 17 significant digits, a non-finite one as
null, and the output is byte-deterministic for fixed inputs, seed and BLAS
thread count; wall-clock timing goes to stderr only.  Exit codes: 0 all
checks pass, 1 some check failed, 2 input could not be parsed: each file is
read inside :func:`cstarconv.io.at`: a refusal of its content is ``error: at <file>: <reason>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .algebra import functional_norm, functional_norms, state_check, within
from .bialgebra import (
    Bialgebra,
    function_bialgebra,
    group_cstar_bialgebra,
    validate_bialgebra,
)
from .errors import ConstructionError, PreconditionError, SchemaError
from .groups import SemigroupTable, builtin_group, builtin_irreps, builtin_name, builtin_table

# The layers that not every command runs (file schemas, sampling, convolution
# and semigroup, groupfun) are imported where a command first needs them, so
# that a process loads only what its command uses.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _scalar(obj) -> str | None:
    """Report text of a bool, null, integer or float leaf (null for a non-finite
    float); ``None`` for anything else."""
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj) if np.isfinite(obj) else "null"
    return None


def render_json(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    text = _scalar(obj)
    if text is not None:
        return text
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
    text = _scalar(obj)
    return [f"{prefix} = {obj if text is None else text}"]


def _digest(source: str, may_be_builtin: bool) -> dict:
    """``source`` and the sha256 of a file's bytes or of a built-in's folded name."""
    builtin = builtin_name(source) if may_be_builtin else None
    if builtin is not None:
        name, dual = builtin
        payload = f"builtin:{'dual:' if dual else ''}{name}".encode()
    else:
        payload = Path(source).read_bytes()
    return {"source": source, "sha256": hashlib.sha256(payload).hexdigest()}


def _check(name: str, residual: float, tol: float) -> dict:
    """One report check, passing exactly when ``within(residual, tol)``.

    A non-finite residual never passes and is rendered as null.
    """
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tol),
        "pass": bool(within(residual, tol)),
    }


def _report(args, refs: list, files: list, body: dict, checks: list) -> tuple[dict, int]:
    """Header, body, checks and verdict of every report, with its exit code.

    ``inputs`` digests the group or bialgebra arguments ``refs`` (built-in
    names among them by name), then the ``files``.  ``pass`` holds exactly
    when every check passes, and the code is 0 exactly then.
    """
    ok = all(c["pass"] for c in checks)
    report = {"command": args.subcommand, "seed": args.seed, "tolerance": args.tol}
    report["inputs"] = [_digest(s, True) for s in refs] + [_digest(s, False) for s in files]
    return report | body | {"checks": checks, "pass": ok}, 0 if ok else 1


SMOKE_SAMPLES = 20  # random functional triples per bialgebra


def _smoke_checks(label: str, b: Bialgebra, rng, tol: float) -> list[dict]:
    # sample s is the triple (lam[s], mu[s], nu[s]), drawn in that order; its
    # residual is divided by max(1, product of its input norms).  A check's
    # residual is the max over the samples and 0, nan if a sample's is
    from .sampling import random_duals

    draws = random_duals(b.algebra, rng, 3 * SMOKE_SAMPLES)
    lam, mu, nu = draws.reshape(SMOKE_SAMPLES, 3, -1).swapaxes(0, 1)
    conv, eps, norm = b.convolve, b.counit_coords, partial(functional_norms, b.algebra)
    n_lam, n_mu, n_nu = norm(draws).reshape(SMOKE_SAMPLES, 3).T
    lam_mu = conv(lam, mu)
    unit_scale = np.maximum(1.0, n_mu)
    residuals = {
        "associativity": norm(conv(lam_mu, nu) - conv(lam, conv(mu, nu)))
        / np.maximum(1.0, n_lam * n_mu * n_nu),
        "unit": [norm(conv(eps, mu) - mu) / unit_scale, norm(conv(mu, eps) - mu) / unit_scale],
        "submultiplicative": (norm(lam_mu) - n_lam * n_mu) / np.maximum(1.0, n_lam * n_mu),
    }
    return [
        _check(f"{label}:convolution_{name}[sample]", np.max(r, initial=0.0), tol)
        for name, r in residuals.items()
    ]


def _builtin_group_cstar(name: str, table: SemigroupTable) -> Bialgebra:
    """The group C*-bialgebra of the built-in group ``name`` (a folded fixture name).

    C*(``Z_n``) is the functions on its dual group, which ``j -> chi_j``, the
    character basis of ``cyclic_irreps``, identifies with ``Z_n``: so it is
    :func:`function_bialgebra` of the checked table of ``Z_n``, exact and on
    the table kernel, and no irrep is built.  The other groups go through
    Fourier inversion.
    """
    if name.startswith("zn:"):
        return function_bialgebra(table)
    return group_cstar_bialgebra(table, builtin_irreps(name))


def _resolve_validate_targets(paths: list[str]) -> list[tuple[str, Bialgebra]]:
    targets = []
    last_group = None
    for path in paths:
        builtin = builtin_name(path)
        if builtin is not None:
            name, dual = builtin
            if dual:
                raise SchemaError(
                    f"validate takes no dual: prefix, got {path!r}; {name!r} checks both "
                    "the functions and the group C*-algebra"
                )
            table = builtin_table(name)
            targets.append((f"functions[{path}]", function_bialgebra(table)))
            targets.append((f"group_cstar[{path}]", _builtin_group_cstar(name, table)))
            last_group = (path, table)
            continue
        from . import io as io_schemas

        with io_schemas.at(path):
            structure = io_schemas.load_structure(path)
            if isinstance(structure, SemigroupTable):
                targets.append((f"functions[{path}]", function_bialgebra(structure)))
                last_group = (path, structure)
                continue
            if isinstance(structure, Bialgebra):
                targets.append((f"bialgebra[{path}]", structure))
                continue
            if last_group is None:
                raise SchemaError("irrep file must follow a group (built-in or semigroup file)")
        group, table = last_group  # an irrep table, of the group before it
        with io_schemas.at(path if table.is_group else group):
            b = group_cstar_bialgebra(table, structure)
        targets.append((f"group_cstar[{group}+{path}]", b))
    return targets


def cmd_validate(args) -> tuple[dict, int]:
    tol = args.tol
    rng = np.random.default_rng(args.seed)
    checks = []
    for label, b in _resolve_validate_targets(args.specs):
        checks.extend(
            _check(f"{label}:{name}", residual, tol)
            for name, residual in validate_bialgebra(b, tol).checks()
        )
        checks.extend(_smoke_checks(label, b, rng, tol))
    return _report(args, args.specs, [], {}, checks)


def _resolve_bialgebra(ref: str) -> Bialgebra:
    builtin = builtin_name(ref)
    if builtin is not None:
        name, dual = builtin
        table = builtin_table(name)
        return _builtin_group_cstar(name, table) if dual else function_bialgebra(table)
    from . import io as io_schemas

    with io_schemas.at(ref):
        structure = io_schemas.load_structure(ref)
        if isinstance(structure, SemigroupTable):
            return function_bialgebra(structure)
        if isinstance(structure, Bialgebra):
            return structure
        raise SchemaError("expected a table or bialgebra file, got irreps")


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
    from . import io as io_schemas
    from .convolution import generating_functional
    from .semigroup import (
        associated_semigroup,
        commutation_residual,
        is_completely_positive,
        recover_functional,
        unitality_residual,
        weak_invariance_residual,
    )

    tol = args.tol
    b = _resolve_bialgebra(args.bialgebra)
    with io_schemas.at(args.gamma):
        gamma = io_schemas.load_functional(b.algebra, args.gamma)
    times = args.times
    with io_schemas.at(args.bialgebra):  # its counit must be a character
        diag = generating_functional(b, gamma, tol)
    sg = associated_semigroup(b, gamma)
    moduli = sg.moduli(times)
    gamma_norm = functional_norm(gamma)

    body = {
        "kernel": b.kernel,
        "generating_functional": {
            "hermitian": diag.hermitian,
            "vanishes_at_unit": diag.vanishes_at_unit,
            "conditionally_positive": diag.conditionally_positive,
            "norm": gamma_norm,
        },
        "norm_bound": None,
    }
    checks = [_check("generating_functional", diag.violation, tol)]
    if diag.valid:
        grid = _norm_bound_grid(args.grid_max, gamma_norm, tol)
        bound = sg.norm_bound(grid, tol)
        body["norm_bound"] = {"c_hat": bound.c_hat}
        checks.append(_check("generator_norm_bound", bound.residual, tol))
    entries = []
    for t, modulus in zip(times, moduli):
        lam = sg.functional_at(t)
        p_t = sg.operator_at(t)
        state = state_check(lam)
        cp = is_completely_positive(p_t, tol)
        unital = unitality_residual(p_t)
        recovery = functional_norm(recover_functional(b, p_t) - lam)
        # over the coordinate dual basis the strong-invariance residual is this
        # same maximum, so it is checked once, as commutation; on the table
        # kernel it is the bound within a factor 2 of it
        invariance = commutation_residual(b, p_t)
        weak = weak_invariance_residual(b, p_t)
        entries.append(
            {
                "t": float(t),
                "dual_blocks": [io_schemas.to_pairs(blk) for blk in lam.dual_blocks],
                "state_min_eigenvalue": state.min_eigenvalue,
                "state_unit_value": io_schemas.to_pairs(state.unit_value),
                "state_hermitian_defect": state.hermitian_defect,
                "distance_to_counit": modulus,
                "choi_min_eigenvalues": list(cp.min_choi_eigenvalues),
            }
        )
        tag = f"t={_fmt(t)}"
        checks.append(_check(f"state[{tag}]", state.violation(), tol))
        checks.append(_check(f"choi_psd[{tag}]", cp.violation, tol))
        checks.append(_check(f"unital[{tag}]", unital, tol))
        checks.append(_check(f"recovery[{tag}]", recovery, tol))
        checks.append(_check(f"commutation[{tag}]", invariance, tol))
        checks.append(_check(f"weak_invariance[{tag}]", weak, tol))
    body["times"] = entries
    return _report(args, [args.bialgebra], [args.gamma], body, checks)


def cmd_guichardet(args) -> tuple[dict, int]:
    from . import io as io_schemas
    from .groupfun import guichardet_constant, guichardet_via_gns

    tol = args.tol
    builtin = builtin_name(args.group)
    if builtin:
        if builtin[1]:
            raise SchemaError(f"guichardet takes a group, not a dual: name, got {args.group!r}")
        if args.irreps is not None:
            raise SchemaError(
                f"--irreps applies to a group file; built-in group {args.group!r} "
                "carries its irreps"
            )
        table, irreps = builtin_group(builtin[0])
    else:
        with io_schemas.at(args.group):
            table = io_schemas.load_semigroup(args.group)
        with io_schemas.at(args.irreps):
            irreps = io_schemas.load_irreps(args.irreps) if args.irreps is not None else None
    with io_schemas.at(args.psi):
        ref, values = io_schemas.load_group_function(args.psi)
        if ref is not None and builtin and (not ref.strip() or builtin_name(ref) != builtin):
            with io_schemas.at("$.group"):
                raise SchemaError(f"function file names group {ref!r}, command got {args.group!r}")
        if values.shape != (table.order,):
            with io_schemas.at("$.values"):
                raise SchemaError(f"expected {table.order} values, got {values.shape[0]}")
    files = [args.psi] + ([args.irreps] if args.irreps is not None else [])
    try:
        # the GNS route validates the irreps first, so a refused irrep table
        # costs no kernel work; each route decides its hypotheses itself.  A
        # table that is not a group is its own file's fault
        with io_schemas.at(args.irreps if table.is_group else args.group):
            via_gns = (
                guichardet_via_gns(table, irreps, values, tol) if irreps is not None else None
            )
            cert = guichardet_constant(table, values, tol)
    except PreconditionError as exc:
        body = {"precondition_failures": str(exc).split("; ")}
        return _report(args, [args.group], files, body, [_check("preconditions", np.nan, tol)])
    body = {
        "constant": cert.constant,
        "shifted_values": io_schemas.to_pairs(cert.shifted_values),
        "certificate": {
            "min_eigenvalue": cert.min_eigenvalue,
            "ones_residual": cert.ones_residual,
            "minimality_delta": cert.minimality_delta,
            "minimality_min_eigenvalue": cert.minimality_min_eigenvalue,
        },
        "gns": None,
    }
    checks = [_check(name, residual, tol) for name, residual in cert.checks()]
    if via_gns is not None:
        body["gns"] = {
            "dimension": via_gns.gns_data.dimension,
            "constant": via_gns.constant,
            "function_deviation": via_gns.function_deviation,
        }
        checks.append(
            _check("gns_constant_agreement", abs(cert.constant - via_gns.constant), tol)
        )
        checks.append(_check("gns_function_agreement", via_gns.function_deviation, tol))
    return _report(args, [args.group], files, body, checks)


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


def _nonnegative_int(text: str) -> int:
    # default_rng refuses a negative seed; int() also reads non-ASCII digits
    digits = text.strip()
    if not (digits.isascii() and digits.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _finite_positive(text: str) -> float:
    # the norm-bound grid halves down from --grid-max, so it must start positive
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
        "--tol",
        type=_finite_nonnegative,
        default=1e-9,
        help="a check passes when its residual is finite and at most this "
        "(sampled checks are relative to their inputs)",
    )
    parser.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for sampled checks")
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
        # non-finite intermediates become failing checks and nulls, not warnings
        with np.errstate(all="ignore"):
            report, code = args.run(args)
    except (SchemaError, ConstructionError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # exit 2, as for a zn: order too large to build
        detail = f": {exc}" if str(exc) else ""  # numpy's names the array
        print(f"error: not enough memory for this input{detail}", file=sys.stderr)
        return 2
    text = render_json(report) if args.format == "json" else "\n".join(render_text(report))
    sys.stdout.write(text + "\n")
    print(f"# elapsed seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
