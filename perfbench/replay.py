"""Traced in-process replay of the CLI commands, timed layer by layer.

The replay calls the library's public functions in the order ``cmd_validate``,
``cmd_evolve`` and ``cmd_guichardet`` call them and records one span around
each call, named ``<module>.<what>`` after the module of ``src/cstarconv``
that does the work.  A span's self time is its duration minus its child
spans.  Where a public function calls another layer internally, the inner
call is timed on its own on the same inputs (a *shadow* span, outside the
replay's top level) and subtracted from the outer span: ``IrrepTable.validate``
inside ``group_cstar_bialgebra``, ``group_cstar_bialgebra`` and ``gns`` inside
``guichardet_via_gns``, and the ``SemigroupTable`` build inside
``load_semigroup``.

``trace.coverage`` is the sum of the top-level spans over the untraced
in-process time of ``cli.main`` on the same argv (``cli.main_s``); it falls
below 0.9 when the replay drifts from ``cli.py``.  Peak allocations come from
a separate tracemalloc pass so that its overhead stays out of the timed spans.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

from cstarconv import cli
from cstarconv import io as cio
from cstarconv.algebra import functional_norm, gns, state_check
from cstarconv.bialgebra import (
    discrete_type_decomposition,
    function_bialgebra,
    group_cstar_bialgebra,
    validate_bialgebra,
)
from cstarconv.convolution import (
    continuity_moduli,
    convolution_exp,
    convolve,
    generating_functional,
    norm_continuity_bound,
)
from cstarconv.groupfun import functional_from_function, guichardet_constant, guichardet_via_gns
from cstarconv.groups import SemigroupTable, builtin_group
from cstarconv.sampling import random_functional
from cstarconv.semigroup import (
    associated_semigroup,
    commutation_residual,
    is_completely_positive,
    recover_functional,
    strong_invariance_residual,
    unitality_residual,
    weak_invariance_residual,
)

from oracles import Invocation
from workloads import NNZ_TOL

SMOKE_SAMPLES = 20  # cli._smoke_checks default
COVERAGE_FLOOR = 0.9

# Per-layer metrics reported from the traced run, with their units.
TIMED_LAYERS = (
    "bialgebra.validate",
    "bialgebra.group_cstar_build",
    "bialgebra.function_build",
    "bialgebra.structure_tensor",
    "groups.irrep_validate",
    "groups.table",
    "convolution.convolve",
    "convolution.exp",
    "convolution.moduli",
    "convolution.norm_bound",
    "convolution.generating_functional",
    "semigroup.associated",
    "semigroup.invariance",
    "semigroup.cp",
    "semigroup.operator_at",
    "semigroup.recover",
    "semigroup.unitality",
    "algebra.gns",
    "algebra.state_check",
    "algebra.functional_norm",
    "groupfun.guichardet_constant",
    "groupfun.via_gns",
    "io.load",
    "sampling.random_functional",
    "cli.render",
)
UNITS = {f"{name}_s": "s" for name in TIMED_LAYERS} | {
    "bialgebra.dim": "count",
    "bialgebra.blocks": "count",
    "bialgebra.coproduct_nnz": "count",
    "bialgebra.validate_peak_mb": "MB",
    "semigroup.invariance_peak_mb": "MB",
    "convolution.convolve_calls": "count",
    "convolution.exp_calls": "count",
    "algebra.gns_dimension": "count",
    "io.bytes_in": "count",
    "cli.main_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans: name, start, end, parent, and time to subtract."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, shadow: bool = False):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "shadow": shadow,
            "children": 0.0,
            "minus": 0.0,
        }
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            rec["duration"] = rec["end"] - rec["start"]
            if rec["parent"] is not None:
                rec["parent"]["children"] += rec["duration"]
            self.spans.append(rec)

    def timed(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def shadow(self, name: str, fn, *args):
        """Time an inner call on its own, outside the replay; returns (result, duration)."""
        with self.span(name, shadow=True) as rec:
            out = fn(*args)
        return out, rec["duration"]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[str, float]:
        out = dict.fromkeys(TIMED_LAYERS, 0.0)
        for rec in self.spans:
            if rec["name"] in out:
                out[rec["name"]] += rec["duration"] - rec["children"] - rec["minus"]
        return out

    def top_level(self) -> float:
        return sum(r["duration"] for r in self.spans if r["parent"] is None and not r["shadow"])

    def shadow_total(self) -> float:
        return sum(r["duration"] for r in self.spans if r["parent"] is None and r["shadow"])


def _is_builtin(spec: str) -> bool:
    key = spec.strip().lower()
    return key.startswith("zn:") or key in ("s3", "d4", "q8")


class Replay:
    """Mirror of ``cli.cmd_*`` with spans; keeps the objects the memory pass needs."""

    def __init__(self, tracer: Tracer, workdir: Path):
        self.tr = tracer
        self.workdir = workdir
        self.bialgebras: list = []
        self.validated: list = []
        self.evolutions: list = []

    def _load(self, loader, path: str, *args, minus: float = 0.0):
        self.tr.count("io.bytes_in", (self.workdir / path).stat().st_size)
        with self.tr.span("io.load") as rec:
            out = loader(*args)
        rec["minus"] = minus
        return out

    def _built(self, b):
        self.bialgebras.append(b)
        with self.tr.span("bialgebra.structure_tensor"):
            b.structure_tensor  # cached on first access
            b.counit_coords
        return b

    def group_cstar(self, table, irreps):
        _, inner = self.tr.shadow("groups.irrep_validate", irreps.validate, table)
        with self.tr.span("bialgebra.group_cstar_build") as rec:
            b = group_cstar_bialgebra(table, irreps)
        rec["minus"] = inner
        return b

    def validate(self, args) -> None:
        tr = self.tr
        rng = np.random.default_rng(args.seed)
        targets = []
        for spec in args.specs:
            if _is_builtin(spec):
                table, irreps = tr.timed("groups.table", builtin_group, spec)
                targets.append(tr.timed("bialgebra.function_build", function_bialgebra, table))
                targets.append(self.group_cstar(table, irreps))
            else:
                targets.append(self._load(cio.load_bialgebra, spec, spec))
        for b in targets:
            self._built(b)
            tr.timed("bialgebra.validate", validate_bialgebra, b, args.tol)
            self.validated.append(b)
            self._smoke(b, rng)

    def _smoke(self, b, rng) -> None:
        tr = self.tr

        def conv(x, y):
            tr.count("convolution.convolve_calls")
            return tr.timed("convolution.convolve", convolve, b, x, y)

        def norm(mu):
            return tr.timed("algebra.functional_norm", functional_norm, mu)

        eps = b.epsilon
        for _ in range(SMOKE_SAMPLES):
            lam, mu, nu = (
                tr.timed("sampling.random_functional", random_functional, b.algebra, rng)
                for _ in range(3)
            )
            left, right = conv(conv(lam, mu), nu), conv(lam, conv(mu, nu))
            norm(left - right)
            norm(conv(eps, mu) - mu)
            norm(conv(mu, eps) - mu)
            norm(conv(lam, mu))
            norm(lam)
            norm(mu)

    def evolve(self, args) -> None:
        tr = self.tr
        tol, times = args.tol, args.times
        if _is_builtin(args.bialgebra):
            table, _ = tr.timed("groups.table", builtin_group, args.bialgebra)
            b = tr.timed("bialgebra.function_build", function_bialgebra, table)
        else:
            b = self._load(cio.load_bialgebra, args.bialgebra, args.bialgebra)
        gamma = self._load(cio.load_functional, args.gamma, b.algebra, args.gamma)
        self._built(b)
        diag = tr.timed("convolution.generating_functional", generating_functional, b, gamma, tol)
        sg = tr.timed("semigroup.associated", associated_semigroup, b, gamma)
        tr.timed("convolution.moduli", continuity_moduli, b, gamma, times)
        tr.timed("algebra.functional_norm", functional_norm, gamma)
        exps = sum(1 for t in times if t != 0)
        if diag.valid:
            gamma_norm = tr.timed("algebra.functional_norm", functional_norm, gamma)
            grid = _norm_bound_grid(args.grid_max, gamma_norm, tol)
            tr.timed("convolution.norm_bound", norm_continuity_bound, b, gamma, grid, tol)
            exps += len(grid)
        for t in times:
            lam = tr.timed("convolution.exp", convolution_exp, b, gamma, t)
            p_t = tr.timed("semigroup.operator_at", sg.operator_at, t)
            tr.timed("algebra.state_check", state_check, lam)
            tr.timed("semigroup.cp", is_completely_positive, p_t, tol)
            tr.timed("semigroup.unitality", unitality_residual, p_t)
            recovered = tr.timed("semigroup.recover", recover_functional, b, p_t)
            tr.timed("algebra.functional_norm", functional_norm, recovered - lam)
            with tr.span("semigroup.invariance"):
                commutation_residual(b, p_t)
                strong_invariance_residual(b, p_t)
                weak_invariance_residual(b, p_t)
        tr.count("convolution.exp_calls", exps + len(times))
        self.evolutions.append((b, sg, times))

    def guichardet(self, args) -> None:
        tr = self.tr
        tol = args.tol
        if _is_builtin(args.group):
            table, irreps = tr.timed("groups.table", builtin_group, args.group)
        else:
            doc, _ = tr.shadow("replay.prep", cio.load_document, args.group)
            _, inner = tr.shadow(
                "groups.table", SemigroupTable, np.array(doc["table"]), doc["identity"]
            )
            table = self._load(cio.load_semigroup, args.group, args.group, minus=inner)
            irreps = self._load(cio.load_irreps, args.irreps, args.irreps) if args.irreps else None
        _, values = self._load(cio.load_group_function, args.psi, args.psi)
        tr.timed("groupfun.guichardet_constant", guichardet_constant, table, values, tol)
        if irreps is None:
            return
        _, inner = tr.shadow("groups.irrep_validate", irreps.validate, table)
        with tr.span("bialgebra.group_cstar_build", shadow=True) as rec:
            b = group_cstar_bialgebra(table, irreps)
        rec["minus"] = inner
        build = rec["duration"]
        omega, _ = tr.shadow("replay.prep", _gns_input, b, table, irreps, values)
        data, inner_gns = tr.shadow("algebra.gns", gns, b.algebra, omega, 1e-12)
        with tr.span("groupfun.via_gns") as rec:
            guichardet_via_gns(table, irreps, values, tol)
        rec["minus"] = build + inner_gns
        tr.count("algebra.gns_dimension", data.dimension)


def _gns_input(b, table, irreps, values):
    """The compressed functional ``guichardet_via_gns`` hands to ``gns``."""
    gamma = functional_from_function(table, irreps, values)
    dec = discrete_type_decomposition(b)
    blocks = [
        np.zeros((n, n)) if i == dec.omega_index else rho
        for i, (n, rho) in enumerate(zip(b.algebra.blocks, gamma.dual_blocks))
    ]
    return b.algebra.functional(blocks)


def _norm_bound_grid(t_max: float, generator_norm: float, tol: float) -> list[float]:
    """Mirror of the CLI's norm-bound grid (halving down from ``t_max``)."""
    floor = min(2.0**-10, tol / (4.0 * (1.0 + generator_norm**2)))
    grid = []
    t = t_max
    while t > floor:
        grid.append(t)
        t /= 2.0
    grid.append(floor)
    return grid


def run_main(argv: list[str]) -> tuple[Invocation, float]:
    """``cli.main(argv)`` in-process with stdout/stderr captured; returns its wall time."""
    out, err = _io.StringIO(), _io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # the gate reports it as a traceback
            traceback.print_exc()
            code = 1
    return Invocation(code, out.getvalue(), err.getvalue()), time.perf_counter() - start


def replay_pass(workload, outputs: list[Invocation]) -> tuple[Tracer, Replay, float]:
    """One traced pass over the workload's commands; returns the replay wall time.

    ``outputs`` are the untraced runs of the same commands; their reports
    feed ``render_json`` so rendering is timed on the same data.
    """
    parser = cli.build_parser()
    tracer = Tracer()
    rp = Replay(tracer, workload.workdir)
    start = time.perf_counter()
    with contextlib.chdir(workload.workdir):
        for command, inv in zip(workload.commands, outputs):
            args = parser.parse_args(command.argv)
            getattr(rp, command.kind)(args)
            tracer.timed("cli.render", cli.render_json, json.loads(inv.stdout))
    wall = time.perf_counter() - start - tracer.shadow_total()
    return tracer, rp, wall


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def memory_pass(rp: Replay, tol: float) -> dict[str, float]:
    """Peak traced allocation of axiom validation and of the invariance checks."""
    validate_peak = max((_peak_mb(validate_bialgebra, b, tol) for b in rp.validated), default=0.0)
    invariance_peak = 0.0
    for b, sg, times in rp.evolutions:
        for t in times:
            p_t = sg.operator_at(t)
            invariance_peak = max(
                invariance_peak,
                _peak_mb(
                    lambda: (
                        commutation_residual(b, p_t),
                        strong_invariance_residual(b, p_t),
                        weak_invariance_residual(b, p_t),
                    )
                ),
            )
    return {
        "bialgebra.validate_peak_mb": validate_peak,
        "semigroup.invariance_peak_mb": invariance_peak,
    }


def _sizes(bialgebras) -> dict[str, int]:
    sizes = {"bialgebra.dim": 0, "bialgebra.blocks": 0, "bialgebra.coproduct_nnz": 0}
    for b in bialgebras:
        sizes["bialgebra.dim"] = max(sizes["bialgebra.dim"], b.algebra.dim)
        sizes["bialgebra.blocks"] = max(sizes["bialgebra.blocks"], len(b.algebra.blocks))
        nnz = int(np.count_nonzero(np.abs(b.delta.matrix) > NNZ_TOL))
        sizes["bialgebra.coproduct_nnz"] = max(sizes["bialgebra.coproduct_nnz"], nnz)
    return sizes


def run_traced(workload, seconds: float, tol: float = 1e-9) -> dict:
    """Warm up, then alternate untraced ``cli.main`` and traced replay passes.

    Returns the per-layer metrics (medians over passes), the invocations
    of every untraced pass for the gates, and the spans of the last pass.
    """
    argvs = [c.argv for c in workload.commands]
    with contextlib.chdir(workload.workdir):
        for argv in argvs:  # scipy loads submodules lazily on first use
            run_main(argv)
    deadline = time.perf_counter() + seconds
    samples: list[dict] = []
    invocations: list[list[Invocation]] = []
    while not samples or time.perf_counter() < deadline:
        with contextlib.chdir(workload.workdir):
            runs = [run_main(argv) for argv in argvs]
        outputs = [inv for inv, _ in runs]
        invocations.append(outputs)
        main_s = sum(t for _, t in runs)
        if any(inv.exit_code != 0 for inv in outputs):
            break  # a failed command leaves no report to replay
        tracer, rp, wall = replay_pass(workload, outputs)
        sample = {f"{k}_s": v for k, v in tracer.self_times().items()}
        sample["cli.main_s"] = main_s
        sample["trace.coverage"] = tracer.top_level() / main_s
        sample["trace.overhead_s"] = wall - main_s
        samples.append(sample)
    if not samples:
        return {"metrics": {}, "invocations": invocations, "spans": []}
    metrics = {k: median(s[k] for s in samples) for k in samples[0]}
    counts = dict.fromkeys(
        ("convolution.convolve_calls", "convolution.exp_calls", "algebra.gns_dimension", "io.bytes_in"), 0
    )
    metrics |= counts | tracer.counts | _sizes(rp.bialgebras) | memory_pass(rp, tol)
    spans = [
        {k: r[k] for k in ("name", "start", "duration", "shadow")}
        | {"self": r["duration"] - r["children"] - r["minus"]}
        for r in tracer.spans
    ]
    return {"metrics": metrics, "invocations": invocations, "spans": spans, "passes": len(samples)}

