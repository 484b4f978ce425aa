"""Benchmark of the cstarconv CLI: whole processes end to end, layers in a traced replay.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zn-validate --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's commands as fresh ``python -m cstarconv``
processes in a closed loop with one client (the next process starts when the
previous one has exited), pass after pass until ``--seconds`` have elapsed,
and reports the end-to-end metrics.  ``--trace 1`` replays the same commands
in-process with spans around the calls into each module and reports the
per-layer metrics (see ``replay.py``).  Every output is checked against an
oracle (see ``oracles.py``).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (tracing off), medians over the run:

* ``batch_s``: wall seconds for one pass over the workload's command list;
* ``peak_rss_mb``: largest peak RSS of any child process in a pass;
* ``setup_s``: wall seconds for a fresh interpreter to ``import cstarconv.cli``,
  one sample before each pass and three at the start.

Timings are scaled by ``REFERENCE_NOMINAL_S / median(reference)``, where the
reference is a ``python -c "import numpy, scipy.linalg"`` process timed
before each pass: this removes most of the drift in the shared machine's
speed, and no change to cstarconv can move it.

The per-command times ``validate_s``, ``evolve_s``, ``guichardet_s`` (on the
workloads that run the command), the raw medians and sample counts of every
timing, and ``failed_frac`` are printed above the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # at most nproc; one thread keeps single-client timings steady
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_WARM = 3  # imports timed before the first pass; one more precedes each pass
SETUP_CODE = "import cstarconv.cli"
# Reference process, independent of cstarconv, timed before each pass.  Timings
# are scaled to a machine on which it takes REFERENCE_NOMINAL_S, about its
# time on an idle 2-core x86-64 VM with Python 3.11, numpy 2.4, scipy 1.17.
REFERENCE_CODE = "import numpy, scipy.linalg"
REFERENCE_NOMINAL_S = 0.25
CHILD_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"batch_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def spawn(argv: list[str], cwd: Path, env: dict):
    """Run one child to completion; returns (Invocation, wall seconds, peak RSS in MB)."""
    from oracles import Invocation

    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(proc.returncode, out_path.read_text(), err_path.read_text())
    return inv, wall, usage.ru_maxrss / 1024.0


def time_python(code: str, env: dict, workdir: Path) -> float:
    inv, wall, _ = spawn([sys.executable, "-c", code], workdir, env)
    if inv.exit_code != 0:
        raise RuntimeError(f"python -c {code!r} failed:\n{inv.stderr}")
    return wall


def measure_processes(workload, seconds: float, env: dict):
    """Closed loop, one client: passes over the command list until ``seconds`` elapse.

    Before each pass (and three times at the start) one set-up process and
    one reference process run, so both sample the same machine conditions
    as the passes.
    """
    from oracles import gate, self_test

    time_python(SETUP_CODE, env, workload.workdir)  # compiles bytecode on a fresh checkout
    setup, reference, passes = [], [], []
    prefix = [sys.executable, "-m", "cstarconv"]
    for _ in range(SETUP_WARM):
        setup.append(time_python(SETUP_CODE, env, workload.workdir))
        reference.append(time_python(REFERENCE_CODE, env, workload.workdir))
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setup.append(time_python(SETUP_CODE, env, workload.workdir))
        reference.append(time_python(REFERENCE_CODE, env, workload.workdir))
        passes.append([spawn(prefix + c.argv, workload.workdir, env) for c in workload.commands])

    failures = []
    tested: dict[int, int] = {}
    for runs in passes:
        for i, (command, (inv, _, _)) in enumerate(zip(workload.commands, runs)):
            problems = gate(inv, command)
            if problems:
                failures.append((command.kind, problems))
            elif i not in tested:
                tested[i] = self_test(inv, command)
    return setup, reference, passes, failures, sum(tested.values())


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, metrics: dict, units: dict, notes: dict | None = None) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:<38} {_fmt(value):>14} {units[name]}{note}")


def environment(workload, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": workload.name,
        "seed": seed,
        "sizes": workload.sizes,
        "inputs_sha256": workload.digests,
    }


def run_end_to_end(workload, seconds: float) -> dict:
    setup, reference, passes, failures, rejected = measure_processes(
        workload, seconds, child_env()
    )
    attempted = sum(len(p) for p in passes)
    samples = {
        "batch_s": [sum(wall for _, wall, _ in runs) for runs in passes],
        "peak_rss_mb": [max(rss for _, _, rss in runs) for runs in passes],
        "setup_s": setup,
        "reference_s": reference,
    }
    for i, command in enumerate(workload.commands):
        samples[f"{command.kind}_s"] = [runs[i][1] for runs in passes]
    # The machine is shared: other tenants' load changes its speed by up to
    # half for minutes at a time.  Timings are therefore medians scaled by a
    # reference process timed alongside them; raw medians are printed too.
    scale = REFERENCE_NOMINAL_S / median(reference)
    shown, notes = {}, {}
    for name, v in samples.items():
        if name in ("peak_rss_mb", "reference_s"):
            shown[name], notes[name] = median(v), f"median of {len(v)}"
        else:
            shown[name] = median(v) * scale
            notes[name] = f"median of {len(v)} x {scale:.4g}; raw median {median(v):.6g} s"
    shown["failed_frac"] = len(failures) / attempted
    notes["failed_frac"] = "failed / attempted"
    print_table(
        f"{workload.name} seed {workload.seed}: {len(passes)} passes, {attempted} invocations, "
        f"{len(failures)} failed; gate self-test rejected {rejected} perturbed runs",
        shown,
        dict.fromkeys(samples, "s") | END_TO_END_UNITS | {"failed_frac": "ratio"},
        notes,
    )
    metrics = {name: shown[name] for name in END_TO_END_UNITS}
    for kind, problems in failures[:5]:
        print(f"  FAILED {kind}: {'; '.join(problems)}")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": _typed(metrics, END_TO_END_UNITS),
        "samples": samples,
    }


def run_per_layer(workload, seconds: float) -> dict:
    from oracles import gate
    from replay import COVERAGE_FLOOR, UNITS, run_traced

    traced = run_traced(workload, seconds)
    attempted = failed = 0
    for outputs in traced["invocations"]:
        for command, inv in zip(workload.commands, outputs):
            attempted += 1
            problems = gate(inv, command)
            if problems:
                failed += 1
                print(f"  FAILED {command.kind}: {'; '.join(problems)}")
    metrics = {name: traced["metrics"].get(name, 0.0) for name in UNITS}
    coverage = metrics["trace.coverage"]
    flag = "ok" if coverage >= COVERAGE_FLOOR else f"BELOW {COVERAGE_FLOOR}: replay drifted from cli.py"
    print_table(
        f"{workload.name} seed {workload.seed} traced: {traced.get('passes', 0)} passes, "
        f"{attempted} invocations, {failed} failed",
        metrics,
        UNITS,
        {"trace.coverage": flag},
    )
    (workload.workdir / "spans.json").write_text(json.dumps(traced["spans"]))
    return {"attempted": attempted, "failed": failed, "metrics": _typed(metrics, UNITS)}


def _typed(metrics: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cstarconv" / "__init__.py").is_file():
        print(f"error: no cstarconv sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported in this process
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import cstarconv
    import workloads

    if Path(cstarconv.__file__).resolve().parent != SRC / "cstarconv":
        print(f"error: imported cstarconv from {cstarconv.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, workdir)
    env_record = environment(workload, args.seed)
    print("env " + json.dumps(env_record))
    result = (run_per_layer if args.trace else run_end_to_end)(workload, args.seconds)
    samples = result.pop("samples", None)
    record = {"correct": result["failed"] == 0, **result}
    (workdir / "result.json").write_text(
        json.dumps({"env": env_record, **record, "samples": samples})
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
