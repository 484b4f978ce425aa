"""Print every end-to-end and per-layer metric, by name and unit, with the verdict.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``run.py`` with ``--trace 0`` and ``--trace 1`` on each workload (all
three by default), echoes each run's table, and ends with one line per
workload and an overall verdict.  Exits 1 if any output was incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args(argv)

    verdicts = []
    for name in args.workload:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(proc.stderr, file=sys.stderr)
                result = {"correct": False, "attempted": 0, "failed": 0}
            verdicts.append((name, trace, result))
    print()
    for name, trace, r in verdicts:
        status = "correct" if r["correct"] else "INCORRECT"
        print(f"{name} trace {trace}: {status}, {r['failed']} of {r['attempted']} invocations failed")
    ok = all(r["correct"] for _, _, r in verdicts)
    print(f"verdict: {'all outputs correct' if ok else 'some outputs incorrect'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
