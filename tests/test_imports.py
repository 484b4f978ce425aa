"""Each CLI command loads only the package modules it runs.

``python -X importtime`` logs every module a process imports, so each case
runs ``python -m cstarconv`` as a whole process and reads the ``cstarconv``
submodules it loaded from that log.
"""

import json
import subprocess
import sys

import pytest

FOUNDATIONS = {"algebra", "bialgebra", "errors", "groups", "maps"}


def _loaded(*args: str, cwd) -> set[str]:
    """The ``cstarconv`` submodules a Python process run with ``args`` imports."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, cwd=cwd
    )
    assert result.returncode == 0, result.stderr
    names = set()
    for line in result.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.startswith("cstarconv."):
                names.add(name.removeprefix("cstarconv."))
    return names


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return path.name


@pytest.fixture
def inputs(tmp_path):
    """File names, in ``tmp_path``, of a bialgebra, a generator and a group function on ``Z_4``."""
    table = [[(g + h) % 4 for h in range(4)] for g in range(4)]
    delta = [[[int(table[g][h] == k), 0] for k in range(4)] for g in range(4) for h in range(4)]
    counit = [[[[int(g == 0), 0]]] for g in range(4)]
    bialgebra = {"blocks": [1] * 4, "mode": "hom", "delta": delta, "epsilon": counit}
    gamma = {"dual_blocks": [[[[v, 0.0]]] for v in (-2.0, 1.0, 0.0, 1.0)]}
    psi = {"group": "zn:4", "values": [[0.0, 0.0]] + [[-1.0, 0.0]] * 3}
    return {
        "bialgebra": _write(tmp_path / "z4_functions.json", bialgebra),
        "gamma": _write(tmp_path / "gamma.json", gamma),
        "psi": _write(tmp_path / "psi.json", psi),
    }


COMMANDS = {
    "help": (["--help"], set()),
    "validate-builtin": (["validate", "zn:4"], {"sampling"}),
    "validate-file": (["validate", "{bialgebra}"], {"io", "sampling"}),
    "evolve": (["evolve", "zn:4", "{gamma}"], {"io", "convolution", "semigroup"}),
    "guichardet": (["guichardet", "zn:4", "{psi}"], {"io", "groupfun"}),
}


@pytest.mark.parametrize("argv, extra", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_loads_only_the_layers_it_runs(tmp_path, inputs, argv, extra):
    args = [arg.format(**inputs) for arg in argv]
    assert _loaded("-m", "cstarconv", *args, cwd=tmp_path) == FOUNDATIONS | {"cli"} | extra


def test_importing_the_package_loads_only_the_foundations(tmp_path):
    assert _loaded("-c", "import cstarconv", cwd=tmp_path) == FOUNDATIONS
