"""Fuzz the CLI contract: every input ends in exit 0, 1 or 2, never an exception.

The commands run in-process through ``cli.main`` on extreme or malformed
``--times``, ``--tol``, ``--grid-max``, group names, generator files and
group-function files.  Group orders are kept at most 8 so that each example
stays small; one subprocess run checks that the interpreter prints no
traceback.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cstarconv as cc
from cstarconv import cli

# overflowing exponentials are part of the input space; they warn and fail checks
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

MAX_ORDER = 8

NUMBER_TEXT = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "-0", "0", "1", "800", "1e308", "-1e308", "5e-324",
         "1e-320", "abc", "", " ", "0x10", "1_0", "--1", "1e-9"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
TIMES_TEXT = st.one_of(
    NUMBER_TEXT, st.lists(NUMBER_TEXT, min_size=1, max_size=3).map(",".join)
)
EXTREME_VALUE = st.one_of(
    st.sampled_from([0, 1, -1, 1e308, -1e308, 5e-324, 1e-300, 1e154]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _small_or_malformed(name: str) -> bool:
    """Reject well-formed ``zn:`` names of an order above ``MAX_ORDER``."""
    key = name.strip().lower().removeprefix("dual:")
    if not key.startswith("zn:"):
        return True
    try:
        return int(key[3:]) <= MAX_ORDER
    except ValueError:
        return True


ZN_NAME = st.one_of(
    st.sampled_from(
        ["zn:", "zn:0", "zn:-2", "zn:1.5", "zn:abc", "zn: 2", "ZN:3", "zn:٣",
         "zn:1e1", "dual:zn:2", "dual:", "dual:dual:zn:2", "s3", "q9", "zn:2:3"]
    ),
    st.integers(1, MAX_ORDER).map(lambda n: f"zn:{n}"),
    st.integers(1, MAX_ORDER).map(lambda n: f"dual:zn:{n}"),
    st.text(max_size=6).map(lambda t: "zn:" + t).filter(_small_or_malformed),
)


def _order(name: str) -> int | None:
    key = name.strip().lower().removeprefix("dual:")
    try:
        return int(key[3:]) if key.startswith("zn:") else None
    except ValueError:
        return None


@st.composite
def evolve_input(draw):
    """A bialgebra name and a generator file for it.

    The file has one block per element of the named cyclic group most of
    the time, with extreme values or a valid generator ``rate * (jump -
    delta_e)`` of extreme rate; otherwise it has the wrong block count, a
    non-finite token or no JSON at all.
    """
    name = draw(ZN_NAME)
    kind = draw(st.sampled_from(["generator", "blocks", "blocks", "tokens", "text"]))
    if kind == "text":
        return name, draw(st.text(max_size=40))
    order = _order(name)
    count = draw(st.integers(0, 3))
    if order is not None and order > 0 and count:
        count = order
    if kind == "generator" and count:
        rate = draw(EXTREME_VALUE.map(abs))
        jump = draw(st.lists(st.floats(0, 1), min_size=count, max_size=count))
        values = [rate * w for w in jump]
        values[0] = -sum(values[1:])
        blocks = [[[[v, 0.0]]] for v in values]
    else:
        size = draw(st.sampled_from([1, 1, 1, 2]))
        blocks = [
            [[[draw(EXTREME_VALUE), draw(EXTREME_VALUE)] for _ in range(size)]
             for _ in range(size)]
            for _ in range(count)
        ]
    text = json.dumps({"dual_blocks": blocks})
    if kind == "tokens":
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "true"]))
        text = text.replace("0.0", token, 1)
    return name, text


GROUP_NAME = st.one_of(
    st.sampled_from(["s3", "d4", "q8", " S3"]),
    st.integers(1, MAX_ORDER).map(lambda n: f"zn:{n}"),
    st.sampled_from(["s4", "dual:s3", "zn:abc", "zn:0"]),
)


@st.composite
def guichardet_input(draw):
    """A group name and a group-function file for it.

    Most files have one value per element of the named group: a
    conditionally positive-definite ``rate * (delta_e - 1)`` of extreme
    rate, perturbed at one element half of the time, or extreme values.
    Otherwise they have the wrong count, a non-finite or boolean token, a
    group reference of the wrong type or name, or no JSON at all.
    """
    name = draw(GROUP_NAME)
    kind = draw(st.sampled_from(["kernel", "kernel", "kernel", "values", "tokens", "text"]))
    if kind == "text":
        return name, draw(st.text(max_size=40))
    try:
        group, _ = cc.builtin_group(name)
        order, identity = group.order, group.identity
    except cc.ConstructionError:
        order, identity = draw(st.integers(0, 3)), 0
    if kind == "values" or not order:
        count = order if draw(st.booleans()) else draw(st.integers(0, 3))
        values = [[draw(EXTREME_VALUE), draw(EXTREME_VALUE)] for _ in range(count)]
    else:
        rate = draw(EXTREME_VALUE.map(abs))
        values = [[0.0 if g == identity else -rate, 0.0] for g in range(order)]
        if draw(st.booleans()):
            values[draw(st.integers(0, order - 1))][draw(st.integers(0, 1))] += draw(EXTREME_VALUE)
    doc = {"values": values}
    ref = draw(st.sampled_from([None, None, None, name, "s3", 5]))
    if ref is not None:
        doc["group"] = ref
    text = json.dumps(doc)
    if kind == "tokens":
        token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1" + "0" * 400, "true"]))
        text = text.replace("0.0", token, 1)
    return name, text


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed arguments with exit 2
            code = exc.code
    return code, out.getvalue()


def assert_contract(code, stdout):
    assert code in (0, 1, 2)
    if code == 2:
        assert stdout == ""
    else:
        assert json.loads(stdout)["pass"] is (code == 0)


FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(
    case=evolve_input(),
    times=st.one_of(TIMES_TEXT, st.just("0,0.5,800,1e308")),
    tol=st.one_of(NUMBER_TEXT, st.just("1e-9")),
    grid_max=st.one_of(NUMBER_TEXT, st.just("8")),
)
def test_evolve_contract(case, times, tol, grid_max):
    name, gamma = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gamma.json"
        path.write_text(gamma)
        argv = [f"--tol={tol}", "evolve", name, str(path), f"--times={times}",
                f"--grid-max={grid_max}"]
        assert_contract(*run_main(argv))


@FUZZ
@given(names=st.lists(ZN_NAME, min_size=1, max_size=2), tol=NUMBER_TEXT)
def test_validate_contract(names, tol):
    assert_contract(*run_main([f"--tol={tol}", "validate", *names]))


@FUZZ
@given(case=guichardet_input(), tol=st.one_of(st.just("1e-9"), NUMBER_TEXT))
def test_guichardet_contract(case, tol):
    name, psi = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "psi.json"
        path.write_text(psi)
        assert_contract(*run_main([f"--tol={tol}", "guichardet", name, str(path)]))


def test_extreme_evolve_prints_no_traceback(tmp_path):
    """One interpreter run on overflowing input: exit 1 and a clean stderr."""
    gamma_path = tmp_path / "gamma.json"
    gamma_path.write_text(
        json.dumps({"dual_blocks": [[[[1e308, 0.0]]], [[[-1e308, 1e308]]], [[[5e-324, 0.0]]]]})
    )
    result = subprocess.run(
        [sys.executable, "-m", "cstarconv", "evolve", "zn:3", str(gamma_path),
         "--times", "0,1e-300,1,1e308", "--grid-max", "1e308"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout)["pass"] is False
