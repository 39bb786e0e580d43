"""Golden outputs for the CLI: ``verify`` on each bundled fixture and one small ``cnot-sweep --format json`` grid.

``scripts/output_digests.py`` shows that two commits print the same bytes on one numpy build; this test pins what
they print on any build. Keys, flags, integers, strings, exit codes and the JSON structure compare exactly, and
floats within a few ulps of the largest magnitude in their report (``verify``) or row (``cnot-sweep``), as
``test_scalar_golden.py`` compares its rows: bit-exact floats hold only on one numpy/LAPACK build. ``verify``'s
``wall_time_s`` is dropped. ``sample`` is left out: NEP 19 lets numpy change ``Generator.multinomial``'s values
between versions, so its counts are pinned exactly on one build only (``GOLDEN_SAMPLES`` in ``test_oracle.py``).

Regenerate (only when a change is meant to move these outputs) with
``PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_outputs.json``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import nogosim
from nogosim.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"
FIXTURES = Path(nogosim.__file__).parent / "fixtures"
#: ulps of slack on each float, counted at the largest magnitude of its report or row
ULPS = 8

COMMANDS = {
    **{
        f"verify/{name}": ["verify", "--config", str(FIXTURES / f"{name}.json")]
        for name in ("cnot_disturbance", "cnot_error", "generic_violation")
    },
    "cnot-sweep/json": ["cnot-sweep", "--format", "json", "--s-grid", "0:1:3"]
    + ["--theta-grid", "0,0.7", "--varphi-grid", "0.3,1.9"],
}


def run(argv: list[str]) -> dict:
    """The exit code and the parsed stdout of one in-process CLI run, ``verify``'s without its wall time."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    out = json.loads(buffer.getvalue())
    if argv[0] == "verify":
        del out["wall_time_s"]
    return {"exit": code, "stdout": out}


def floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, (dict, list)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            yield from floats(value)


def mismatches(actual, expected, slack: float, where: str = "") -> list[str]:
    """Paths at which actual differs from expected: a float by more than slack, anything else at all."""
    if type(actual) is not type(expected):
        return [where]
    if isinstance(expected, float):
        return [] if abs(actual - expected) <= slack else [where]
    if isinstance(expected, dict):
        if actual.keys() != expected.keys():
            return [where]
        return [path for key in expected for path in mismatches(actual[key], expected[key], slack, f"{where}.{key}")]
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return [where]
        pairs = enumerate(zip(actual, expected))
        return [path for i, (a, e) in pairs for path in mismatches(a, e, slack, f"{where}[{i}]")]
    return [] if actual == expected else [where]


def compare(name: str, got: dict, want: dict) -> list[str]:
    """``mismatches`` over a verify report, or row by row over a sweep, each unit at its own slack."""
    if got["exit"] != want["exit"] or type(got["stdout"]) is not type(want["stdout"]):
        return ["exit or stdout type"]
    if name.startswith("verify/"):
        units = [(got["stdout"], want["stdout"], "")]
    elif len(got["stdout"]) != len(want["stdout"]):
        return ["row count"]
    else:
        units = [(row, want_row, f"[{i}]") for i, (row, want_row) in enumerate(zip(got["stdout"], want["stdout"]))]
    return [
        path
        for actual, expected, where in units
        for path in mismatches(actual, expected, ULPS * math.ulp(max(map(abs, floats(expected)), default=0.0)), where)
    ]


def test_the_golden_file_holds_every_command():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_the_cli_output_matches_its_golden_copy(name):
    want = json.loads(GOLDEN.read_text())[name]
    assert compare(name, run(COMMANDS[name]), want) == []


def test_the_comparison_sees_a_changed_flag_a_moved_float_and_a_lost_key():
    want = json.loads(GOLDEN.read_text())["verify/cnot_error"]
    report = want["stdout"]
    scale = max(map(abs, floats(report)))
    slack = ULPS * math.ulp(scale)
    moved = json.loads(json.dumps(want))
    moved["stdout"]["error_disturbance"]["epsilon_sq"] += 2 * slack
    assert compare("verify/cnot_error", moved, want) == [".error_disturbance.epsilon_sq"]
    within = json.loads(json.dumps(want))
    within["stdout"]["error_disturbance"]["epsilon_sq"] += slack / 2
    assert compare("verify/cnot_error", within, want) == []
    flipped = json.loads(json.dumps(want))
    flipped["stdout"]["verdict"]["hypothesis_holds"] = not report["verdict"]["hypothesis_holds"]
    assert compare("verify/cnot_error", flipped, want) == [".verdict.hypothesis_holds"]
    lost = json.loads(json.dumps(want))
    del lost["stdout"]["verdict"]["closed_form"]
    assert compare("verify/cnot_error", lost, want) == [".verdict"]


if __name__ == "__main__":
    json.dump({name: run(argv) for name, argv in COMMANDS.items()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
