"""Every nogosim name the benchmark traces or calls still exists.

``perfbench/run.py --trace 1`` patches the functions listed in the tracer's
``TRACED`` and the workloads call the library through ``import nogosim as
ng``; deleting or renaming one of those names would break the benchmark
without failing any library test. Both files are only read here.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache files beside the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, dotted):
    obj = importlib.import_module(module_name)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve(tracer):
    assert tracer.TRACED
    for module_name, qualname, _ in tracer.TRACED:
        assert callable(_resolve(f"nogosim.{module_name}", qualname)), f"{module_name}.{qualname}"


def test_workload_names_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {}  # local name -> nogosim module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name.startswith("nogosim")})
        elif isinstance(node, ast.ImportFrom) and node.module == "nogosim":
            aliases.update({a.asname or a.name: f"nogosim.{a.name}" for a in node.names})
    assert aliases.get("ng") == "nogosim"
    used = {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }
    assert ("nogosim", "verify_nogo") in used
    missing = [f"{module}.{name}" for module, name in sorted(used) if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads_under_test", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files beside the benchmark
    sys.modules[spec.name] = module  # its dataclasses look their module up while they are built
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["cnot_sweep", "random_audit", "fixture_oracle"])
def test_workload_output_contract(workloads, name, capsys):
    """The benchmark's checks pass on what the library and the CLI print today.

    The first 2 items must pass ``check`` and repeat their ``digest``; the
    workload's CLI runs, made in process, must give ``check_cli`` no problem.
    A renamed field or a changed output line fails here, not only in a
    benchmark run.
    """
    from nogosim.cli import main

    workload = workloads[name]
    items = workload.items(3)
    references = {}
    for index, item in enumerate(items[:2]):
        output = workload.prepare(item)()
        assert workload.check(item, output) is None
        references[index] = workload.digest(output)
        assert workload.digest(workload.prepare(item)()) == references[index]
    runs = []
    capsys.readouterr()
    for argv in workload.cli_commands(3, items):
        code = main(argv)
        runs.append((code, capsys.readouterr().out))
    attempted, problems = workload.check_cli(items, runs, references)
    assert attempted > 0
    assert problems == []
