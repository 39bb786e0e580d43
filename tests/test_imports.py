"""Which modules each entry point loads, and the package's public surface.

``import nogosim`` loads the no-go core; ``error_disturbance`` and ``oracle``
load on first use of one of their names, and each CLI subcommand imports only
the layers it runs. The import sets are read in fresh interpreters, since
the test process itself has loaded every layer already.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nogosim

SRC = Path(nogosim.__file__).resolve().parents[1]
FIXTURES = SRC / "nogosim" / "fixtures"
CORE = {"nogosim", "nogosim.errors", "nogosim.linalg", "nogosim.measurement", "nogosim.nogo"}

#: Every name ``nogosim`` exports, by defining module.
EXPORTS = {
    "errors": (
        "ConfigError",
        "DimensionMismatch",
        "MissingPostselection",
        "NoConvergence",
        "NogoSimError",
        "NonDecomposable",
        "NonHermitian",
        "OrthogonalPostselection",
        "ZeroProbability",
    ),
    "linalg": (
        "TOL_DEG",
        "TOL_HERMITIAN",
        "TOL_NORM",
        "TOL_POSTSELECT",
        "TOL_VERIFY",
        "SpectralDecomposition",
        "is_unitary",
        "matrix_exponential_skew",
        "outer",
        "spectral_decompose",
        "tensor_ket",
        "tensor_product",
    ),
    "measurement": (
        "JointObservable",
        "MeasurementScenario",
        "PostselectionProjector",
        "ProductSpectralData",
        "conditional_expectation",
        "expectation",
        "luders_update",
        "product_spectral",
        "weak_value",
    ),
    "nogo": (
        "AuditSummary",
        "BasisTransform",
        "DegeneracyReport",
        "TheoremVerdict",
        "basis_transform",
        "check_basis_requirement",
        "check_rank_m_degeneracy",
        "random_audit",
        "random_hermitian",
        "random_ket",
        "random_scenario",
        "term_basis_transform",
        "verify_nogo",
    ),
    "error_disturbance": (
        "CNOT",
        "PAULI_X",
        "PAULI_Y",
        "PAULI_Z",
        "CnotScenario",
        "ErrorDisturbanceReport",
        "InteractionModel",
        "MeasurementSetup",
        "cnot_report",
        "cnot_scenario",
        "cnot_sweep",
        "disturbance_operator",
        "first_order_expansion",
        "heisenberg_evolve",
        "joint_observable_from_operator",
        "mean_square_disturbance",
        "mean_square_error",
        "noise_operator",
        "postselected_error_disturbance",
    ),
    "oracle": ("EnumerationResult", "SamplingResult", "enumerate_two_step", "sample_two_step"),
}
PUBLIC = {name for names in EXPORTS.values() for name in names} | set(EXPORTS)

RUN_CLI = """
import sys
from nogosim.cli import main
code = main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("nogosim")), file=sys.stderr)
"""


def _child(source: str, *argv: str) -> list[str]:
    """stderr of a fresh interpreter running source on src/, split into words."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", source, *argv],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stderr.split()


@pytest.mark.parametrize(
    "argv,layers",
    [
        (["random-audit", "--count", "5", "--mode", "generic"], set()),
        (["cnot-sweep", "--s-grid", "0.5", "--theta-grid", "0.3", "--varphi-grid", "0.7"], {"error_disturbance"}),
        (["verify", "--config", str(FIXTURES / "generic_violation.json")], {"config"}),
        (["verify", "--config", str(FIXTURES / "cnot_error.json")], {"config", "error_disturbance"}),
        (["sample", "--config", str(FIXTURES / "generic_violation.json"), "--shots", "1000"], {"config", "oracle"}),
    ],
    ids=["random-audit", "cnot-sweep", "verify-generic", "verify-cnot", "sample"],
)
def test_subcommand_loads_only_what_it_runs(argv, layers):
    code, *modules = _child(RUN_CLI, *argv)
    assert code == "0"
    assert set(modules) == CORE | {"nogosim.cli"} | {f"nogosim.{layer}" for layer in layers}


def test_import_loads_the_core_and_first_use_binds_a_lazy_name():
    source = """
import sys
import nogosim
def loaded():
    return ",".join(sorted(name for name in sys.modules if name.startswith("nogosim")))
print(loaded(), "cnot_report" in vars(nogosim), file=sys.stderr)
report = nogosim.cnot_report
print(loaded(), vars(nogosim)["cnot_report"] is report, file=sys.stderr)
"""
    before, unbound, after, bound = _child(source)
    assert set(before.split(",")) == CORE
    assert unbound == "False"
    assert set(after.split(",")) == CORE | {"nogosim.error_disturbance"}
    assert bound == "True"


def test_every_exported_name_resolves_to_its_defining_module():
    assert set(nogosim.__all__) == PUBLIC
    assert PUBLIC <= set(dir(nogosim))
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"nogosim.{home}")
        assert getattr(nogosim, home) is module
        for name in names:
            assert getattr(nogosim, name) is getattr(module, name), f"{home}.{name}"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from nogosim import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_unknown_names_raise_attribute_error():
    assert not hasattr(nogosim, "no_such_name")
    with pytest.raises(AttributeError, match="module 'nogosim' has no attribute 'no_such_name'"):
        nogosim.no_such_name
