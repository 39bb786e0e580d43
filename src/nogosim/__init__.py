"""Postselected measurement statistics for joint system-device observables.

Core layers:

- ``linalg``: tensor products, LAPACK eigendecomposition with canonical
  bases for degenerate eigenspaces (plus the oracle's independent Jacobi
  solver), spectral matrix exponential.
- ``measurement``: outcome probabilities, Lueders updates, ABL conditionals,
  conditional expectations, weak values.
- ``nogo``: rank-m degeneracy analysis, the postselection-invariance verdict
  with its closed form, seeded random audits.

Layers loaded on first use of one of their names:

- ``error_disturbance``: Heisenberg-picture noise/disturbance operators and
  the controlled-NOT measurement family.
- ``oracle``: independent brute-force enumeration, on its own eigensolver,
  and Monte Carlo sampling.

``import nogosim`` loads numpy and the three core layers only. The names of
the other two resolve through the module ``__getattr__`` below, which
imports the layer and binds the name in this namespace; ``__all__`` and
``dir()`` list them all. ``config`` (JSON scenarios and reports) and ``cli``
(the ``nogosim`` command line front end) are imported by name.
"""

from importlib import import_module as _import_module

from .errors import (
    ConfigError,
    DimensionMismatch,
    MissingPostselection,
    NoConvergence,
    NogoSimError,
    NonDecomposable,
    NonHermitian,
    OrthogonalPostselection,
    ZeroProbability,
)
from .linalg import (
    TOL_DEG,
    TOL_HERMITIAN,
    TOL_NORM,
    TOL_POSTSELECT,
    TOL_VERIFY,
    SpectralDecomposition,
    is_unitary,
    matrix_exponential_skew,
    outer,
    spectral_decompose,
    tensor_ket,
    tensor_product,
)
from .measurement import (
    JointObservable,
    MeasurementScenario,
    PostselectionProjector,
    ProductSpectralData,
    conditional_expectation,
    expectation,
    luders_update,
    product_spectral,
    weak_value,
)
from .nogo import (
    AuditSummary,
    BasisTransform,
    DegeneracyReport,
    TheoremVerdict,
    basis_transform,
    check_basis_requirement,
    check_rank_m_degeneracy,
    random_audit,
    random_hermitian,
    random_ket,
    random_scenario,
    term_basis_transform,
    verify_nogo,
)

#: Names that load their module on first access (PEP 562), so ``import nogosim``
#: costs numpy plus the core above: the submodule, and each name it exports here.
_LAZY = {
    **dict.fromkeys(
        (
            "error_disturbance",
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
        "error_disturbance",
    ),
    **dict.fromkeys(("oracle", "EnumerationResult", "SamplingResult", "enumerate_two_step", "sample_two_step"), "oracle"),
}

__version__ = "0.1.0"

# the names bound above, the four core submodules and the lazy names: what ``import *`` gave when all loaded eagerly
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name: str):
    """Import a lazy name's module and bind the name here, so later lookups are plain dict hits."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
