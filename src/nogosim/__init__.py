"""Postselected measurement statistics for joint system-device observables.

Core layers:

- ``linalg``: tensor products, LAPACK eigendecomposition with canonical
  bases for degenerate eigenspaces (plus the oracle's independent Jacobi
  solver), spectral matrix exponential.
- ``measurement``: outcome probabilities, Lueders updates, ABL conditionals,
  conditional expectations, weak values.
- ``nogo``: rank-m degeneracy analysis, the postselection-invariance verdict
  with its closed form, seeded random audits.
- ``error_disturbance``: Heisenberg-picture noise/disturbance operators and
  the controlled-NOT measurement family.
- ``oracle``: independent brute-force enumeration, on its own eigensolver,
  and Monte Carlo sampling.
- ``cli``: the ``nogosim`` command line front end.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    MissingPostselection,
    NoConvergence,
    NogoSimError,
    NonDecomposable,
    NonHermitian,
    NotRankMDegenerate,
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
from .error_disturbance import (
    CNOT,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    CnotScenario,
    ErrorDisturbanceReport,
    InteractionModel,
    MeasurementSetup,
    cnot_report,
    cnot_scenario,
    cnot_sweep,
    disturbance_operator,
    first_order_expansion,
    heisenberg_evolve,
    joint_observable_from_operator,
    mean_square_disturbance,
    mean_square_error,
    noise_operator,
    postselected_error_disturbance,
)
from .oracle import EnumerationResult, SamplingResult, enumerate_two_step, sample_two_step

__version__ = "0.1.0"
