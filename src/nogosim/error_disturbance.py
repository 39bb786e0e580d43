"""Heisenberg-picture noise and disturbance analysis.

The measured observable on the system is compared against a device readout
after an interaction, which is its joint unitary U alone (given, or
exponentiated once from H_system (x) H_device when the model is built): the
noise operator is the evolved readout minus the initial system observable,
the disturbance operator is the evolved minus initial disturbed observable,
and their squared expectations are the mean square error and disturbance.
Squared operators are re-expressed as joint product-term observables, by
their operator-Schmidt decomposition (the fewest Hermitian product terms), so
the postselected (ABL) machinery and the no-go checks apply to them directly.
A report is prepared in one record, ``_Prepared``, from the model, setup,
psi and tol_deg; xi and phi then take one kernel pass. The controlled-NOT
example with a tunable device state covers the full analytic family used by
the test suite; its operators and psi do not vary by point, so it keeps one
record per tol_deg.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, MissingPostselection, NonDecomposable
from .linalg import (
    TOL_DEG,
    TOL_POSTSELECT,
    TOL_UNITARY,
    TOL_VERIFY,
    as_operator,
    hermitian_part,
    is_unitary,
    matrix_exponential_skew,
    readonly,
    require_finite,
    require_hermitian,
    tensor_ket,
    tensor_product,
)
from .measurement import (
    JointObservable, MeasurementScenario, ProductSpectralData, _means, _quadratic_form, _state_of_dim, _system_side,
    _SystemSide, product_spectral,
)
from .nogo import TheoremVerdict, _row_verdict, _within

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

DEFAULT_STRENGTH_GRID = tuple(round(0.05 * k, 2) for k in range(21))
DEFAULT_THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
DEFAULT_VARPHI_GRID = (0.0, math.pi / 3, math.pi)


@dataclass(frozen=True, eq=False)
class InteractionModel:
    """Joint unitary of system and device, checked unitary and stored read-only."""

    unitary: np.ndarray

    def __post_init__(self):
        u = as_operator(self.unitary, "unitary")
        if not is_unitary(u):
            raise ValueError(f"interaction matrix is not unitary within {TOL_UNITARY:g}")
        object.__setattr__(self, "unitary", readonly(u))

    @classmethod
    def from_unitary(cls, u) -> "InteractionModel":
        return cls(unitary=u)

    @classmethod
    def from_hamiltonians(cls, h_system, h_device, t: float) -> "InteractionModel":
        """U = exp(-i t H_system (x) H_device), computed once; a NaN or Inf t or overflowing phases raise ValueError."""
        return cls(unitary=matrix_exponential_skew(_generator(h_system, h_device), t))


@dataclass(frozen=True, eq=False)
class MeasurementSetup:
    """System observable to measure, one to protect, and the device readout."""

    measured: np.ndarray
    disturbed: np.ndarray
    readout: np.ndarray

    def __post_init__(self):
        measured = require_hermitian(self.measured, name="measured")
        disturbed = require_hermitian(self.disturbed, name="disturbed")
        readout = require_hermitian(self.readout, name="readout")
        if measured.shape != disturbed.shape:
            raise DimensionMismatch("measured and disturbed observables must share the system dimension")
        object.__setattr__(self, "measured", readonly(measured))
        object.__setattr__(self, "disturbed", readonly(disturbed))
        object.__setattr__(self, "readout", readonly(readout))

    @property
    def n(self) -> int:
        return self.measured.shape[0]

    @property
    def m(self) -> int:
        return self.readout.shape[0]


def heisenberg_evolve(u, o0) -> np.ndarray:
    """U^dag O U; an O with NaN or Inf entries raises ValueError."""
    u = as_operator(u, "unitary")
    o0 = require_finite(as_operator(o0, "observable"), "observable")
    if u.shape != o0.shape:
        raise DimensionMismatch(f"unitary {u.shape} does not match observable {o0.shape}")
    if not is_unitary(u):
        raise ValueError(f"evolution matrix is not unitary within {TOL_UNITARY:g}")
    return _evolve(u, o0)


def _evolve(u: np.ndarray, o0: np.ndarray) -> np.ndarray:
    """U^dag O U, unchecked: for a model's U, checked unitary when the model was built, and a setup's checked O."""
    return u.conj().T @ o0 @ u


def _generator(h_system, h_device) -> np.ndarray:
    """H_system (x) H_device, each factor checked Hermitian."""
    return tensor_product(require_hermitian(h_system, name="h_system"), require_hermitian(h_device, name="h_device"))


def first_order_expansion(h_system, h_device, t: float, o0) -> np.ndarray:
    """O + i t [H_system (x) H_device, O], off exact evolution by O(t^2); NaN or Inf in O or t raises ValueError."""
    h = _generator(h_system, h_device)
    o0 = require_finite(as_operator(o0, "observable"), "observable")
    t = require_finite(float(t), "t")
    if h.shape != o0.shape:
        raise DimensionMismatch(f"joint generator {h.shape} does not match observable {o0.shape}")
    return o0 + 1j * t * (h @ o0 - o0 @ h)


def _joint_dims(model: InteractionModel, setup: MeasurementSetup) -> tuple[np.ndarray, int, int]:
    u = model.unitary
    n, m = setup.n, setup.m
    if u.shape != (n * m, n * m):
        raise DimensionMismatch(f"unitary is {u.shape}, setup expects {(n * m, n * m)}")
    return u, n, m


def noise_operator(model: InteractionModel, setup: MeasurementSetup) -> np.ndarray:
    """Evolved readout minus initial measured observable on the joint space."""
    u, n, m = _joint_dims(model, setup)
    readout_t = _evolve(u, tensor_product(np.eye(n), setup.readout))
    return hermitian_part(readout_t - tensor_product(setup.measured, np.eye(m)))


def disturbance_operator(model: InteractionModel, setup: MeasurementSetup) -> np.ndarray:
    """Evolved minus initial disturbed observable on the joint space."""
    u, n, m = _joint_dims(model, setup)
    before = tensor_product(setup.disturbed, np.eye(m))
    return hermitian_part(_evolve(u, before) - before)


def _joint_state(setup: MeasurementSetup, psi, xi) -> np.ndarray:
    """psi (x) xi, with psi checked against the setup's n and xi against its m, so it fits the n*m operators."""
    return tensor_ket(_state_of_dim(psi, setup.n, "psi"), _state_of_dim(xi, setup.m, "xi"))


def mean_square_error(model: InteractionModel, setup: MeasurementSetup, psi, xi) -> float:
    noise = noise_operator(model, setup)
    return float(_quadratic_form(hermitian_part(noise @ noise), _joint_state(setup, psi, xi)))


def mean_square_disturbance(model: InteractionModel, setup: MeasurementSetup, psi, xi) -> float:
    disturb = disturbance_operator(model, setup)
    return float(_quadratic_form(hermitian_part(disturb @ disturb), _joint_state(setup, psi, xi)))


@functools.cache
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal Hermitian basis under the trace inner product, as a read-only (dim², dim, dim) stack."""
    basis = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    for k in range(1, dim):
        for j in range(k):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            skew = np.zeros((dim, dim), dtype=complex)
            skew[j, k] = -1.0j / np.sqrt(2.0)
            skew[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(skew)
    for level in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        diag[np.arange(level), np.arange(level)] = 1.0
        diag[level, level] = -float(level)
        basis.append(diag / np.sqrt(level * (level + 1)))
    return readonly(np.array(basis))


SCHMIDT_DROP = 1e-12  # a singular value at or below SCHMIDT_DROP * max(1, max|op_ij|) gives no term
RECONSTRUCTION_TOL = 1e-10  # the terms must sum back to op within RECONSTRUCTION_TOL * max(1, max|op_ij|)


def joint_observable_from_operator(op, n: int, m: int) -> JointObservable:
    """Write a Hermitian joint operator as its operator-Schmidt decomposition (Nielsen et al., PRA 67, 052301, 2003).

    Over orthonormal Hermitian bases G_a, H_b of the factors, op = Σ c_ab G_a ⊗ H_b with
    c_ab = tr[(G_a ⊗ H_b) op]. Each singular value σ_r of c = U Σ Vᵀ above ``SCHMIDT_DROP``
    gives the term √σ_r Σ_a U_ar G_a ⊗ √σ_r Σ_b V_br H_b: Hermitian factors, the fewest
    terms, in descending σ, so fixed by the operator up to ties and the sign of each pair.
    An all-zero operator gives one zero term. Raises NonDecomposable if the terms miss the
    operator by more than ``RECONSTRUCTION_TOL``.
    """
    op = require_hermitian(op, name="joint operator")
    if op.shape != (n * m, n * m):
        raise DimensionMismatch(f"operator is {op.shape}, expected {(n * m, n * m)}")
    scale = max(1.0, float(np.max(np.abs(op))))
    # row (i, k), column (j, l) holds op[(i, j), (k, l)], so a product term S ⊗ D realigns to vec(S) vec(D)ᵀ
    realigned = op.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
    g, h = hermitian_basis(n).reshape(n * n, -1), hermitian_basis(m).reshape(m * m, -1)
    # c is real, being the trace of a product of Hermitian matrices
    u_mat, sing, vt_mat = np.linalg.svd((g.conj() @ realigned @ h.conj().T).real, full_matrices=False)
    root = np.sqrt(sing[sing > SCHMIDT_DROP * scale])
    if not root.size:
        return JointObservable(n=n, m=m, terms=((np.zeros((n, n)), np.zeros((m, m))),))
    system = (root[:, None] * u_mat[:, : root.size].T) @ g
    device = (root[:, None] * vt_mat[: root.size]) @ h
    if float(np.max(np.abs(system.T @ device - realigned))) > RECONSTRUCTION_TOL * scale:
        raise NonDecomposable("operator-Schmidt terms failed the reconstruction check")
    return JointObservable(n=n, m=m, terms=tuple(zip(system.reshape(-1, n, n), device.reshape(-1, m, m))))


@dataclass(frozen=True, eq=False)
class ErrorDisturbanceReport:
    """Mean square error/disturbance with their postselected counterparts.

    ``epsilon_sq_post`` is the sum, over N^2's operator-Schmidt terms, of each
    term's own postselected mean, each term measured on its own; ``eta_sq_post``
    is the same for D^2. Under the hypothesis (every term column-constant) it
    equals ``epsilon_sq``. Outside it, it is not the mean of N^2 in any state:
    it can be negative, and it depends on the split of N^2 into product terms.
    """

    epsilon_sq: float
    eta_sq: float
    epsilon_sq_post: float
    eta_sq_post: float
    noise_op: np.ndarray
    disturb_op: np.ndarray
    nogo_gap_error: float
    nogo_gap_disturbance: float
    error_verdict: TheoremVerdict
    disturbance_verdict: TheoremVerdict
    # No sign check: epsilon_sq and eta_sq are <Psi|N^2|Psi> = ||N Psi||^2 >= 0 in exact arithmetic, and their
    # rounding error, about ||N||^2 eps, can put a zero value below any floor that does not scale with N.


class _Prepared(NamedTuple):
    """What a report fixes before xi and phi, all read-only: the noise and disturbance operators; their squares'
    operator-Schmidt terms as one observable, the error side's slots first, and its data at one tol_deg; psi's
    ``_system_side`` on that data; and each side's term slots with whether every term in them is column-constant."""

    noise: np.ndarray
    disturb: np.ndarray
    squares: JointObservable
    data: ProductSpectralData
    system: _SystemSide
    sides: tuple[tuple[slice, bool], tuple[slice, bool]]


def _prepare(model: InteractionModel, setup: MeasurementSetup, psi: np.ndarray, tol_deg: float) -> _Prepared:
    """``_Prepared`` for a checked (B, n) or (1, n) psi stack; a NaN or negative tol_deg raises ValueError."""
    noise, disturb = noise_operator(model, setup), disturbance_operator(model, setup)
    n, m = setup.n, setup.m
    error, disturbance = (joint_observable_from_operator(hermitian_part(op @ op), n, m) for op in (noise, disturb))
    squares = JointObservable(n=n, m=m, terms=error.terms + disturbance.terms)
    data = product_spectral(squares, tol_deg)
    # per term: all its columns within tol_deg, the rule verify_nogo reads
    within = _within(data.system_values, data.device_values, tol_deg).all(axis=-1)
    split = error.num_terms
    sides = tuple((slots, bool(within[slots].all())) for slots in (slice(split), slice(split, None)))
    # read-only, as every array of the data is: the family shares one _Prepared among all its calls
    system = _SystemSide(*map(readonly, _system_side(data, psi)))
    return _Prepared(readonly(noise), readonly(disturb), squares, data, system, sides)


def _state_reports(prepared: _Prepared, xi, phi, tol_verify: float, tol_p: float) -> list[ErrorDisturbanceReport]:
    """The per-state half of the report, per row of checked (B, m) xi and (B, n) phi stacks.

    One kernel pass covers ``squares``: the error side's term slots, then
    the disturbance side's. Row b holds the bits of its kets alone. Its
    denominators are checked before row b + 1's, the error side's first.
    epsilon^2, eta^2 and the no-go gaps are the verdicts' unconditional means
    and gaps, so no joint state is formed; ``mean_square_*`` agree to rounding.
    """
    means = _means(prepared.data, prepared.system, xi, phi)
    reports = []
    for b in range(len(xi)):
        error_verdict, disturbance_verdict = (
            _row_verdict(means, holds, b, tol_verify, tol_p, slots) for slots, holds in prepared.sides
        )
        reports.append(
            ErrorDisturbanceReport(
                epsilon_sq=error_verdict.unconditional,
                eta_sq=disturbance_verdict.unconditional,
                epsilon_sq_post=error_verdict.conditional,
                eta_sq_post=disturbance_verdict.conditional,
                noise_op=prepared.noise,
                disturb_op=prepared.disturb,
                nogo_gap_error=error_verdict.gap,
                nogo_gap_disturbance=disturbance_verdict.gap,
                error_verdict=error_verdict,
                disturbance_verdict=disturbance_verdict,
            )
        )
    return reports


def postselected_error_disturbance(
    model: InteractionModel,
    setup: MeasurementSetup,
    psi,
    xi,
    phi,
    tol_deg: float = TOL_DEG,
    tol_verify: float = TOL_VERIFY,
    tol_p: float = TOL_POSTSELECT,
) -> ErrorDisturbanceReport:
    """Full report: conventional and postselected means, and no-go gaps, all off one kernel row per side.
    The kets are checked first, psi and phi against the setup's n and xi against its m; a None phi raises
    MissingPostselection."""
    psi, xi = _state_of_dim(psi, setup.n, "psi"), _state_of_dim(xi, setup.m, "xi")
    if phi is None:
        raise MissingPostselection("scenario has no postselection state")
    phi = _state_of_dim(phi, setup.n, "postselect")
    return _state_reports(_prepare(model, setup, psi[None], tol_deg), xi[None], phi[None], tol_verify, tol_p)[0]


# the controlled-NOT family's kets, shared by CnotScenario and cnot_sweep
_CNOT_PSI = readonly(np.array([1.0, 1.0j]) / np.sqrt(2.0))


def _require_strength(strength: float) -> None:
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must lie in [0, 1], got {strength}")


def _cnot_xi(strength: float) -> np.ndarray:
    _require_strength(strength)
    return np.array([np.sqrt((1.0 + strength) / 2.0), np.sqrt((1.0 - strength) / 2.0)], dtype=complex)


def _require_angles(*angles: float) -> None:
    for angle in angles:
        if not math.isfinite(angle):
            raise ValueError(f"theta and varphi must be finite, got {angle!r}")


def _cnot_phi(theta: float, varphi: float) -> np.ndarray:
    return np.array([math.cos(theta), np.exp(-1j * varphi) * math.sin(theta)], dtype=complex)


@dataclass(frozen=True)
class CnotScenario:
    """Controlled-NOT measurement family: strength in [0, 1] plus postselection angles."""

    strength: float
    theta: float = math.pi / 4
    varphi: float = 0.0

    def __post_init__(self):
        _require_strength(self.strength)
        _require_angles(self.theta, self.varphi)

    def psi(self) -> np.ndarray:
        return np.array(_CNOT_PSI)

    def xi(self) -> np.ndarray:
        return _cnot_xi(self.strength)

    def phi(self) -> np.ndarray:
        return _cnot_phi(self.theta, self.varphi)


@dataclass(frozen=True, eq=False)
class CnotBundle:
    error_scenario: MeasurementScenario
    disturbance_scenario: MeasurementScenario
    model: InteractionModel
    setup: MeasurementSetup


def _cnot_model_setup() -> tuple[InteractionModel, MeasurementSetup]:
    """CNOT interaction with Z measured, X disturbed and Z read out on the device."""
    model = InteractionModel.from_unitary(CNOT)
    setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
    return model, setup


@functools.cache
def _cnot_prepared(tol_deg: float) -> _Prepared:
    """The family's ``_Prepared`` at tol_deg, built once: the operators do not depend on (s, theta, varphi) and psi
    is a constant, so only xi and phi vary by point. A NaN or negative tol_deg raises in ``_prepare``, so the cache
    stores nothing for it; ``cnot_sweep`` reads it at float(tol_deg), so 0, 0.0 and -0.0 share one entry."""
    return _prepare(*_cnot_model_setup(), _CNOT_PSI[None], tol_deg)


def cnot_scenario(params: CnotScenario) -> CnotBundle:
    """Measurement scenarios, interaction and setup for the controlled-NOT family; each side's observable holds
    its slots of the family's squared terms at the default tol_deg, so a warm process decomposes nothing here."""
    model, setup = _cnot_model_setup()
    prepared = _cnot_prepared(TOL_DEG)
    error, disturbance = (JointObservable(n=2, m=2, terms=prepared.squares.terms[slots]) for slots, _ in prepared.sides)
    psi, xi, phi = params.psi(), params.xi(), params.phi()
    return CnotBundle(
        error_scenario=MeasurementScenario(psi=psi, xi=xi, observable=error, postselect=phi),
        disturbance_scenario=MeasurementScenario(psi=psi, xi=xi, observable=disturbance, postselect=phi),
        model=model,
        setup=setup,
    )


def cnot_report(params: CnotScenario, tol_deg: float = TOL_DEG, tol_verify: float = TOL_VERIFY) -> ErrorDisturbanceReport:
    """The one-point ``cnot_sweep``; equals postselected_error_disturbance on the CNOT model and setup."""
    return cnot_sweep((params.strength,), (params.theta,), (params.varphi,), tol_deg, tol_verify)[0]


def cnot_sweep(
    s_grid, theta_grid, varphi_grid, tol_deg: float = TOL_DEG, tol_verify: float = TOL_VERIFY
) -> list[ErrorDisturbanceReport]:
    """``cnot_report`` at every (s, theta, varphi), s slowest and varphi fastest, as one stack.

    The grid values are checked, not the kets, which are unit: psi is a constant,
    |xi(s)|^2 = (1+s)/2 + (1-s)/2 and |phi|^2 = cos^2 theta + sin^2 theta. xi is
    built once per strength and phi once per (theta, varphi) pair. The kets go
    by grid position, not by value: 0.0 == -0.0, yet the two can give phi
    different sign bits.
    """
    xis = [_cnot_xi(s) for s in s_grid]
    _require_angles(*theta_grid, *varphi_grid)
    # phi depends on the angles alone
    phis = [_cnot_phi(t, v) for t in theta_grid for v in varphi_grid]
    if not (xis and phis):
        return []
    # rows in s, theta, varphi order; psi's side is the one row every point shares
    xi, phi = np.array([x for x in xis for _ in phis]), np.array(phis * len(xis))
    # float: functools.cache keys an int by itself, so 0 would miss the entry of 0.0 and -0.0
    return _state_reports(_cnot_prepared(float(tol_deg)), xi, phi, tol_verify, TOL_POSTSELECT)
