"""Heisenberg-picture noise and disturbance analysis.

The measured observable on the system is compared against a device readout
after a unitary interaction: the noise operator is the evolved readout minus
the initial system observable, the disturbance operator is the evolved minus
initial disturbed observable, and their squared expectations are the mean
square error and disturbance. Squared operators are re-expressed as joint
product-term observables so the postselected (ABL) machinery and the no-go
checks apply to them directly. The controlled-NOT example with a tunable
device state covers the full analytic family used by the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonDecomposable
from .linalg import (
    TOL_DEG,
    TOL_POSTSELECT,
    TOL_VERIFY,
    as_operator,
    as_state,
    is_unitary,
    matrix_exponential_skew,
    readonly,
    require_hermitian,
    tensor_ket,
    tensor_product,
)
from .measurement import JointObservable, MeasurementScenario
from .nogo import TheoremVerdict, verify_nogo

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


@dataclass(frozen=True)
class InteractionModel:
    """Joint unitary, given directly or as exp(-i t H_system (x) H_device)."""

    unitary: np.ndarray | None = None
    h_system: np.ndarray | None = None
    h_device: np.ndarray | None = None
    t: float | None = None

    def __post_init__(self):
        direct = self.unitary is not None
        generated = self.h_system is not None or self.h_device is not None or self.t is not None
        if direct == generated:
            raise ValueError("provide either a unitary or (h_system, h_device, t), not both")
        if direct:
            u = as_operator(self.unitary, "unitary")
            if not is_unitary(u):
                raise ValueError("interaction matrix is not unitary within 1e-10")
            object.__setattr__(self, "unitary", readonly(u))
        else:
            if self.h_system is None or self.h_device is None or self.t is None:
                raise ValueError("generated form needs h_system, h_device and t")
            object.__setattr__(self, "h_system", readonly(require_hermitian(self.h_system, name="h_system")))
            object.__setattr__(self, "h_device", readonly(require_hermitian(self.h_device, name="h_device")))
            object.__setattr__(self, "t", float(self.t))

    @classmethod
    def from_unitary(cls, u) -> "InteractionModel":
        return cls(unitary=u)

    @classmethod
    def from_hamiltonians(cls, h_system, h_device, t: float) -> "InteractionModel":
        return cls(h_system=h_system, h_device=h_device, t=t)

    def resolve_unitary(self) -> np.ndarray:
        if self.unitary is not None:
            return np.array(self.unitary)
        return matrix_exponential_skew(tensor_product(self.h_system, self.h_device), self.t)


@dataclass(frozen=True)
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
    """U^dag O U."""
    u = as_operator(u, "unitary")
    o0 = as_operator(o0, "observable")
    if u.shape != o0.shape:
        raise DimensionMismatch(f"unitary {u.shape} does not match observable {o0.shape}")
    if not is_unitary(u):
        raise ValueError("evolution matrix is not unitary within 1e-10")
    return u.conj().T @ o0 @ u


def first_order_expansion(h_system, h_device, t: float, o0) -> np.ndarray:
    """O + i t [H_system (x) H_device, O]; error vs exact evolution is O(t^2)."""
    h = tensor_product(require_hermitian(h_system, name="h_system"), require_hermitian(h_device, name="h_device"))
    o0 = as_operator(o0, "observable")
    if h.shape != o0.shape:
        raise DimensionMismatch(f"joint generator {h.shape} does not match observable {o0.shape}")
    return o0 + 1j * float(t) * (h @ o0 - o0 @ h)


def _joint_dims(model: InteractionModel, setup: MeasurementSetup) -> tuple[np.ndarray, int, int]:
    u = model.resolve_unitary()
    n, m = setup.n, setup.m
    if u.shape != (n * m, n * m):
        raise DimensionMismatch(f"unitary is {u.shape}, setup expects {(n * m, n * m)}")
    return u, n, m


def noise_operator(model: InteractionModel, setup: MeasurementSetup) -> np.ndarray:
    """Evolved readout minus initial measured observable on the joint space."""
    u, n, m = _joint_dims(model, setup)
    readout_t = heisenberg_evolve(u, tensor_product(np.eye(n), setup.readout))
    op = readout_t - tensor_product(setup.measured, np.eye(m))
    return (op + op.conj().T) / 2.0


def disturbance_operator(model: InteractionModel, setup: MeasurementSetup) -> np.ndarray:
    """Evolved minus initial disturbed observable on the joint space."""
    u, n, m = _joint_dims(model, setup)
    before = tensor_product(setup.disturbed, np.eye(m))
    op = heisenberg_evolve(u, before) - before
    return (op + op.conj().T) / 2.0


def _joint_mean(op: np.ndarray, psi, xi) -> float:
    state = tensor_ket(as_state(psi, name="psi"), as_state(xi, name="xi"))
    if op.shape[0] != state.size:
        raise DimensionMismatch("operator does not act on the joint state")
    return float(np.vdot(state, op @ state).real)


def mean_square_error(model: InteractionModel, setup: MeasurementSetup, psi, xi) -> float:
    noise = noise_operator(model, setup)
    return _joint_mean(noise @ noise, psi, xi)


def mean_square_disturbance(model: InteractionModel, setup: MeasurementSetup, psi, xi) -> float:
    disturb = disturbance_operator(model, setup)
    return _joint_mean(disturb @ disturb, psi, xi)


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Orthonormal Hermitian basis under the trace inner product."""
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
    return basis


def _sign_fix(sys_op: np.ndarray, tol: float) -> float:
    trace = float(np.trace(sys_op).real)
    if abs(trace) > tol:
        return 1.0 if trace > 0 else -1.0
    flat = sys_op.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > tol)
    if idx.size and flat[idx[0]].real < 0:
        return -1.0
    return 1.0


def joint_observable_from_operator(op, n: int, m: int, tol: float = 1e-10) -> JointObservable:
    """Write a Hermitian joint operator as a sum of Hermitian product terms.

    A single factorized term is extracted when the realigned matrix has
    numerical rank one (phases balanced so both factors come out Hermitian);
    otherwise the operator is expanded over an orthonormal Hermitian basis of
    the system factor with device partners obtained by partial trace. Raises
    NonDecomposable if the reconstruction check fails.
    """
    op = require_hermitian(op, name="joint operator")
    if op.shape != (n * m, n * m):
        raise DimensionMismatch(f"operator is {op.shape}, expected {(n * m, n * m)}")
    scale = max(1.0, float(np.max(np.abs(op))))
    blocks = op.reshape(n, m, n, m)
    realigned = blocks.transpose(0, 2, 1, 3).reshape(n * n, m * m)
    u_mat, sing, vh_mat = np.linalg.svd(realigned)

    if sing[0] <= tol * scale:
        zero_term = (np.zeros((n, n), dtype=complex), np.zeros((m, m), dtype=complex))
        return JointObservable(n=n, m=m, terms=(zero_term,))

    if sing.size == 1 or sing[1] <= 1e-9 * sing[0]:
        sys_op = (np.sqrt(sing[0]) * u_mat[:, 0]).reshape(n, n)
        dev_op = (np.sqrt(sing[0]) * vh_mat[0, :]).reshape(m, m)
        trace_sq = complex(np.trace(sys_op @ sys_op))
        if abs(trace_sq) > tol * scale:
            half_phase = np.exp(-0.5j * np.angle(trace_sq))
            sys_op = sys_op * half_phase
            dev_op = dev_op / half_phase
        sign = _sign_fix(sys_op, tol)
        sys_op = sign * (sys_op + sys_op.conj().T) / 2.0
        dev_op = sign * (dev_op + dev_op.conj().T) / 2.0
        if float(np.max(np.abs(tensor_product(sys_op, dev_op) - op))) <= tol * scale:
            return JointObservable(n=n, m=m, terms=((sys_op, dev_op),))

    terms = []
    for g in hermitian_basis(n):
        partner = np.einsum("ik,kjil->jl", g, blocks)
        if float(np.max(np.abs(partner))) <= 1e-12 * scale:
            continue
        terms.append((g, (partner + partner.conj().T) / 2.0))
    if not terms:
        raise NonDecomposable("no product term survived the expansion")
    total = sum(tensor_product(s, d) for s, d in terms)
    if float(np.max(np.abs(total - op))) > tol * scale:
        raise NonDecomposable("Hermitian-basis expansion failed the reconstruction check")
    return JointObservable(n=n, m=m, terms=tuple(terms))


@dataclass(frozen=True)
class ErrorDisturbanceReport:
    """Mean square error/disturbance with their postselected counterparts."""

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

    def __post_init__(self):
        if self.epsilon_sq < -1e-12 or self.eta_sq < -1e-12:
            raise ValueError("squared quantities must be numerically nonnegative")


class _SquaredObservables(NamedTuple):
    """What a (model, setup) pair fixes: the operators and their squares as joint observables."""

    noise: np.ndarray
    disturb: np.ndarray
    noise_sq: np.ndarray
    disturb_sq: np.ndarray
    error: JointObservable
    disturbance: JointObservable


def _squared_observables(model: InteractionModel, setup: MeasurementSetup) -> _SquaredObservables:
    noise = noise_operator(model, setup)
    disturb = disturbance_operator(model, setup)
    noise_sq = (noise @ noise + (noise @ noise).conj().T) / 2.0
    disturb_sq = (disturb @ disturb + (disturb @ disturb).conj().T) / 2.0
    n, m = setup.n, setup.m
    return _SquaredObservables(
        noise=readonly(noise),
        disturb=readonly(disturb),
        noise_sq=readonly(noise_sq),
        disturb_sq=readonly(disturb_sq),
        error=joint_observable_from_operator(noise_sq, n, m),
        disturbance=joint_observable_from_operator(disturb_sq, n, m),
    )


def _state_report(
    ops: _SquaredObservables, psi, xi, phi, tol_deg: float, tol_verify: float, tol_p: float
) -> ErrorDisturbanceReport:
    """The per-state half of the report: means, postselected means and gaps."""
    epsilon_sq = _joint_mean(ops.noise_sq, psi, xi)
    eta_sq = _joint_mean(ops.disturb_sq, psi, xi)
    error_scenario = MeasurementScenario(psi=psi, xi=xi, observable=ops.error, postselect=phi)
    disturbance_scenario = MeasurementScenario(psi=psi, xi=xi, observable=ops.disturbance, postselect=phi)
    error_verdict = verify_nogo(error_scenario, tol_deg=tol_deg, tol_verify=tol_verify, tol_p=tol_p)
    disturbance_verdict = verify_nogo(disturbance_scenario, tol_deg=tol_deg, tol_verify=tol_verify, tol_p=tol_p)

    return ErrorDisturbanceReport(
        epsilon_sq=epsilon_sq,
        eta_sq=eta_sq,
        epsilon_sq_post=error_verdict.conditional,
        eta_sq_post=disturbance_verdict.conditional,
        noise_op=ops.noise,
        disturb_op=ops.disturb,
        nogo_gap_error=abs(error_verdict.conditional - epsilon_sq),
        nogo_gap_disturbance=abs(disturbance_verdict.conditional - eta_sq),
        error_verdict=error_verdict,
        disturbance_verdict=disturbance_verdict,
    )


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
    """Full report: direct means, postselected means, and no-go gaps."""
    return _state_report(_squared_observables(model, setup), psi, xi, phi, tol_deg, tol_verify, tol_p)


@dataclass(frozen=True)
class CnotScenario:
    """Controlled-NOT measurement family: strength in [0, 1] plus postselection angles."""

    strength: float
    theta: float = math.pi / 4
    varphi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.strength <= 1.0:
            raise ValueError(f"strength must lie in [0, 1], got {self.strength}")

    def psi(self) -> np.ndarray:
        return np.array([1.0, 1.0j]) / np.sqrt(2.0)

    def xi(self) -> np.ndarray:
        return np.array(
            [np.sqrt((1.0 + self.strength) / 2.0), np.sqrt((1.0 - self.strength) / 2.0)], dtype=complex
        )

    def phi(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta), np.exp(-1j * self.varphi) * math.sin(self.theta)], dtype=complex
        )


@dataclass(frozen=True)
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
def _cnot_squared_observables() -> _SquaredObservables:
    """Built once per process: the CNOT operators do not depend on (s, theta, varphi)."""
    return _squared_observables(*_cnot_model_setup())


def cnot_scenario(params: CnotScenario) -> CnotBundle:
    """Measurement scenarios, interaction and setup for the controlled-NOT family."""
    model, setup = _cnot_model_setup()
    ops = _cnot_squared_observables()
    psi, xi, phi = params.psi(), params.xi(), params.phi()
    return CnotBundle(
        error_scenario=MeasurementScenario(psi=psi, xi=xi, observable=ops.error, postselect=phi),
        disturbance_scenario=MeasurementScenario(psi=psi, xi=xi, observable=ops.disturbance, postselect=phi),
        model=model,
        setup=setup,
    )


def cnot_report(params: CnotScenario, tol_deg: float = TOL_DEG, tol_verify: float = TOL_VERIFY) -> ErrorDisturbanceReport:
    """Equals postselected_error_disturbance on the CNOT model and setup, with the operators built once."""
    return _state_report(
        _cnot_squared_observables(), params.psi(), params.xi(), params.phi(), tol_deg, tol_verify, TOL_POSTSELECT
    )
