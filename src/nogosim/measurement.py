"""Measurement statistics for joint system-device observables.

An observable is a finite sum of product terms S_k (x) M_k acting on an
n-dimensional system and an m-dimensional device. Each term is measured in
the product eigenbasis of its factors; outcome probabilities, Lueders
updates, ABL conditional probabilities under postselection, conditional
expectation values and weak values all live here.

An observable's spectral data (``product_spectral``) is four stacks over
its K terms: the system factors' adjoint eigenbases V^dag, the device
factors M_k themselves, and the eigenvalues u and v of both. Every mean is
one kernel, ``_means``, on system weights p_i = |<u_i|psi>|^2 and
x_i = |<u_i|phi>|^2 and on <xi|M_k|xi>: term k's joint weight is p_i x_i q_j
with q_j = |<v_j|xi>|^2, and sum_j v_j q_j = <xi|M_k|xi>, so the device
enters only through that quadratic form, which the kernel reads off M_k
without a device eigenvector. The gap of term k is
<xi|M_k|xi> (wbar_k - <psi|S_k|psi>) with
wbar_k = sum_i u_i p_i x_i / sum_i p_i x_i. The oracle module re-derives the
same quantities by explicit matrix arithmetic so the two paths can be
compared in tests.

The dataclasses here hold numpy arrays, so they compare and hash by identity
(``eq=False``): a field-wise ``==`` over arrays has no truth value.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingPostselection,
    OrthogonalPostselection,
    ZeroProbability,
)
from .linalg import (
    TOL_DEG,
    TOL_POSTSELECT,
    _decompose,
    _eigh,
    _fixed_columns,
    as_operator,
    as_state,
    hermitian_part,
    outer,
    readonly,
    require_finite,
    require_hermitian,
    tensor_ket,
    tensor_product,
)


@dataclass(frozen=True, eq=False)
class JointObservable:
    """Sum of Hermitian product terms over system (dim n) and device (dim m)."""

    n: int
    m: int
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DimensionMismatch("system and device dimensions must be positive")
        if not self.terms:
            raise DimensionMismatch("observable needs at least one term")
        frozen = []
        for idx, (sys_op, dev_op) in enumerate(self.terms):
            sys_op = require_hermitian(sys_op, name=f"system factor {idx}")
            dev_op = require_hermitian(dev_op, name=f"device factor {idx}")
            if sys_op.shape != (self.n, self.n):
                raise DimensionMismatch(f"system factor {idx} is {sys_op.shape}, expected {(self.n, self.n)}")
            if dev_op.shape != (self.m, self.m):
                raise DimensionMismatch(f"device factor {idx} is {dev_op.shape}, expected {(self.m, self.m)}")
            frozen.append((readonly(sys_op), readonly(dev_op)))
        object.__setattr__(self, "terms", tuple(frozen))
        # product_spectral's memo, keyed by tol_deg; a plain attribute rather than a
        # field, so fields() and repr see only n, m and terms
        object.__setattr__(self, "_spectral", {})
        # the oracle's own per-term memo (oracle._term_product_vectors), kept apart from
        # _spectral so the oracle shares no decomposition with the formula path
        object.__setattr__(self, "_oracle_terms", {})

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def _product_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i * y_j over the last axes of two stacks: per row, the products ``np.outer`` forms."""
    return x[..., :, None] * y[..., None, :]


@dataclass(frozen=True, eq=False)
class ProductSpectralData:
    """Stacks over the K terms: the system factors' V^dag (K, n, n), the device factors M_k (K, m, m), and
    the eigenvalues u (K, n) and v (K, m) of both factors.

    Term k is entry k of each stack. Row i of ``system_adjoint[k]`` is <u_i|, the
    canonical eigenvector of ``linalg._decompose`` with the phase it was found
    with: no probability |<u_i|ket>|^2 reads a phase. The device side enters
    every mean only as <xi|M_k|xi>, so no device eigenvector is kept, and no
    mean and no degeneracy verdict reads a (K, n, m) grid: both come from u and v.

    ``system`` and ``device`` are the phase-fixed V^dag stacks that
    ``spectral_decompose`` gives each factor, read-only, formed on first access
    and kept; ``tol_deg``, the grouping tolerance the data was made at, is a
    plain attribute like ``_degeneracy``, so fields() and repr see only the stacks.
    """

    system_adjoint: np.ndarray
    device_factors: np.ndarray
    system_values: np.ndarray
    device_values: np.ndarray
    tol_deg: InitVar[float]

    def __post_init__(self, tol_deg):
        object.__setattr__(self, "tol_deg", tol_deg)
        # nogo.check_rank_m_degeneracy's memo keyed by tol_deg: a plain attribute like
        # JointObservable._spectral, so fields() and repr see only the stacks
        object.__setattr__(self, "_degeneracy", {})

    @cached_property
    def system(self) -> np.ndarray:
        """Each system factor's V^dag, with the phase of each eigenvector fixed: its term's eigenbasis V is
        ``system[k].conj().T``."""
        rows = self.system_adjoint.conj()  # conj undoes conj to the bit
        return readonly(_fixed_columns(rows.reshape(-1, *rows.shape[-2:])).conj().reshape(rows.shape))

    @cached_property
    def device(self) -> np.ndarray:
        """Each device factor's V^dag, decomposed here at ``tol_deg``, with the phase of each eigenvector fixed."""
        factors = self.device_factors
        rows = _decompose(factors.reshape(-1, *factors.shape[-2:]), self.tol_deg)[1]
        return readonly(_fixed_columns(rows).conj().reshape(factors.shape))

    @property
    def grids(self) -> np.ndarray:
        """The read-only (K, n, m) eigenvalue grids r_ij = u_i * v_j, formed on each access."""
        return readonly(_product_grid(self.system_values, self.device_values))

    def __len__(self) -> int:
        return len(self.system_values)


def _spectral_stacks(
    system: np.ndarray, device: np.ndarray, tol_deg: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``ProductSpectralData``'s stacks from (..., n, n) system and (..., m, m) device factor stacks.

    The leading shape is any: (K,) for one observable, (B, K) for the audit's
    rows. The system stack goes through one ``_decompose`` call, which
    decomposes each matrix on its own. The device stack goes through one
    ``_eigh`` call, the solver ``_decompose`` runs, whose eigenvectors are
    dropped; ``eigvalsh`` would round the values differently. So every value
    holds the bits ``spectral_decompose`` gives its factor alone.
    """
    lead, n, m = system.shape[:-2], system.shape[-1], device.shape[-1]
    sys_values, sys_rows, _ = _decompose(system.reshape(-1, n, n), tol_deg)
    dev_values = _eigh(device.reshape(-1, m, m))[0]
    # the canonical columns come as rows, so their conjugates are the adjoints V^dag
    return sys_rows.conj().reshape(*lead, n, n), device, sys_values.reshape(*lead, n), dev_values.reshape(*lead, m)


def product_spectral(observable: JointObservable, tol_deg: float = TOL_DEG) -> ProductSpectralData:
    """Every term's system V^dag, device factor and eigenvalues as read-only stacks.

    One ``_spectral_stacks`` call, made once per observable and tol_deg,
    then returned from a memo on the observable: its factors are read-only,
    so the result is a pure function of (terms, tol_deg), and every array in
    it is read-only, so callers can share it. A NaN or negative tol_deg
    raises ValueError before the memo stores anything.
    """
    data = observable._spectral.get(tol_deg)
    if data is None:
        # no Hermiticity check here: JointObservable.__post_init__ checked every factor and froze it read-only
        stacks = _spectral_stacks(*map(np.stack, zip(*observable.terms)), tol_deg)
        data = observable._spectral[tol_deg] = ProductSpectralData(*map(readonly, stacks), tol_deg)
    return data


def _state_of_dim(v, dim: int, name: str) -> np.ndarray:
    """``as_state`` of v, if it has the dim the observable expects; else DimensionMismatch."""
    ket = as_state(v, name=name)
    if ket.size != dim:
        raise DimensionMismatch(f"{name} has dim {ket.size}, observable expects {dim}")
    return ket


@dataclass(frozen=True, eq=False)
class MeasurementScenario:
    """Pure product state |psi> (x) |xi> with an observable and optional postselection."""

    psi: np.ndarray
    xi: np.ndarray
    observable: JointObservable
    postselect: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "psi", readonly(_state_of_dim(self.psi, self.observable.n, "psi")))
        object.__setattr__(self, "xi", readonly(_state_of_dim(self.xi, self.observable.m, "xi")))
        if self.postselect is not None:
            phi = _state_of_dim(self.postselect, self.observable.n, "postselect")
            object.__setattr__(self, "postselect", readonly(phi))
        # _scenario_row's memo, keyed by the observable's own spectral data; a plain attribute like
        # JointObservable._spectral, so fields() and repr see only the four fields
        object.__setattr__(self, "_means", {})

    @property
    def n(self) -> int:
        return self.observable.n

    @property
    def m(self) -> int:
        return self.observable.m

    def joint_state(self) -> np.ndarray:
        return tensor_ket(self.psi, self.xi)


@dataclass(frozen=True, eq=False)
class PostselectionProjector:
    """Projector |phi><phi| (x) I_m on the joint space."""

    phi: np.ndarray
    device_dim: int
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        phi = as_state(self.phi, name="phi")
        object.__setattr__(self, "phi", readonly(phi))
        mat = tensor_product(outer(phi), np.eye(self.device_dim))
        object.__setattr__(self, "matrix", readonly(mat))


def _resolve_spectral(scenario: MeasurementScenario, spectral, tol_deg: float = TOL_DEG) -> ProductSpectralData:
    """``spectral``, or the observable's ``product_spectral`` at tol_deg when None; data of other dims is refused."""
    if spectral is None:
        return product_spectral(scenario.observable, tol_deg)
    dims = spectral.system_values.shape[-1], spectral.device_values.shape[-1]
    if dims != (scenario.n, scenario.m):
        raise DimensionMismatch(f"spectral data has (n, m) = {dims}, scenario has {(scenario.n, scenario.m)}")
    return spectral


def _require_postselect(scenario: MeasurementScenario) -> np.ndarray:
    if scenario.postselect is None:
        raise MissingPostselection("scenario has no postselection state")
    return scenario.postselect


def _weights(adjoint: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """|<e_i|ket>|^2 per ket of a (..., d) stack, against V^dag alone or one per ket: one matvec per ket."""
    return np.abs((adjoint @ ket[..., None])[..., 0]) ** 2


def _quadratic_form(op: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """Re <ket|op|ket> per ket of a (..., d) stack, one op or one per ket; ``np.vecdot`` adds what ``np.vdot`` adds."""
    return np.vecdot(ket, (op @ ket[..., None])[..., 0]).real


def _require_denominator(denom: float, tol_p: float) -> None:
    if not denom > tol_p:  # fails closed: a NaN denominator or tol_p raises
        raise ZeroProbability(f"postselection probability {denom:.3e} at or below cutoff {tol_p:.1e}")


class _Means(NamedTuple):
    """What a verdict reads: per row of the kets, per term slot, as (B, K) lists."""

    denominators: list | None  # sum_i p_i x_i; None without a postselection state
    conditional: list | None  # wbar_k <xi|M_k|xi>; None without a postselection state
    unconditional: list  # <psi|S_k|psi> <xi|M_k|xi>
    closed: list  # mean(u_k) <xi|M_k|xi>, the closed form of a column-constant term


def _means(data: ProductSpectralData, psi, xi, phi) -> _Means:
    """Every term's means in the factored form, from one amplitude pass over every term slot.

    The kets are (B, d) stacks, and phi may be None. ``data``'s stacks are
    (K, ...), shared by every row, or carry a leading B axis, one observable
    per row. The system side reads the eigenvalues u and the weights under
    ``system_adjoint``; the device side is <xi|M_k|xi>, taken off the factor
    M_k itself, so no device eigenvector enters. Each value is a product of
    ``np.vecdot`` reductions over its own slot, in one stacked form for any B,
    so entry (b, k) holds the bits of row b's kets and term k alone. A
    vanishing denominator leaves a NaN or Inf conditional mean, which the
    caller rejects with ``_require_denominator`` before reading it.
    """
    u = data.system_values
    # a term slot axis on every ket: row b's weights under each of the K adjoints
    p = _weights(data.system_adjoint, psi[:, None])
    device_mean = _quadratic_form(data.device_factors, xi[:, None])  # <xi|M_k|xi>
    unconditional = (np.vecdot(u, p) * device_mean).tolist()
    closed = (u.sum(axis=-1) / u.shape[-1] * device_mean).tolist()
    if phi is None:
        return _Means(None, None, unconditional, closed)
    x = _weights(data.system_adjoint, phi[:, None])
    denom = np.vecdot(p, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.vecdot(u, p * x) / denom * device_mean
    return _Means(denom.tolist(), conditional.tolist(), unconditional, closed)


def _scenario_row(scenario: MeasurementScenario, data: ProductSpectralData) -> _Means:
    """The kernel's row for a scenario's kets (phi when it has one); both are read-only.

    The row is memoized only for the data in the scenario's own observable's
    ``product_spectral`` memo, which lives as long as the scenario does. Other
    data gets the same row computed afresh, so a caller that builds new
    spectral data per call neither grows the memo nor keeps that data alive.
    """
    means = scenario._means.get(data)
    if means is None:
        kets = (ket if ket is None else ket[None] for ket in (scenario.psi, scenario.xi, scenario.postselect))
        means = _means(data, *kets)
        if any(data is own for own in scenario.observable._spectral.values()):
            scenario._means[data] = means
    return means


def outcome_probability_grid(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> np.ndarray:
    """P(r_ij) = |<u_i v_j|Psi>|^2 as an (n, m) grid; the device eigenvectors are those of the ``device`` view."""
    data = _resolve_spectral(scenario, spectral)
    return _product_grid(_weights(data.system_adjoint[k], scenario.psi), _weights(data.device[k], scenario.xi))


def expectation(scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None) -> float:
    """Mean of one term, <psi|S_k|psi> <xi|M_k|xi>: slot k of the kernel."""
    return _scenario_row(scenario, _resolve_spectral(scenario, spectral)).unconditional[0][k]


def projective_probability(rho: np.ndarray, projector: np.ndarray) -> float:
    """Tr[P rho] for a general density operator; NaN or Inf entries are rejected."""
    rho = as_operator(rho, "rho")
    projector = as_operator(projector, "projector")
    if rho.shape != projector.shape:
        raise DimensionMismatch("rho and projector dimensions differ")
    require_finite(rho, "rho")
    require_finite(projector, "projector")
    return float(np.trace(projector @ rho).real)


def luders_update(rho: np.ndarray, projector: np.ndarray, tol_p: float = TOL_POSTSELECT) -> np.ndarray:
    """State update rho -> P rho P / Tr[P rho P] after outcome P; NaN or Inf input raises ValueError."""
    prob = projective_probability(rho, projector)
    if not prob > tol_p:  # a NaN tol_p raises
        raise ZeroProbability(f"outcome probability {prob:.3e} at or below cutoff {tol_p:.1e}")
    updated = hermitian_part(as_operator(projector) @ as_operator(rho) @ as_operator(projector))
    return updated / np.trace(updated).real


def joint_probability_grid(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> np.ndarray:
    """P(r_ij and postselection) = |psi'_i|^2 |xi'_j|^2 |phi'_i|^2 as an (n, m) grid; the device eigenvectors
    are those of the ``device`` view."""
    phi = _require_postselect(scenario)
    data = _resolve_spectral(scenario, spectral)
    system = data.system_adjoint[k]
    return _product_grid(_weights(system, scenario.psi) * _weights(system, phi), _weights(data.device[k], scenario.xi))


def postselection_denominator(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> float:
    """Probability of passing postselection after the term-k measurement, sum_i p_i x_i: slot k of the kernel."""
    _require_postselect(scenario)
    return _scenario_row(scenario, _resolve_spectral(scenario, spectral)).denominators[0][k]


def abl_conditional_grid(
    scenario: MeasurementScenario,
    k: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> np.ndarray:
    """P(r_ij | pre- and postselection) as an (n, m) grid: the joint grid over its total."""
    joint = joint_probability_grid(scenario, k, spectral)
    denom = float(joint.sum())
    _require_denominator(denom, tol_p)
    return joint / denom


def conditional_expectation(
    scenario: MeasurementScenario,
    k: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> float:
    """Postselected mean of one term, wbar_k <xi|M_k|xi>: slot k of the kernel, its denominator checked first."""
    _require_postselect(scenario)
    means = _scenario_row(scenario, _resolve_spectral(scenario, spectral))
    _require_denominator(means.denominators[0][k], tol_p)
    return means.conditional[0][k]


def weak_value(psi, phi, a, tol_p: float = TOL_POSTSELECT) -> complex:
    """<phi|A|psi> / <phi|psi>; an A with NaN or Inf entries raises ValueError."""
    psi = as_state(psi, name="psi")
    phi = as_state(phi, name="phi")
    op = require_finite(as_operator(a, "A"), "A")
    if op.shape[0] != psi.size or phi.size != psi.size:
        raise DimensionMismatch("weak value inputs have inconsistent dimensions")
    overlap = complex(np.vdot(phi, psi))
    if not abs(overlap) > tol_p:  # a NaN tol_p raises
        raise OrthogonalPostselection(f"|<phi|psi>| = {abs(overlap):.3e} at or below cutoff {tol_p:.1e}")
    return complex(np.vdot(phi, op @ psi) / overlap)
