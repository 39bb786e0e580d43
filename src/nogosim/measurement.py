"""Measurement statistics for joint system-device observables.

An observable is a finite sum of product terms S_k (x) M_k acting on an
n-dimensional system and an m-dimensional device. Each term is measured in
the product eigenbasis of its factors; outcome probabilities, Lueders
updates, ABL conditional probabilities under postselection, conditional
expectation values and weak values all live here.

An observable's spectral data (``product_spectral``) is three stacks over
its K terms: the factors' adjoint eigenbases V^dag and the eigenvalue grids
r_ij = u_i * v_j. Scenario-level functions compute through factor amplitudes
(psi'_i = <u_i|psi> = (V^dag psi)_i etc.), which is the analytic route; the
oracle module re-derives the same quantities by explicit matrix arithmetic
so the two paths can be compared in tests.

The dataclasses here hold numpy arrays, so they compare and hash by identity
(``eq=False``): a field-wise ``==`` over arrays has no truth value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    as_operator,
    as_state,
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
    """Read-only stacks over the K terms: the factors' V^dag, (K, n, n) and (K, m, m), and the (K, n, m) grids r_ij.

    Term k is entry k of each stack; its factor eigenbasis V is ``system[k].conj().T``.
    """

    system: np.ndarray
    device: np.ndarray
    grids: np.ndarray

    def __post_init__(self):
        # nogo.check_rank_m_degeneracy's memo, keyed by tol_deg: a plain attribute like
        # JointObservable._spectral, so fields() and repr see only the stacks
        object.__setattr__(self, "_degeneracy", {})

    def __len__(self) -> int:
        return len(self.grids)


def _spectral_stacks(
    system: np.ndarray, device: np.ndarray, tol_deg: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors' V^dag and the grids r_ij = u_i * v_j of (..., n, n) system and (..., m, m) device factor stacks.

    The leading shape is any: (K,) for one observable, (B, K) for the audit's
    rows. Each factor stack goes through one ``_decompose`` call, which
    decomposes each matrix on its own, so every entry holds the bits
    ``spectral_decompose`` gives its factor alone.
    """
    lead, n, m = system.shape[:-2], system.shape[-1], device.shape[-1]
    sys_values, sys_columns, _ = _decompose(system.reshape(-1, n, n), tol_deg)
    dev_values, dev_columns, _ = _decompose(device.reshape(-1, m, m), tol_deg)
    # the canonical columns come as rows, so their conjugates are the adjoints V^dag
    return (
        sys_columns.conj().reshape(*lead, n, n),
        dev_columns.conj().reshape(*lead, m, m),
        _product_grid(sys_values.reshape(*lead, n), dev_values.reshape(*lead, m)),
    )


def product_spectral(observable: JointObservable, tol_deg: float = TOL_DEG) -> ProductSpectralData:
    """Every term's factor V^dag and eigenvalue grid as read-only stacks; grid entry (k, i, j) is u_i * v_j of term k.

    One ``_spectral_stacks`` call, made once per observable and tol_deg,
    then returned from a memo on the observable: its factors are read-only,
    so the result is a pure function of (terms, tol_deg), and every array in
    it is read-only, so callers can share it.
    """
    memo = observable._spectral
    data = memo.get(tol_deg)
    if data is None:
        # no Hermiticity check here: JointObservable.__post_init__ checked every factor and froze it read-only
        stacks = _spectral_stacks(*map(np.stack, zip(*observable.terms)), tol_deg)
        data = memo[tol_deg] = ProductSpectralData(*map(readonly, stacks))
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
        # nogo._scenario_means's memo, keyed by (spectral data, tol_deg); a plain attribute like
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


def _resolve_spectral(scenario: MeasurementScenario, spectral: ProductSpectralData | None) -> ProductSpectralData:
    return product_spectral(scenario.observable) if spectral is None else spectral


def _require_postselect(scenario: MeasurementScenario) -> np.ndarray:
    if scenario.postselect is None:
        raise MissingPostselection("scenario has no postselection state")
    return scenario.postselect


def _weights(adjoint: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """|<e_i|ket>|^2 per ket of a (..., d) stack, against V^dag alone or one per ket: one matvec per ket."""
    return np.abs((adjoint @ ket[..., None])[..., 0]) ** 2


def _grid_sums(grids: np.ndarray) -> np.ndarray:
    """``np.sum`` of each (n, m) grid of a stack, with the bits np.sum gives a lone grid (the axes add as one row)."""
    return grids.sum(axis=(-2, -1))


def _grid_mean(data: ProductSpectralData, k: int, grid: np.ndarray) -> float:
    """sum_ij r_ij p_ij over a probability grid of term k."""
    return float(_grid_sums(data.grids[k] * grid))


def _require_denominator(denom: float, tol_p: float) -> None:
    if denom <= tol_p:
        raise ZeroProbability(f"postselection probability {denom:.3e} at or below cutoff {tol_p:.1e}")


def _conditioned(joint: np.ndarray, tol_p: float) -> np.ndarray:
    """Joint grid divided by its total, the postselection probability."""
    denom = float(_grid_sums(joint))
    _require_denominator(denom, tol_p)
    return joint / denom


class _Means(NamedTuple):
    """What a verdict reads: per row of the kets, per term slot."""

    denominators: list  # the (B, K) postselection probabilities, as lists
    conditional: list  # the (B, K) postselected term means, as lists
    unconditional: list  # the (B, K) plain term means, as lists
    xi: np.ndarray  # the (B, K, m) |xi'_j|^2


def _means(system: np.ndarray, device: np.ndarray, grids: np.ndarray, psi, xi, phi) -> _Means:
    """Both means of every term under postselection on phi, from one amplitude pass over every term slot.

    The kets are single or (B, d) stacks; single kets are the B = 1 case.
    ``system`` (K, n, n), ``device`` (K, m, m) and ``grids`` (K, n, m) are
    ``ProductSpectralData``'s stacks, shared by every row, or carry a leading
    B axis, one per row. Each value is a row sum of one grid, so entry (b, k)
    holds the bits of row b's kets and term k alone (and of ``_conditioned``
    and ``_grid_mean``). A vanishing denominator leaves a NaN or Inf mean,
    which the caller rejects with ``_require_denominator`` before reading it.
    """
    if psi.ndim == 1:
        return _means(system, device, grids, psi[None], xi[None], phi[None])
    # a term slot axis on every ket: row b's amplitudes under each of the K adjoints
    psi_w = _weights(system, psi[:, None])
    xi_w = _weights(device, xi[:, None])
    joint = _product_grid(psi_w * _weights(system, phi[:, None]), xi_w)
    denom = _grid_sums(joint)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = _grid_sums(grids * (joint / denom[..., None, None]))
    unconditional = _grid_sums(grids * _product_grid(psi_w, xi_w))
    return _Means(denom.tolist(), conditional.tolist(), unconditional.tolist(), xi_w)


def outcome_probability_grid(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> np.ndarray:
    """P(r_ij) = |<u_i v_j|Psi>|^2 as an (n, m) grid."""
    data = _resolve_spectral(scenario, spectral)
    return _product_grid(_weights(data.system[k], scenario.psi), _weights(data.device[k], scenario.xi))


def expectation(scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None) -> float:
    """Mean of one term: sum_ij r_ij P(r_ij)."""
    data = _resolve_spectral(scenario, spectral)
    return _grid_mean(data, k, outcome_probability_grid(scenario, k, data))


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
    if prob <= tol_p:
        raise ZeroProbability(f"outcome probability {prob:.3e} at or below cutoff {tol_p:.1e}")
    updated = as_operator(projector) @ as_operator(rho) @ as_operator(projector)
    updated = (updated + updated.conj().T) / 2.0
    return updated / np.trace(updated).real


def joint_probability_grid(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> np.ndarray:
    """P(r_ij and postselection) = |psi'_i|^2 |xi'_j|^2 |phi'_i|^2 as an (n, m) grid."""
    phi = _require_postselect(scenario)
    data = _resolve_spectral(scenario, spectral)
    system = data.system[k]
    return _product_grid(_weights(system, scenario.psi) * _weights(system, phi), _weights(data.device[k], scenario.xi))


def postselection_denominator(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> float:
    """Total probability of passing postselection after the term-k measurement."""
    return float(_grid_sums(joint_probability_grid(scenario, k, spectral)))


def abl_conditional_grid(
    scenario: MeasurementScenario,
    k: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> np.ndarray:
    """P(r_ij | pre- and postselection) as an (n, m) grid."""
    return _conditioned(joint_probability_grid(scenario, k, spectral), tol_p)


def conditional_expectation(
    scenario: MeasurementScenario,
    k: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> float:
    """Postselected mean of one term: sum_ij r_ij P(r_ij | phi, rho)."""
    data = _resolve_spectral(scenario, spectral)
    return _grid_mean(data, k, abl_conditional_grid(scenario, k, data, tol_p))


def weak_value(psi, phi, a, tol_p: float = TOL_POSTSELECT) -> complex:
    """<phi|A|psi> / <phi|psi>; an A with NaN or Inf entries raises ValueError."""
    psi = as_state(psi, name="psi")
    phi = as_state(phi, name="phi")
    op = require_finite(as_operator(a, "A"), "A")
    if op.shape[0] != psi.size or phi.size != psi.size:
        raise DimensionMismatch("weak value inputs have inconsistent dimensions")
    overlap = complex(np.vdot(phi, psi))
    if abs(overlap) <= tol_p:
        raise OrthogonalPostselection(f"|<phi|psi>| = {abs(overlap):.3e} at or below cutoff {tol_p:.1e}")
    return complex(np.vdot(phi, op @ psi) / overlap)
