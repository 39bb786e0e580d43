"""Measurement statistics for joint system-device observables.

An observable is a finite sum of product terms S_k (x) M_k acting on an
n-dimensional system and an m-dimensional device. Each term is measured in
the product eigenbasis of its factors; outcome probabilities, Lueders
updates, ABL conditional probabilities under postselection, conditional
expectation values and weak values all live here.

Scenario-level functions compute through factor amplitudes
(psi'_i = <u_i|psi> etc.), which is the analytic route; the oracle module
re-derives the same quantities by explicit matrix arithmetic so the two
paths can be compared in tests.
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
    SpectralDecomposition,
    as_operator,
    as_state,
    outer,
    readonly,
    require_hermitian,
    spectral_decompose,
    tensor_ket,
    tensor_product,
)


@dataclass(frozen=True)
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
        # field, so fields(), __eq__ and repr see only n, m and terms
        object.__setattr__(self, "_spectral", {})
        # the oracle's own per-term memo (oracle._term_product_vectors), kept apart from
        # _spectral so the oracle shares no decomposition with the formula path
        object.__setattr__(self, "_oracle_terms", {})

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def total_operator(self) -> np.ndarray:
        total = np.zeros((self.n * self.m, self.n * self.m), dtype=complex)
        for sys_op, dev_op in self.terms:
            total += tensor_product(sys_op, dev_op)
        return total


@dataclass(frozen=True)
class ProductTermSpectral:
    """Factor eigensystems of one product term and the eigenvalue grid r_ij = u_i * v_j."""

    system: SpectralDecomposition
    device: SpectralDecomposition
    eigenvalue_grid: np.ndarray

    @property
    def n(self) -> int:
        return self.system.dim

    @property
    def m(self) -> int:
        return self.device.dim

    def product_vector(self, i: int, j: int) -> np.ndarray:
        return tensor_ket(self.system.eigenvectors[:, i], self.device.eigenvectors[:, j])

    def projector(self, i: int, j: int) -> np.ndarray:
        return outer(self.product_vector(i, j))

    def basis_matrix(self) -> np.ndarray:
        """Columns are the product eigenvectors at flat index i*m + j."""
        return tensor_product(self.system.eigenvectors, self.device.eigenvectors)


@dataclass(frozen=True)
class ProductSpectralData:
    terms: tuple[ProductTermSpectral, ...]

    def __post_init__(self):
        # nogo.check_rank_m_degeneracy's memo, keyed by tol_deg; a plain attribute
        # like JointObservable._spectral, so fields(), __eq__ and repr see only terms
        object.__setattr__(self, "_degeneracy", {})

    def __getitem__(self, k: int) -> ProductTermSpectral:
        return self.terms[k]

    def __len__(self) -> int:
        return len(self.terms)


def product_spectral(observable: JointObservable, tol_deg: float = TOL_DEG) -> ProductSpectralData:
    """Per-term factor decomposition; the grid entry (i, j) is u_i * v_j.

    Computed once per observable and tol_deg, then returned from a memo on the
    observable: its factors are read-only, so the result is a pure function of
    (terms, tol_deg), and every array in it is read-only, so callers can share it.
    """
    memo = observable._spectral
    data = memo.get(tol_deg)
    if data is None:
        entries = []
        for sys_op, dev_op in observable.terms:
            sys_dec = spectral_decompose(sys_op, tol_deg)
            dev_dec = spectral_decompose(dev_op, tol_deg)
            grid = np.outer(sys_dec.eigenvalues, dev_dec.eigenvalues)
            entries.append(
                ProductTermSpectral(system=sys_dec, device=dev_dec, eigenvalue_grid=readonly(grid))
            )
        data = memo[tol_deg] = ProductSpectralData(terms=tuple(entries))
    return data


@dataclass(frozen=True)
class MeasurementScenario:
    """Pure product state |psi> (x) |xi> with an observable and optional postselection."""

    psi: np.ndarray
    xi: np.ndarray
    observable: JointObservable
    postselect: np.ndarray | None = None

    def __post_init__(self):
        psi = as_state(self.psi, name="psi")
        xi = as_state(self.xi, name="xi")
        if psi.size != self.observable.n:
            raise DimensionMismatch(f"psi has dim {psi.size}, observable expects {self.observable.n}")
        if xi.size != self.observable.m:
            raise DimensionMismatch(f"xi has dim {xi.size}, observable expects {self.observable.m}")
        object.__setattr__(self, "psi", readonly(psi))
        object.__setattr__(self, "xi", readonly(xi))
        if self.postselect is not None:
            phi = as_state(self.postselect, name="postselect")
            if phi.size != self.observable.n:
                raise DimensionMismatch(f"postselect has dim {phi.size}, expected {self.observable.n}")
            object.__setattr__(self, "postselect", readonly(phi))

    @property
    def n(self) -> int:
        return self.observable.n

    @property
    def m(self) -> int:
        return self.observable.m

    def joint_state(self) -> np.ndarray:
        return tensor_ket(self.psi, self.xi)

    def density(self) -> np.ndarray:
        return outer(self.joint_state())

    def spectral(self, tol_deg: float = TOL_DEG) -> ProductSpectralData:
        return product_spectral(self.observable, tol_deg)


@dataclass(frozen=True)
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
    return scenario.spectral() if spectral is None else spectral


def _require_postselect(scenario: MeasurementScenario) -> np.ndarray:
    if scenario.postselect is None:
        raise MissingPostselection("scenario has no postselection state")
    return scenario.postselect


def system_amplitudes(term: ProductTermSpectral, ket: np.ndarray) -> np.ndarray:
    """Components of a system ket in the term's system eigenbasis."""
    return term.system.adjoint @ ket


def device_amplitudes(term: ProductTermSpectral, ket: np.ndarray) -> np.ndarray:
    return term.device.adjoint @ ket


class _TermWeights(NamedTuple):
    """|psi'_i|^2, |xi'_j|^2 and |phi'_i|^2 of one term (phi None without postselection)."""

    psi: np.ndarray
    xi: np.ndarray
    phi: np.ndarray | None

    def outcome_grid(self) -> np.ndarray:
        """P(r_ij) = |psi'_i|^2 |xi'_j|^2."""
        return np.outer(self.psi, self.xi)

    def joint_grid(self) -> np.ndarray:
        """P(r_ij and postselection) = |psi'_i|^2 |xi'_j|^2 |phi'_i|^2."""
        return np.outer(self.psi * self.phi, self.xi)


def _term_weights(
    term: ProductTermSpectral, psi: np.ndarray, xi: np.ndarray, phi: np.ndarray | None = None
) -> _TermWeights:
    """The one pass over a term's amplitudes that every statistic of the term is built from."""
    return _TermWeights(
        psi=np.abs(system_amplitudes(term, psi)) ** 2,
        xi=np.abs(device_amplitudes(term, xi)) ** 2,
        phi=None if phi is None else np.abs(system_amplitudes(term, phi)) ** 2,
    )


def _grid_mean(term: ProductTermSpectral, grid: np.ndarray) -> float:
    """sum_ij r_ij p_ij over a probability grid of the term."""
    return float(np.sum(term.eigenvalue_grid * grid))


def _require_denominator(denom: float, tol_p: float) -> None:
    if denom <= tol_p:
        raise ZeroProbability(f"postselection probability {denom:.3e} at or below cutoff {tol_p:.1e}")


def _conditioned(joint: np.ndarray, tol_p: float) -> np.ndarray:
    """Joint grid divided by its total, the postselection probability."""
    denom = float(np.sum(joint))
    _require_denominator(denom, tol_p)
    return joint / denom


def outcome_probability_grid(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> np.ndarray:
    """P(r_ij) = |<u_i v_j|Psi>|^2 as an (n, m) grid."""
    term = _resolve_spectral(scenario, spectral)[k]
    return _term_weights(term, scenario.psi, scenario.xi).outcome_grid()


def outcome_probability(
    scenario: MeasurementScenario, k: int, i: int, j: int, spectral: ProductSpectralData | None = None
) -> float:
    return float(outcome_probability_grid(scenario, k, spectral)[i, j])


def expectation(scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None) -> float:
    """Mean of one term: sum_ij r_ij P(r_ij)."""
    data = _resolve_spectral(scenario, spectral)
    return _grid_mean(data[k], outcome_probability_grid(scenario, k, data))


def projective_probability(rho: np.ndarray, projector: np.ndarray) -> float:
    """Tr[P rho] for a general density operator."""
    rho = as_operator(rho, "rho")
    projector = as_operator(projector, "projector")
    if rho.shape != projector.shape:
        raise DimensionMismatch("rho and projector dimensions differ")
    return float(np.trace(projector @ rho).real)


def luders_update(rho: np.ndarray, projector: np.ndarray, tol_p: float = TOL_POSTSELECT) -> np.ndarray:
    """State update rho -> P rho P / Tr[P rho P] after outcome P."""
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
    term = _resolve_spectral(scenario, spectral)[k]
    return _term_weights(term, scenario.psi, scenario.xi, phi).joint_grid()


def joint_probability(
    scenario: MeasurementScenario, k: int, i: int, j: int, spectral: ProductSpectralData | None = None
) -> float:
    return float(joint_probability_grid(scenario, k, spectral)[i, j])


def postselection_denominator(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> float:
    """Total probability of passing postselection after the term-k measurement."""
    return float(np.sum(joint_probability_grid(scenario, k, spectral)))


def abl_conditional_grid(
    scenario: MeasurementScenario,
    k: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> np.ndarray:
    return _conditioned(joint_probability_grid(scenario, k, spectral), tol_p)


def abl_conditional_probability(
    scenario: MeasurementScenario,
    k: int,
    i: int,
    j: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> float:
    """Probability of outcome (i, j) conditioned on pre- and postselection."""
    return float(abl_conditional_grid(scenario, k, spectral, tol_p)[i, j])


def conditional_expectation(
    scenario: MeasurementScenario,
    k: int,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> float:
    """Postselected mean of one term: sum_ij r_ij P(r_ij | phi, rho)."""
    data = _resolve_spectral(scenario, spectral)
    return _grid_mean(data[k], abl_conditional_grid(scenario, k, data, tol_p))


def observable_conditional_expectation(
    scenario: MeasurementScenario,
    spectral: ProductSpectralData | None = None,
    tol_p: float = TOL_POSTSELECT,
) -> float:
    """Sum of per-term conditional expectations over all terms."""
    data = _resolve_spectral(scenario, spectral)
    return sum(conditional_expectation(scenario, k, data, tol_p) for k in range(len(data)))


def eigenbasis_conditional_expectation(
    scenario: MeasurementScenario,
    tol_deg: float = TOL_DEG,
    tol_p: float = TOL_POSTSELECT,
) -> float:
    """Conditional expectation measuring the summed operator in its own eigenbasis.

    Extension beyond the per-term definition used everywhere else in this
    package: the full operator sum is decomposed into eigenspace projectors
    (possibly entangled across system and device) and the ABL ratio is formed
    over those outcomes. No postselection-invariance claim is made for this
    quantity.
    """
    phi = _require_postselect(scenario)
    total = scenario.observable.total_operator()
    dec = spectral_decompose(total, tol_deg)
    pi = PostselectionProjector(phi=phi, device_dim=scenario.m).matrix
    psi_joint = scenario.joint_state()

    numerator = 0.0
    denominator = 0.0
    for g, group in enumerate(dec.eigenspace_groups):
        proj = dec.eigenspace_projector(g)
        collapsed = proj @ psi_joint
        weight = float(np.vdot(collapsed, pi @ collapsed).real)
        value = float(np.mean(dec.eigenvalues[list(group)]))
        numerator += value * weight
        denominator += weight
    _require_denominator(denominator, tol_p)
    return numerator / denominator


def weak_value(psi, phi, a, tol_p: float = TOL_POSTSELECT) -> complex:
    """<phi|A|psi> / <phi|psi>."""
    psi = as_state(psi, name="psi")
    phi = as_state(phi, name="phi")
    op = as_operator(a, "A")
    if op.shape[0] != psi.size or phi.size != psi.size:
        raise DimensionMismatch("weak value inputs have inconsistent dimensions")
    overlap = complex(np.vdot(phi, psi))
    if abs(overlap) <= tol_p:
        raise OrthogonalPostselection(f"|<phi|psi>| = {abs(overlap):.3e} at or below cutoff {tol_p:.1e}")
    return complex(np.vdot(phi, op @ psi) / overlap)
