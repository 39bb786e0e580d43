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
    _decompose,
    _decomposition,
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


def _product_grid(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i * y_j over the last axes of two stacks: per row, the products ``np.outer`` forms."""
    return x[..., :, None] * y[..., None, :]


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

    The K system factors are decomposed as one (K, n, n) stack and the K
    device factors as one (K, m, m) stack, one ``_decompose`` call each. Each
    term holds the bits ``spectral_decompose`` gives its factors alone: stacked
    ``eigh`` decomposes each matrix in turn, and the canonicalisation works on
    each matrix on its own. Computed once per observable and tol_deg, then
    returned from a memo on the observable: its factors are read-only, so the
    result is a pure function of (terms, tol_deg), and every array in it is
    read-only, so callers can share it.
    """
    memo = observable._spectral
    data = memo.get(tol_deg)
    if data is None:
        # no Hermiticity check here: JointObservable.__post_init__ checked every factor and froze it read-only
        system, device = (
            [_decomposition(*parts) for parts in zip(*_decompose(np.stack(factors), tol_deg))]
            for factors in zip(*observable.terms)
        )
        entries = []
        for sys_dec, dev_dec in zip(system, device):
            grid = _product_grid(sys_dec.eigenvalues, dev_dec.eigenvalues)
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
        # nogo._scenario_means's memo, keyed by tol_deg; a plain attribute like
        # JointObservable._spectral, so fields(), __eq__ and repr see only the four fields
        object.__setattr__(self, "_means", {})

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


class _TermWeights(NamedTuple):
    """|psi'_i|^2, |xi'_j|^2 and |phi'_i|^2 of one term (phi None without postselection).

    The arrays may carry leading stack axes; the grids keep them.
    """

    psi: np.ndarray
    xi: np.ndarray
    phi: np.ndarray | None

    def outcome_grid(self) -> np.ndarray:
        """P(r_ij) = |psi'_i|^2 |xi'_j|^2."""
        return _product_grid(self.psi, self.xi)

    def joint_grid(self) -> np.ndarray:
        """P(r_ij and postselection) = |psi'_i|^2 |xi'_j|^2 |phi'_i|^2."""
        return _product_grid(self.psi * self.phi, self.xi)


def _weights(adjoint: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """|<e_i|ket>|^2 per ket of a (..., d) stack, against V^dag alone or one per ket: one matvec per ket."""
    return np.abs((adjoint @ ket[..., None])[..., 0]) ** 2


def _term_weights(
    system: np.ndarray, device: np.ndarray, psi: np.ndarray, xi: np.ndarray, phi: np.ndarray | None = None
) -> _TermWeights:
    """The one pass over a term's amplitudes, given its factors' V^dag; every statistic of the term comes from it."""
    return _TermWeights(
        psi=_weights(system, psi), xi=_weights(device, xi), phi=None if phi is None else _weights(system, phi)
    )


def _grid_sums(grids: np.ndarray) -> np.ndarray:
    """``np.sum`` of each (n, m) grid of a stack, with the bits np.sum gives a lone grid (the axes add as one row)."""
    return grids.sum(axis=(-2, -1))


def _grid_mean(term: ProductTermSpectral, grid: np.ndarray) -> float:
    """sum_ij r_ij p_ij over a probability grid of the term."""
    return float(_grid_sums(term.eigenvalue_grid * grid))


def _require_denominator(denom: float, tol_p: float) -> None:
    if denom <= tol_p:
        raise ZeroProbability(f"postselection probability {denom:.3e} at or below cutoff {tol_p:.1e}")


def _conditioned(joint: np.ndarray, tol_p: float) -> np.ndarray:
    """Joint grid divided by its total, the postselection probability."""
    denom = float(_grid_sums(joint))
    _require_denominator(denom, tol_p)
    return joint / denom


class _Means(NamedTuple):
    """What a verdict reads: per term, a list or stack with one entry per row of the kets."""

    denominators: tuple  # the postselection probabilities
    conditional: tuple  # the postselected term means
    unconditional: tuple  # the plain term means
    xi: tuple  # the (B, m) |xi'_j|^2


def _means(terms, psi: np.ndarray, xi: np.ndarray, phi: np.ndarray) -> _Means:
    """Both means of every term under postselection on phi, one amplitude pass per term.

    The kets are single or (B, d) stacks; single kets are the B = 1 case.
    ``terms`` gives (system V^dag, device V^dag, r_ij) per term, shared by every
    row or one per row. Each value is a row sum of one grid, so row b holds the
    bits of its kets alone (and of ``_conditioned`` and ``_grid_mean``). A
    vanishing denominator leaves a NaN or Inf mean, which the caller rejects
    with ``_require_denominator`` before reading it.
    """
    if psi.ndim == 1:
        return _means(terms, psi[None], xi[None], phi[None])
    columns = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for system, device, grid in terms:
            w = _term_weights(system, device, psi, xi, phi)
            joint = w.joint_grid()
            denom = _grid_sums(joint)
            conditional = _grid_sums(grid * (joint / denom[:, None, None]))
            columns.append((denom.tolist(), conditional.tolist(), _grid_sums(grid * w.outcome_grid()).tolist(), w.xi))
    return _Means(*zip(*columns))


def outcome_probability_grid(
    scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None
) -> np.ndarray:
    """P(r_ij) = |<u_i v_j|Psi>|^2 as an (n, m) grid."""
    term = _resolve_spectral(scenario, spectral)[k]
    return _term_weights(term.system.adjoint, term.device.adjoint, scenario.psi, scenario.xi).outcome_grid()


def outcome_probability(
    scenario: MeasurementScenario, k: int, i: int, j: int, spectral: ProductSpectralData | None = None
) -> float:
    return float(outcome_probability_grid(scenario, k, spectral)[i, j])


def expectation(scenario: MeasurementScenario, k: int, spectral: ProductSpectralData | None = None) -> float:
    """Mean of one term: sum_ij r_ij P(r_ij)."""
    data = _resolve_spectral(scenario, spectral)
    return _grid_mean(data[k], outcome_probability_grid(scenario, k, data))


def projective_probability(rho: np.ndarray, projector: np.ndarray) -> float:
    """Tr[P rho] for a general density operator; NaN or Inf entries are rejected."""
    rho = as_operator(rho, "rho")
    projector = as_operator(projector, "projector")
    if rho.shape != projector.shape:
        raise DimensionMismatch("rho and projector dimensions differ")
    # a NaN entry can leave the trace finite (off the diagonal) or make it NaN, which passes any `<=` gate
    for name, arr in (("rho", rho), ("projector", projector)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} has NaN or Inf entries")
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
    term = _resolve_spectral(scenario, spectral)[k]
    return _term_weights(term.system.adjoint, term.device.adjoint, scenario.psi, scenario.xi, phi).joint_grid()


def joint_probability(
    scenario: MeasurementScenario, k: int, i: int, j: int, spectral: ProductSpectralData | None = None
) -> float:
    return float(joint_probability_grid(scenario, k, spectral)[i, j])


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
