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
wbar_k = sum_i u_i p_i x_i / sum_i p_i x_i. The kernel is split by ket:
psi's part, p and <psi|S_k|psi> (``_system_side``), and the closed form's
mean(u_k) (``ProductSpectralData.mean_system_values``) are formed apart, so
a caller whose psi or data is fixed forms them once and ``_means`` then
reads only xi and phi. The oracle module re-derives the same quantities by
explicit matrix arithmetic so the two paths can be compared in tests.

Spectral data has one owner, the observable: every reader of a scenario
takes its observable's ``product_spectral`` itself, so no caller can pass
the data of another observable, and the kernel row is memoized on the
scenario by tol_deg, as the data is on the observable. A random draw's
scenario (``_drawn_scenario``) is assembled with both memos seeded from the
evaluation that accepted it.

The dataclasses here hold numpy arrays, so they compare and hash by identity
(``eq=False``): a field-wise ``==`` over arrays has no truth value.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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
    as_operator,
    as_state,
    hermitian_part,
    outer,
    readonly,
    require_finite,
    require_hermitian,
    spectral_decompose,
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
    A reader that shows an eigenvector takes it from ``spectral_decompose`` of
    the factor, the one place the formula path forms a phase-fixed basis.

    ``tol_deg``, the grouping tolerance the data was made at, and
    ``mean_system_values``, each term's read-only mean(u_k), the system factor
    of the closed form mean(u_k) <xi|M_k|xi>, are plain attributes, so fields()
    and repr see only the stacks. The means are formed with the data, not on
    first access: the kernel reads them on every data it is given, and on
    Python 3.11 a ``cached_property``'s first access costs more than the mean.
    """

    system_adjoint: np.ndarray
    device_factors: np.ndarray
    system_values: np.ndarray
    device_values: np.ndarray
    tol_deg: InitVar[float]

    def __post_init__(self, tol_deg):
        object.__setattr__(self, "tol_deg", tol_deg)
        u = self.system_values
        means = u.sum(axis=-1) / u.shape[-1]
        means.setflags(write=False)  # a fresh array: no copy needed to freeze it
        object.__setattr__(self, "mean_system_values", means)

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
        # _scenario_row's memo, keyed by tol_deg; a plain attribute like
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


def _failed_cutoff(tol_p: float) -> str:
    """How a value failed ``value > tol_p >= 0``, the test of every postselection gate.

    The gates fail closed: a NaN value, and a NaN or negative cutoff, pass nothing. A negative
    cutoff would pass a zero probability into a 0/0 mean.
    """
    return f"refused at negative cutoff {tol_p:.1e}" if tol_p < 0.0 else f"at or below cutoff {tol_p:.1e}"


def _require_denominator(denom: float, tol_p: float) -> None:
    if not denom > tol_p >= 0.0:
        raise ZeroProbability(f"postselection probability {denom:.3e} {_failed_cutoff(tol_p)}")


class _SystemSide(NamedTuple):
    """psi's part of the kernel, per row of psi and term slot: all that the means read of psi."""

    weights: np.ndarray  # p_i = |<u_i|psi>|^2, (B, K, n)
    means: np.ndarray  # <psi|S_k|psi> = sum_i u_i p_i, (B, K)


def _system_side(data: ProductSpectralData, psi: np.ndarray) -> _SystemSide:
    """psi's weights under every term's ``system_adjoint`` and its means <psi|S_k|psi>, per row of a (B, n) stack.

    B may be 1 for any number of rows of xi and phi: ``_means`` broadcasts
    the row, and an elementwise product or a per-row ``np.vecdot`` of a
    broadcast row holds the bits it holds on B copies.
    """
    # a term slot axis on psi: its weights under each of the K adjoints
    weights = _weights(data.system_adjoint, psi[:, None])
    return _SystemSide(weights, np.vecdot(data.system_values, weights))


class _Means(NamedTuple):
    """What a verdict reads: per row of the kets, per term slot, as (B, K) lists."""

    denominators: list | None  # sum_i p_i x_i; None without a postselection state
    conditional: list | None  # wbar_k <xi|M_k|xi>; None without a postselection state
    unconditional: list  # <psi|S_k|psi> <xi|M_k|xi>
    closed: list  # mean(u_k) <xi|M_k|xi>, the closed form of a column-constant term


def _means(data: ProductSpectralData, system: _SystemSide, xi, phi) -> _Means:
    """Every term's means in the factored form, from psi's ``_system_side`` and one pass over xi and phi.

    xi and phi are (B, d) stacks, and phi may be None; ``system`` has B rows
    or one, shared by every row. ``data``'s stacks are (K, ...), shared by
    every row, or carry a leading B axis, one observable per row. The device
    side is <xi|M_k|xi>, taken off the factor M_k itself, so no device
    eigenvector enters. Each value is a product of ``np.vecdot`` reductions
    over its own slot, in one stacked form for any B, so entry (b, k) holds
    the bits of row b's kets and term k alone. A vanishing denominator leaves
    a NaN or Inf conditional mean, which the caller rejects with
    ``_require_denominator`` before reading it.
    """
    device_mean = _quadratic_form(data.device_factors, xi[:, None])  # <xi|M_k|xi>
    unconditional = (system.means * device_mean).tolist()
    closed = (data.mean_system_values * device_mean).tolist()
    if phi is None:
        return _Means(None, None, unconditional, closed)
    x = _weights(data.system_adjoint, phi[:, None])
    denom = np.vecdot(system.weights, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.vecdot(data.system_values, system.weights * x) / denom * device_mean
    return _Means(denom.tolist(), conditional.tolist(), unconditional, closed)


def _scenario_row(scenario: MeasurementScenario, tol_deg: float = TOL_DEG) -> _Means:
    """The kernel's row for a scenario's kets (phi when it has one) on its observable's ``product_spectral`` at
    tol_deg, memoized on the scenario by tol_deg as ``product_spectral`` is on the observable; a NaN or negative
    tol_deg is refused there before anything is stored."""
    means = scenario._means.get(tol_deg)
    if means is None:
        data = product_spectral(scenario.observable, tol_deg)
        xi, phi = (ket if ket is None else ket[None] for ket in (scenario.xi, scenario.postselect))
        means = scenario._means[tol_deg] = _means(data, _system_side(data, scenario.psi[None]), xi, phi)
    return means


def _assembled(cls, **attrs):
    """An instance of a frozen dataclass with the given attributes, its ``__post_init__`` not run."""
    obj = object.__new__(cls)
    for name, value in attrs.items():
        object.__setattr__(obj, name, value)
    return obj


def _drawn_scenario(
    system: np.ndarray, data: ProductSpectralData, psi: np.ndarray, xi: np.ndarray, phi: np.ndarray, means: _Means
) -> MeasurementScenario:
    """The scenario of a draw: its (K, n, n) system factors, its ``_spectral_stacks`` data,
    whose ``device_factors`` are the device factors, its unit kets, and their ``_means`` row on that data.

    Every array is fresh, so it is frozen in place, and each term is a pair of row views of the read-only
    stacks. The constructors' checks are not run: the caller built the factors Hermitian to the bit and the
    kets unit within 8.9e-16 (``nogo._evaluated``). ``product_spectral`` and ``_scenario_row`` find the data
    and the row in their memos at the data's tol_deg.
    """
    stacks = data.system_adjoint, data.device_factors, data.system_values, data.device_values
    for arr in (system, *stacks, psi, xi, phi):
        arr.setflags(write=False)
    n, m = system.shape[-1], data.device_factors.shape[-1]
    observable = _assembled(
        JointObservable, n=n, m=m, terms=tuple(zip(system, data.device_factors)), _spectral={data.tol_deg: data}
    )
    return _assembled(
        MeasurementScenario, psi=psi, xi=xi, observable=observable, postselect=phi, _means={data.tol_deg: means}
    )


def _device_weights(data: ProductSpectralData, k: int, xi: np.ndarray) -> np.ndarray:
    """q_j = |<v_j|xi>|^2 of term k, the v_j the eigenvectors ``spectral_decompose`` gives its device factor."""
    return _weights(spectral_decompose(data.device_factors[k]).eigenvectors.conj().T, xi)


def outcome_probability_grid(scenario: MeasurementScenario, k: int) -> np.ndarray:
    """P(r_ij) = |<u_i v_j|Psi>|^2 as an (n, m) grid, the device eigenvectors those of ``spectral_decompose``."""
    data = product_spectral(scenario.observable)
    return _product_grid(_weights(data.system_adjoint[k], scenario.psi), _device_weights(data, k, scenario.xi))


def expectation(scenario: MeasurementScenario, k: int) -> float:
    """Mean of one term, <psi|S_k|psi> <xi|M_k|xi>: slot k of the kernel."""
    return _scenario_row(scenario).unconditional[0][k]


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
    if not prob > tol_p >= 0.0:
        raise ZeroProbability(f"outcome probability {prob:.3e} {_failed_cutoff(tol_p)}")
    updated = hermitian_part(as_operator(projector) @ as_operator(rho) @ as_operator(projector))
    return updated / np.trace(updated).real


def joint_probability_grid(scenario: MeasurementScenario, k: int) -> np.ndarray:
    """P(r_ij and postselection) = |psi'_i|^2 |xi'_j|^2 |phi'_i|^2 as an (n, m) grid, the device eigenvectors
    those of ``spectral_decompose``."""
    phi = _require_postselect(scenario)
    data = product_spectral(scenario.observable)
    system = data.system_adjoint[k]
    return _product_grid(_weights(system, scenario.psi) * _weights(system, phi), _device_weights(data, k, scenario.xi))


def postselection_denominator(scenario: MeasurementScenario, k: int) -> float:
    """Probability of passing postselection after the term-k measurement, sum_i p_i x_i: slot k of the kernel."""
    _require_postselect(scenario)
    return _scenario_row(scenario).denominators[0][k]


def abl_conditional_grid(scenario: MeasurementScenario, k: int, *, tol_p: float = TOL_POSTSELECT) -> np.ndarray:
    """P(r_ij | pre- and postselection) as an (n, m) grid: the joint grid over its total."""
    joint = joint_probability_grid(scenario, k)
    denom = float(joint.sum())
    _require_denominator(denom, tol_p)
    return joint / denom


def conditional_expectation(scenario: MeasurementScenario, k: int, *, tol_p: float = TOL_POSTSELECT) -> float:
    """Postselected mean of one term, wbar_k <xi|M_k|xi>: slot k of the kernel, its denominator checked first."""
    _require_postselect(scenario)
    means = _scenario_row(scenario)
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
    if not abs(overlap) > tol_p >= 0.0:
        raise OrthogonalPostselection(f"|<phi|psi>| = {abs(overlap):.3e} {_failed_cutoff(tol_p)}")
    return complex(np.vdot(phi, op @ psi) / overlap)
