"""Brute-force reference paths for the two-step measurement process.

Enumeration and sampling share one weight pass (``_outcome_weights``): it
builds every outcome projector as an explicit outer product, collapses the
joint ket by a matrix-vector product, and reads P(i, j) and
P(i, j and postselection) off the collapsed ket with the explicit
postselection projector |phi><phi| (x) I. The enumeration forms the Bayesian
ratios from those weights. The oracle keeps its own eigensolver, the cyclic
Jacobi iteration ``jacobi_decompose``, where the formula path runs LAPACK
``eigh``; the two share only the canonical basis given to degenerate
eigenspaces, so agreement between the paths is a real cross-check. The
sampler reports raw accepted counts: the accepted shots of N projective
outcomes, each kept or discarded by postselection, are jointly multinomial
in the cells P(i, j and postselection) plus one reject cell, so each shard
draws them with one ``Generator.multinomial`` call on a seeded PCG64
generator, in time and memory that do not grow with the shot count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbability
from .linalg import TOL_DEG, TOL_POSTSELECT, jacobi_decompose, outer, readonly, tensor_ket
from .measurement import JointObservable, MeasurementScenario, PostselectionProjector, _require_postselect


def _term_product_vectors(
    observable: JointObservable, k: int, tol_deg: float
) -> tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """Factor eigenvalue grid and product eigenvectors of term k, straight from the factors.

    Decomposed once per observable, term and tol_deg by the oracle's own
    solver, which gives each tol_deg eigenspace the basis the formula path
    gives it at that tol_deg. Then returned from the ``_oracle_terms`` memo,
    which the oracle adds to the observable on first use, apart from
    ``product_spectral``'s. The factors are read-only and so is the result,
    so the enumeration and the sampler can share it. A NaN or negative
    tol_deg raises ValueError before the memo stores anything.
    """
    memo = vars(observable).setdefault("_oracle_terms", {})
    entry = memo.get((k, tol_deg))
    if entry is None:
        sys_op, dev_op = observable.terms[k]
        sys_dec = jacobi_decompose(sys_op, tol_deg)
        dev_dec = jacobi_decompose(dev_op, tol_deg)
        grid = np.outer(sys_dec.eigenvalues, dev_dec.eigenvalues)
        sys_vecs, dev_vecs = sys_dec.eigenvectors, dev_dec.eigenvectors
        vectors = tuple(
            tuple(readonly(tensor_ket(sys_vecs[:, i], dev_vecs[:, j])) for j in range(dev_dec.dim))
            for i in range(sys_dec.dim)
        )
        entry = memo[k, tol_deg] = (readonly(grid), vectors)
    return entry


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Joint and conditional probabilities per outcome (k, i, j)."""

    joint: np.ndarray
    conditional: np.ndarray
    denominators: np.ndarray
    values: np.ndarray

    def conditional_expectation(self, k: int) -> float:
        return float(np.sum(self.values[k] * self.conditional[k]))


def _outcome_weights(vectors, psi_joint: np.ndarray, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(i, j) and P(i, j and postselection) per outcome of one term.

    The projector |v_ij><v_ij| collapses |Psi> to c_ij; then
    P(i, j) = <c_ij|c_ij> and P(i, j and postselection) = <c_ij|Pi|c_ij>.
    """
    n, m = len(vectors), len(vectors[0])
    outcome = np.zeros((n, m))
    joint = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            collapsed = outer(vectors[i][j]) @ psi_joint
            outcome[i, j] = np.vdot(collapsed, collapsed).real
            joint[i, j] = np.vdot(collapsed, pi @ collapsed).real
    return outcome, joint


def enumerate_two_step(scenario: MeasurementScenario, tol_p: float = TOL_POSTSELECT) -> EnumerationResult:
    """Collapse-then-postselect enumeration over every outcome of every term."""
    phi = _require_postselect(scenario)
    psi_joint = scenario.joint_state()
    pi = PostselectionProjector(phi=phi, device_dim=scenario.m).matrix
    num_terms = scenario.observable.num_terms
    joint = np.zeros((num_terms, scenario.n, scenario.m))
    values = np.zeros_like(joint)
    for k in range(num_terms):
        grid, vectors = _term_product_vectors(scenario.observable, k, TOL_DEG)
        values[k] = grid
        joint[k] = _outcome_weights(vectors, psi_joint, pi)[1]

    denominators = joint.sum(axis=(1, 2))
    conditional = np.zeros_like(joint)
    for k in range(num_terms):
        if not denominators[k] > tol_p:  # a NaN tol_p raises
            raise ZeroProbability(f"postselection probability vanishes for term {k}")
        conditional[k] = joint[k] / denominators[k]

    return EnumerationResult(
        joint=readonly(joint),
        conditional=readonly(conditional),
        denominators=readonly(denominators),
        values=readonly(values),
    )


#: Farthest from 1 that the P(i, j) of one term may sum before the sampler refuses them.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True, eq=False)
class SamplingResult:
    """Counts of postselection-accepted outcomes for one term."""

    seed: int
    shots: int
    counts: np.ndarray
    accepted: int

    def frequencies(self) -> np.ndarray:
        if self.accepted == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / self.accepted

    def conditional_expectation(self, values: np.ndarray) -> float | None:
        """The mean of ``values`` over the accepted outcomes; None when no shot was accepted."""
        if self.accepted == 0:
            return None
        return float(np.sum(np.asarray(values) * self.frequencies()))


def sample_two_step(
    scenario: MeasurementScenario,
    shots: int,
    seed: int,
    term: int = 0,
    shards: int = 1,
    tol_deg: float = TOL_DEG,
) -> SamplingResult:
    """Accepted counts of ``shots`` runs of the projective outcome followed by postselection.

    The outcome is measured in the eigenbasis ``jacobi_decompose`` gives each
    factor at tol_deg, the grouping tolerance ``verify_nogo`` takes. The
    accepted counts of N independent shots are jointly multinomial, with one
    cell P(i, j and postselection) per outcome and one reject cell, so shard s
    of the ``divmod(shots, shards)`` split draws
    ``default_rng((seed, s)).multinomial(N, cells)``, where ``cells`` is
    ``joint.reshape(-1) / outcome.sum()`` of ``_outcome_weights``, clipped at 0,
    followed by the reject cell ``max(0, 1 - cells.sum())``. The counts are the
    sum over shards without the reject cell. Time and memory do not grow with
    ``shots``. Identical arguments reproduce identical counts on one numpy
    build; NEP 19 does not promise ``Generator.multinomial`` the same values
    across numpy versions.
    """
    if not 1 <= shots <= np.iinfo(np.int64).max:  # numpy draws counts as int64
        raise ValueError(f"shots must be in [1, {np.iinfo(np.int64).max}]")
    if shards < 1 or shards > shots:
        raise ValueError("shards must be in [1, shots]")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0 <= term < scenario.observable.num_terms:
        raise ValueError(f"term must be in [0, {scenario.observable.num_terms})")
    phi = _require_postselect(scenario)
    psi_joint = scenario.joint_state()
    pi = PostselectionProjector(phi=phi, device_dim=scenario.m).matrix
    _, vectors = _term_product_vectors(scenario.observable, term, tol_deg)
    outcome, joint = _outcome_weights(vectors, psi_joint, pi)
    total = outcome.sum()  # 1 up to the kets' norm tolerance, as the outcome projectors resolve the identity
    if not abs(total - 1.0) <= _SUM_ATOL:  # also rejects NaN and Inf
        raise ValueError("outcome probabilities are not a distribution")
    cells = np.maximum(joint.reshape(-1) / total, 0.0)  # multinomial refuses a cell rounded below 0
    # explicit, since multinomial gives its last cell what the others leave and refuses a rounded 1 - sum below 0
    cells = np.append(cells, max(0.0, 1.0 - cells.sum()))
    counts = np.zeros(cells.size, dtype=np.int64)
    base, extra = divmod(shots, shards)  # base >= 1, since shards <= shots
    for shard in range(shards):
        counts += np.random.default_rng((seed, shard)).multinomial(base + (shard < extra), cells)

    return SamplingResult(
        seed=int(seed),
        shots=int(shots),
        counts=readonly(counts[:-1].reshape(outcome.shape)),
        accepted=int(counts[:-1].sum()),
    )
