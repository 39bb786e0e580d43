"""Brute-force reference paths for the two-step measurement process.

Enumeration and sampling share one weight pass per term (``_outcome_weights``),
kept on the scenario by (term, tol_deg), so a sample after an enumeration
reads the pass the enumeration made. The term's factors are decomposed by the
oracle's own eigensolver, the cyclic Jacobi iteration ``jacobi_decompose``,
whose rotations run on Python scalars, where the formula path runs LAPACK
``eigh``; the two share only the canonical basis given to degenerate
eigenspaces, so agreement between the paths is a real cross-check. Column
i*m + j of the product basis ``tensor_product(V_sys, V_dev)`` is the product
ket v_i (x) v_j. The stack of their explicit projectors |v_ij><v_ij| collapses
the joint ket for every outcome in one matmul, and P(i, j) and P(i, j and
postselection) are read off the collapsed kets with the explicit projector
|phi><phi| (x) I that ``PostselectionProjector`` builds: the oracle applies
the operators the two-step process names, where the formula path reads
factored weights off amplitudes. The enumeration stacks that pass over the
terms and forms the Bayesian ratios. The sampler reports raw accepted counts:
the accepted shots of N projective outcomes, each kept or discarded by
postselection, are jointly multinomial in the cells P(i, j and postselection)
plus one reject cell, so each shard draws them with one
``Generator.multinomial`` call on its own seeded PCG64 generator: time grows
with the shard count, and neither time nor memory with the shot count.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import TOL_DEG, TOL_POSTSELECT, jacobi_decompose, readonly, tensor_product
from .measurement import MeasurementScenario, PostselectionProjector, _require_denominator, _require_postselect


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """Joint and conditional probabilities per outcome (k, i, j)."""

    joint: np.ndarray
    conditional: np.ndarray
    denominators: np.ndarray
    values: np.ndarray

    def conditional_expectation(self, k: int) -> float:
        return float(np.sum(self.values[k] * self.conditional[k]))


def _outcome_weights(
    scenario: MeasurementScenario, k: int, tol_deg: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalue grid, P(i, j) and P(i, j and postselection) per outcome of term k, as read-only (n, m) arrays.

    Raises MissingPostselection first when the scenario has none. The three
    are kept in the ``_oracle_weights`` memo, keyed by (k, tol_deg), which
    the oracle adds to the scenario on first use, as ``scenario._means`` keeps
    the formula path's row; so sampling after enumeration reads the pass that
    enumeration made. On a miss each factor is decomposed by
    ``jacobi_decompose``, which gives each tol_deg eigenspace the basis the
    formula path gives it at that tol_deg; a NaN or negative tol_deg raises
    ValueError there, before the memo stores anything. Column i*m + j of the
    product basis ``tensor_product(V_sys, V_dev)`` is v_ij = v_i (x) v_j, and
    the (n*m, d, d) stack of its explicit projectors |v_ij><v_ij| collapses
    |Psi> to every c_ij in one stacked matmul. Then P(i, j) = <c_ij|c_ij> and
    P(i, j and postselection) = <c_ij|Pi|c_ij>, with Pi the explicit
    ``PostselectionProjector`` matrix. |<v_ij|Psi>|^2 would give P(i, j) with
    less work, but the oracle stays the explicit collapse-then-postselect
    reference: the formula path already reads the weights off the amplitudes.
    Pi is built by ``PostselectionProjector``, not written out here, because
    that class is the package's one public |phi><phi| (x) I, the operator
    ``nogo.basis_transform`` applies too; it costs once per memo miss.
    """
    memo = vars(scenario).setdefault("_oracle_weights", {})
    entry = memo.get((k, tol_deg))
    if entry is None:
        phi = _require_postselect(scenario)
        sys_dec, dev_dec = (jacobi_decompose(op, tol_deg) for op in scenario.observable.terms[k])
        grid = np.outer(sys_dec.eigenvalues, dev_dec.eigenvalues)
        kets = tensor_product(sys_dec.eigenvectors, dev_dec.eigenvectors).T  # row i*m + j is v_ij
        projectors = kets[:, :, None] * kets.conj()[:, None, :]
        collapsed = projectors @ scenario.joint_state()
        pi = PostselectionProjector(phi=phi, device_dim=scenario.m).matrix
        outcome = np.vecdot(collapsed, collapsed).real
        # row r of collapsed @ Pi^T is Pi c_r
        joint = np.vecdot(collapsed, collapsed @ pi.T).real
        entry = memo[k, tol_deg] = tuple(readonly(arr.reshape(grid.shape)) for arr in (grid, outcome, joint))
    return entry


def enumerate_two_step(scenario: MeasurementScenario, tol_p: float = TOL_POSTSELECT) -> EnumerationResult:
    """Collapse-then-postselect enumeration over every outcome of every term.

    A denominator at or below tol_p, and a NaN or negative tol_p, raise ZeroProbability.
    """
    weights = [_outcome_weights(scenario, k, TOL_DEG) for k in range(scenario.observable.num_terms)]
    values, _, joint = (np.array(stack) for stack in zip(*weights))
    denominators = joint.sum(axis=(1, 2))
    for denominator in denominators.tolist():
        _require_denominator(denominator, tol_p)

    return EnumerationResult(
        joint=readonly(joint),
        conditional=readonly(joint / denominators[:, None, None]),
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
    ``joint.reshape(-1) / outcome.sum()`` of the term's one ``_outcome_weights``
    pass, clipped to [0, 1], followed by the reject cell
    ``max(0, 1 - cells.sum())``. The counts are the sum over shards without the
    reject cell. Time and memory do not grow with ``shots``; each shard is one
    seeded generator and one draw, so time grows with ``shards``. Identical
    arguments reproduce identical counts on one numpy build; NEP 19 does not
    promise ``Generator.multinomial`` the same values across numpy versions.
    A ``shots`` or ``shards`` that is not an integer raises TypeError.
    """
    # a float count passes the range checks, and then the shard split draws 11 shots for 10.5 and reports 10
    shots, shards = operator.index(shots), operator.index(shards)
    if not 1 <= shots <= np.iinfo(np.int64).max:  # numpy draws counts as int64
        raise ValueError(f"shots must be in [1, {np.iinfo(np.int64).max}]")
    if shards < 1 or shards > shots:
        raise ValueError("shards must be in [1, shots]")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0 <= term < scenario.observable.num_terms:
        raise ValueError(f"term must be in [0, {scenario.observable.num_terms})")
    _, outcome, joint = _outcome_weights(scenario, term, tol_deg)
    total = outcome.sum()  # 1 up to the kets' norm tolerance, as the outcome projectors resolve the identity
    if not abs(total - 1.0) <= _SUM_ATOL:  # also rejects NaN and Inf
        raise ValueError("outcome probabilities are not a distribution")
    # multinomial refuses a cell rounded below 0 or above 1; one outcome that holds every shot and passes
    # postselection can round to 1 + 2**-52
    cells = np.clip(joint.reshape(-1) / total, 0.0, 1.0)
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
