"""Brute-force reference paths for the two-step measurement process.

The enumeration path builds every outcome projector as an explicit outer
product, collapses the joint state by matrix-vector products, and forms the
Bayesian ratios from traces. It keeps its own eigensolver, the cyclic Jacobi
iteration ``jacobi_decompose``, where the formula path runs LAPACK ``eigh``;
the two share only the canonical basis given to degenerate eigenspaces, so
agreement between the paths is a real cross-check. The
sampler draws projective outcomes and postselection accept/reject decisions
from a seeded PCG64 generator (identical seed, identical stream on every
platform) and reports raw counts, equal to those of a ``Generator.choice``
draw followed by an accept draw on the same seed (see ``_accepted_counts``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroProbability
from .linalg import TOL_POSTSELECT, jacobi_decompose, outer, readonly, tensor_ket, tensor_product
from .measurement import MeasurementScenario, _require_postselect


def _term_product_vectors(sys_op: np.ndarray, dev_op: np.ndarray) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """Factor eigenvalue grid and product eigenvectors, straight from the factors."""
    sys_dec = jacobi_decompose(sys_op)
    dev_dec = jacobi_decompose(dev_op)
    grid = np.outer(sys_dec.eigenvalues, dev_dec.eigenvalues)
    vectors = [
        [tensor_ket(sys_dec.eigenvectors[:, i], dev_dec.eigenvectors[:, j]) for j in range(dev_dec.dim)]
        for i in range(sys_dec.dim)
    ]
    return grid, vectors


@dataclass(frozen=True)
class EnumerationResult:
    """Joint and conditional probabilities per outcome (k, i, j)."""

    joint: np.ndarray
    conditional: np.ndarray
    denominators: np.ndarray
    values: np.ndarray

    def conditional_expectation(self, k: int) -> float:
        return float(np.sum(self.values[k] * self.conditional[k]))


def enumerate_two_step(scenario: MeasurementScenario, tol_p: float = TOL_POSTSELECT) -> EnumerationResult:
    """Collapse-then-postselect enumeration over every outcome of every term."""
    phi = _require_postselect(scenario)
    n, m = scenario.n, scenario.m
    psi_joint = scenario.joint_state()
    rho = np.outer(psi_joint, psi_joint.conj())
    pi = tensor_product(outer(phi), np.eye(m))

    num_terms = scenario.observable.num_terms
    joint = np.zeros((num_terms, n, m))
    values = np.zeros((num_terms, n, m))
    for k, (sys_op, dev_op) in enumerate(scenario.observable.terms):
        grid, vectors = _term_product_vectors(sys_op, dev_op)
        values[k] = grid
        for i in range(n):
            for j in range(m):
                proj = outer(vectors[i][j])
                collapsed = proj @ rho @ proj
                joint[k, i, j] = float(np.trace(pi @ collapsed).real)

    denominators = joint.sum(axis=(1, 2))
    if np.all(denominators <= tol_p):
        raise ZeroProbability("postselection is incompatible with every outcome of every term")
    conditional = np.zeros_like(joint)
    for k in range(num_terms):
        if denominators[k] <= tol_p:
            raise ZeroProbability(f"postselection probability vanishes for term {k}")
        conditional[k] = joint[k] / denominators[k]

    return EnumerationResult(
        joint=readonly(joint),
        conditional=readonly(conditional),
        denominators=readonly(denominators),
        values=readonly(values),
    )


#: ``Generator.choice`` accepts probabilities whose sum is within this of 1.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _outcome_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution of ``probs``, built as ``Generator.choice(p=probs)`` builds it."""
    if not abs(probs.sum() - 1.0) <= _SUM_ATOL:  # also rejects NaN and Inf entries
        raise ValueError("outcome probabilities are not a distribution")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _accepted_counts(seed: int, shots: int, shards: int, cdf: np.ndarray, accept_probs: np.ndarray) -> np.ndarray:
    """Accepted shots per outcome, summed over ``shards`` near-equal shards.

    Shard s draws its outcome uniforms u and then its acceptance uniforms v
    from the generator seeded by (seed, s). Shot t draws outcome j when
    cdf[j-1] <= u[t] < cdf[j] (lower bound 0 for j = 0) and is accepted when
    v[t] < accept_probs[j]. Those are the comparisons
    ``searchsorted(cdf, u, side="right")`` inside ``Generator.choice`` makes
    on the same uniforms, so a shard's counts equal
    ``bincount(drawn[rng.random(size) < accept_probs[drawn]])`` with
    ``drawn = rng.choice(k, size, p)``. The shards share one set of buffers,
    so a call allocates and first touches them once.
    """
    base, extra = divmod(shots, shards)  # base >= 1, since shards <= shots
    u_buf = np.empty(base + (extra > 0))
    v_buf = np.empty_like(u_buf)
    hit_buf = np.empty(u_buf.size, dtype=bool)
    test_buf = np.empty_like(hit_buf)
    counts = np.zeros(cdf.size, dtype=np.int64)
    for shard in range(shards):
        size = base + (shard < extra)
        u, v, hit, test = u_buf[:size], v_buf[:size], hit_buf[:size], test_buf[:size]
        rng = np.random.default_rng((seed, shard))
        rng.random(out=u)
        rng.random(out=v)
        lower = 0.0
        for j, (upper, accept) in enumerate(zip(cdf, accept_probs)):
            np.greater_equal(u, lower, out=hit)
            hit &= np.less(u, upper, out=test)
            hit &= np.less(v, accept, out=test)
            counts[j] += np.count_nonzero(hit)
            lower = upper
    return counts


@dataclass(frozen=True)
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

    def conditional_expectation(self, values: np.ndarray) -> float:
        return float(np.sum(np.asarray(values) * self.frequencies()))


def sample_two_step(
    scenario: MeasurementScenario,
    shots: int,
    seed: int,
    term: int = 0,
    shards: int = 1,
) -> SamplingResult:
    """Monte Carlo draw of the projective outcome followed by postselection.

    Shard s uses the generator seeded by (seed, s), so shard results are
    independent and the merge is a plain sum. Identical arguments reproduce
    identical counts.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shards < 1 or shards > shots:
        raise ValueError("shards must be in [1, shots]")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0 <= term < scenario.observable.num_terms:
        raise ValueError(f"term must be in [0, {scenario.observable.num_terms})")
    phi = _require_postselect(scenario)
    n, m = scenario.n, scenario.m
    psi_joint = scenario.joint_state()
    pi = tensor_product(outer(phi), np.eye(m))

    sys_op, dev_op = scenario.observable.terms[term]
    _, vectors = _term_product_vectors(sys_op, dev_op)
    outcome_probs = np.zeros(n * m)
    accept_probs = np.zeros(n * m)
    for i in range(n):
        for j in range(m):
            collapsed = outer(vectors[i][j]) @ psi_joint
            p = float(np.vdot(collapsed, collapsed).real)
            outcome_probs[i * m + j] = p
            if p > 0.0:
                accept_probs[i * m + j] = float(np.vdot(collapsed, pi @ collapsed).real) / p
    outcome_probs = np.clip(outcome_probs, 0.0, None)
    outcome_probs /= outcome_probs.sum()
    accept_probs = np.clip(accept_probs, 0.0, 1.0)
    counts = _accepted_counts(int(seed), shots, shards, _outcome_cdf(outcome_probs), accept_probs)

    return SamplingResult(
        seed=int(seed),
        shots=int(shots),
        counts=readonly(counts.reshape(n, m)),
        accepted=int(counts.sum()),
    )
