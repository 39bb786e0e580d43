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
sampler draws projective outcomes and postselection accept/reject decisions
from a seeded PCG64 generator (identical seed, identical stream on every
platform) and reports raw counts, equal to those of a ``Generator.choice``
draw followed by an accept draw on the same seed (see ``_accepted_counts``);
it reads each shard's draws in equal blocks of at most ``SAMPLE_BLOCK`` shots,
so its memory does not grow with shots, and compares each outcome boundary
once per shot.
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


#: ``Generator.choice`` accepts probabilities whose sum is within this of 1.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _outcome_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative distribution of ``probs``, built as ``Generator.choice(p=probs)`` builds it."""
    if not abs(probs.sum() - 1.0) <= _SUM_ATOL:  # also rejects NaN and Inf entries
        raise ValueError("outcome probabilities are not a distribution")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


#: Most shots the sampler draws and compares at a time, so its memory does not grow with the shot count.
SAMPLE_BLOCK = 1 << 15


def _accepted_counts(seed: int, shots: int, shards: int, cdf: np.ndarray, accept_probs: np.ndarray) -> np.ndarray:
    """Accepted shots per outcome, summed over ``shards`` near-equal shards.

    Shard s of size N reads the stream of the generator seeded by (seed, s):
    its first N uniforms are the outcome uniforms u, its next N the
    acceptance uniforms v. Shot t draws outcome j when
    cdf[j-1] <= u[t] < cdf[j] (lower bound 0 for j = 0) and is accepted when
    v[t] < accept_probs[j]. Those are the comparisons
    ``searchsorted(cdf, u, side="right")`` inside ``Generator.choice`` makes
    on the same uniforms, so a shard's counts equal
    ``bincount(drawn[rng.random(size) < accept_probs[drawn]])`` with
    ``drawn = rng.choice(k, size, p)``. The v stream is a second generator on
    the same seed, advanced past the N outcome draws, so both are read
    through one set of buffers, in ceil(N / ``SAMPLE_BLOCK``) near-equal
    blocks of at most ``SAMPLE_BLOCK`` shots. Each boundary cdf[j] is compared
    once per shot: outcome j is u < cdf[j] and not u < cdf[j-1], the mask
    kept from outcome j - 1. The bounds 0 <= u and u < cdf[-1] always hold,
    since u lies in [0, 1) and ``_outcome_cdf`` makes cdf[-1] exactly 1.0.
    """
    block = min(SAMPLE_BLOCK, -(-shots // shards))  # no shard is larger than ceil(shots / shards)
    u_buf, v_buf = np.empty(block), np.empty(block)
    hit_buf, below_buf, earlier_buf = (np.empty(block, dtype=bool) for _ in range(3))
    counts = np.zeros(cdf.size, dtype=np.int64)
    last = cdf.size - 1
    base, extra = divmod(shots, shards)  # base >= 1, since shards <= shots
    for shard in range(shards):
        size = base + (shard < extra)
        outcomes = np.random.default_rng((seed, shard))
        accepts = np.random.default_rng((seed, shard))
        accepts.bit_generator.advance(size)  # one step per uniform: past the shard's outcome draws
        blocks = -(-size // SAMPLE_BLOCK)
        width_base, wider = divmod(size, blocks)  # as shots split into shards: no block is a short tail
        for b in range(blocks):
            width = width_base + (b < wider)
            u, v, hit = u_buf[:width], v_buf[:width], hit_buf[:width]
            below, earlier = below_buf[:width], earlier_buf[:width]
            outcomes.random(out=u)
            accepts.random(out=v)
            for j, accept in enumerate(accept_probs):
                np.less(v, accept, out=hit)
                if j < last:
                    hit &= np.less(u, cdf[j], out=below)
                if j:
                    np.greater(hit, earlier, out=hit)  # and not u < cdf[j-1]
                counts[j] += np.count_nonzero(hit)
                below, earlier = earlier, below
    return counts


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
    """Monte Carlo draw of the projective outcome followed by postselection.

    The outcome is measured in the eigenbasis ``jacobi_decompose`` gives each
    factor at tol_deg, the grouping tolerance ``verify_nogo`` takes. Shard s
    uses the generator seeded by (seed, s), so shard results are independent
    and the merge is a plain sum. Identical arguments reproduce identical
    counts.
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
    psi_joint = scenario.joint_state()
    pi = PostselectionProjector(phi=phi, device_dim=scenario.m).matrix
    _, vectors = _term_product_vectors(scenario.observable, term, tol_deg)
    outcome, joint = _outcome_weights(vectors, psi_joint, pi)
    # a ratio rounded below 0 or above 1 needs no clip: a uniform v in [0, 1) meets v < a exactly when v < clip(a, 0, 1)
    accept_probs = np.divide(joint, outcome, out=np.zeros_like(joint), where=outcome > 0.0).reshape(-1)
    outcome_probs = outcome.reshape(-1)  # P(i, j) = ||c_ij||^2, a sum of squares, so >= 0
    outcome_probs /= outcome_probs.sum()
    counts = _accepted_counts(int(seed), shots, shards, _outcome_cdf(outcome_probs), accept_probs)

    return SamplingResult(
        seed=int(seed),
        shots=int(shots),
        counts=readonly(counts.reshape(outcome.shape)),
        accepted=int(counts.sum()),
    )
