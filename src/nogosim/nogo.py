"""Degeneracy analysis and mechanical verification of the postselection no-go.

A product term S_k (x) M_k is rank-m degenerate when every column of its
eigenvalue grid is constant along the system index: r_ij = r_i'j for all
i, i'. Column j is u_i v_j over i, so the check reads the factor spectra
alone and forms no grid. When every term of an observable passes that test,
and the diagonal of the transformed postselection projector keeps its
block-constant pattern, the conditional expectation under any postselection
must equal the unconditional one; this module computes both sides and the
closed-form device average, each from the observable's own spectral data,
and reports the gaps. Random instance generation for batch audits lives
here too: ``random_scenario`` and the audit's array engine evaluate a draw
by the same steps (``_evaluated``), and the scenario ``random_scenario``
returns carries that evaluation in both memos, so ``verify_nogo`` at the
default tol_deg reads it rather than computing it again.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroProbability
from .linalg import (
    TOL_DEG,
    TOL_POSTSELECT,
    TOL_UNITARY,
    TOL_VERIFY,
    _require_tol_deg,
    as_operator,
    hermitian_part,
    is_unitary,
    readonly,
    spectral_decompose,
    tensor_product,
)
from .measurement import (
    MeasurementScenario,
    PostselectionProjector,
    ProductSpectralData,
    _drawn_scenario,
    _Means,
    _means,
    _require_denominator,
    _require_postselect,
    _scenario_row,
    _spectral_stacks,
    _system_side,
    product_spectral,
)

#: Postselection probability below which audit draws are rejected.
MIN_AUDIT_POSTSELECT = 1e-6
#: Draws per instance before ``random_scenario`` and ``random_audit`` give up.
MAX_DRAW_TRIES = 256
#: Instances ``random_audit`` draws and evaluates together; bounds its working arrays for any count.
AUDIT_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class TermDegeneracy:
    """Column-constancy verdict for one product term."""

    is_rank_m_degenerate: bool
    column_eigenvalues: np.ndarray | None
    witness: tuple[int, int, int] | None


@dataclass(frozen=True, eq=False)
class DegeneracyReport:
    terms: tuple[TermDegeneracy, ...]

    @property
    def all_degenerate(self) -> bool:
        return all(t.is_rank_m_degenerate for t in self.terms)


def _within(u: np.ndarray, v: np.ndarray, tol_deg: float) -> np.ndarray:
    """Whether each column of the grids r_ij = u_i * v_j spreads by at most tol_deg along i, from (..., n) u and
    (..., m) v: column j spreads by exactly |v_j| (max u - min u). Every hypothesis passes through here,
    so a NaN or negative tol_deg is refused here first."""
    _require_tol_deg(tol_deg)
    return np.abs(v) * (u.max(axis=-1) - u.min(axis=-1))[..., None] <= tol_deg


def _term_degeneracy(u: np.ndarray, v: np.ndarray, within: np.ndarray, columns: np.ndarray) -> TermDegeneracy:
    """One term's verdict from its factor spectra, its row of ``_within`` and its column values mean(u) v_j."""
    if within.all():
        return TermDegeneracy(is_rank_m_degenerate=True, column_eigenvalues=columns, witness=None)
    j = int(np.argmin(within))  # first column outside tol_deg
    # column j is u * v_j, so its extreme rows are those of u (ascending, so already in order):
    # v_j != 0, as |v_j| (max u - min u) > tol_deg >= 0
    witness = int(np.argmin(u)), int(np.argmax(u)), j
    return TermDegeneracy(is_rank_m_degenerate=False, column_eigenvalues=None, witness=witness)


def check_rank_m_degeneracy(spectral: ProductSpectralData, tol_deg: float = TOL_DEG) -> DegeneracyReport:
    """Test r_ij = r_i'j per column of each term's eigenvalue grid, from the factor spectra alone.

    Column j of term k's grid is u_k * v_kj, so it spreads by |v_kj| (max u_k - min u_k)
    (``_within``), and a zero device eigenvalue makes its column degenerate
    regardless of the system factor. The column values are mean(u_k) v_kj, with
    the data's ``mean_system_values``, the kernel's closed column. Every other
    reader of the hypothesis takes ``_within`` alone, so only ``verify`` builds
    this report, once per run.
    """
    u, v = spectral.system_values, spectral.device_values
    within = _within(u, v, tol_deg)
    columns = readonly(spectral.mean_system_values[..., None] * v)
    return DegeneracyReport(terms=tuple(map(_term_degeneracy, u, v, within, columns)))


@dataclass(frozen=True, eq=False)
class BasisTransform:
    """Unitary whose columns are product eigenvectors, with T^dag Pi_phi T."""

    matrix: np.ndarray
    transformed_projector: np.ndarray


def basis_transform(columns, phi, device_dim: int) -> BasisTransform:
    mat = as_operator(columns, "transformation matrix")
    if not is_unitary(mat):
        raise ValueError(f"transformation matrix is not unitary within {TOL_UNITARY:g}")
    projector = PostselectionProjector(phi=phi, device_dim=device_dim)
    pi = projector.matrix
    if pi.shape != mat.shape:
        raise DimensionMismatch(
            f"phi has dim {projector.phi.size}, so with device_dim {device_dim} its projector acts on "
            f"dim {pi.shape[0]}, but the transformation matrix acts on dim {mat.shape[0]}"
        )
    return BasisTransform(matrix=readonly(mat), transformed_projector=readonly(mat.conj().T @ pi @ mat))


def term_basis_transform(scenario: MeasurementScenario, k: int) -> BasisTransform:
    """Transform T = V_sys (x) V_dev of the scenario's term k (flat index i*m + j), with its postselection
    state; each V holds the phase-fixed eigenvectors ``spectral_decompose`` gives the factor at the default tol_deg.

    Such a product transform always meets the basis requirement, which is why
    ``verify_nogo`` does not build it.
    """
    phi = _require_postselect(scenario)
    system, device = (spectral_decompose(factor).eigenvectors for factor in scenario.observable.terms[k])
    return basis_transform(tensor_product(system, device), phi, scenario.m)


def check_basis_requirement(transform: BasisTransform, n: int, m: int) -> bool:
    """True iff diag(T^dag Pi_phi T) is constant within TOL_DEG inside each device-sized block.

    Reads the transformed projector the transform was built with. Meant for a
    caller-supplied T; a product transform U (x) V always passes.
    """
    diag = np.diag(transform.transformed_projector).real
    if diag.size != n * m:
        raise ValueError(f"transform acts on dim {diag.size}, expected {n * m}")
    blocks = diag.reshape(n, m)
    return bool(np.max(blocks.max(axis=1) - blocks.min(axis=1)) <= TOL_DEG)


@dataclass(frozen=True)
class TheoremVerdict:
    """Both sides of the postselection-invariance statement plus the closed form."""

    hypothesis_holds: bool
    basis_requirement_holds: bool
    conditional: float
    unconditional: float
    gap: float
    closed_form: float | None
    closed_form_gap: float | None
    tol_verify: float

    @property
    def passed(self) -> bool:
        """Invariance bound, enforced only under the hypothesis (the basis requirement always holds)."""
        if not self.hypothesis_holds:
            return True
        # written so that a NaN gap fails
        if not (self.gap <= self.tol_verify):
            return False
        return self.closed_form_gap is None or self.closed_form_gap <= self.tol_verify


def verify_nogo(
    scenario: MeasurementScenario,
    tol_deg: float = TOL_DEG,
    tol_verify: float = TOL_VERIFY,
    tol_p: float = TOL_POSTSELECT,
    spectral: ProductSpectralData | None = None,
) -> TheoremVerdict:
    """Compare conditional vs unconditional expectation and the closed form.

    Both means and the closed form are the sums over the terms of one kernel
    row, ``_scenario_row`` at tol_deg, on ``product_spectral`` of the
    scenario's observable at tol_deg: ``conditional_expectation`` and
    ``expectation`` read the same row at the default tol_deg, and
    ``random_scenario``'s postselection check made it. The closed form is the
    row's closed column added in order, and None when the hypothesis fails.
    The hypothesis is ``_within`` on the factor spectra, the one column rule
    of ``check_rank_m_degeneracy`` and of the audit's rows, so no per-term
    report is built; a NaN or negative tol_deg raises ValueError.

    ``spectral`` takes only the object ``product_spectral(scenario.observable,
    tol_deg)`` returns, the data read without it; anything else raises
    ValueError. It stays only while the benchmark passes it, and goes then.
    """
    _require_postselect(scenario)
    data = product_spectral(scenario.observable, tol_deg)
    if spectral is not None and spectral is not data:
        raise ValueError("spectral must be product_spectral(scenario.observable, tol_deg) or left out")
    holds = bool(_within(data.system_values, data.device_values, tol_deg).all())
    return _row_verdict(_scenario_row(scenario, tol_deg), holds, 0, tol_verify, tol_p)


def _fold(values: list) -> float:
    """The floats added left to right from 0.0, the bits of Python 3.11's ``sum``. From 3.12 on, ``sum`` of
    floats compensates (``sum([1e16, 1.0, -1e16])`` is 1.0 there, 0.0 in this fold), so with it a verdict
    would depend on the Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def _row_verdict(means: _Means, holds, b: int, tol_verify: float, tol_p: float, slots=slice(None)) -> TheoremVerdict:
    """Row b's verdict on one observable's term slots, whose terms are all column-constant iff ``holds``:
    denominators checked, then means added in order (``_fold``); the closed form only when ``holds``."""
    for denom in means.denominators[b][slots]:
        _require_denominator(denom, tol_p)
    conditional = _fold(means.conditional[b][slots])
    unconditional = _fold(means.unconditional[b][slots])
    closed = _fold(means.closed[b][slots]) if holds else None
    closed_gap = None if closed is None else max(abs(closed - conditional), abs(closed - unconditional))
    return TheoremVerdict(
        hypothesis_holds=holds,
        # Each term's transform is T = U (x) V, and T^dag (|phi><phi| (x) I) T = (U^dag |phi><phi| U) (x) I,
        # whose diagonal |phi'_i|^2 is constant inside every device block by construction.
        basis_requirement_holds=True,
        conditional=conditional,
        unconditional=unconditional,
        gap=abs(conditional - unconditional),
        closed_form=closed,
        closed_form_gap=closed_gap,
        tol_verify=tol_verify,
    )


# --- random instance generation -------------------------------------------------

def _hermitian(normals: np.ndarray, dim: int) -> np.ndarray:
    """(G + G^dag)/2 per row of (..., 2 dim^2) normals, G = (re + i im)/sqrt(2) with the
    dim^2 real parts first, then the dim^2 imaginary parts."""
    shape = normals.shape[:-1] + (dim, dim)
    g = (normals[..., : dim * dim].reshape(shape) + 1j * normals[..., dim * dim :].reshape(shape)) / np.sqrt(2.0)
    return hermitian_part(g)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """(G + G^dag)/2 with i.i.d. standard complex Gaussian entries."""
    return _hermitian(rng.standard_normal(2 * dim * dim), dim)


def _unit(normals: np.ndarray) -> np.ndarray:
    """A unit ket per row of (..., 2 dim) normals: re + i im over its norm, the dim real parts first.

    The norm is ``np.linalg.norm``'s, sqrt(x.dot(x) + y.dot(y)) over the real
    and imaginary views; ``np.vecdot`` makes the same BLAS dot call per ket, so
    a ket of a stack gets the bits it gets alone.
    """
    dim = normals.shape[-1] // 2
    v = normals[..., :dim] + 1j * normals[..., dim:]
    x, y = v.real, v.imag
    return v / np.sqrt(np.vecdot(x, x) + np.vecdot(y, y))[..., None]


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _unit(rng.standard_normal(2 * dim))


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for audit instance (seed, index); replayable in isolation."""
    return np.random.default_rng((int(seed), int(index)))


# One attempt reads, from its generator: K unless fixed, then the normals of the
# K terms (``_term_draws`` each; ``_factors`` builds them), then those of psi, xi
# and phi (``_ket_dims``; ``random_ket`` or ``_unit`` builds each).

def _term_draws(n: int, m: int, degenerate: bool) -> int:
    """Normals per term: c_k (degenerate) or the system factor's 2 n^2, then the device factor's 2 m^2."""
    return (1 if degenerate else 2 * n * n) + 2 * m * m


def _ket_dims(n: int, m: int) -> tuple[int, int, int]:
    """The dims of psi, xi and phi, in draw order."""
    return n, m, n


def _draw_attempt(
    rng: np.random.Generator, n: int, m: int, degenerate: bool, num_terms: int | None = None, kets: bool = False
) -> tuple[int, np.ndarray]:
    """K and one ``standard_normal`` call with the normals of the attempt's factors, and with kets=True of its kets.

    Successive ``standard_normal`` calls read one stream, so one call of the
    total size draws the numbers that ``random_ket`` would draw next.
    """
    k = num_terms if num_terms is not None else int(rng.integers(1, 3))
    size = k * _term_draws(n, m, degenerate) + (2 * sum(_ket_dims(n, m)) if kets else 0)
    return k, rng.standard_normal(size)


def _factors(normals: np.ndarray, n: int, m: int, k: int, degenerate: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (..., K, n, n) system and (..., K, m, m) device factors from (..., K * ``_term_draws``) normals."""
    terms = normals.reshape(*normals.shape[:-1], k, -1)
    if degenerate:
        return terms[..., :1, None] * np.eye(n, dtype=complex), _hermitian(terms[..., 1:], m)
    return _hermitian(terms[..., : 2 * n * n], n), _hermitian(terms[..., 2 * n * n :], m)


def _evaluated(factors: tuple[np.ndarray, np.ndarray], kets: list, tol_deg: float) -> tuple[ProductSpectralData, _Means]:
    """The spectral data of drawn (..., n, n) system and (..., m, m) device factor stacks at tol_deg, and the
    kernel's means of (B, d) psi, xi and phi stacks on it: ``product_spectral`` plus ``_scenario_row``, without
    the constructors' checks, which hold by construction. The factors are Hermitian to the bit, as
    ``hermitian_part`` forms them, and c * I is real; each ket is a row over its own norm, so |norm^2 - 1| <=
    8.9e-16 (measured, d = 1..256), far inside TOL_NORM."""
    data = ProductSpectralData(*_spectral_stacks(*factors, tol_deg), tol_deg)
    return data, _means(data, _system_side(data, kets[0]), *kets[1:])


def random_scenario(
    rng: np.random.Generator,
    n: int,
    m: int,
    degenerate: bool,
    num_terms: int | None = None,
    min_postselect: float = MIN_AUDIT_POSTSELECT,
) -> MeasurementScenario:
    """Random pure-product scenario with postselection.

    degenerate=True draws terms c_k * I (x) M_k, which satisfy the
    column-constancy hypothesis by construction; degenerate=False draws
    generic Hermitian system factors. Draws whose postselection probability
    falls below min_postselect on any term are rejected and redrawn, up to
    MAX_DRAW_TRIES times. Each attempt is evaluated by the audit's steps,
    ``_evaluated`` at the default tol_deg: the check reads every term's
    denominator from one amplitude pass, and a rejected attempt builds no
    observable and no scenario. The accepted one is assembled around that
    data and that row (``measurement._drawn_scenario``), which seed the
    memos ``product_spectral`` and ``verify_nogo`` read at the default tol_deg.
    Non-positive dims or num_terms raise DimensionMismatch, and a NaN
    min_postselect (which no denominator meets) ValueError, before anything is drawn.
    """
    if n < 1 or m < 1:
        raise DimensionMismatch("system and device dimensions must be positive")
    if num_terms is not None and num_terms < 1:
        raise DimensionMismatch("observable needs at least one term")
    if math.isnan(min_postselect):
        raise ValueError(f"min_postselect must be a number, got {min_postselect!r}")
    for _ in range(MAX_DRAW_TRIES):
        k_count, normals = _draw_attempt(rng, n, m, degenerate, num_terms)
        system, device = _factors(normals, n, m, k_count, degenerate)
        # one random_ket call per ket: perfbench's tracer counts attempts by these calls
        kets = [random_ket(dim, rng) for dim in _ket_dims(n, m)]
        data, means = _evaluated((system, device), [ket[None] for ket in kets], TOL_DEG)
        if min(means.denominators[0]) >= min_postselect:
            return _drawn_scenario(system, data, *kets, means)
    raise ZeroProbability(f"no draw reached postselection probability {min_postselect:.1e} in {MAX_DRAW_TRIES} tries")


# --- the audit's array engine ----------------------------------------------------

def _audit_group(raw: np.ndarray, n: int, m: int, k: int, degenerate: bool, tol_deg: float) -> tuple[list, _Means, list]:
    """Per row of (B, size) ``_draw_attempt`` draws, the bits ``random_scenario`` plus ``verify_nogo`` give it:
    its denominators at TOL_DEG, which accept it, its means at tol_deg, and whether all its terms are
    column-constant (``_within``). The (B, K) factor stacks and the kets go through ``_evaluated``, the steps
    ``random_scenario`` runs on each attempt. Factors and kets are built once: only the system bases depend on
    tol_deg, so the data and means are redone only at another tol_deg.
    """
    factor_draws = k * _term_draws(n, m, degenerate)
    factors = _factors(raw[:, :factor_draws], n, m, k, degenerate)
    ket_ends = np.cumsum([2 * dim for dim in _ket_dims(n, m)])
    kets = [_unit(part) for part in np.split(raw[:, factor_draws:], ket_ends[:-1], axis=1)]
    data, accepted = _evaluated(factors, kets, TOL_DEG)
    means = accepted
    if tol_deg != TOL_DEG:
        data, means = _evaluated(factors, kets, tol_deg)
    holding = _within(data.system_values, data.device_values, tol_deg).all(axis=(1, 2)).tolist()
    return accepted.denominators, means, holding


def _instance_stream(seed: int, index: int, n, m) -> tuple[np.random.Generator, int, int]:
    """Instance (seed, index)'s fresh generator and its dims: n and m where pinned, else each drawn from {2, 3}."""
    rng = instance_rng(seed, index)
    return rng, n if n is not None else int(rng.integers(2, 4)), m if m is not None else int(rng.integers(2, 4))


def _audit_chunk(
    seed: int, indices: range, n, m, degenerate: bool, tol_deg: float, tol_verify: float
) -> list[tuple[int, int, int, TheoremVerdict]]:
    """(index, n, m, verdict) per instance, equal to ``random_scenario`` plus ``verify_nogo`` on its stream.

    Every instance's first attempt is drawn from its own ``instance_rng`` and
    evaluated in (n, m, K) groups. As in ``random_scenario``, the attempt is
    accepted on its denominators at TOL_DEG, against MIN_AUDIT_POSTSELECT as it
    reads at call time; its verdict is read at tol_deg.
    An instance whose first attempt is rejected is its replay: ``random_scenario``
    plus ``verify_nogo`` on a fresh ``instance_rng``. Verdicts are formed in
    index order, so the first failing instance raises the scalar path's error.
    """
    dims, members = [], defaultdict(list)
    for pos, idx in enumerate(indices):
        rng, dims_n, dims_m = _instance_stream(seed, idx, n, m)
        k, raw = _draw_attempt(rng, dims_n, dims_m, degenerate, kets=True)
        dims.append((dims_n, dims_m))
        members[(dims_n, dims_m, k)].append((pos, raw))
    located = [None] * len(dims)
    for (dims_n, dims_m, k), rows in members.items():
        positions, raws = zip(*rows)
        denominators, means, holding = _audit_group(np.stack(raws), dims_n, dims_m, k, degenerate, tol_deg)
        for b, pos in enumerate(positions):
            located[pos] = (denominators[b], means, holding[b], b)

    results = []
    for idx, (dims_n, dims_m), (denominators, means, holds, b) in zip(indices, dims, located):
        if min(denominators) >= MIN_AUDIT_POSTSELECT:
            verdict = _row_verdict(means, holds, b, tol_verify, TOL_POSTSELECT)
        else:
            rng = _instance_stream(seed, idx, n, m)[0]
            scenario = random_scenario(rng, dims_n, dims_m, degenerate, min_postselect=MIN_AUDIT_POSTSELECT)
            verdict = verify_nogo(scenario, tol_deg, tol_verify)
        results.append((idx, dims_n, dims_m, verdict))
    return results


@dataclass(frozen=True)
class AuditInstance:
    index: int
    n: int
    m: int
    hypothesis_holds: bool
    basis_requirement_holds: bool
    gap: float
    closed_form_gap: float | None


@dataclass(frozen=True)
class AuditSummary:
    mode: str
    seed: int
    count: int
    violations: int
    gap_min: float
    gap_median: float
    gap_max: float
    instances: tuple[AuditInstance, ...]


def random_audit(
    count: int,
    seed: int,
    mode: str,
    n: int | None = None,
    m: int | None = None,
    tol_deg: float = TOL_DEG,
    tol_verify: float = TOL_VERIFY,
) -> AuditSummary:
    """Run `count` seeded random instances and summarize the gap distribution.

    mode="degenerate" draws hypothesis-satisfying instances and counts bound
    violations; mode="generic" draws unrestricted instances and only reports
    gaps. Instance index i uses the generator seeded by (seed, i); dims are
    drawn from {2, 3} per instance unless pinned by n and m. Every instance
    equals ``random_scenario`` plus ``verify_nogo`` on its own generator, so
    it replays alone. A draw is rejected below MIN_AUDIT_POSTSELECT. First
    draws are evaluated in array groups of equal (n, m, K), AUDIT_CHUNK
    instances at a time; an instance whose first draw is rejected is computed
    as that replay.
    """
    if mode not in ("degenerate", "generic"):
        raise ValueError(f"unknown audit mode {mode!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if (n is not None and n < 1) or (m is not None and m < 1):
        raise DimensionMismatch("system and device dimensions must be positive")

    instances = []
    violations = 0
    for start in range(0, count, AUDIT_CHUNK):
        chunk = range(start, min(count, start + AUDIT_CHUNK))
        for idx, dims_n, dims_m, verdict in _audit_chunk(seed, chunk, n, m, mode == "degenerate", tol_deg, tol_verify):
            if not verdict.passed:
                violations += 1
            instances.append(
                AuditInstance(
                    index=idx,
                    n=dims_n,
                    m=dims_m,
                    hypothesis_holds=verdict.hypothesis_holds,
                    basis_requirement_holds=verdict.basis_requirement_holds,
                    gap=verdict.gap,
                    closed_form_gap=verdict.closed_form_gap,
                )
            )
    gap_arr = np.asarray([instance.gap for instance in instances])
    return AuditSummary(
        mode=mode,
        seed=int(seed),
        count=count,
        violations=violations,
        gap_min=float(gap_arr.min()),
        gap_median=float(np.median(gap_arr)),
        gap_max=float(gap_arr.max()),
        instances=tuple(instances),
    )
