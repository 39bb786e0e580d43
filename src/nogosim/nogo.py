"""Degeneracy analysis and mechanical verification of the postselection no-go.

A product term S_k (x) M_k is rank-m degenerate when every column of its
eigenvalue grid is constant along the system index: r_ij = r_i'j for all
i, i'. When every term of an observable passes that test, and the diagonal
of the transformed postselection projector keeps its block-constant pattern,
the conditional expectation under any postselection must equal the
unconditional one; this module computes both sides, the closed-form device
average, and reports the gaps. Random instance generation for batch audits
lives here too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotCanonical, NotRankMDegenerate, ZeroProbability
from .linalg import (
    TOL_DEG,
    TOL_POSTSELECT,
    TOL_VERIFY,
    _decompose,
    as_operator,
    is_unitary,
    readonly,
    spectral_decompose,
)
from .measurement import (
    JointObservable,
    MeasurementScenario,
    PostselectionProjector,
    ProductSpectralData,
    ProductTermSpectral,
    _Means,
    _means,
    _product_grid,
    _require_denominator,
    _require_postselect,
    _weights,
    product_spectral,
    weak_value,
)

#: Postselection probability below which audit draws are rejected.
MIN_AUDIT_POSTSELECT = 1e-6
#: Draws per instance before ``random_scenario`` and ``random_audit`` give up.
MAX_DRAW_TRIES = 256
#: Instances ``random_audit`` draws and evaluates together; bounds its working arrays for any count.
AUDIT_CHUNK = 1024


@dataclass(frozen=True)
class TermDegeneracy:
    """Column-constancy verdict for one product term."""

    is_rank_m_degenerate: bool
    column_eigenvalues: np.ndarray | None
    witness: tuple[int, int, int] | None


@dataclass(frozen=True)
class DegeneracyReport:
    terms: tuple[TermDegeneracy, ...]

    @property
    def all_degenerate(self) -> bool:
        return all(t.is_rank_m_degenerate for t in self.terms)


def _columns_within(grids: np.ndarray, tol_deg: float) -> np.ndarray:
    """Whether each column of each (..., n, m) grid spreads by at most tol_deg along i."""
    return grids.max(axis=-2) - grids.min(axis=-2) <= tol_deg  # False for a NaN spread or tolerance


def _term_degeneracy(grid: np.ndarray, tol_deg: float) -> TermDegeneracy:
    within = _columns_within(grid, tol_deg)
    if within.all():
        return TermDegeneracy(
            is_rank_m_degenerate=True,
            column_eigenvalues=readonly(grid.mean(axis=0)),
            witness=None,
        )
    j = int(np.argmin(within))  # first column outside tol_deg
    i_lo = int(np.argmin(grid[:, j]))
    i_hi = int(np.argmax(grid[:, j]))
    i, i2 = sorted((i_lo, i_hi))
    return TermDegeneracy(is_rank_m_degenerate=False, column_eigenvalues=None, witness=(i, i2, j))


def check_rank_m_degeneracy(spectral: ProductSpectralData, tol_deg: float = TOL_DEG) -> DegeneracyReport:
    """Test r_ij = r_i'j per column of each term's eigenvalue grid.

    The check runs on the product grid itself, not on the factor spectra, so
    a zero device eigenvalue makes its column degenerate regardless of the
    system factor. The report is computed once per spectral data and tol_deg,
    then returned from a memo on the data: its grids are read-only, so the
    report is a pure function of (spectral, tol_deg), and it is immutable, so
    callers can share it.
    """
    memo = spectral._degeneracy
    report = memo.get(tol_deg)
    if report is None:
        report = memo[tol_deg] = DegeneracyReport(
            terms=tuple(_term_degeneracy(t.eigenvalue_grid, tol_deg) for t in spectral.terms)
        )
    return report


@dataclass(frozen=True)
class BasisTransform:
    """Unitary whose columns are product eigenvectors, with T^dag Pi_phi T."""

    matrix: np.ndarray
    transformed_projector: np.ndarray


def basis_transform(columns, phi, device_dim: int) -> BasisTransform:
    mat = as_operator(columns, "transformation matrix")
    if not is_unitary(mat):
        raise ValueError("transformation matrix is not unitary within 1e-10")
    projector = PostselectionProjector(phi=phi, device_dim=device_dim)
    pi = projector.matrix
    if pi.shape != mat.shape:
        raise DimensionMismatch(
            f"phi has dim {projector.phi.size}, so with device_dim {device_dim} its projector acts on "
            f"dim {pi.shape[0]}, but the transformation matrix acts on dim {mat.shape[0]}"
        )
    return BasisTransform(matrix=readonly(mat), transformed_projector=readonly(mat.conj().T @ pi @ mat))


def term_basis_transform(term: ProductTermSpectral, phi) -> BasisTransform:
    """Transform built from one term's product eigenvectors (flat index i*m + j).

    Such a product transform always meets the basis requirement, which is why
    ``verify_nogo`` does not build it.
    """
    return basis_transform(term.basis_matrix(), phi, term.m)


def check_basis_requirement(transform: BasisTransform, n: int, m: int, tol: float = TOL_DEG) -> bool:
    """True iff diag(T^dag Pi_phi T) is constant inside each device-sized block.

    Reads the transformed projector the transform was built with. Meant for a
    caller-supplied T; a product transform U (x) V always passes.
    """
    diag = np.diag(transform.transformed_projector).real
    if diag.size != n * m:
        raise ValueError(f"transform acts on dim {diag.size}, expected {n * m}")
    blocks = diag.reshape(n, m)
    return bool(np.max(blocks.max(axis=1) - blocks.min(axis=1)) <= tol)


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
        """Invariance bound, enforced only under the full hypothesis."""
        if not (self.hypothesis_holds and self.basis_requirement_holds):
            return True
        # written so that a NaN gap fails
        if not (self.gap <= self.tol_verify):
            return False
        return self.closed_form_gap is None or self.closed_form_gap <= self.tol_verify


def _closed_form(report: DegeneracyReport, device_weights) -> float:
    """sum_k sum_j rtilde_j |xi'_j|^2, given each term's |xi'_j|^2."""
    total = 0.0
    for idx, (verdict, xi_weights) in enumerate(zip(report.terms, device_weights)):
        if verdict.column_eigenvalues is None:
            raise NotRankMDegenerate(f"term {idx} grid is not column-constant; witness {verdict.witness}")
        total += float(np.dot(verdict.column_eigenvalues, xi_weights))
    return total


def closed_form_value(scenario: MeasurementScenario, spectral: ProductSpectralData, report: DegeneracyReport) -> float:
    """sum_k sum_j rtilde_j |xi'_j|^2 over degenerate terms."""
    return _closed_form(report, [_weights(term.device.adjoint, scenario.xi) for term in spectral.terms])


def verify_nogo(
    scenario: MeasurementScenario,
    tol_deg: float = TOL_DEG,
    tol_verify: float = TOL_VERIFY,
    tol_p: float = TOL_POSTSELECT,
    spectral: ProductSpectralData | None = None,
) -> TheoremVerdict:
    """Compare conditional vs unconditional expectation and the closed form.

    Both means and the closed form come from one pass over each term's
    amplitudes; they equal the sums of ``conditional_expectation``,
    ``expectation`` and ``closed_form_value`` over the terms. With
    ``spectral`` None or the observable's memoized ``product_spectral`` data,
    that pass is the scenario's memoized one (``_scenario_means``), which
    ``random_scenario``'s postselection check has already made for the
    default tol_deg.
    """
    phi = _require_postselect(scenario)
    if spectral is None or spectral is scenario.observable._spectral.get(tol_deg):
        found = _scenario_means(scenario, tol_deg)
    else:
        found = _observable_means(spectral, scenario.psi, scenario.xi, phi, tol_deg)
    return _row_verdict(*found, 0, tol_verify, tol_p)


def _observable_means(data: ProductSpectralData, psi, xi, phi, tol_deg: float) -> tuple:
    """``_means`` over an observable's terms, and its degeneracy report when the hypothesis holds, else None."""
    report = check_rank_m_degeneracy(data, tol_deg)
    terms = [(t.system.adjoint, t.device.adjoint, t.eigenvalue_grid) for t in data.terms]
    return _means(terms, psi, xi, phi), report if report.all_degenerate else None


def _scenario_means(scenario: MeasurementScenario, tol_deg: float) -> tuple:
    """``_observable_means`` of a postselected scenario on its ``product_spectral`` data, memoized on the scenario.

    The kets are read-only and the spectral data is memoized on the
    observable, so the result is a pure function of (scenario, tol_deg).
    """
    memo = scenario._means
    found = memo.get(tol_deg)
    if found is None:
        data = product_spectral(scenario.observable, tol_deg)
        found = memo[tol_deg] = _observable_means(data, scenario.psi, scenario.xi, scenario.postselect, tol_deg)
    return found


def _row_verdict(means: _Means, report, b: int, tol_verify: float, tol_p: float) -> TheoremVerdict:
    """The verdict on row b of ``_means``: each denominator checked in order, then the means added by ``sum``."""
    for denom in means.denominators:
        _require_denominator(denom[b], tol_p)
    conditional = sum(term[b] for term in means.conditional)
    unconditional = sum(term[b] for term in means.unconditional)
    closed = None
    closed_gap = None
    if report is not None:
        closed = _closed_form(report, [term[b] for term in means.xi])
        closed_gap = max(abs(closed - conditional), abs(closed - unconditional))
    return TheoremVerdict(
        hypothesis_holds=report is not None,
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


def canonical_closed_form(
    scenario: MeasurementScenario, tol_diag: float = 1e-12, tol_deg: float = TOL_DEG
) -> float:
    """Closed form read directly off diagonal factor operators.

    Every factor must already be diagonal in the canonical basis
    (NotCanonical otherwise) and every column of the diagonal product grid
    must be constant (NotRankMDegenerate otherwise); then the value is
    sum_k sum_j rtilde_j |xi_j|^2 with the raw device amplitudes.
    """
    verdicts = []
    for idx, (sys_op, dev_op) in enumerate(scenario.observable.terms):
        for name, op in (("system", sys_op), ("device", dev_op)):
            off = op - np.diag(np.diag(op))
            if float(np.max(np.abs(off))) > tol_diag:
                raise NotCanonical(f"{name} factor {idx} is not diagonal in the canonical basis")
        verdicts.append(_term_degeneracy(np.outer(np.diag(sys_op).real, np.diag(dev_op).real), tol_deg))
    xi_weights = np.abs(scenario.xi) ** 2
    return _closed_form(DegeneracyReport(terms=tuple(verdicts)), [xi_weights] * len(verdicts))


def degenerate_weak_value(
    psi, phi, a, tol_deg: float = TOL_DEG, tol_p: float = TOL_POSTSELECT
) -> tuple[bool, complex, float | None]:
    """Detect a fully degenerate observable and return (flag, weak value, eigenvalue).

    When all eigenvalues agree within tol_deg the weak value must equal that
    common eigenvalue; the caller asserts the agreement at its own tolerance.
    """
    dec = spectral_decompose(as_operator(a, "A"), tol_deg)
    fully = bool(dec.eigenvalues[-1] - dec.eigenvalues[0] <= tol_deg)
    value = weak_value(psi, phi, a, tol_p)
    eigenvalue = float(np.mean(dec.eigenvalues)) if fully else None
    return fully, value, eigenvalue


# --- random instance generation -------------------------------------------------

def _hermitian(normals: np.ndarray, dim: int) -> np.ndarray:
    """(G + G^dag)/2 per row of (..., 2 dim^2) normals, G = (re + i im)/sqrt(2) with the
    dim^2 real parts first, then the dim^2 imaginary parts."""
    shape = normals.shape[:-1] + (dim, dim)
    g = (normals[..., : dim * dim].reshape(shape) + 1j * normals[..., dim * dim :].reshape(shape)) / np.sqrt(2.0)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


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


def _no_draw(min_postselect: float) -> ZeroProbability:
    return ZeroProbability(f"no draw reached postselection probability {min_postselect:.1e} in {MAX_DRAW_TRIES} tries")


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
    """The (B, K, n, n) system and (B, K, m, m) device factors from (B, K * ``_term_draws``) normals."""
    terms = normals.reshape(normals.shape[0], k, -1)
    if degenerate:
        return terms[..., :1, None] * np.eye(n, dtype=complex), _hermitian(terms[..., 1:], m)
    return _hermitian(terms[..., : 2 * n * n], n), _hermitian(terms[..., 2 * n * n :], m)


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
    MAX_DRAW_TRIES times. The check reads every term's denominator from one
    amplitude pass at the default tol_deg (``_scenario_means``), which stays
    memoized on the returned scenario for ``verify_nogo``.
    """
    for _ in range(MAX_DRAW_TRIES):
        k_count, normals = _draw_attempt(rng, n, m, degenerate, num_terms)
        sys_ops, dev_ops = _factors(normals[None], n, m, k_count, degenerate)
        # one random_ket call per ket: perfbench's tracer counts attempts by these calls
        psi, xi, phi = (random_ket(dim, rng) for dim in _ket_dims(n, m))
        scenario = MeasurementScenario(
            psi=psi,
            xi=xi,
            observable=JointObservable(n=n, m=m, terms=tuple(zip(sys_ops[0], dev_ops[0]))),
            postselect=phi,
        )
        means, _ = _scenario_means(scenario, TOL_DEG)
        if min(term[0] for term in means.denominators) >= min_postselect:
            return scenario
    raise _no_draw(min_postselect)


# --- the audit's array engine ----------------------------------------------------

def _audit_group(raw: np.ndarray, n: int, m: int, k: int, degenerate: bool, tol_deg: float) -> tuple[_Means, list]:
    """Evaluate the (B, size) draws of ``_draw_attempt`` the way ``verify_nogo`` evaluates one scenario.

    The factors are built and decomposed per stack, and ``_means`` runs on each
    term slot's per-row adjoints and grids, so row b holds the bits of
    ``verify_nogo`` on the scenario ``random_scenario`` builds from row b. Also
    returns each row's degeneracy report when its grids are column-constant,
    else None.
    """
    count = raw.shape[0]
    factor_draws = k * _term_draws(n, m, degenerate)
    sys_ops, dev_ops = _factors(raw[:, :factor_draws], n, m, k, degenerate)
    # Hermitian to the bit: entries ij and ji of (G + G^dag)/2 sum the same two floats (IEEE + commutes); c * I is real
    sys_values, sys_columns, _ = _decompose(sys_ops.reshape(-1, n, n), tol_deg)
    dev_values, dev_columns, _ = _decompose(dev_ops.reshape(-1, m, m), tol_deg)
    # unit kets: a row over its own norm has |norm^2 - 1| <= 8.9e-16 (measured, d = 1..256), far inside TOL_NORM
    ket_ends = np.cumsum([2 * dim for dim in _ket_dims(n, m)])
    psi, xi, phi = (_unit(part) for part in np.split(raw[:, factor_draws:], ket_ends[:-1], axis=1))
    grids = _product_grid(sys_values.reshape(count, k, n), dev_values.reshape(count, k, m))
    # the canonical columns come as rows, so their conjugates are the adjoints V^dag; axis 1 runs over term slots
    slots = zip(
        sys_columns.conj().reshape(count, k, n, n).swapaxes(0, 1),
        dev_columns.conj().reshape(count, k, m, m).swapaxes(0, 1),
        grids.swapaxes(0, 1),
    )
    reports = [
        DegeneracyReport(terms=tuple(_term_degeneracy(grid, tol_deg) for grid in row)) if holds else None
        for row, holds in zip(grids, _columns_within(grids, tol_deg).all(axis=(1, 2)).tolist())
    ]
    return _means(slots, psi, xi, phi), reports


def _audit_chunk(
    seed: int, indices: range, n, m, degenerate: bool, tol_deg: float, tol_verify: float, min_postselect: float
) -> list[tuple[int, int, int, TheoremVerdict]]:
    """(index, n, m, verdict) per instance, equal to ``random_scenario`` plus ``verify_nogo`` on its stream.

    Every instance's first attempt is drawn from its own ``instance_rng`` and
    evaluated in (n, m, K) groups. A rejected instance is then redrawn alone,
    on its own stream, in index order, so the first failing instance raises
    the scalar path's error.
    """
    rngs, dims = [], []
    for idx in indices:
        rng = instance_rng(seed, idx)
        dims_n = n if n is not None else int(rng.integers(2, 4))
        dims_m = m if m is not None else int(rng.integers(2, 4))
        rngs.append(rng)
        dims.append((dims_n, dims_m))

    members = defaultdict(list)
    for pos, (rng, (dims_n, dims_m)) in enumerate(zip(rngs, dims)):
        k, raw = _draw_attempt(rng, dims_n, dims_m, degenerate, kets=True)
        members[(dims_n, dims_m, k)].append((pos, raw))
    located = [None] * len(rngs)
    for (dims_n, dims_m, k), rows in members.items():
        group = _audit_group(np.stack([raw for _, raw in rows]), dims_n, dims_m, k, degenerate, tol_deg)
        for b, (pos, _) in enumerate(rows):
            located[pos] = (*group, b)

    results = []
    for pos, idx in enumerate(indices):
        means, reports, b = located[pos]
        dims_n, dims_m = dims[pos]
        tries = 1
        while not min(term[b] for term in means.denominators) >= min_postselect:
            if tries == MAX_DRAW_TRIES:
                raise _no_draw(min_postselect)
            k, raw = _draw_attempt(rngs[pos], dims_n, dims_m, degenerate, kets=True)
            (means, reports), b = _audit_group(raw[None], dims_n, dims_m, k, degenerate, tol_deg), 0
            tries += 1
        results.append((idx, dims_n, dims_m, _row_verdict(means, reports[b], b, tol_verify, TOL_POSTSELECT)))
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
    min_postselect: float = MIN_AUDIT_POSTSELECT,
) -> AuditSummary:
    """Run `count` seeded random instances and summarize the gap distribution.

    mode="degenerate" draws hypothesis-satisfying instances and counts bound
    violations; mode="generic" draws unrestricted instances and only reports
    gaps. Instance index i uses the generator seeded by (seed, i); dims are
    drawn from {2, 3} per instance unless pinned by n and m. Every instance
    equals ``random_scenario`` plus ``verify_nogo`` on its own generator, so
    it replays alone; the instances are evaluated in array groups of equal
    (n, m, K), AUDIT_CHUNK instances at a time.
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
    gaps = []
    for start in range(0, count, AUDIT_CHUNK):
        chunk = range(start, min(count, start + AUDIT_CHUNK))
        for idx, dims_n, dims_m, verdict in _audit_chunk(
            seed, chunk, n, m, mode == "degenerate", tol_deg, tol_verify, min_postselect
        ):
            if not verdict.passed:
                violations += 1
            gaps.append(verdict.gap)
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
    gap_arr = np.asarray(gaps)
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
