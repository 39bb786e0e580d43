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

from dataclasses import dataclass

import numpy as np

from .errors import NotCanonical, NotRankMDegenerate, ZeroProbability
from .linalg import (
    TOL_DEG,
    TOL_POSTSELECT,
    TOL_VERIFY,
    as_operator,
    as_state,
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
    _require_postselect,
    conditional_expectation,
    device_amplitudes,
    expectation,
    joint_probability_grid,
    product_spectral,
    weak_value,
)

#: Postselection probability below which audit draws are rejected.
MIN_AUDIT_POSTSELECT = 1e-6


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


def _term_degeneracy(grid: np.ndarray, tol_deg: float) -> TermDegeneracy:
    lows = grid.min(axis=0)
    highs = grid.max(axis=0)
    spreads = highs - lows
    within = spreads <= tol_deg  # False for a NaN spread or tolerance
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
    system factor.
    """
    return DegeneracyReport(terms=tuple(_term_degeneracy(t.eigenvalue_grid, tol_deg) for t in spectral.terms))


@dataclass(frozen=True)
class BasisTransform:
    """Unitary whose columns are product eigenvectors, with T^dag Pi_phi T."""

    matrix: np.ndarray
    transformed_projector: np.ndarray


def basis_transform(columns, phi, device_dim: int) -> BasisTransform:
    mat = as_operator(columns, "transformation matrix")
    if not is_unitary(mat):
        raise ValueError("transformation matrix is not unitary within 1e-10")
    pi = PostselectionProjector(phi=as_state(phi, name="phi"), device_dim=device_dim).matrix
    return BasisTransform(matrix=readonly(mat), transformed_projector=readonly(mat.conj().T @ pi @ mat))


def term_basis_transform(term: ProductTermSpectral, phi) -> BasisTransform:
    """Transform built from one term's product eigenvectors (flat index i*m + j).

    Such a product transform always meets the basis requirement, which is why
    ``verify_nogo`` does not build it.
    """
    return basis_transform(term.basis_matrix(), phi, term.m)


def check_basis_requirement(
    transform: BasisTransform, phi, n: int, m: int, tol: float = TOL_DEG
) -> bool:
    """True iff diag(T^dag Pi_phi T) is constant inside each device-sized block.

    Meant for a caller-supplied T; a product transform U (x) V always passes.
    """
    pi = PostselectionProjector(phi=as_state(phi, name="phi"), device_dim=m).matrix
    diag = np.diag(transform.matrix.conj().T @ pi @ transform.matrix).real
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


def closed_form_value(scenario: MeasurementScenario, spectral: ProductSpectralData, report: DegeneracyReport) -> float:
    """sum_k sum_j rtilde_j |xi'_j|^2 over degenerate terms."""
    total = 0.0
    for term, verdict in zip(spectral.terms, report.terms):
        if verdict.column_eigenvalues is None:
            raise NotRankMDegenerate("closed form is undefined for a non-degenerate term")
        xi_amp = np.abs(device_amplitudes(term, scenario.xi)) ** 2
        total += float(np.dot(verdict.column_eigenvalues, xi_amp))
    return total


def verify_nogo(
    scenario: MeasurementScenario,
    tol_deg: float = TOL_DEG,
    tol_verify: float = TOL_VERIFY,
    tol_p: float = TOL_POSTSELECT,
    spectral: ProductSpectralData | None = None,
) -> TheoremVerdict:
    """Compare conditional vs unconditional expectation and the closed form."""
    _require_postselect(scenario)
    data = product_spectral(scenario.observable, tol_deg) if spectral is None else spectral
    report = check_rank_m_degeneracy(data, tol_deg)
    hypothesis = report.all_degenerate

    conditional = sum(conditional_expectation(scenario, k, data, tol_p) for k in range(len(data)))
    unconditional = sum(expectation(scenario, k, data) for k in range(len(data)))
    gap = abs(conditional - unconditional)

    closed = None
    closed_gap = None
    if hypothesis:
        closed = closed_form_value(scenario, data, report)
        closed_gap = max(abs(closed - conditional), abs(closed - unconditional))

    return TheoremVerdict(
        hypothesis_holds=hypothesis,
        # Each term's transform is T = U (x) V, and T^dag (|phi><phi| (x) I) T = (U^dag |phi><phi| U) (x) I,
        # whose diagonal |phi'_i|^2 is constant inside every device block by construction.
        basis_requirement_holds=True,
        conditional=conditional,
        unconditional=unconditional,
        gap=gap,
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
    xi_amp = np.abs(scenario.xi) ** 2
    total = 0.0
    for idx, (sys_op, dev_op) in enumerate(scenario.observable.terms):
        for name, op in (("system", sys_op), ("device", dev_op)):
            off = op - np.diag(np.diag(op))
            if float(np.max(np.abs(off))) > tol_diag:
                raise NotCanonical(f"{name} factor {idx} is not diagonal in the canonical basis")
        grid = np.outer(np.diag(sys_op).real, np.diag(dev_op).real)
        verdict = _term_degeneracy(grid, tol_deg)
        if verdict.column_eigenvalues is None:
            raise NotRankMDegenerate(f"term {idx} grid is not column-constant; witness {verdict.witness}")
        total += float(np.dot(verdict.column_eigenvalues, xi_amp))
    return total


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

def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """(G + G^dag)/2 with i.i.d. standard complex Gaussian entries."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return (g + g.conj().T) / 2.0


def random_ket(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for audit instance (seed, index); replayable in isolation."""
    return np.random.default_rng((int(seed), int(index)))


def random_scenario(
    rng: np.random.Generator,
    n: int,
    m: int,
    degenerate: bool,
    num_terms: int | None = None,
    min_postselect: float = MIN_AUDIT_POSTSELECT,
    max_tries: int = 256,
) -> MeasurementScenario:
    """Random pure-product scenario with postselection.

    degenerate=True draws terms c_k * I (x) M_k, which satisfy the
    column-constancy hypothesis by construction; degenerate=False draws
    generic Hermitian system factors. Draws whose postselection probability
    falls below min_postselect on any term are rejected and retried.
    """
    for _ in range(max_tries):
        k_count = num_terms if num_terms is not None else int(rng.integers(1, 3))
        terms = []
        for _ in range(k_count):
            if degenerate:
                sys_op = float(rng.standard_normal()) * np.eye(n, dtype=complex)
            else:
                sys_op = random_hermitian(n, rng)
            terms.append((sys_op, random_hermitian(m, rng)))
        scenario = MeasurementScenario(
            psi=random_ket(n, rng),
            xi=random_ket(m, rng),
            observable=JointObservable(n=n, m=m, terms=tuple(terms)),
            postselect=random_ket(n, rng),
        )
        data = scenario.spectral()
        denominators = [float(np.sum(joint_probability_grid(scenario, k, data))) for k in range(len(data))]
        if min(denominators) >= min_postselect:
            return scenario
    raise ZeroProbability(f"no draw reached postselection probability {min_postselect:.1e} in {max_tries} tries")


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
    drawn from {2, 3} per instance unless pinned by n and m.
    """
    if mode not in ("degenerate", "generic"):
        raise ValueError(f"unknown audit mode {mode!r}")
    if count < 1:
        raise ValueError("count must be at least 1")

    instances = []
    violations = 0
    gaps = []
    for idx in range(count):
        rng = instance_rng(seed, idx)
        dims_n = n if n is not None else int(rng.integers(2, 4))
        dims_m = m if m is not None else int(rng.integers(2, 4))
        scenario = random_scenario(
            rng, dims_n, dims_m, degenerate=(mode == "degenerate"), min_postselect=min_postselect
        )
        verdict = verify_nogo(scenario, tol_deg=tol_deg, tol_verify=tol_verify)
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
