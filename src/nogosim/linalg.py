"""Dense complex linear algebra used throughout the package.

Operators and kets are plain complex numpy arrays. ``spectral_decompose``
runs LAPACK ``eigh`` and then gives every degenerate eigenspace (eigenvalues
within ``tol_deg``) a canonical basis, so a degenerate factor is measured in a
basis fixed by its eigenspace, not by whichever basis the solver happened to
return. A cyclic Jacobi
solver (``jacobi_decompose``) ending in the same canonicalisation is kept for
the oracle, so the oracle shares no eigensolver with the formula path.

An eigenvector's phase is fixed (``_fixed_columns``: first non-negligible
component real positive) only where eigenvectors are shown: in
``_decomposition``, behind ``spectral_decompose`` and ``jacobi_decompose``,
and in the ``ProductSpectralData`` views. No probability |<u_i|psi>|^2
depends on it, so the formula path's stacks (``_decompose``) stop before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonHermitian

#: Entrywise Hermiticity tolerance.
TOL_HERMITIAN = 1e-12
#: State normalization tolerance on |norm^2 - 1|.
TOL_NORM = 1e-12
#: Default tolerance for grouping nearly equal eigenvalues.
TOL_DEG = 1e-9
#: Default tolerance for postselection-invariance checks.
TOL_VERIFY = 1e-9
#: Probabilities at or below this cutoff count as impossible conditioning.
TOL_POSTSELECT = 1e-12
#: Entrywise tolerance on U^dag U - I for a unitary.
TOL_UNITARY = 1e-10

_MAX_SWEEPS = 64
_PHASE_CUTOFF = 1e-12


def readonly(arr: np.ndarray) -> np.ndarray:
    """Copy an array and mark it immutable."""
    out = np.array(arr)
    out.setflags(write=False)
    return out


def as_operator(a, name: str = "operator") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def as_ket(v, name: str = "ket") -> np.ndarray:
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size == 0:
        raise DimensionMismatch(f"{name} must be non-empty")
    return arr


def as_state(v, name: str = "state") -> np.ndarray:
    """Coerce to a normalized ket; |norm^2 - 1| above TOL_NORM is rejected."""
    arr = as_ket(v, name)
    norm_sq = float(np.vdot(arr, arr).real)
    # written so that a NaN norm (any NaN or Inf amplitude) is rejected too
    if not (abs(norm_sq - 1.0) <= TOL_NORM):
        raise ValueError(f"{name} must be normalized: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e}")
    return arr


def require_finite(a, name: str):
    """The input, if every entry is finite; a NaN or Inf entry raises ValueError.

    A NaN entry can leave a product finite or make it NaN, which passes any `<=` gate.
    """
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has NaN or Inf entries")
    return a


def _require_tol_deg(tol_deg: float) -> None:
    """Refuse a NaN or negative tol_deg where it is read: no eigenvalue gap is ``<=`` either."""
    if not tol_deg >= 0.0:
        raise ValueError(f"tol_deg must be a non-negative number, got {tol_deg!r}")


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 per matrix of a (..., d, d) stack, the package's one Hermitian-part rule; Hermitian to the
    bit, as entries ij and ji sum the same two floats (IEEE + commutes). A 2-D input gets the bits of ``.T``."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """The operator as a complex array, if max|a_ij - conj(a_ji)| <= TOL_HERMITIAN * max(1, max|a_ij|).

    The deviation is compared with TOL_HERMITIAN first; only when that fails is the
    scaled bound formed, so the usual O(1) operator pays nothing for it, while
    a Hermitian operator rounded at a large scale is not refused.
    """
    arr = as_operator(a, name)
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    # written so that a NaN deviation (any NaN or Inf entry) is rejected too
    if not (dev <= TOL_HERMITIAN):
        if not np.all(np.isfinite(arr)):
            raise NonHermitian(f"{name} has NaN or Inf entries")
        if not (dev <= TOL_HERMITIAN * max(1.0, float(np.max(np.abs(arr))))):
            raise NonHermitian(f"{name} deviates from Hermiticity by {dev:.3e} (tol {TOL_HERMITIAN:.1e})")
    return arr


def is_unitary(u) -> bool:
    arr = as_operator(u)
    eye = np.eye(arr.shape[0])
    return float(np.max(np.abs(arr.conj().T @ arr - eye))) <= TOL_UNITARY


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product; joint index (i, j) sits at flat position i*m + j."""
    return np.kron(as_operator(a, "left factor"), as_operator(b, "right factor"))


def tensor_ket(x, y) -> np.ndarray:
    """x (x) y; the same products x_i * y_j as ``np.kron``, without its reshaping overhead."""
    return np.outer(as_ket(x), as_ket(y)).reshape(-1)


def outer(x, y=None) -> np.ndarray:
    """Rank-1 operator |x><y| (|x><x| when y is omitted)."""
    xv = as_ket(x)
    yv = xv if y is None else as_ket(y)
    return np.outer(xv, yv.conj())


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    ``eigenvalues`` ascend. ``eigenspace_groups`` partitions the indices
    into runs whose eigenvalues agree within the grouping tolerance. A
    singleton group's column is the eigenvector of its eigenvalue. Within a
    larger group the columns are an orthonormal basis of the group's joint
    eigenspace, not individual eigenvectors. Compared and hashed by identity
    (``eq=False``): a field-wise ``==`` over arrays has no truth value.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenspace_groups: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def _rotate(a: np.ndarray, vec: np.ndarray, p: int, q: int) -> None:
    """One complex Jacobi rotation zeroing a[p, q], accumulated into vec."""
    apq = a[p, q]
    r = abs(apq)
    phase = apq / r
    # smaller-magnitude root of t^2 - 2*zeta*t - 1 = 0 keeps the rotation angle small
    zeta = (a[q, q].real - a[p, p].real) / (2.0 * r)
    if zeta == 0.0:
        t = 1.0
    else:
        t = -math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    conj_phase = phase.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p + s * conj_phase * col_q
    a[:, q] = -s * phase * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p + s * phase * row_q
    a[q, :] = -s * conj_phase * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vec_p = vec[:, p].copy()
    vec_q = vec[:, q].copy()
    vec[:, p] = c * vec_p + s * conj_phase * vec_q
    vec[:, q] = -s * phase * vec_p + c * vec_q


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _fixed_columns(rows: np.ndarray) -> np.ndarray:
    """Every row of every matrix in a (B, d, d) stack of unit rows, with its first
    non-negligible component made real positive.

    The phase is applied in Python complex arithmetic, one row at a time:
    numpy's complex multiply rounds differently from Python's.
    """
    stack = []
    for matrix in rows.tolist():
        fixed_rows = []
        for row in matrix:
            # a unit row always has a component above the cutoff
            for i, z in enumerate(row):
                size = abs(z)
                if size > _PHASE_CUTOFF:
                    break
            phase = z.conjugate() / size
            fixed = [c * phase for c in row]
            fixed[i] = size
            fixed_rows.append(fixed)
        stack.append(fixed_rows)
    return np.array(stack, dtype=complex)


def _tolerance_groups(merged: list[bool]) -> tuple[tuple[int, ...], ...]:
    """Runs of indices; ``merged[i]`` joins index i + 1 to the run of index i."""
    groups = [[0]]
    for i, joined in enumerate(merged, start=1):
        if joined:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def _gram_schmidt(vectors: np.ndarray, group: tuple[int, ...]) -> None:
    """Overwrite a group's columns of ``vectors`` with the canonical basis of their span."""
    dim = vectors.shape[0]
    floor_sq = 0.25 / dim
    lo, hi = group[0], group[-1] + 1
    span = vectors[:, lo:hi]
    # projector onto the part of the eigenspace not yet spanned: its column e is the
    # residual of P e_e, and its diagonal entry e is that residual's squared norm
    rest = span @ span.conj().T
    k = lo
    for e in range(dim):
        norm_sq = rest[e, e].real
        if norm_sq > floor_sq:
            v = rest[:, e] / math.sqrt(norm_sq)
            vectors[:, k] = v
            k += 1
            if k == hi:
                break
            rest = rest - np.outer(v, v.conj())


def _canonical_stack(
    values: np.ndarray, vectors: np.ndarray, tol_deg: float
) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], np.ndarray]:
    """Give every tol_deg eigenspace of every matrix in a stack a basis fixed by the eigenspace alone.

    ``values`` (B, d) ascend along each row and column k of ``vectors[b]``
    (B, d, d; overwritten) belongs to ``values[b, k]``. Returns each matrix's
    eigenspace groups and the (B, d, d) stack whose row k of matrix b is its
    canonical column k. Each matrix is canonicalised on its own. A row keeps
    the phase the solver or Gram-Schmidt gave it: ``_fixed_columns`` runs
    only where eigenvectors are shown, since no probability reads a phase.

    For a group of size g > 1, e_1 ... e_d are projected onto
    the group's eigenspace in order, and Gram-Schmidt keeps a residual only
    when its norm exceeds 1/(2 sqrt d). That always yields g vectors: with
    fewer kept, the unspanned rest of the eigenspace has trace >= 1, so the
    squared residuals of e_1 ... e_d against the kept vectors sum to >= 1,
    yet a kept e_i leaves none and a skipped one at most 1/(4d). The basis
    depends only on the eigenspace projector. Away from the keep/skip
    threshold, a perturbation far below tol_deg therefore moves it about as
    little as it moves the eigenspace. A residual sitting at the threshold
    can flip on its last bits, and the basis then jumps by O(1); any rule
    that picks one frame for a subspace has such points. The columns within
    a group no longer pair with the individual ``values``.

    A group that spans all d indices has the projector I, so the rule gives
    e_1 ... e_d exactly; those rows are written directly, without
    Gram-Schmidt and without the solver's rounding. Every decomposition
    passes through here, so a NaN or negative tol_deg is refused here first.
    """
    _require_tol_deg(tol_deg)
    dim = values.shape[-1]
    singles, whole = tuple(zip(range(dim))), (tuple(range(dim)),)
    stack_groups = []
    for b, row in enumerate(values.tolist()):
        merged = [hi - lo <= tol_deg for lo, hi in zip(row, row[1:])]
        if not any(merged):
            stack_groups.append(singles)
            continue
        if all(merged):
            vectors[b] = np.eye(dim)
            stack_groups.append(whole)
            continue
        groups = _tolerance_groups(merged)
        for group in groups:
            if len(group) > 1:
                _gram_schmidt(vectors[b], group)
        stack_groups.append(groups)
    return tuple(stack_groups), vectors.transpose(0, 2, 1)


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``eigh`` of the ``hermitian_part`` of every matrix in a (B, d, d) stack.

    Stacked ``eigh`` runs LAPACK on each matrix in turn, so row b holds the
    bits of matrix b alone. The caller vouches for Hermiticity:
    ``spectral_decompose`` and ``matrix_exponential_skew`` check outside
    input, ``measurement._spectral_stacks`` reads factors that
    ``JointObservable`` has checked or that the audit builds Hermitian.
    """
    return np.linalg.eigh(hermitian_part(mats))


def _decompose(mats: np.ndarray, tol_deg: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Eigenvalues, canonical columns as rows (phases as found), and groups of a Hermitian (B, d, d) stack.

    One ``_eigh`` call, then ``_canonical_stack``, which canonicalises each
    matrix on its own, so row b holds the bits of matrix b decomposed alone.
    """
    values, vectors = _eigh(mats)
    groups, rows = _canonical_stack(values, vectors, tol_deg)
    return values, rows, groups


def _decomposition(values: np.ndarray, rows: np.ndarray, groups) -> SpectralDecomposition:
    """One matrix's decomposition from its (d,) values and (d, d) canonical columns as rows, phases fixed here."""
    return SpectralDecomposition(
        eigenvalues=readonly(values), eigenvectors=readonly(_fixed_columns(rows[None])[0].T), eigenspace_groups=groups
    )


def spectral_decompose(h, tol_deg: float = TOL_DEG) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix via LAPACK ``eigh``.

    The B = 1 case of ``_decompose``. Eigenvalues ascend. Every
    group of eigenvalues within tol_deg of its neighbour gets the canonical
    eigenspace basis of ``_canonical_stack``, and every eigenvector's first
    non-negligible component is real positive, so identity-like matrices keep
    the standard basis. Raises NonHermitian on bad input, including NaN or
    Inf entries, and ValueError on a NaN or negative tol_deg.
    """
    values, rows, groups = _decompose(require_hermitian(h)[None], tol_deg)
    return _decomposition(values[0], rows[0], groups[0])


def jacobi_decompose(h, tol_deg: float = TOL_DEG) -> SpectralDecomposition:
    """Eigendecomposition via cyclic complex Jacobi rotations.

    The oracle's own solver, kept independent of LAPACK so the oracle
    cross-checks the formula path. It ends in the same canonicalisation as
    ``spectral_decompose``, so both measure a degenerate factor in the same
    basis. Raises NonHermitian on bad input and NoConvergence if the sweep
    budget, ``_MAX_SWEEPS`` as it reads at call time, is exhausted.
    """
    mat = require_hermitian(h)
    dim = mat.shape[0]
    vec = np.eye(dim, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        a = hermitian_part(mat)
        norm = float(np.linalg.norm(a))
    # Past about 1e154 the norm overflows, and inf <= inf would pass the first convergence test with nothing
    # rotated. Such a matrix is scaled by 2^-exponent, which is exact, and its eigenvalues back by 2^exponent;
    # a matrix whose norm is finite is left as it is, so its bits stay. Past about 9e307, a_ij + conj(a_ji)
    # overflows inside hermitian_part too (inf, and NaN once halved), so the exponent is read off the checked
    # matrix, which is scaled before it.
    exponent = 0 if math.isfinite(norm) else int(np.frexp(np.abs(mat.view(float)).max())[1])
    if exponent:
        a = hermitian_part(mat * np.ldexp(1.0, -exponent))
        norm = float(np.linalg.norm(a))
    scale = max(1.0, norm)
    target = 1e-14 * scale
    pivot_floor = 1e-18 * scale

    if dim > 1:
        converged = False
        for _ in range(_MAX_SWEEPS):
            if _off_norm(a) <= target:
                converged = True
                break
            for p in range(dim - 1):
                for q in range(p + 1, dim):
                    if abs(a[p, q]) > pivot_floor:
                        _rotate(a, vec, p, q)
        else:
            converged = _off_norm(a) <= target
        if not converged:
            raise NoConvergence(f"Jacobi sweep budget of {_MAX_SWEEPS} exhausted at dim {dim}")

    eigenvalues = np.ldexp(np.diag(a).real, exponent)
    order = np.argsort(eigenvalues, kind="stable")
    groups, rows = _canonical_stack(eigenvalues[order][None], vec[:, order][None], tol_deg)
    return _decomposition(eigenvalues[order], rows[0], groups[0])


def matrix_exponential_skew(h, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, built from ``_eigh`` directly.

    The exponential does not depend on the eigenbasis, so it skips the
    canonicalisation, whose group bases do not pair with the individual
    eigenvalues: near-degenerate H at large |t| would otherwise be off by
    about |t| times the group's eigenvalue spread. A NaN or Inf t raises
    ValueError: its phases would be NaN in every entry. A finite t whose
    t * lambda overflows gives NaN phases without a numpy warning; the
    caller's unitarity check refuses the result.
    """
    values, vectors = (arr[0] for arr in _eigh(require_hermitian(h)[None]))
    t = require_finite(float(t), "t")
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * t * values)
    return (vectors * phases) @ vectors.conj().T
