"""Tensor products, the eigh and Jacobi solvers with canonical eigenspace bases, matrix exponential."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosim import linalg
from nogosim.errors import NoConvergence, NonHermitian
from nogosim.linalg import (
    TOL_DEG,
    TOL_HERMITIAN,
    SpectralDecomposition,
    _decompose,
    _fixed_columns,
    as_state,
    hermitian_part,
    is_unitary,
    jacobi_decompose,
    matrix_exponential_skew,
    outer,
    require_hermitian,
    spectral_decompose,
    tensor_ket,
    tensor_product,
)
from nogosim.error_disturbance import CNOT, first_order_expansion, heisenberg_evolve
from nogosim.measurement import JointObservable, luders_update, projective_probability, weak_value

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, rng):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return (g + g.conj().T) / 2


def rotated_spectrum(levels, rng):
    """W diag(levels) W^dag for a random unitary W; repeated levels give a degenerate eigenspace."""
    dim = len(levels)
    w, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (w * np.asarray(levels, dtype=float)) @ w.conj().T
    return (h + h.conj().T) / 2


def series_exponential(h, t, terms=20):
    """Truncated power series of exp(-i t H), the independent reference."""
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ (-1j * t * h) / k
        acc = acc + term
    return acc


class TestAsState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError):
            as_state([bad, 0.0])


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(I2, I2), np.eye(4))

    def test_diagonal_layout_is_system_major(self):
        assert np.array_equal(tensor_product(Z, I2), np.diag([1, 1, -1, -1]).astype(complex))

    def test_scaled_device_projector(self):
        got = tensor_product(4 * I2, np.diag([0.0, 1.0]))
        assert np.array_equal(got, np.diag([0.0, 4.0, 0.0, 4.0]).astype(complex))

    def test_block_entry_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        full = tensor_product(a, b)
        for i in range(2):
            for k in range(2):
                assert np.array_equal(full[2 * i : 2 * i + 2, 2 * k : 2 * k + 2], a[i, k] * b)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_mixed_product_rule(self, seed, dims):
        rng = np.random.default_rng(seed)
        n, m = dims
        a, c = random_hermitian(n, rng), random_hermitian(n, rng)
        b, d = random_hermitian(m, rng), random_hermitian(m, rng)
        lhs = tensor_product(a, b) @ tensor_product(c, d)
        rhs = tensor_product(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(11)
        a, b, c = (random_hermitian(2, rng) for _ in range(3))
        lhs = tensor_product(2.5 * a + b, c)
        rhs = 2.5 * tensor_product(a, c) + tensor_product(b, c)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSpectralDecompose:
    def test_pauli_z(self):
        dec = spectral_decompose(Z)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        assert np.max(np.abs(outer(dec.eigenvectors[:, 0]) - np.diag([0.0, 1.0]))) < 1e-14
        assert np.max(np.abs(outer(dec.eigenvectors[:, 1]) - np.diag([1.0, 0.0]))) < 1e-14

    def test_pauli_x(self):
        dec = spectral_decompose(X)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.max(np.abs(dec.eigenvectors[:, 0] - minus)) < 1e-14
        assert np.max(np.abs(dec.eigenvectors[:, 1] - plus)) < 1e-14

    def test_joint_degenerate_operator(self):
        op = tensor_product(2 * I2, I2 - X)
        dec = spectral_decompose(op)
        assert np.allclose(dec.eigenvalues, [0.0, 0.0, 4.0, 4.0], atol=1e-14)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        e0, e1 = np.eye(2)
        expected = np.column_stack(
            [np.kron(e0, plus), np.kron(e1, plus), np.kron(e0, minus), np.kron(e1, minus)]
        )
        assert np.max(np.abs(dec.eigenvectors - expected)) < 1e-14
        assert dec.eigenspace_groups == ((0, 1), (2, 3))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_sweep_budget(self, monkeypatch):
        # the sweep budget belongs to the Jacobi solver the oracle keeps, which reads it at call time
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="budget of 0"):
            jacobi_decompose(X)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("solver", [spectral_decompose, jacobi_decompose])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, solver, bad, where):
        h = np.array(Z, dtype=complex)
        h[where] = bad
        with pytest.raises(NonHermitian):
            solver(h)
        with pytest.raises(NonHermitian):
            require_hermitian(h)

    def test_degeneracy_grouping_tolerance(self):
        dec = spectral_decompose(np.diag([1.0, 1.0 + 5e-10, 2.0]), tol_deg=1e-9)
        assert dec.eigenspace_groups == ((0, 1), (2,))
        tight = spectral_decompose(np.diag([1.0, 1.0 + 5e-10, 2.0]), tol_deg=1e-12)
        assert tight.eigenspace_groups == ((0,), (1,), (2,))

    def test_identity_keeps_canonical_order(self):
        dec = spectral_decompose(3 * np.eye(3, dtype=complex))
        assert np.array_equal(dec.eigenvectors, np.eye(3, dtype=complex))
        assert dec.eigenspace_groups == ((0, 1, 2),)

    @pytest.mark.parametrize("solver", [spectral_decompose, jacobi_decompose])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [-2.5, 0.0, 4.0])
    def test_exact_multiple_of_identity_gets_the_standard_basis(self, solver, dim, c):
        dec = solver(c * np.eye(dim, dtype=complex))
        assert dec.eigenvectors.tobytes() == np.eye(dim, dtype=complex).tobytes()
        assert dec.eigenspace_groups == (tuple(range(dim)),)

    @pytest.mark.parametrize("solver", [spectral_decompose, jacobi_decompose])
    def test_degenerate_eigenspace_gets_gram_schmidt_basis(self, solver):
        # eigenspace of -1 is span{(1, 1, 0), (0, 0, 1)}: projecting e_1 gives (1, 1, 0)/sqrt 2,
        # e_2 leaves no residual, e_3 gives (0, 0, 1)
        s = 1 / np.sqrt(2)
        w = np.array([[s, 0, s], [s, 0, -s], [0, 1, 0]], dtype=complex)
        h = (w * np.array([-1.0, -1.0, 1.0])) @ w.conj().T
        dec = solver(h)
        assert dec.eigenspace_groups == ((0, 1), (2,))
        assert np.max(np.abs(dec.eigenvectors - w)) < 1e-14

    def test_reproducible_output(self):
        h = random_hermitian(4, np.random.default_rng(3))
        first = spectral_decompose(h)
        second = spectral_decompose(h)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_phase_convention(self):
        rng = np.random.default_rng(19)
        dec = spectral_decompose(random_hermitian(4, rng))
        for k in range(4):
            col = dec.eigenvectors[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert lead.imag == 0.0 and lead.real > 0.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants_random(self, dim, seed):
        h = random_hermitian(dim, np.random.default_rng(seed))
        dec = spectral_decompose(h)
        eye = np.eye(dim)
        completeness = sum(outer(dec.eigenvectors[:, k]) for k in range(dim))
        assert np.max(np.abs(completeness - eye)) < 1e-10
        reconstructed = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(reconstructed - h)) < 1e-10
        assert np.max(np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - eye)) < 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_matches_lapack_eigenvalues(self, seed, dim):
        h = random_hermitian(dim, np.random.default_rng(seed))
        dec = spectral_decompose(h)
        assert np.allclose(dec.eigenvalues, np.linalg.eigvalsh(h), atol=1e-10)


class TestJacobiDecompose:
    """The oracle's solver agrees with the eigh path, degenerate eigenspaces included."""

    @pytest.mark.parametrize(
        "levels", [(2.0, 2.0), (-1.0, -1.0, 1.0), (-1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (-1.0, 0.0, 1.0)]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_same_canonical_basis_as_eigh(self, levels, seed):
        h = rotated_spectrum(levels, np.random.default_rng(seed))
        ours = spectral_decompose(h)
        oracle = jacobi_decompose(h)
        assert ours.eigenspace_groups == oracle.eigenspace_groups
        assert np.max(np.abs(ours.eigenvalues - oracle.eigenvalues)) < 1e-12
        assert np.max(np.abs(ours.eigenvectors - oracle.eigenvectors)) < 1e-10

    @pytest.mark.parametrize("seed", [None, *range(4)])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_a_matrix_whose_norm_overflows_is_still_rotated(self, seed, dim):
        # the Frobenius norm is inf at 1e200: a convergence test against it used to return the unrotated diagonal
        base = np.diag([1.0, -1.0, 0.5][:dim]) + 2.0 * np.eye(dim, k=1) + 2.0 * np.eye(dim, k=-1)
        h = 1e200 * (base if seed is None else random_hermitian(dim, np.random.default_rng(seed)))
        with np.errstate(over="ignore"):
            assert np.linalg.norm(h) == np.inf
        ours, oracle = spectral_decompose(h), jacobi_decompose(h)
        assert np.max(np.abs(oracle.eigenvalues / ours.eigenvalues - 1.0)) <= 1e-12
        assert np.max(np.abs(ours.eigenvectors - oracle.eigenvectors)) < 1e-10
        # a real or imaginary part at 1e308: a_ij + conj(a_ji) overflows too, and the rescale used to read the
        # exponent of inf and exhaust the sweep budget. LAPACK's reference is h * 2^-1000, an exact scaling.
        h = 1e308 / np.abs(h.view(float)).max() * h
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(hermitian_part(h)).all()
        ours, oracle = spectral_decompose(h * np.ldexp(1.0, -1000)), jacobi_decompose(h)
        assert np.max(np.abs(oracle.eigenvalues / np.ldexp(ours.eigenvalues, 1000) - 1.0)) <= 1e-12
        assert np.max(np.abs(ours.eigenvectors - oracle.eigenvectors)) < 1e-10


def frame_rule_reference(vectors):
    """The canonical frame of span(vectors), written out: e_1 ... e_d projected onto the span in order, each
    residual against the kept vectors kept when its norm exceeds 1/(2 sqrt d), and each kept vector's first
    entry above 1e-12 in magnitude made real positive. Returns the kept vectors as columns."""
    dim = vectors.shape[0]
    projector = vectors @ vectors.conj().T
    kept = []
    for e in range(dim):
        residual = projector[:, e] - sum((np.vdot(v, projector[:, e]) * v for v in kept), np.zeros(dim, complex))
        norm = np.linalg.norm(residual)
        if norm > 0.5 / np.sqrt(dim):
            v = residual / norm
            lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
            kept.append(v * (abs(lead) / lead))
    return np.column_stack(kept)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4), margin=st.sampled_from([1.01, 2.0, 100.0]))
@settings(max_examples=100, deadline=None)
def test_a_group_spanning_the_whole_space_gets_the_standard_basis(seed, dim, margin):
    # at a tol_deg above the spread every eigenvalue joins one group, whose projector is I: the frame rule
    # gives e_1 ... e_d, which the solvers write exactly instead of carrying their own rounding
    h = random_hermitian(dim, np.random.default_rng(seed))
    values, vectors = np.linalg.eigh(h)
    tol_deg = margin * (values[-1] - values[0]) + 1e-12
    reference = frame_rule_reference(vectors)
    assert np.max(np.abs(reference - np.eye(dim))) <= 1e-14
    whole = (tuple(range(dim)),)
    for solver in (spectral_decompose, jacobi_decompose):
        dec = solver(h, tol_deg)
        assert dec.eigenvectors.tobytes() == np.eye(dim, dtype=complex).tobytes()
        assert dec.eigenspace_groups == whole
    _, columns, groups = _decompose(np.stack([h, np.diag(np.arange(dim) * 3.0 * tol_deg + 1.0)]), tol_deg)
    assert columns[0].tobytes() == np.eye(dim, dtype=complex).tobytes()
    assert groups[0] == whole
    assert groups[1] == tuple(zip(range(dim)))


class TestMatrixExponential:
    def test_zero_generator(self):
        assert np.max(np.abs(matrix_exponential_skew(np.zeros((3, 3)), 2.7) - np.eye(3))) < 1e-14

    def test_pauli_z_full_turn(self):
        assert np.max(np.abs(matrix_exponential_skew(Z, np.pi) + np.eye(2))) < 1e-12

    def test_zz_quarter_turn_vs_series(self):
        h = tensor_product(Z, Z)
        got = matrix_exponential_skew(h, np.pi / 4)
        phases = np.exp(-1j * np.pi / 4 * np.array([1.0, -1.0, -1.0, 1.0]))
        assert np.max(np.abs(got - np.diag(phases))) < 1e-12
        assert np.max(np.abs(got - series_exponential(h, np.pi / 4))) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_unitary_property(self, seed, t):
        h = random_hermitian(3, np.random.default_rng(seed))
        u = matrix_exponential_skew(h, t)
        assert is_unitary(u)  # within TOL_UNITARY, 1e-10

    def test_random_vs_series(self):
        h = random_hermitian(4, np.random.default_rng(23))
        got = matrix_exponential_skew(h, 0.3)
        assert np.max(np.abs(got - series_exponential(h, 0.3))) < 1e-12

    def test_near_degenerate_generator_at_large_time(self):
        # the spectrum +-1e-10 is one tol_deg group, yet t = 1e10 resolves it:
        # (X Z)^2 = I gives exp(-i t H) = cos(1) I - i sin(1) X Z exactly
        xz = tensor_product(X, Z)
        got = matrix_exponential_skew(1e-10 * xz, 1e10)
        want = np.cos(1.0) * np.eye(4) - 1j * np.sin(1.0) * xz
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_refused(self, t):
        # its phases would be NaN in every entry, and a NaN t raises no RuntimeWarning on the way
        with pytest.raises(ValueError, match="^t has NaN or Inf entries$"):
            matrix_exponential_skew(Z, t)


class TestRequireHermitianScale:
    """TOL_HERMITIAN is absolute up to max|a_ij| = 1 and relative to max|a_ij| above it."""

    @staticmethod
    def rotated_z(s, a):
        v = matrix_exponential_skew(np.array([[0, -1j], [1j, 0]]), a)
        return s * v @ Z @ v.conj().T

    def test_hermitian_operators_rounded_at_large_scale_are_accepted(self):
        mats = [self.rotated_z(s, a) for a in np.linspace(0.05, 1.5, 30) for s in (1e3, 1e4, 1e5)]
        deviations = [float(np.max(np.abs(h - h.conj().T))) for h in mats]
        assert max(deviations) > TOL_HERMITIAN  # refused by the absolute bound alone
        for h in mats:
            assert require_hermitian(h) is h
            JointObservable(n=2, m=1, terms=((h, np.eye(1)),))

    def test_non_hermitian_at_the_same_scale_is_rejected(self):
        with pytest.raises(NonHermitian, match=r"^operator deviates from Hermiticity by 1\.000e\+05 \(tol 1\.0e-12\)$"):
            require_hermitian(1e5 * np.array([[0.0, 1.0], [0.0, 0.0]]))
        h = self.rotated_z(1e5, 0.7)
        h[0, 1] += 1e-6  # above 1e-12 * 1e5
        with pytest.raises(NonHermitian, match=r"^operator deviates from Hermiticity by 1\.000e-06 \(tol 1\.0e-12\)$"):
            require_hermitian(h)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_at_large_scale_is_rejected(self, bad):
        h = self.rotated_z(1e5, 0.7)
        h[1, 0] = bad
        with pytest.raises(NonHermitian, match=r"^operator has NaN or Inf entries$"):
            require_hermitian(h)


def test_require_hermitian_tolerance():
    assert require_hermitian(Z) is Z
    with pytest.raises(NonHermitian):
        require_hermitian(Z + 1e-9 * np.array([[0, 1j], [0, 0]]))


#: Per public boundary: the name its error gives, a finite argument, and the call that passes the argument on.
NON_FINITE_BOUNDARIES = {
    "weak_value": ("A", Z, lambda a: weak_value([1, 0], [0.6, 0.8], a)),
    "heisenberg_evolve": ("observable", np.diag([1.0, 0.0, 0.0, 0.0]), lambda o0: heisenberg_evolve(CNOT, o0)),
    "first_order_expansion o0": ("observable", np.eye(4), lambda o0: first_order_expansion(Z, X, 0.1, o0)),
    "first_order_expansion t": ("t", np.array(0.1), lambda t: first_order_expansion(Z, X, t.real, np.eye(4))),
    "projective_probability rho": ("rho", np.eye(2) / 2, lambda rho: projective_probability(rho, np.diag([1.0, 0.0]))),
    "projective_probability projector": (
        "projector",
        np.diag([1.0, 0.0]),
        lambda proj: projective_probability(np.eye(2) / 2, proj),
    ),
    "luders_update rho": ("rho", np.eye(2) / 2, lambda rho: luders_update(rho, np.diag([1.0, 0.0]))),
    "luders_update projector": ("projector", np.diag([1.0, 0.0]), lambda proj: luders_update(np.eye(2) / 2, proj)),
}

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)])


@pytest.mark.parametrize("boundary", NON_FINITE_BOUNDARIES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_non_finite_input_is_rejected_at_the_boundary(boundary, data):
    name, finite, call = NON_FINITE_BOUNDARIES[boundary]
    arg = finite.astype(complex)
    entry = tuple(data.draw(st.integers(0, size - 1)) for size in arg.shape)
    # t is a real number: its bad values are the real ones
    arg[entry] = data.draw(NON_FINITE.filter(lambda bad: name != "t" or isinstance(bad, float)))
    with pytest.raises(ValueError, match=rf"^{name} has NaN or Inf entries$"):
        call(arg)


def test_outer_matches_manual():
    v = np.array([1.0, 1j]) / np.sqrt(2)
    assert np.max(np.abs(outer(v) - np.array([[0.5, -0.5j], [0.5j, 0.5]]))) < 1e-15


def mixed_stack(dim, rng):
    """c * I, exactly and nearly degenerate, generic and diagonal matrices of one dimension."""
    mats = [2.5 * np.eye(dim, dtype=complex), -0.7 * np.eye(dim, dtype=complex)]
    for _ in range(4):
        mats.append(random_hermitian(dim, rng))
        levels = np.sort(rng.standard_normal(dim))
        mats.append(rotated_spectrum(levels, rng))
        if dim > 1:
            tied = levels.copy()
            tied[1] = tied[0]
            mats.append(rotated_spectrum(tied, rng))
            near = levels.copy()
            near[1] = near[0] + 3e-11
            mats.append(rotated_spectrum(near, rng))
            mats.append(np.diag(tied).astype(complex))
    return mats


class TestSpectralDecomposeStack:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_spectral_decompose_bit_for_bit(self, dim, seed):
        mats = mixed_stack(dim, np.random.default_rng(seed))
        values, rows, groups = _decompose(np.stack(mats), TOL_DEG)
        # _decompose leaves each row's phase as found: fixing it is the one step left to spectral_decompose
        adjoints = _fixed_columns(rows).conj()
        assert len(groups) == len(mats)
        if dim > 1:
            assert len(set(groups)) > 1  # the stack mixes grouped and ungrouped spectra
        for b, h in enumerate(mats):
            dec = spectral_decompose(h)
            assert values[b].tobytes() == dec.eigenvalues.tobytes()
            assert adjoints[b].tobytes() == np.ascontiguousarray(dec.eigenvectors.conj().T).tobytes()
            assert np.ascontiguousarray(adjoints[b].conj().T).tobytes() == np.ascontiguousarray(dec.eigenvectors).tobytes()
            assert groups[b] == dec.eigenspace_groups


def test_spectral_decomposition_is_readonly():
    dec = spectral_decompose(Z)
    assert isinstance(dec, SpectralDecomposition)
    assert [f.name for f in dataclasses.fields(dec)] == ["eigenvalues", "eigenvectors", "eigenspace_groups"]
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 5.0


@given(
    x=st.lists(st.complex_numbers(max_magnitude=1e100, allow_nan=False), min_size=1, max_size=4),
    y=st.lists(st.complex_numbers(max_magnitude=1e100, allow_nan=False), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_tensor_ket_is_bitwise_kron(x, y):
    x, y = np.array(x, dtype=complex), np.array(y, dtype=complex)
    assert tensor_ket(x, y).tobytes() == np.kron(x, y).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_hermitian_part_has_the_bits_of_the_written_out_forms(seed):
    rng = np.random.default_rng(seed)
    for dim in range(1, 10):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert hermitian_part(a).tobytes() == ((a + a.conj().T) / 2.0).tobytes()
        stack = rng.standard_normal((3, 2, dim, dim)) + 1j * rng.standard_normal((3, 2, dim, dim))
        assert hermitian_part(stack).tobytes() == ((stack + stack.conj().swapaxes(-1, -2)) / 2.0).tobytes()
        for b, k in np.ndindex(3, 2):
            h = hermitian_part(stack)[b, k]
            assert h.tobytes() == hermitian_part(stack[b, k]).tobytes()
            assert np.array_equal(h, h.conj().T)  # exact, up to the sign of a zero imaginary part on the diagonal
