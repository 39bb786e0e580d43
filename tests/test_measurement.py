"""Outcome statistics, ABL conditionals, Lueders updates, weak values."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nogosim
from nogosim.config import RunReport, ScenarioConfig
from nogosim.error_disturbance import CnotScenario, cnot_report, cnot_scenario
from nogosim.errors import (
    MissingPostselection,
    NonHermitian,
    OrthogonalPostselection,
    ZeroProbability,
)
from nogosim.linalg import TOL_DEG, _decompose, outer, spectral_decompose, tensor_product
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    PostselectionProjector,
    _means,
    _system_side,
    abl_conditional_grid,
    conditional_expectation,
    expectation,
    joint_probability_grid,
    luders_update,
    outcome_probability_grid,
    postselection_denominator,
    product_spectral,
    projective_probability,
    weak_value,
)
from nogosim.nogo import (
    basis_transform,
    check_rank_m_degeneracy,
    instance_rng,
    random_scenario,
    term_basis_transform,
    verify_nogo,
)
from nogosim.oracle import enumerate_two_step, sample_two_step

from helpers import cnot_error_scenario, random_hermitian, random_ket

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


#: Factor dimensions the stacked decomposition is checked on.
STACK_DIMS = [1, 2, 3, 4, 5, 6, 9]


def near_pairs(dim, rng):
    """W diag(levels) W^dag for a random unitary W, levels 0 and 0.5 tol_deg, then 1 and 1 + 2 tol_deg, then spread."""
    levels = [0.0, 0.5 * TOL_DEG, 1.0, 1.0 + 2.0 * TOL_DEG, 2.0, 2.5, 3.0, 3.5, 4.0][:dim]
    w, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (w * np.asarray(levels)) @ w.conj().T
    return (h + h.conj().T) / 2


def product_vector(obs, k, i, j):
    """|u_i> (x) |v_j> of term k: columns i and j of the eigenvectors ``spectral_decompose`` gives its factors."""
    sys_op, dev_op = obs.terms[k]
    return np.kron(spectral_decompose(sys_op).eigenvectors[:, i], spectral_decompose(dev_op).eigenvectors[:, j])


class TestProductSpectral:
    def test_identity_z_term(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        data = product_spectral(obs)
        # the identity keeps the standard basis; Z's eigenvalues ascend, so |1> comes first
        assert np.array_equal(data.system_adjoint[0], I2)
        assert np.array_equal(data.device_factors[0], Z)
        assert np.allclose(spectral_decompose(Z).eigenvectors.conj().T, X)
        assert np.allclose(data.grids[0], [[-1.0, 1.0], [-1.0, 1.0]])

    def test_scaled_projector_term(self):
        obs = JointObservable(n=2, m=2, terms=((4 * I2, P1),))
        assert np.allclose(product_spectral(obs).grids[0], [[0.0, 4.0], [0.0, 4.0]])

    def test_disturbance_term_basis(self):
        obs = JointObservable(n=2, m=2, terms=((2 * I2, I2 - X),))
        data = product_spectral(obs)
        assert np.allclose(data.grids[0].reshape(-1), [0.0, 4.0, 0.0, 4.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        e0, e1 = np.eye(2)
        for (i, j), vec in {
            (0, 0): np.kron(e0, plus),
            (0, 1): np.kron(e0, minus),
            (1, 0): np.kron(e1, plus),
            (1, 1): np.kron(e1, minus),
        }.items():
            assert np.max(np.abs(product_vector(obs, 0, i, j) - vec)) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_orthonormality_and_completeness(self, seed):
        rng = np.random.default_rng(seed)
        obs = JointObservable(n=2, m=3, terms=((random_hermitian(2, rng), random_hermitian(3, rng)),))
        projectors = [outer(product_vector(obs, 0, i, j)) for i in range(2) for j in range(3)]
        for a, pa in enumerate(projectors):
            for b, pb in enumerate(projectors):
                want = pa if a == b else np.zeros((6, 6))
                assert np.max(np.abs(pa @ pb - want)) < 1e-10
        assert np.max(np.abs(sum(projectors) - np.eye(6))) < 1e-10

    def test_memoized_per_tol_deg(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        obs = JointObservable(n=2, m=2, terms=((1e-8 * outer(plus), Z),))
        coarse = product_spectral(obs, 1e-7)
        fine = product_spectral(obs, 1e-9)
        assert product_spectral(obs, 1e-7) is coarse
        assert product_spectral(obs, 1e-9) is fine
        # one group spanning the plane keeps the standard basis; two groups give |->, |+>, each up to the phase
        # it was found with, which no projector |u_i><u_i| reads
        assert np.array_equal(coarse.system_adjoint[0], I2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        for row, want in zip(fine.system_adjoint[0], (minus, plus)):
            assert np.allclose(outer(row.conj()), outer(want))

    @pytest.mark.parametrize("num_terms", [1, 2, 3])
    @pytest.mark.parametrize("dim", STACK_DIMS)
    def test_equals_per_factor_spectral_decompose_bit_for_bit(self, num_terms, dim):
        # one stacked decomposition per factor slot; the device dims run through STACK_DIMS in reverse
        n, m = dim, STACK_DIMS[-1 - STACK_DIMS.index(dim)]
        rng = np.random.default_rng(10 * dim + num_terms)
        kinds = (random_hermitian, lambda d, rng: -1.5 * np.eye(d, dtype=complex), near_pairs)
        terms = tuple((kinds[k % 3](n, rng), kinds[(k + 1) % 3](m, rng)) for k in range(num_terms))
        obs = JointObservable(n=n, m=m, terms=terms)
        data = product_spectral(obs)
        psi, xi, phi = random_ket(n, rng), random_ket(m, rng), random_ket(n, rng)
        scen = MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi)
        assert len(data) == num_terms
        for k, (sys_op, dev_op) in enumerate(terms):
            # the stacked rows are the lone factor's canonical rows, phases as found, conjugated
            alone = _decompose(sys_op[None], TOL_DEG)[1][0]
            assert data.system_adjoint[k].tobytes() == alone.conj().tobytes()
            want_sys, want_dev = spectral_decompose(sys_op), spectral_decompose(dev_op)
            grid = np.outer(want_sys.eigenvalues, want_dev.eigenvalues)
            assert data.grids[k].tobytes() == grid.tobytes()
            # the one place a term's eigenvectors are shown is spectral_decompose of each factor
            transform = term_basis_transform(scen, k).matrix
            assert transform.tobytes() == tensor_product(want_sys.eigenvectors, want_dev.eigenvectors).tobytes()
            for column in transform.T:
                lead = column[np.flatnonzero(np.abs(column) > 1e-12)[0]]
                assert lead.imag == 0.0 and lead.real > 0.0
        if num_terms == 3 and n >= 4:
            # the pair 0.5 tol_deg apart is one group, the pair 2 tol_deg apart two
            assert spectral_decompose(terms[2][0]).eigenspace_groups[:3] == ((0, 1), (2,), (3,))

    def test_memo_is_not_a_field(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        before = repr(obs)
        product_spectral(obs)
        assert repr(obs) == before
        assert [f.name for f in dataclasses.fields(obs)] == ["n", "m", "terms"]

    def test_rejects_non_hermitian_terms(self):
        with pytest.raises(NonHermitian):
            JointObservable(n=2, m=2, terms=((np.array([[0, 1], [0, 0]]), I2),))


class TestOutcomeProbability:
    def test_basis_state_concentrates(self):
        obs = JointObservable(n=2, m=2, terms=((np.diag([1.0, 2.0]), np.diag([1.0, 2.0])),))
        scen = MeasurementScenario(psi=[1, 0], xi=[1, 0], observable=obs)
        grid = outcome_probability_grid(scen, 0)
        assert grid[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert abs(grid).sum() == pytest.approx(1.0, abs=1e-14)

    def test_zz_on_00_lands_on_its_product_vector(self):
        obs = JointObservable(n=2, m=2, terms=((Z, Z),))
        scen = MeasurementScenario(psi=[1, 0], xi=[1, 0], observable=obs)
        # ascending factor order puts |0> at index 1 for each factor
        grid = outcome_probability_grid(scen, 0)
        assert grid[1, 1] == pytest.approx(1.0, abs=1e-14)
        assert grid[0, 0] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 0.9])
    def test_cnot_amplitude_product(self, s):
        scen = cnot_error_scenario(s)
        assert outcome_probability_grid(scen, 0)[0, 1] == pytest.approx((1 - s) / 4, abs=1e-14)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        obs = JointObservable(n=3, m=2, terms=((random_hermitian(3, rng), random_hermitian(2, rng)),))
        scen = MeasurementScenario(psi=random_ket(3, rng), xi=random_ket(2, rng), observable=obs)
        assert float(outcome_probability_grid(scen, 0).sum()) == pytest.approx(1.0, abs=1e-12)


class TestExpectation:
    def test_identity_observable(self):
        obs = JointObservable(n=2, m=2, terms=((I2, I2),))
        scen = MeasurementScenario(psi=[0, 1], xi=[1, 0], observable=obs)
        assert expectation(scen, 0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("s", np.linspace(0, 1, 11))
    def test_cnot_squared_noise_curve(self, s):
        scen = cnot_error_scenario(s)
        assert expectation(scen, 0) == pytest.approx(2 * (1 - s), abs=1e-12)

    @pytest.mark.parametrize("s", np.linspace(0, 1, 11))
    def test_cnot_squared_backaction_curve(self, s):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        xi = np.array([np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)], dtype=complex)
        obs = JointObservable(n=2, m=2, terms=((2 * I2, I2 - X),))
        scen = MeasurementScenario(psi=psi, xi=xi, observable=obs)
        assert expectation(scen, 0) == pytest.approx(2 * (1 - math.sqrt(1 - s * s)), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_spectral_route_equals_quadratic_form(self, seed):
        rng = np.random.default_rng(seed)
        sys_op, dev_op = random_hermitian(3, rng), random_hermitian(2, rng)
        obs = JointObservable(n=3, m=2, terms=((sys_op, dev_op),))
        psi, xi = random_ket(3, rng), random_ket(2, rng)
        scen = MeasurementScenario(psi=psi, xi=xi, observable=obs)
        joint = np.kron(psi, xi)
        direct = float(np.vdot(joint, tensor_product(sys_op, dev_op) @ joint).real)
        assert expectation(scen, 0) == pytest.approx(direct, abs=1e-10)


class TestLudersUpdate:
    def test_eigenstate_fixed_point(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(luders_update(rho, rho) - rho)) < 1e-14

    def test_plus_state_collapse(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(luders_update(outer(plus), p0) - p0)) < 1e-14

    def test_rank_one_projection_is_idempotent_target(self):
        scen = cnot_error_scenario(0.5)
        rho = outer(scen.joint_state())
        proj = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        updated = luders_update(rho, proj)
        assert np.max(np.abs(updated - proj)) < 1e-12
        assert np.trace(updated).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(updated)) > -1e-10

    def test_zero_probability_raises(self):
        with pytest.raises(ZeroProbability):
            luders_update(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_mixed_state_update(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = 0.5 * np.diag([1.0, 0.0]) + 0.5 * outer(plus)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert projective_probability(rho, p0) == pytest.approx(0.75, abs=1e-14)
        assert np.max(np.abs(luders_update(rho, p0) - p0)) < 1e-14


class TestJointProbability:
    def test_system_dim_one_reduces_to_outcome_grid(self):
        obs = JointObservable(n=1, m=2, terms=((np.array([[2.0]]), Z),))
        scen = MeasurementScenario(psi=[1.0], xi=[0.6, 0.8], observable=obs, postselect=[1.0])
        assert np.array_equal(joint_probability_grid(scen, 0), outcome_probability_grid(scen, 0))

    @pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4, np.pi / 2])
    @pytest.mark.parametrize("varphi", [0.0, np.pi / 3])
    def test_cnot_denominator_half(self, theta, varphi):
        scen = cnot_error_scenario(0.4, theta, varphi)
        assert postselection_denominator(scen, 0) == pytest.approx(0.5, abs=1e-14)

    def test_cnot_denominator_half_under_sub_tolerance_perturbation(self):
        # 1e-12 is far below TOL_DEG, so 4 I + delta still has one degenerate eigenspace,
        # and its canonical basis stays the standard one
        delta = 1e-12 * np.array([[0.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]]) / np.sqrt(2)
        scen = cnot_error_scenario(0.5, theta=0.7)
        obs = JointObservable(n=2, m=2, terms=((4 * I2 + delta, P1),))
        perturbed = MeasurementScenario(psi=scen.psi, xi=scen.xi, observable=obs, postselect=scen.postselect)
        assert postselection_denominator(perturbed, 0) == pytest.approx(0.5, abs=1e-12)
        assert conditional_expectation(perturbed, 0) == pytest.approx(1.0, abs=1e-11)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 3]),
        m=st.sampled_from([2, 3]),
        eps=st.sampled_from([1e-13, 1e-12, 1e-11, 1e-10]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sub_tolerance_perturbation_moves_grid_by_order_eps(self, seed, n, m, eps):
        """Factors with a degenerate eigenspace, perturbed by ||delta|| = eps < TOL_DEG / 2.

        Davis-Kahan bounds the eigenspace projector's move by eps / (gap - 2 eps) ~ eps / 2
        (gap 2 below). Gram-Schmidt divides by residuals >= 1/(2 sqrt d), which amplifies
        that by at most (4 sqrt 3)^2 ~ 48 for g <= 2, and a grid entry is a product of three
        squared amplitudes (factor <= 6): about 150 eps in all, bounded here by 1e3 eps plus
        1e-13 of double rounding. Eigenvalues inside the group may cross; the grid may not move.
        The bound holds away from the keep/skip threshold: a residual within about eps of
        1/(2 sqrt d) could flip which e_i is kept and jump the basis by O(1). Random rotations
        land there with probability of order eps, far out of reach of these draws.
        """
        rng = np.random.default_rng(seed)

        def degenerate_factor(dim):
            levels = np.array([-1.0, -1.0, 1.0]) if dim == 3 else np.array([2.0, 2.0])
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            h = (q * levels) @ q.conj().T
            return (h + h.conj().T) / 2

        def kick(dim):
            h = random_hermitian(dim, rng)
            return eps * h / np.linalg.norm(h, 2)

        sys_op, dev_op = degenerate_factor(n), degenerate_factor(m)
        psi, xi, phi = random_ket(n, rng), random_ket(m, rng), random_ket(n, rng)
        base = MeasurementScenario(
            psi=psi, xi=xi, observable=JointObservable(n=n, m=m, terms=((sys_op, dev_op),)), postselect=phi
        )
        moved = MeasurementScenario(
            psi=psi,
            xi=xi,
            observable=JointObservable(n=n, m=m, terms=((sys_op + kick(n), dev_op + kick(m)),)),
            postselect=phi,
        )
        shift = np.max(np.abs(joint_probability_grid(moved, 0) - joint_probability_grid(base, 0)))
        assert shift <= 1e3 * eps + 1e-13

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_explicit_matrix_products(self, seed):
        rng = np.random.default_rng(seed)
        obs = JointObservable(n=2, m=2, terms=((random_hermitian(2, rng), random_hermitian(2, rng)),))
        psi, xi, phi = random_ket(2, rng), random_ket(2, rng), random_ket(2, rng)
        scen = MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi)
        joint_state = scen.joint_state()
        pi = tensor_product(outer(phi), I2)
        grid = joint_probability_grid(scen, 0)
        for i in range(2):
            for j in range(2):
                proj = outer(product_vector(obs, 0, i, j))
                brute = float(np.vdot(joint_state, proj @ pi @ proj @ joint_state).real)
                assert grid[i, j] == pytest.approx(brute, abs=1e-12)

    def test_requires_postselection(self):
        scen = cnot_error_scenario(0.5)
        scen = MeasurementScenario(psi=scen.psi, xi=scen.xi, observable=scen.observable)
        with pytest.raises(MissingPostselection):
            joint_probability_grid(scen, 0)


class TestAblConditional:
    def test_postselecting_a_system_basis_state_reduces_to_outcomes(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        scen = MeasurementScenario(psi=[1, 0], xi=[0.6, 0.8], observable=obs, postselect=[1, 0])
        np.testing.assert_allclose(abl_conditional_grid(scen, 0), outcome_probability_grid(scen, 0), rtol=0, atol=1e-14)

    def test_uniform_magnitude_preselection_reduces_to_outcomes(self):
        # |psi'_i|^2 uniform across the fully degenerate system factor keeps the
        # ABL reweighting trivial even though the projectors disturb the system
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        scen = MeasurementScenario(psi=psi, xi=[0.6, 0.8], observable=obs, postselect=psi)
        np.testing.assert_allclose(abl_conditional_grid(scen, 0), outcome_probability_grid(scen, 0), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75])
    def test_cnot_conditional_weight_of_outcome_four(self, s):
        scen = cnot_error_scenario(s, theta=np.pi / 4)
        grid = abl_conditional_grid(scen, 0)
        values = product_spectral(scen.observable).grids[0]
        weight = float(grid[np.isclose(values, 4.0)].sum())
        assert weight == pytest.approx((1 - s) / 2, abs=1e-12)

    def test_incompatible_postselection_raises(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        scen = MeasurementScenario(psi=[1, 0], xi=[0.6, 0.8], observable=obs, postselect=[0, 1])
        with pytest.raises(ZeroProbability):
            abl_conditional_grid(scen, 0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalization(self, seed):
        rng = np.random.default_rng(seed)
        obs = JointObservable(n=2, m=2, terms=((random_hermitian(2, rng), random_hermitian(2, rng)),))
        scen = MeasurementScenario(
            psi=random_ket(2, rng), xi=random_ket(2, rng), observable=obs, postselect=random_ket(2, rng)
        )
        if postselection_denominator(scen, 0) < 1e-6:
            return
        assert float(abl_conditional_grid(scen, 0).sum()) == pytest.approx(1.0, abs=1e-12)


class TestConditionalExpectation:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, np.pi / 2])
    @pytest.mark.parametrize("varphi", [0.0, np.pi / 3, np.pi])
    def test_cnot_error_value(self, theta, varphi):
        scen = cnot_error_scenario(0.3, theta, varphi)
        assert conditional_expectation(scen, 0) == pytest.approx(2 * (1 - 0.3), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2])
    def test_cnot_disturbance_value(self, theta):
        s = 0.6
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        xi = np.array([np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)], dtype=complex)
        phi = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        obs = JointObservable(n=2, m=2, terms=((2 * I2, I2 - X),))
        scen = MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi)
        assert conditional_expectation(scen, 0) == pytest.approx(2 * (1 - math.sqrt(1 - s * s)), abs=1e-12)

    def test_single_term_equals_observable_sum(self):
        scen = cnot_error_scenario(0.5)
        assert verify_nogo(scen).conditional == conditional_expectation(scen, 0)

    def test_two_copies_double_the_value(self):
        base = cnot_error_scenario(0.5)
        doubled = MeasurementScenario(
            psi=base.psi,
            xi=base.xi,
            observable=JointObservable(n=2, m=2, terms=((4 * I2, P1), (4 * I2, P1))),
            postselect=base.postselect,
        )
        assert verify_nogo(doubled).conditional == pytest.approx(
            2 * conditional_expectation(base, 0), rel=1e-15
        )

    def test_alternative_decomposition_same_value(self):
        base = cnot_error_scenario(0.35)
        split = MeasurementScenario(
            psi=base.psi,
            xi=base.xi,
            observable=JointObservable(n=2, m=2, terms=((2 * I2, I2), (-2 * I2, Z))),
            postselect=base.postselect,
        )
        lhs = verify_nogo(base).conditional
        rhs = verify_nogo(split).conditional
        assert lhs == pytest.approx(2 * (1 - 0.35), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-12)


class TestWeakValue:
    def test_identity_gives_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            psi, phi = random_ket(3, rng), random_ket(3, rng)
            assert weak_value(psi, phi, np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_identity_gives_the_scale(self):
        rng = np.random.default_rng(1)
        psi, phi = random_ket(2, rng), random_ket(2, rng)
        assert weak_value(psi, phi, -2.5 * I2) == pytest.approx(-2.5, abs=1e-12)

    def test_textbook_ratio(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        assert weak_value([1, 0], plus, Z) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_raises(self):
        with pytest.raises(OrthogonalPostselection):
            weak_value([1, 0], [0, 1], Z)


def zero_probability_scenario():
    """psi = |0>, phi = |1> and S = Z: every term's postselection probability is exactly 0."""
    obs = JointObservable(n=2, m=2, terms=((Z, Z), (I2, P1)))
    return MeasurementScenario(psi=[1, 0], xi=[0.6, 0.8], observable=obs, postselect=[0, 1])


#: Every postselection gate, called on a zero probability: each must raise whatever tol_p is.
POSTSELECTION_GATES = {
    "verify_nogo": (ZeroProbability, lambda tol_p: verify_nogo(zero_probability_scenario(), tol_p=tol_p)),
    "conditional_expectation": (
        ZeroProbability,
        lambda tol_p: conditional_expectation(zero_probability_scenario(), 0, tol_p=tol_p),
    ),
    "abl_conditional_grid": (
        ZeroProbability,
        lambda tol_p: abl_conditional_grid(zero_probability_scenario(), 0, tol_p=tol_p),
    ),
    "enumerate_two_step": (ZeroProbability, lambda tol_p: enumerate_two_step(zero_probability_scenario(), tol_p=tol_p)),
    "luders_update": (ZeroProbability, lambda tol_p: luders_update(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), tol_p)),
    "weak_value": (OrthogonalPostselection, lambda tol_p: weak_value([1, 0], [0, 1], Z, tol_p)),
}


@pytest.mark.parametrize("tol_p", [math.nan, -1.0, 0.0, 1e-12])
@pytest.mark.parametrize("gate", POSTSELECTION_GATES)
def test_every_postselection_gate_fails_closed(gate, tol_p):
    # written as not (x > tol_p >= 0): a NaN or negative cutoff rejects every probability instead of passing a
    # 0/0 mean
    error, call = POSTSELECTION_GATES[gate]
    with pytest.raises(error):
        call(tol_p)


def unit(ket):
    return ket / np.linalg.norm(ket)


def obs_of(dim):
    return JointObservable(n=dim, m=dim, terms=((np.eye(dim), np.eye(dim)),))


#: Every boundary that takes a state, called with an unnormalized ket there and unit kets (``good``) elsewhere.
KET_BOUNDARIES = {
    "scenario psi": lambda bad, good: MeasurementScenario(bad, good(), obs_of(bad.size), postselect=good()),
    "scenario xi": lambda bad, good: MeasurementScenario(good(), bad, obs_of(bad.size), postselect=good()),
    "scenario postselect": lambda bad, good: MeasurementScenario(good(), good(), obs_of(bad.size), postselect=bad),
    "weak_value psi": lambda bad, good: weak_value(bad, good(), np.eye(bad.size)),
    "weak_value phi": lambda bad, good: weak_value(good(), bad, np.eye(bad.size)),
    "PostselectionProjector phi": lambda bad, good: PostselectionProjector(phi=bad, device_dim=2),
    "basis_transform phi": lambda bad, good: basis_transform(np.eye(2 * bad.size), bad, 2),
}


@given(
    boundary=st.sampled_from(sorted(KET_BOUNDARIES)),
    delta=st.floats(1e-9, 0.5),
    shrink=st.booleans(),
    c=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 3),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_unnormalized_and_orthogonal_states_are_refused(boundary, delta, shrink, c, seed, dim, data):
    rng = np.random.default_rng(seed)

    def good():
        return unit(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))

    with pytest.raises(ValueError, match="must be normalized"):
        KET_BOUNDARIES[boundary]((1.0 - delta if shrink else 1.0 + delta) * good(), good)
    # psi on a random part of the standard basis and phi on the rest: orthogonal, and under a c I system
    # factor, measured in the standard basis, the postselection probability sum_i |psi_i|^2 |phi_i|^2 is 0
    on = np.isin(np.arange(dim), sorted(data.draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))))
    psi, phi = unit(good() * on), unit(good() * ~on)
    with pytest.raises(OrthogonalPostselection):
        weak_value(psi, phi, random_hermitian(dim, rng))
    obs = JointObservable(n=dim, m=2, terms=((c * np.eye(dim), random_hermitian(2, rng)),))
    scen = MeasurementScenario(psi=psi, xi=unit(rng.standard_normal(2) + 0j), observable=obs, postselect=phi)
    with pytest.raises(ZeroProbability):
        conditional_expectation(scen, 0)
    with pytest.raises(ZeroProbability):
        verify_nogo(scen)


def test_postselection_projector_invariants():
    phi = np.array([0.6, 0.8j])
    proj = PostselectionProjector(phi=phi, device_dim=3)
    mat = proj.matrix
    assert np.max(np.abs(mat @ mat - mat)) < 1e-10
    assert np.trace(mat).real == pytest.approx(3.0, abs=1e-12)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


#: The per-term readers: each reads product_spectral(scenario.observable) and takes no spectral data.
READERS = {
    "outcome_probability_grid": outcome_probability_grid,
    "expectation": expectation,
    "joint_probability_grid": joint_probability_grid,
    "postselection_denominator": postselection_denominator,
    "abl_conditional_grid": abl_conditional_grid,
    "conditional_expectation": conditional_expectation,
}


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_spectral_data_passed_to_a_reader_fails_at_the_call(reader):
    # data of another observable with the same dims used to give that observable's mean on these kets
    scen = cnot_error_scenario(0.4)
    other = product_spectral(JointObservable(n=2, m=2, terms=((Z, I2),)))
    for call in (lambda: reader(scen, 0, other), lambda: reader(scen, 0, spectral=other)):
        with pytest.raises(TypeError):
            call()
    assert scen._means == {}  # refused before anything ran
    if reader in (abl_conditional_grid, conditional_expectation):
        with pytest.raises(TypeError):  # tol_p is keyword-only, so a stale positional argument cannot land in it
            reader(scen, 0, 1e-12)
        reader(scen, 0, tol_p=1e-12)
    reader(scen, 0)


#: Each call that once took spectral data, and what it raises now: readers take none, verify_nogo only its own.
SPECTRAL_TAKERS = {
    "outcome_probability_grid": (lambda scen, data: outcome_probability_grid(scen, 0, data), TypeError),
    "expectation": (lambda scen, data: expectation(scen, 0, data), TypeError),
    "joint_probability_grid": (lambda scen, data: joint_probability_grid(scen, 0, data), TypeError),
    "postselection_denominator": (lambda scen, data: postselection_denominator(scen, 0, data), TypeError),
    "abl_conditional_grid": (lambda scen, data: abl_conditional_grid(scen, 0, data), TypeError),
    "conditional_expectation": (lambda scen, data: conditional_expectation(scen, 0, data), TypeError),
    "verify_nogo": (lambda scen, data: verify_nogo(scen, spectral=data), ValueError),
}


@pytest.mark.parametrize("dims", [(3, 2), (2, 3), (1, 1)])
@pytest.mark.parametrize("call, error", SPECTRAL_TAKERS.values(), ids=SPECTRAL_TAKERS.keys())
def test_spectral_data_of_other_dims_is_refused(call, error, dims):
    # numpy's matmul used to raise its own ValueError on the mismatched stacks; same dims were accepted
    scen = cnot_error_scenario(0.4)
    n, m = dims
    other = product_spectral(JointObservable(n=n, m=m, terms=((np.eye(n), np.eye(m)),)))
    with pytest.raises(error):
        call(scen, other)
    assert scen._means == {}  # refused before any kernel row was formed


def test_scenario_rejects_unnormalized_states():
    obs = JointObservable(n=2, m=2, terms=((I2, I2),))
    with pytest.raises(ValueError):
        MeasurementScenario(psi=[1.0, 1.0], xi=[1, 0], observable=obs)


def test_observable_mixed_dimension_grid():
    obs = JointObservable(n=2, m=3, terms=((np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0])),))
    assert np.allclose(product_spectral(obs).grids[0], [[1, 2, 3], [2, 4, 6]])
    grid = joint_probability_grid(
        MeasurementScenario(
            psi=[1, 0], xi=[0, 0, 1], observable=obs, postselect=[0.6, 0.8]
        ),
        0,
    )
    assert grid.shape == (2, 3)


def rebuilt(scen):
    """The scenario again, from copies of its arrays."""
    obs = scen.observable
    terms = tuple((sys_op.copy(), dev_op.copy()) for sys_op, dev_op in obs.terms)
    return MeasurementScenario(
        psi=scen.psi.copy(),
        xi=scen.xi.copy(),
        observable=JointObservable(n=obs.n, m=obs.m, terms=terms),
        postselect=scen.postselect.copy(),
    )


def run_report(scen):
    degeneracy = check_rank_m_degeneracy(product_spectral(scen.observable))
    return RunReport(
        config_sha256="", degeneracy=degeneracy, verdict=verify_nogo(scen), error_disturbance=None, wall_time_s=0.0
    )


#: Each array-holding dataclass, reached from a scenario, or built afresh where no scenario leads to it.
PARTS = {
    "scenario": lambda scen: scen,
    "observable": lambda scen: scen.observable,
    "spectral data": lambda scen: product_spectral(scen.observable),
    "decomposition": lambda scen: spectral_decompose(scen.observable.terms[0][0]),
    "postselection projector": lambda scen: PostselectionProjector(phi=scen.postselect, device_dim=scen.m),
    "term degeneracy": lambda scen: check_rank_m_degeneracy(product_spectral(scen.observable)).terms[0],
    "degeneracy report": lambda scen: check_rank_m_degeneracy(product_spectral(scen.observable)),
    "basis transform": lambda scen: term_basis_transform(scen, 0),
    "enumeration": enumerate_two_step,
    "sampling": lambda scen: sample_two_step(scen, 100, 0),
    "run report": run_report,
    "error/disturbance report": lambda scen: cnot_report(CnotScenario(0.5)),
    "interaction model": lambda scen: cnot_scenario(CnotScenario(0.5)).model,
    "measurement setup": lambda scen: cnot_scenario(CnotScenario(0.5)).setup,
    "cnot bundle": lambda scen: cnot_scenario(CnotScenario(0.5)),
    "config": lambda scen: ScenarioConfig.from_path(Path(nogosim.__file__).parent / "fixtures" / "cnot_error.json"),
}


@pytest.mark.parametrize("part", PARTS)
def test_array_holding_dataclasses_compare_and_hash_by_identity(part):
    scen = random_scenario(instance_rng(3, 0), 2, 3, degenerate=False)
    obj, copy = PARTS[part](scen), PARTS[part](rebuilt(scen))
    assert obj == obj and not obj != obj
    assert obj != copy and not obj == copy
    assert hash(obj) == hash(obj)
    assert len({obj, copy, obj}) == 2


def random_kets(rows, dim, rng):
    """A (rows, dim) stack of unit kets."""
    kets = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    num_terms=st.integers(1, 2),
    rows=st.integers(1, 6),
    with_phi=st.booleans(),
    degenerate=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_one_psi_row_gives_the_bits_of_one_copy_per_row(seed, n, m, num_terms, rows, with_phi, degenerate):
    # the kernel broadcasts a one-row psi side over the rows of xi and phi: an elementwise product and a
    # per-row vecdot of a broadcast row hold the bits they hold on copies, so every field is equal to the bit
    rng = np.random.default_rng(seed)
    terms = tuple(
        (rng.standard_normal() * np.eye(n) if degenerate else random_hermitian(n, rng), random_hermitian(m, rng))
        for _ in range(num_terms)
    )
    data = product_spectral(JointObservable(n=n, m=m, terms=terms))
    psi, xi = random_kets(1, n, rng), random_kets(rows, m, rng)
    phi = random_kets(rows, n, rng) if with_phi else None
    shared = _means(data, _system_side(data, psi), xi, phi)
    copies = _means(data, _system_side(data, np.repeat(psi, rows, axis=0)), xi, phi)
    assert repr(shared) == repr(copies)  # a float's repr is its bits, the sign of zero and NaN included
    assert len(shared.unconditional) == rows
