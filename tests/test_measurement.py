"""Outcome statistics, ABL conditionals, Lueders updates, weak values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosim.errors import (
    MissingPostselection,
    NonHermitian,
    OrthogonalPostselection,
    ZeroProbability,
)
from nogosim.linalg import TOL_DEG, outer, spectral_decompose, tensor_product
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    PostselectionProjector,
    abl_conditional_grid,
    abl_conditional_probability,
    conditional_expectation,
    eigenbasis_conditional_expectation,
    expectation,
    joint_probability,
    joint_probability_grid,
    luders_update,
    outcome_probability,
    outcome_probability_grid,
    postselection_denominator,
    product_spectral,
    projective_probability,
    weak_value,
)
from nogosim.nogo import verify_nogo

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def random_hermitian(dim, rng):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return (g + g.conj().T) / 2


#: Factor dimensions the stacked decomposition is checked on.
STACK_DIMS = [1, 2, 3, 4, 5, 6, 9]


def near_pairs(dim, rng):
    """W diag(levels) W^dag for a random unitary W, levels 0 and 0.5 tol_deg, then 1 and 1 + 2 tol_deg, then spread."""
    levels = [0.0, 0.5 * TOL_DEG, 1.0, 1.0 + 2.0 * TOL_DEG, 2.0, 2.5, 3.0, 3.5, 4.0][:dim]
    w, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (w * np.asarray(levels)) @ w.conj().T
    return (h + h.conj().T) / 2


def random_ket(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def cnot_error_scenario(s, theta=np.pi / 4, varphi=0.0):
    """Squared-noise observable of the controlled-NOT family, 4 I (x) |1><1|."""
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    xi = np.array([np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)], dtype=complex)
    phi = np.array([math.cos(theta), np.exp(-1j * varphi) * math.sin(theta)])
    obs = JointObservable(n=2, m=2, terms=((4 * I2, P1),))
    return MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi)


class TestProductSpectral:
    def test_identity_z_term(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        term = product_spectral(obs)[0]
        assert np.allclose(term.system.eigenvalues, [1.0, 1.0])
        assert np.allclose(term.device.eigenvalues, [-1.0, 1.0])
        assert np.allclose(term.eigenvalue_grid, [[-1.0, 1.0], [-1.0, 1.0]])

    def test_scaled_projector_term(self):
        obs = JointObservable(n=2, m=2, terms=((4 * I2, P1),))
        term = product_spectral(obs)[0]
        assert np.allclose(term.eigenvalue_grid, [[0.0, 4.0], [0.0, 4.0]])

    def test_disturbance_term_basis(self):
        obs = JointObservable(n=2, m=2, terms=((2 * I2, I2 - X),))
        term = product_spectral(obs)[0]
        assert np.allclose(term.eigenvalue_grid.reshape(-1), [0.0, 4.0, 0.0, 4.0])
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        e0, e1 = np.eye(2)
        for (i, j), vec in {
            (0, 0): np.kron(e0, plus),
            (0, 1): np.kron(e0, minus),
            (1, 0): np.kron(e1, plus),
            (1, 1): np.kron(e1, minus),
        }.items():
            assert np.max(np.abs(term.product_vector(i, j) - vec)) < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_orthonormality_and_completeness(self, seed):
        rng = np.random.default_rng(seed)
        obs = JointObservable(n=2, m=3, terms=((random_hermitian(2, rng), random_hermitian(3, rng)),))
        term = product_spectral(obs)[0]
        projectors = [term.projector(i, j) for i in range(2) for j in range(3)]
        for a, pa in enumerate(projectors):
            for b, pb in enumerate(projectors):
                want = pa if a == b else np.zeros((6, 6))
                assert np.max(np.abs(pa @ pb - want)) < 1e-10
        assert np.max(np.abs(sum(projectors) - np.eye(6))) < 1e-10

    def test_memoized_per_tol_deg(self):
        obs = JointObservable(n=2, m=2, terms=((np.diag([0.0, 1e-8]), Z),))
        coarse = product_spectral(obs, 1e-7)
        fine = product_spectral(obs, 1e-9)
        assert product_spectral(obs, 1e-7) is coarse
        assert product_spectral(obs, 1e-9) is fine
        assert coarse[0].system.eigenspace_groups == ((0, 1),)
        assert fine[0].system.eigenspace_groups == ((0,), (1,))

    @pytest.mark.parametrize("num_terms", [1, 2, 3])
    @pytest.mark.parametrize("dim", STACK_DIMS)
    def test_equals_per_factor_spectral_decompose_bit_for_bit(self, num_terms, dim):
        # one stacked decomposition per factor slot; the device dims run through STACK_DIMS in reverse
        n, m = dim, STACK_DIMS[-1 - STACK_DIMS.index(dim)]
        rng = np.random.default_rng(10 * dim + num_terms)
        kinds = (random_hermitian, lambda d, rng: -1.5 * np.eye(d, dtype=complex), near_pairs)
        terms = tuple((kinds[k % 3](n, rng), kinds[(k + 1) % 3](m, rng)) for k in range(num_terms))
        data = product_spectral(JointObservable(n=n, m=m, terms=terms))
        for term, (sys_op, dev_op) in zip(data.terms, terms):
            want_sys, want_dev = spectral_decompose(sys_op), spectral_decompose(dev_op)
            for got, want in ((term.system, want_sys), (term.device, want_dev)):
                for name in ("eigenvalues", "eigenvectors", "adjoint"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.tobytes() == b.tobytes() and a.strides == b.strides, name
                assert got.eigenspace_groups == want.eigenspace_groups
            grid = np.outer(want_sys.eigenvalues, want_dev.eigenvalues)
            assert term.eigenvalue_grid.tobytes() == grid.tobytes()
        if num_terms == 3 and n >= 4:
            # the pair 0.5 tol_deg apart is one group, the pair 2 tol_deg apart two
            assert data[2].system.eigenspace_groups[:3] == ((0, 1), (2,), (3,))

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
        assert outcome_probability(scen, 0, 1, 1) == pytest.approx(1.0, abs=1e-14)
        assert outcome_probability(scen, 0, 0, 0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 0.9])
    def test_cnot_amplitude_product(self, s):
        scen = cnot_error_scenario(s)
        assert outcome_probability(scen, 0, 0, 1) == pytest.approx((1 - s) / 4, abs=1e-14)

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
        rho = scen.density()
        proj = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
        updated = luders_update(rho, proj)
        assert np.max(np.abs(updated - proj)) < 1e-12
        assert np.trace(updated).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(updated)) > -1e-10

    def test_zero_probability_raises(self):
        with pytest.raises(ZeroProbability):
            luders_update(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    @pytest.mark.parametrize(
        "rho, projector, name",
        [
            (np.diag([1.0, np.nan]), np.diag([1.0, 0.0]), "rho"),  # Tr[P rho] is NaN
            (np.diag([1.0, np.inf]), np.diag([0.0, 1.0]), "rho"),  # Tr[P rho] is inf
            (np.array([[1.0, np.nan], [np.nan, 0.0]]), np.diag([1.0, 0.0]), "rho"),  # Tr[P rho] is 1
            (np.diag([1.0, 0.0]), np.diag([1.0, np.nan]), "projector"),
        ],
        ids=["nan", "inf", "off-diagonal-nan", "nan-projector"],
    )
    def test_non_finite_input_is_rejected(self, rho, projector, name):
        with pytest.raises(ValueError, match=f"^{name} has NaN or Inf entries$"):
            luders_update(rho, projector)

    def test_mixed_state_update(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = 0.5 * np.diag([1.0, 0.0]) + 0.5 * outer(plus)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        assert projective_probability(rho, p0) == pytest.approx(0.75, abs=1e-14)
        assert np.max(np.abs(luders_update(rho, p0) - p0)) < 1e-14


class TestJointProbability:
    def test_system_dim_one_reduces_to_outcome_probability(self):
        obs = JointObservable(n=1, m=2, terms=((np.array([[2.0]]), Z),))
        scen = MeasurementScenario(psi=[1.0], xi=[0.6, 0.8], observable=obs, postselect=[1.0])
        for j in range(2):
            assert joint_probability(scen, 0, 0, j) == outcome_probability(scen, 0, 0, j)

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
        term = product_spectral(obs)[0]
        joint_state = scen.joint_state()
        pi = tensor_product(outer(phi), I2)
        for i in range(2):
            for j in range(2):
                proj = term.projector(i, j)
                brute = float(np.vdot(joint_state, proj @ pi @ proj @ joint_state).real)
                assert joint_probability(scen, 0, i, j) == pytest.approx(brute, abs=1e-12)

    def test_requires_postselection(self):
        scen = cnot_error_scenario(0.5)
        scen = MeasurementScenario(psi=scen.psi, xi=scen.xi, observable=scen.observable)
        with pytest.raises(MissingPostselection):
            joint_probability(scen, 0, 0, 0)


class TestAblConditional:
    def test_postselecting_a_system_basis_state_reduces_to_outcomes(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        scen = MeasurementScenario(psi=[1, 0], xi=[0.6, 0.8], observable=obs, postselect=[1, 0])
        for i in range(2):
            for j in range(2):
                assert abl_conditional_probability(scen, 0, i, j) == pytest.approx(
                    outcome_probability(scen, 0, i, j), abs=1e-14
                )

    def test_uniform_magnitude_preselection_reduces_to_outcomes(self):
        # |psi'_i|^2 uniform across the fully degenerate system factor keeps the
        # ABL reweighting trivial even though the projectors disturb the system
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        scen = MeasurementScenario(psi=psi, xi=[0.6, 0.8], observable=obs, postselect=psi)
        for i in range(2):
            for j in range(2):
                assert abl_conditional_probability(scen, 0, i, j) == pytest.approx(
                    outcome_probability(scen, 0, i, j), abs=1e-14
                )

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75])
    def test_cnot_conditional_weight_of_outcome_four(self, s):
        scen = cnot_error_scenario(s, theta=np.pi / 4)
        grid = abl_conditional_grid(scen, 0)
        values = product_spectral(scen.observable)[0].eigenvalue_grid
        weight = float(grid[np.isclose(values, 4.0)].sum())
        assert weight == pytest.approx((1 - s) / 2, abs=1e-12)

    def test_incompatible_postselection_raises(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        scen = MeasurementScenario(psi=[1, 0], xi=[0.6, 0.8], observable=obs, postselect=[0, 1])
        with pytest.raises(ZeroProbability):
            abl_conditional_probability(scen, 0, 0, 0)

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

    def test_eigenbasis_extension_matches_per_term_when_nondegenerate(self):
        rng = np.random.default_rng(14)
        obs = JointObservable(n=2, m=2, terms=((random_hermitian(2, rng), random_hermitian(2, rng)),))
        scen = MeasurementScenario(
            psi=random_ket(2, rng), xi=random_ket(2, rng), observable=obs, postselect=random_ket(2, rng)
        )
        assert eigenbasis_conditional_expectation(scen) == pytest.approx(
            conditional_expectation(scen, 0), abs=1e-10
        )


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


def test_postselection_projector_invariants():
    phi = np.array([0.6, 0.8j])
    proj = PostselectionProjector(phi=phi, device_dim=3)
    mat = proj.matrix
    assert np.max(np.abs(mat @ mat - mat)) < 1e-10
    assert np.trace(mat).real == pytest.approx(3.0, abs=1e-12)
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


def test_scenario_rejects_unnormalized_states():
    obs = JointObservable(n=2, m=2, terms=((I2, I2),))
    with pytest.raises(ValueError):
        MeasurementScenario(psi=[1.0, 1.0], xi=[1, 0], observable=obs)


def test_observable_mixed_dimension_grid():
    obs = JointObservable(n=2, m=3, terms=((np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0])),))
    term = product_spectral(obs)[0]
    assert np.allclose(term.eigenvalue_grid, [[1, 2, 3], [2, 4, 6]])
    grid = joint_probability_grid(
        MeasurementScenario(
            psi=[1, 0], xi=[0, 0, 1], observable=obs, postselect=[0.6, 0.8]
        ),
        0,
    )
    assert grid.shape == (2, 3)
