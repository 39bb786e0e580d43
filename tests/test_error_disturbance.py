"""Noise/disturbance operators, mean squares, and the controlled-NOT family."""

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nogosim import error_disturbance, linalg, measurement, nogo
from nogosim.cli import main
from nogosim.config import encode_complex_array
from nogosim.errors import DimensionMismatch, NonHermitian, ZeroProbability
from nogosim.error_disturbance import (
    CNOT,
    DEFAULT_STRENGTH_GRID,
    DEFAULT_THETA_GRID,
    DEFAULT_VARPHI_GRID,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RECONSTRUCTION_TOL,
    CnotScenario,
    ErrorDisturbanceReport,
    InteractionModel,
    MeasurementSetup,
    _cnot_model_setup,
    _cnot_prepared,
    _prepare,
    _state_reports,
    cnot_report,
    cnot_scenario,
    cnot_sweep,
    disturbance_operator,
    first_order_expansion,
    heisenberg_evolve,
    hermitian_basis,
    joint_observable_from_operator,
    mean_square_disturbance,
    mean_square_error,
    noise_operator,
    postselected_error_disturbance,
)
from nogosim.linalg import TOL_DEG, TOL_NORM, TOL_POSTSELECT, TOL_VERIFY, matrix_exponential_skew, tensor_product
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    expectation,
    joint_probability_grid,
    product_spectral,
)
from nogosim.nogo import TheoremVerdict, check_rank_m_degeneracy, verify_nogo
from nogosim.oracle import enumerate_two_step

I2 = np.eye(2, dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
KET1 = np.array([0.0, 1.0])


def random_hermitian(dim, rng):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return (g + g.conj().T) / 2


def random_ket(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rotated_strong_cnot(v_angle, w_angle, scale):
    """(model, setup, psi, xi, phi) of the CNOT family at strength 1 in the frame V (x) W, observables scaled."""
    v = matrix_exponential_skew(PAULI_Y, v_angle)
    w = matrix_exponential_skew((PAULI_X + PAULI_Z) / math.sqrt(2), w_angle)
    frame = np.kron(v, w)
    setup = MeasurementSetup(
        measured=scale * v @ PAULI_Z @ v.conj().T,
        disturbed=scale * v @ PAULI_X @ v.conj().T,
        readout=scale * w @ PAULI_Z @ w.conj().T,
    )
    model = InteractionModel.from_unitary(frame @ CNOT @ frame.conj().T)
    return model, setup, np.array([1.0, 1.0j]) / math.sqrt(2), w[:, 0], np.array([1.0, 0.0])


class TestHeisenbergEvolve:
    def test_identity_leaves_observable(self):
        op = tensor_product(PAULI_Z, PAULI_X)
        assert np.array_equal(heisenberg_evolve(np.eye(4), op), op)

    def test_cnot_pulls_device_z_onto_system(self):
        o0 = tensor_product(I2, PAULI_Z)
        expected = CNOT.conj().T @ o0 @ CNOT
        got = heisenberg_evolve(CNOT, o0)
        assert np.array_equal(got, expected)
        assert np.max(np.abs(got - tensor_product(PAULI_Z, PAULI_Z))) < 1e-14

    def test_cnot_spreads_system_x(self):
        o0 = tensor_product(PAULI_X, I2)
        got = heisenberg_evolve(CNOT, o0)
        assert np.max(np.abs(got - tensor_product(PAULI_X, PAULI_X))) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            heisenberg_evolve(np.eye(4), np.eye(2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            heisenberg_evolve(np.diag([1.0, 2.0]), np.eye(2))


class TestFirstOrderExpansion:
    def test_commuting_generator_is_exact(self):
        o0 = tensor_product(PAULI_Z, PAULI_X)
        got = first_order_expansion(PAULI_Z, PAULI_X, 0.3, o0)
        assert np.max(np.abs(got - o0)) < 1e-14

    def test_zero_time(self):
        o0 = tensor_product(I2, PAULI_Z)
        assert np.array_equal(first_order_expansion(PAULI_Z, PAULI_X, 0.0, o0), o0)

    def test_small_time_error_bound(self):
        t = 1e-3
        o0 = tensor_product(I2, PAULI_Z)
        u = matrix_exponential_skew(tensor_product(PAULI_Z, PAULI_X), t)
        exact = heisenberg_evolve(u, o0)
        approx = first_order_expansion(PAULI_Z, PAULI_X, t, o0)
        assert np.max(np.abs(exact - approx)) < 5e-6

    def test_quadratic_scaling_under_halving(self):
        o0 = tensor_product(I2, PAULI_Z)
        errors = []
        for t in (1e-2, 5e-3, 2.5e-3):
            u = matrix_exponential_skew(tensor_product(PAULI_Z, PAULI_X), t)
            exact = heisenberg_evolve(u, o0)
            approx = first_order_expansion(PAULI_Z, PAULI_X, t, o0)
            errors.append(float(np.max(np.abs(exact - approx))))
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5

    def test_result_stays_hermitian(self):
        rng = np.random.default_rng(4)
        got = first_order_expansion(
            random_hermitian(2, rng), random_hermitian(2, rng), 0.2, tensor_product(I2, PAULI_Z)
        )
        assert np.max(np.abs(got - got.conj().T)) < 1e-12


class TestNoiseAndDisturbanceOperators:
    def test_trivial_interaction_noise_is_device_readout(self):
        model = InteractionModel.from_unitary(np.eye(4))
        setup = MeasurementSetup(measured=np.zeros((2, 2)), disturbed=PAULI_X, readout=PAULI_Z)
        assert np.max(np.abs(noise_operator(model, setup) - tensor_product(I2, PAULI_Z))) < 1e-14

    def test_cnot_squared_noise_identity(self):
        model = InteractionModel.from_unitary(CNOT)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        noise = noise_operator(model, setup)
        assert np.max(np.abs(noise - (tensor_product(PAULI_Z, PAULI_Z) - tensor_product(PAULI_Z, I2)))) < 1e-14
        target = 4 * tensor_product(I2, np.outer(KET1, KET1))
        assert np.max(np.abs(noise @ noise - target)) < 1e-12

    def test_swap_with_matching_readout_has_no_noise(self):
        model = InteractionModel.from_unitary(SWAP)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        assert np.max(np.abs(noise_operator(model, setup))) < 1e-14

    def test_trivial_interaction_has_no_disturbance(self):
        model = InteractionModel.from_unitary(np.eye(4))
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        assert np.max(np.abs(disturbance_operator(model, setup))) < 1e-14

    def test_cnot_squared_disturbance_identity(self):
        model = InteractionModel.from_unitary(CNOT)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        disturb = disturbance_operator(model, setup)
        assert np.max(np.abs(disturb - (tensor_product(PAULI_X, PAULI_X) - tensor_product(PAULI_X, I2)))) < 1e-14
        target = 2 * tensor_product(I2, I2 - PAULI_X)
        assert np.max(np.abs(disturb @ disturb - target)) < 1e-12

    def test_commuting_observable_is_undisturbed(self):
        model = InteractionModel.from_unitary(CNOT)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_Z, readout=PAULI_Z)
        assert np.max(np.abs(disturbance_operator(model, setup))) < 1e-14

    def test_dimension_mismatch(self):
        model = InteractionModel.from_unitary(np.eye(4))
        setup = MeasurementSetup(measured=np.eye(3), disturbed=np.eye(3), readout=PAULI_Z)
        with pytest.raises(DimensionMismatch):
            noise_operator(model, setup)


class TestMeanSquares:
    def test_zero_setup_gives_zero_error(self):
        model = InteractionModel.from_unitary(np.eye(4))
        setup = MeasurementSetup(measured=np.zeros((2, 2)), disturbed=PAULI_X, readout=np.zeros((2, 2)))
        assert mean_square_error(model, setup, [1, 0], [1, 0]) == pytest.approx(0.0, abs=1e-14)

    def test_trivial_interaction_gives_zero_disturbance(self):
        model = InteractionModel.from_unitary(np.eye(4))
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        assert mean_square_disturbance(model, setup, [1, 0], [1, 0]) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("s", np.linspace(0, 1, 11))
    def test_cnot_curves(self, s):
        params = CnotScenario(strength=s)
        model = InteractionModel.from_unitary(CNOT)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        eps2 = mean_square_error(model, setup, params.psi(), params.xi())
        eta2 = mean_square_disturbance(model, setup, params.psi(), params.xi())
        assert eps2 == pytest.approx(2 * (1 - s), abs=1e-12)
        assert eta2 == pytest.approx(2 * (1 - math.sqrt(1 - s * s)), abs=1e-12)

    def test_swapped_ket_dims_are_refused_as_the_report_refuses_them(self):
        # n * m = 6 either way, so a 3-dim psi with a 2-dim xi used to pass and return 1.667
        model = InteractionModel.from_hamiltonians(np.diag([1.0, -1.0]), np.diag([1.0, 0.0, -1.0]), 0.4)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=np.diag([1.0, 0.0, -1.0]))
        psi, xi, phi = np.ones(2) / np.sqrt(2), np.ones(3) / np.sqrt(3), np.array([1.0, 0.0])
        assert math.isfinite(mean_square_error(model, setup, psi, xi))
        for bad_psi, bad_xi, message in ((xi, psi, "psi has dim 3, observable expects 2"), (psi, psi, "xi has dim 2")):
            for fn in (mean_square_error, mean_square_disturbance):
                with pytest.raises(DimensionMismatch, match=message):
                    fn(model, setup, bad_psi, bad_xi)
            with pytest.raises(DimensionMismatch, match=message):
                postselected_error_disturbance(model, setup, bad_psi, bad_xi, phi)

    def test_strong_limit_disturbance(self):
        params = CnotScenario(strength=1.0)
        model = InteractionModel.from_unitary(CNOT)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        assert mean_square_disturbance(model, setup, params.psi(), params.xi()) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_operator_route_matches_spectral_route(self, seed):
        rng = np.random.default_rng(seed)
        model = InteractionModel.from_hamiltonians(random_hermitian(2, rng), random_hermitian(2, rng), 0.7)
        setup = MeasurementSetup(
            measured=random_hermitian(2, rng), disturbed=random_hermitian(2, rng), readout=random_hermitian(2, rng)
        )
        psi, xi = random_ket(2, rng), random_ket(2, rng)
        noise = noise_operator(model, setup)
        noise_sq = (noise @ noise + (noise @ noise).conj().T) / 2
        obs = joint_observable_from_operator(noise_sq, 2, 2)
        scen = MeasurementScenario(psi=psi, xi=xi, observable=obs)
        assert mean_square_error(model, setup, psi, xi) == pytest.approx(
            sum(expectation(scen, k) for k in range(obs.num_terms)), abs=1e-10
        )


    def test_mean_squares_equal_the_report(self):
        # the report reads each side's kernel row, bit for bit; the direct route <Psi|N^2|Psi> sums the same
        # mean in another order, so it agrees to rounding (1.7e-14 of max(1, |value|) at most on 2000 random models)
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(300):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            model = InteractionModel.from_hamiltonians(
                random_hermitian(n, rng), random_hermitian(m, rng), float(rng.uniform(0.1, 2.0))
            )
            setup = MeasurementSetup(
                measured=random_hermitian(n, rng), disturbed=random_hermitian(n, rng), readout=random_hermitian(m, rng)
            )
            cases.append((model, setup, random_ket(n, rng), random_ket(m, rng), random_ket(n, rng)))
        model, setup = _cnot_model_setup()
        for s in (0.0, 0.3, 0.5, 0.9, 1.0):
            params = CnotScenario(strength=s, theta=0.7, varphi=0.3)
            cases.append((model, setup, params.psi(), params.xi(), params.phi()))
        reports = cnot_sweep(DEFAULT_STRENGTH_GRID, DEFAULT_THETA_GRID, DEFAULT_VARPHI_GRID)
        for model, setup, psi, xi, phi in cases:
            report = postselected_error_disturbance(model, setup, psi, xi, phi)
            reports.append(report)
            for direct, value in (
                (mean_square_error(model, setup, psi, xi), report.epsilon_sq),
                (mean_square_disturbance(model, setup, psi, xi), report.eta_sq),
            ):
                assert abs(direct - value) <= 1e-13 * max(1.0, abs(direct))
        for report in reports:
            error, disturbance = report.error_verdict, report.disturbance_verdict
            for got, want in (
                (report.epsilon_sq, error.unconditional),
                (report.eta_sq, disturbance.unconditional),
                (report.nogo_gap_error, error.gap),
                (report.nogo_gap_disturbance, disturbance.gap),
            ):
                assert got.hex() == want.hex()


class TestJointObservableFromOperator:
    @pytest.mark.parametrize("seed", range(6))
    def test_product_operator_recovers_single_term(self, seed):
        rng = np.random.default_rng(seed)
        sys_op, dev_op = random_hermitian(2, rng), random_hermitian(3, rng)
        obs = joint_observable_from_operator(tensor_product(sys_op, dev_op), 2, 3)
        assert obs.num_terms == 1
        got = tensor_product(*obs.terms[0])
        assert np.max(np.abs(got - tensor_product(sys_op, dev_op))) < 1e-10

    def test_negative_product_keeps_hermitian_factors(self):
        obs = joint_observable_from_operator(tensor_product(-3 * I2, PAULI_X), 2, 2)
        assert obs.num_terms == 1
        for factor in obs.terms[0]:
            assert np.max(np.abs(factor - factor.conj().T)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_entangled_operator_reconstructs(self, seed):
        rng = np.random.default_rng(100 + seed)
        op = random_hermitian(4, rng)
        obs = joint_observable_from_operator(op, 2, 2)
        assert obs.num_terms > 1
        total = sum(tensor_product(s, d) for s, d in obs.terms)
        assert np.max(np.abs(total - op)) < 1e-10

    def test_zero_operator(self):
        obs = joint_observable_from_operator(np.zeros((4, 4)), 2, 2)
        assert obs.num_terms == 1
        assert np.max(np.abs(sum(tensor_product(s, d) for s, d in obs.terms))) == 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            joint_observable_from_operator(1j * np.eye(4), 2, 2)

    def test_two_product_terms_give_two_terms(self):
        # one term per system basis element with a nonzero partner would give 3 (X, Y and Z)
        op = tensor_product(PAULI_X + 0.3 * PAULI_Z, PAULI_Z) + tensor_product(PAULI_Y, PAULI_X - 0.5 * I2)
        obs = joint_observable_from_operator(op, 2, 2)
        assert obs.num_terms == 2
        assert np.max(np.abs(sum(tensor_product(s, d) for s, d in obs.terms) - op)) <= RECONSTRUCTION_TOL

    @pytest.mark.parametrize("seed", range(4))
    def test_generic_operator_takes_the_rank_of_its_realigned_matrix(self, seed):
        # the realigned matrix is 9 x 4, so rank 4; one term per system basis element would give 9
        rng = np.random.default_rng(200 + seed)
        assert joint_observable_from_operator(random_hermitian(6, rng), 3, 2).num_terms == 4

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        rank=st.integers(1, 9),
        exponent=st.integers(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_schmidt_terms(self, n, m, rank, exponent, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, n * n, m * m)
        op = 10.0**exponent * sum(
            tensor_product(random_hermitian(n, rng), random_hermitian(m, rng)) for _ in range(rank)
        )
        obs = joint_observable_from_operator(op, n, m)
        scale = max(1.0, float(np.max(np.abs(op))))
        realigned = op.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
        assert obs.num_terms == np.linalg.matrix_rank(realigned) == rank
        total = sum(tensor_product(s, d) for s, d in obs.terms)
        assert np.max(np.abs(total - op)) <= RECONSTRUCTION_TOL * scale
        for sys_op, dev_op in obs.terms:
            linalg.require_hermitian(sys_op)
            linalg.require_hermitian(dev_op)
        # tr(S_r S_s) = tr(D_r D_s) = sigma_r delta_rs: trace-orthogonal factors, sqrt(sigma_r) on each side
        sing = np.linalg.svd(realigned, compute_uv=False)[:rank]
        for side in map(np.array, zip(*obs.terms)):
            gram = np.einsum("rij,sji->rs", side, side)
            assert np.max(np.abs(gram - np.diag(sing))) <= 1e-10 * scale

    def test_hypothesis_holds_exactly_when_the_operator_is_identity_on_the_system(self):
        # a c*I system Hamiltonian makes U = I (x) V, so the disturbance vanishes, and with a c*I
        # measured observable the squared noise is I (x) M. For n = 2 the squared disturbance is
        # I (x) M under any H_system: in its eigenbasis both diagonal blocks are 2 - V0^dag V1 - V1^dag V0.
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(60):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            flat_h, flat_measured = rng.random(2) < 0.5
            model = InteractionModel.from_hamiltonians(
                rng.normal() * np.eye(n) if flat_h else random_hermitian(n, rng),
                random_hermitian(m, rng),
                float(rng.uniform(0.1, 2.0)),
            )
            setup = MeasurementSetup(
                measured=rng.normal() * np.eye(n) if flat_measured else random_hermitian(n, rng),
                disturbed=random_hermitian(n, rng),
                readout=random_hermitian(m, rng),
            )
            report = postselected_error_disturbance(
                model, setup, random_ket(n, rng), random_ket(m, rng), random_ket(n, rng)
            )
            squares = (linalg.hermitian_part(op @ op) for op in (report.noise_op, report.disturb_op))
            for op, verdict in zip(squares, (report.error_verdict, report.disturbance_verdict)):
                reduced = np.einsum("ijil->jl", op.reshape(n, m, n, m)) / n
                scale = max(1.0, float(np.max(np.abs(op))))
                local = float(np.max(np.abs(op - tensor_product(np.eye(n), reduced)))) <= RECONSTRUCTION_TOL * scale
                assert verdict.hypothesis_holds == local
                seen.add(local)
        assert seen == {True, False}

    def test_oracle_agrees_on_the_schmidt_terms(self):
        model, setup = generic_model_setup()
        observables = side_observables(model, setup)
        rng = np.random.default_rng(5)
        for _ in range(5):
            psi, xi, phi = random_ket(2, rng), random_ket(3, rng), random_ket(2, rng)
            report = postselected_error_disturbance(model, setup, psi, xi, phi)
            sides = (report.error_verdict, report.disturbance_verdict)
            for verdict, scen in zip(sides, side_scenarios(observables, psi, xi, phi)):
                result = enumerate_two_step(scen)
                oracle = sum(result.conditional_expectation(k) for k in range(scen.observable.num_terms))
                assert abs(oracle - verdict.conditional) <= TOL_VERIFY

    def test_the_postselected_square_is_the_fold_over_the_schmidt_terms(self):
        # epsilon_sq_post is each Schmidt term's own postselected mean, added in order: outside the hypothesis it
        # depends on the split, so N^2 written over the full Hermitian basis, sum c_ab G_a (x) H_b, moves it
        # (by 0.0021 to 1.37 on these 60 models), while the conventional mean of either split is <Psi|N^2|Psi>
        basis = hermitian_basis(2)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            unitary = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            model = InteractionModel.from_unitary(unitary)
            setup = MeasurementSetup(
                measured=random_hermitian(2, rng), disturbed=random_hermitian(2, rng), readout=random_hermitian(2, rng)
            )
            psi, xi, phi = random_ket(2, rng), random_ket(2, rng), random_ket(2, rng)
            report = postselected_error_disturbance(model, setup, psi, xi, phi)
            square = linalg.hermitian_part(report.noise_op @ report.noise_op)
            full = JointObservable(
                n=2, m=2, terms=tuple((np.trace(np.kron(g, h) @ square).real * g, h) for g in basis for h in basis)
            )
            schmidt, expanded = (
                verify_nogo(MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi))
                for obs in (joint_observable_from_operator(square, 2, 2), full)
            )
            assert repr(report.epsilon_sq_post) == repr(schmidt.conditional)
            assert abs(expanded.conditional - schmidt.conditional) > 1e-3
            assert abs(expanded.unconditional - schmidt.unconditional) <= 1e-12
            assert repr(report.epsilon_sq) == repr(schmidt.unconditional)

    def test_hermitian_basis_is_orthonormal(self):
        for dim in (2, 3):
            basis = hermitian_basis(dim)
            assert len(basis) == dim * dim
            for a, ga in enumerate(basis):
                assert np.max(np.abs(ga - ga.conj().T)) < 1e-14
                for b, gb in enumerate(basis):
                    want = 1.0 if a == b else 0.0
                    assert np.trace(ga @ gb).real == pytest.approx(want, abs=1e-12)


class TestPostselectedReport:
    @pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
    def test_postselection_leaves_both_quantities(self, s):
        report = cnot_report(CnotScenario(strength=s, theta=0.6, varphi=1.2))
        assert report.epsilon_sq_post == pytest.approx(report.epsilon_sq, abs=1e-10)
        assert report.eta_sq_post == pytest.approx(report.eta_sq, abs=1e-10)
        assert report.nogo_gap_error <= 1e-10
        assert report.nogo_gap_disturbance <= 1e-10

    def test_weak_limit_endpoint(self):
        report = cnot_report(CnotScenario(strength=0.0))
        assert report.epsilon_sq == pytest.approx(2.0, abs=1e-12)
        assert report.eta_sq == pytest.approx(0.0, abs=1e-12)
        assert report.epsilon_sq_post == pytest.approx(2.0, abs=1e-10)
        assert report.eta_sq_post == pytest.approx(0.0, abs=1e-10)

    def test_postselection_angle_independence(self):
        lo = cnot_report(CnotScenario(strength=0.4, theta=0.0))
        hi = cnot_report(CnotScenario(strength=0.4, theta=math.pi / 2))
        assert lo.epsilon_sq_post == pytest.approx(hi.epsilon_sq_post, abs=1e-10)
        assert lo.eta_sq_post == pytest.approx(hi.eta_sq_post, abs=1e-10)

    def test_angle_grid_gaps(self):
        worst_err = 0.0
        worst_dis = 0.0
        for theta in DEFAULT_THETA_GRID:
            for varphi in DEFAULT_VARPHI_GRID:
                report = cnot_report(CnotScenario(strength=0.7, theta=theta, varphi=varphi))
                worst_err = max(worst_err, report.nogo_gap_error)
                worst_dis = max(worst_dis, report.nogo_gap_disturbance)
        assert worst_err <= 1e-10 and worst_dis <= 1e-10

    def test_verdicts_carry_hypothesis(self):
        report = cnot_report(CnotScenario(strength=0.5))
        assert report.error_verdict.hypothesis_holds
        assert report.error_verdict.basis_requirement_holds
        assert report.disturbance_verdict.hypothesis_holds
        assert report.disturbance_verdict.basis_requirement_holds

    def test_generic_interaction_still_reports(self):
        rng = np.random.default_rng(77)
        model = InteractionModel.from_hamiltonians(random_hermitian(2, rng), random_hermitian(2, rng), 0.9)
        setup = MeasurementSetup(
            measured=random_hermitian(2, rng), disturbed=random_hermitian(2, rng), readout=random_hermitian(2, rng)
        )
        report = postselected_error_disturbance(model, setup, random_ket(2, rng), random_ket(2, rng), random_ket(2, rng))
        assert report.epsilon_sq >= -1e-12
        assert report.eta_sq >= -1e-12

    def test_rounding_below_zero_is_reported(self):
        # epsilon^2 = ||S Psi||^2 is 0 here; its rounding, about ||S||^2 eps, fell below -1e-12
        report = postselected_error_disturbance(*rotated_strong_cnot(0.5, 0.9, 200.0))
        assert abs(report.epsilon_sq) <= 1e-9
        assert report.eta_sq == pytest.approx(2 * 200.0**2, rel=1e-13)

    def test_verify_reports_rounding_below_zero(self, tmp_path, capsys):
        model, setup, psi, xi, phi = rotated_strong_cnot(0.5, 0.9, 200.0)
        error = side_observables(model, setup)[0]
        raw = {
            "n": 2,
            "m": 2,
            "psi": encode_complex_array(psi),
            "xi": encode_complex_array(xi),
            "phi": encode_complex_array(phi),
            "observable": {
                "terms": [
                    {"system": encode_complex_array(sys_op), "device": encode_complex_array(dev_op)}
                    for sys_op, dev_op in error.terms
                ]
            },
            "interaction": {"unitary": encode_complex_array(model.unitary)},
            "setup": {name: encode_complex_array(getattr(setup, name)) for name in ("measured", "disturbed", "readout")},
        }
        path = tmp_path / "rotated.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["error_disturbance"]["epsilon_sq"]) <= 1e-9


class TestCnotScenarioBuilder:
    def test_strong_limit_device_state(self):
        assert np.allclose(CnotScenario(strength=1.0).xi(), [1.0, 0.0])

    def test_weak_limit_device_state(self):
        assert np.allclose(CnotScenario(strength=0.0).xi(), np.array([1.0, 1.0]) / np.sqrt(2))

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.8])
    def test_joint_state_amplitudes(self, s):
        params = CnotScenario(strength=s)
        joint = np.kron(params.psi(), params.xi())
        expected = np.array(
            [math.sqrt(1 + s), math.sqrt(1 - s), 1j * math.sqrt(1 + s), 1j * math.sqrt(1 - s)]
        ) / 2.0
        assert np.max(np.abs(joint - expected)) < 1e-14

    def test_strength_bounds(self):
        with pytest.raises(ValueError):
            CnotScenario(strength=1.5)

    @pytest.mark.parametrize("field", ["theta", "varphi"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_are_refused_when_built(self, field, bad):
        # a NaN theta used to be built, and only cnot_report failed later, on its phi
        with pytest.raises(ValueError, match=f"^theta and varphi must be finite, got {bad!r}$"):
            CnotScenario(0.5, **{field: bad})

    def test_bundle_observables_satisfy_hypothesis(self):
        bundle = cnot_scenario(CnotScenario(strength=0.5))
        for scen in (bundle.error_scenario, bundle.disturbance_scenario):
            assert check_rank_m_degeneracy(product_spectral(scen.observable)).all_degenerate


class TestCnotCache:
    @pytest.mark.parametrize("tol_deg", [0.0, TOL_DEG, 1e-7, 0.5, 3.0])
    @pytest.mark.parametrize(
        "s, theta, varphi", [(0.0, 0.0, 0.0), (0.37, 0.7, 0.3), (0.8, 1.1, 2.5), (1.0, math.pi / 2, math.pi)]
    )
    def test_report_equals_uncached_path(self, s, theta, varphi, tol_deg):
        params = CnotScenario(strength=s, theta=theta, varphi=varphi)
        cached = cnot_report(params, tol_deg=tol_deg)
        fresh = postselected_error_disturbance(
            *_cnot_model_setup(), params.psi(), params.xi(), params.phi(), tol_deg=tol_deg
        )
        for f in dataclasses.fields(ErrorDisturbanceReport):
            a, b = getattr(cached, f.name), getattr(fresh, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name

    def test_sweep_point_decomposes_nothing(self, monkeypatch):
        cnot_report(CnotScenario(strength=0.2))
        calls = []
        monkeypatch.setattr(measurement, "_decompose", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(error_disturbance, "joint_observable_from_operator", lambda *a, **k: calls.append(a))
        # each side's hypothesis is kept with the family's data, so it is not re-read, and no report is built
        monkeypatch.setattr(error_disturbance, "_within", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(nogo, "_term_degeneracy", lambda *a, **k: calls.append(a))
        cnot_report(CnotScenario(strength=0.6, theta=0.4, varphi=1.0))
        cnot_scenario(CnotScenario(strength=0.6))
        assert calls == []

    def test_each_tol_deg_reads_its_own_family_entry(self):
        # the family memo keeps one entry per tol_deg, on that tol_deg's data: none leaks into another
        _cnot_prepared.cache_clear()
        params = CnotScenario(0.37, 0.7, 0.3)
        for tol_deg in (0.0, 1e-9, 0.5, 3.0, 0, -0.0):
            fresh = postselected_error_disturbance(
                *_cnot_model_setup(), params.psi(), params.xi(), params.phi(), tol_deg=tol_deg
            )
            assert_same_report(cnot_report(params, tol_deg=tol_deg), fresh)
            prepared = _cnot_prepared(float(tol_deg))  # the key cnot_sweep reads
            assert prepared.data is product_spectral(prepared.squares, tol_deg)
            assert list(prepared.squares._spectral) == [tol_deg]
        assert _cnot_prepared.cache_info().currsize == 4

    def test_psi_side_is_formed_once_per_tol_deg(self, monkeypatch):
        _cnot_prepared.cache_clear()
        sides, weights = [], []
        system_side, weigh = error_disturbance._system_side, measurement._weights
        monkeypatch.setattr(error_disturbance, "_system_side", lambda *a: sides.append(a) or system_side(*a))
        monkeypatch.setattr(measurement, "_weights", lambda *a: weights.append(a[1].shape) or weigh(*a))
        cnot_report(CnotScenario(0.3, 0.5, 0.7))
        assert len(sides) == 1 and len(weights) == 2  # psi's weights, then phi's
        # a second point forms phi's weights alone
        weights.clear()
        cnot_report(CnotScenario(0.6, 0.2, 1.0))
        assert len(sides) == 1 and weights == [(1, 1, 2)]
        # so does a grid: one weight pass over its phi stack
        weights.clear()
        assert len(cnot_sweep([0.0, 0.4, 1.0], [0.1, 0.9], [0.0, 2.0])) == 12
        assert len(sides) == 1 and weights == [(12, 1, 2)]
        # a grid at another tol_deg forms psi's side at most once, then reuses it
        for _ in range(2):
            cnot_sweep([0.0, 1.0], [0.1], [0.0, 2.0], tol_deg=0.5)
        assert len(sides) == 2

    def test_cached_arrays_are_read_only(self):
        prepared = _cnot_prepared(TOL_DEG)
        assert _cnot_prepared(TOL_DEG) is prepared
        arrays = [prepared.noise, prepared.disturb, *prepared.system]
        bundle = cnot_scenario(CnotScenario(0.5))
        for obs in (bundle.error_scenario.observable, bundle.disturbance_scenario.observable, prepared.squares):
            arrays += [factor for term in obs.terms for factor in term]
            data = product_spectral(obs)
            arrays += [data.system, data.device, data.grids, data.mean_system_values]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0


def assert_same_report(a, b):
    """Every field equal, floats and verdicts down to the sign of zero (their reprs), arrays element for element."""
    for f in dataclasses.fields(ErrorDisturbanceReport):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y and repr(x) == repr(y), f.name


# grid values: the family's end points and repeats, both signs of zero, and arbitrary floats
STRENGTHS = st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0), min_size=1, max_size=3)
ANGLES = st.lists(st.sampled_from([0.0, -0.0, math.pi / 4]) | st.floats(-7.0, 7.0), min_size=1, max_size=3)


class TestCnotSweep:
    @settings(max_examples=80, deadline=None)
    @given(s_grid=STRENGTHS, theta_grid=ANGLES, varphi_grid=ANGLES, tol_deg=st.sampled_from([TOL_DEG, 1e-7]))
    def test_rows_equal_cnot_report(self, s_grid, theta_grid, varphi_grid, tol_deg):
        reports = cnot_sweep(s_grid, theta_grid, varphi_grid, tol_deg=tol_deg)
        points = list(itertools.product(s_grid, theta_grid, varphi_grid))
        assert len(reports) == len(points)
        for (s, theta, varphi), report in zip(points, reports):
            assert_same_report(report, cnot_report(CnotScenario(s, theta, varphi), tol_deg=tol_deg))

    def test_one_point_sweep_is_cnot_report(self):
        params = CnotScenario(0.37, 0.7, 0.3)
        (report,) = cnot_sweep([params.strength], [params.theta], [params.varphi])
        assert_same_report(report, cnot_report(params))

    def test_empty_grid_gives_no_rows(self):
        assert cnot_sweep([], [0.1], [0.2]) == []
        assert cnot_sweep([0.5], [0.1], []) == []

    def test_first_vanishing_row_raises_as_that_row_alone(self):
        kets = [(p.psi(), p.xi(), p.phi()) for p in (CnotScenario(0.2, 0.3, 0.1), CnotScenario(0.9, 1.1, 2.0))]
        # psi = |0> and phi = |1>: the error observable's system factor is diagonal, so the denominator is exactly 0
        kets.append((np.array([1.0, 0.0]), CnotScenario(0.5).xi(), np.array([0.0, 1.0])))
        # a later row below the cutoff but not zero, whose message would differ
        kets.append((np.array([1.0, 0.0]), CnotScenario(0.5).xi(), np.array([1e-7, math.sqrt(1.0 - 1e-14)])))
        psi, xi, phi = (np.array(column, dtype=complex) for column in zip(*kets))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the vanishing row's 0/0 raises no numpy warning either
            with pytest.raises(ZeroProbability) as stacked:
                # one psi row per row: _prepare takes a psi stack as well as the family's one row
                _state_reports(_prepare(*_cnot_model_setup(), psi, TOL_DEG), xi, phi, TOL_VERIFY, TOL_POSTSELECT)
        with pytest.raises(ZeroProbability) as alone:
            postselected_error_disturbance(*_cnot_model_setup(), psi[2], xi[2], phi[2])
        assert str(stacked.value) == str(alone.value) == "postselection probability 0.000e+00 at or below cutoff 1.0e-12"

    def test_no_ket_is_checked(self, monkeypatch):
        # the grid values are checked instead: every ket the family builds from them is unit (next test)
        cnot_report(CnotScenario(0.1))  # builds the cached observables and spectral data first
        names = []
        check = linalg.as_state

        def counted(*args, **kwargs):
            names.append(kwargs.get("name"))
            return check(*args, **kwargs)

        for module in (linalg, measurement, nogo, error_disturbance):
            if hasattr(module, "as_state"):
                monkeypatch.setattr(module, "as_state", counted)
        cnot_report(CnotScenario(0.4, 0.2, 1.0))
        s_grid, theta_grid, varphi_grid = [0.5, 0.5, 1.0], [0.0, -0.0], [1.0, 1.0]
        assert len(cnot_sweep(s_grid, theta_grid, varphi_grid)) == 12
        assert names == []

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.floats(0.0, 1.0),
        theta=st.floats(-1e300, 1e300),
        varphi=st.floats(-1e300, 1e300),
    )
    @example(s=0.0, theta=-0.0, varphi=-0.0)
    @example(s=1.0, theta=5e-324, varphi=-2.2250738585072014e-308)
    @example(s=5e-324, theta=1e300, varphi=-1e300)
    def test_every_ket_of_a_checked_grid_value_is_unit(self, s, theta, varphi):
        # psi is a constant, |xi(s)|^2 = (1+s)/2 + (1-s)/2 and |phi|^2 = cos^2 theta + sin^2 theta
        kets = error_disturbance._CNOT_PSI, error_disturbance._cnot_xi(s), error_disturbance._cnot_phi(theta, varphi)
        for ket in kets:
            assert abs(float(np.vdot(ket, ket).real) - 1.0) <= TOL_NORM


def generic_model_setup():
    """A generic interaction whose error observable has 3 product terms and whose disturbance observable has 1."""
    rng = np.random.default_rng(0)
    model = InteractionModel.from_hamiltonians(random_hermitian(2, rng), random_hermitian(3, rng), 0.3)
    return model, MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=np.diag([1.0, 0.0, -1.0]))


def side_observables(model, setup):
    """The error side's and the disturbance side's observables, each the Schmidt terms of its own operator's square."""
    operators = noise_operator(model, setup), disturbance_operator(model, setup)
    return [joint_observable_from_operator(linalg.hermitian_part(op @ op), setup.n, setup.m) for op in operators]


def side_scenarios(observables, psi, xi, phi):
    """The error side's and the disturbance side's scenarios, each on its own observable."""
    return [MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi) for obs in observables]


def assert_same_verdict(a, b):
    for f in dataclasses.fields(TheoremVerdict):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x == y and repr(x) == repr(y), f.name


def kernel_calls(mp):
    """Record every ``_means`` call, through each module namespace that binds it."""
    calls = []
    kernel = measurement._means

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    for module in (measurement, nogo, error_disturbance):
        mp.setattr(module, "_means", counted)
    return calls


def lowest_denominators(scenarios):
    """Each side's smallest postselection probability over its terms."""
    return [
        min(float(joint_probability_grid(scen, k).sum()) for k in range(scen.observable.num_terms))
        for scen in scenarios
    ]


class TestOnePass:
    """Both sides of the report come from one kernel call over the error terms, then the disturbance terms."""

    @pytest.mark.parametrize("tol_deg", [TOL_DEG, 1e-7])
    @pytest.mark.parametrize("s, theta, varphi", [(0.0, 0.0, 0.0), (0.37, 0.7, 0.3), (1.0, math.pi / 2, math.pi)])
    def test_cnot_sides_equal_verify_nogo_on_their_own_scenarios(self, s, theta, varphi, tol_deg):
        params = CnotScenario(s, theta, varphi)
        report = cnot_report(params, tol_deg=tol_deg)
        scenarios = side_scenarios(side_observables(*_cnot_model_setup()), params.psi(), params.xi(), params.phi())
        for verdict, scen in zip((report.error_verdict, report.disturbance_verdict), scenarios):
            assert_same_verdict(verdict, verify_nogo(scen, tol_deg=tol_deg))

    @pytest.mark.parametrize("seed", range(6))
    def test_generic_sides_equal_verify_nogo_on_their_own_scenarios(self, seed):
        model, setup = generic_model_setup()
        observables = side_observables(model, setup)
        # unequal sides: a slot split off by one would move a term from one side to the other
        assert [obs.num_terms for obs in observables] == [3, 1]
        rng = np.random.default_rng(seed)
        psi, xi, phi = random_ket(2, rng), random_ket(3, rng), random_ket(2, rng)
        report = postselected_error_disturbance(model, setup, psi, xi, phi)
        scenarios = side_scenarios(observables, psi, xi, phi)
        for verdict, scen in zip((report.error_verdict, report.disturbance_verdict), scenarios):
            assert_same_verdict(verdict, verify_nogo(scen))
        assert report.epsilon_sq_post == report.error_verdict.conditional
        assert report.eta_sq_post == report.disturbance_verdict.conditional

    def test_a_vanishing_side_raises_its_own_message(self, monkeypatch):
        # Qubit models expand the disturbance over c I alone, whose basis one error term shares, so the two
        # sides' lowest denominators can be put in either order only with system bases chosen apart:
        # the error side measures in the X and Y bases, the disturbance side in the Z basis. The report
        # takes them as its squares' terms, the error side's first, as it would take the Schmidt terms.
        error = JointObservable(n=2, m=2, terms=((PAULI_X, PAULI_Z), (PAULI_Y, PAULI_X)))
        disturbance = JointObservable(n=2, m=2, terms=((PAULI_Z, PAULI_Z + PAULI_X),))
        squares = itertools.cycle((error, disturbance))
        monkeypatch.setattr(error_disturbance, "joint_observable_from_operator", lambda *args: next(squares))
        model, setup = _cnot_model_setup()

        def report(psi, xi, phi, tol_p):
            return postselected_error_disturbance(model, setup, psi, xi, phi, tol_p=tol_p)

        rng = np.random.default_rng(1)
        vanished, both_checked = set(), 0
        for _ in range(100):
            psi, xi, phi = random_ket(2, rng), random_ket(2, rng), random_ket(2, rng)
            scenarios = side_scenarios((error, disturbance), psi, xi, phi)
            lowest = lowest_denominators(scenarios)
            if abs(lowest[0] - lowest[1]) < 0.1 * max(lowest):
                continue  # too close to put a cutoff between them
            # a cutoff between the two sides: only the lower side vanishes
            side = int(lowest[1] < lowest[0])
            tol_p = (lowest[0] + lowest[1]) / 2
            verify_nogo(scenarios[1 - side], tol_p=tol_p)  # the other side passes its gate
            with pytest.raises(ZeroProbability) as own:
                verify_nogo(scenarios[side], tol_p=tol_p)
            with pytest.raises(ZeroProbability) as joint:
                report(psi, xi, phi, tol_p)
            assert str(joint.value) == str(own.value)
            vanished.add(side)
            # a cutoff above both sides: the error side's message, where the two sides' messages differ
            messages = []
            for scen in scenarios:
                with pytest.raises(ZeroProbability) as alone:
                    verify_nogo(scen, tol_p=2.0)
                messages.append(str(alone.value))
            if messages[0] != messages[1]:
                with pytest.raises(ZeroProbability) as joint:
                    report(psi, xi, phi, 2.0)
                assert str(joint.value) == messages[0]
                both_checked += 1
        assert vanished == {0, 1} and both_checked >= 10

    def test_cnot_report_makes_one_kernel_call(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        cnot_report(CnotScenario(0.3, 0.5, 0.7))
        assert len(calls) == 1

    def test_a_sweep_grid_makes_one_kernel_call(self, monkeypatch):
        calls = kernel_calls(monkeypatch)
        reports = cnot_sweep([0.0, 0.4, 1.0], [0.1, 0.9], [0.0, 2.0, 4.0, 5.0])
        assert len(reports) == 24
        assert len(calls) == 1
        # the one call covers every row and both sides' term slots
        data, system, xi, phi = calls[0]
        assert len(data) == sum(obs.num_terms for obs in side_observables(*_cnot_model_setup()))
        assert len(xi) == len(phi) == 24
        # psi's side is one row, shared by every point
        assert system.weights.shape == (1, len(data), 2) and system.means.shape == (1, len(data))


BAD_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)])
# each scale puts |norm^2 - 1| beyond TOL_NORM = 1e-12
BAD_SCALES = st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 3.0])


@st.composite
def broken_kets(draw):
    """Unit (psi, xi, phi) for the CNOT dims, with one ket given a NaN or Inf entry or a norm off by more than TOL_NORM."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = [random_ket(2, rng) for _ in range(3)]
    which = draw(st.integers(0, 2))
    if draw(st.booleans()):
        kets[which][draw(st.integers(0, 1))] = draw(BAD_ENTRIES)
    else:
        kets[which] = kets[which] * draw(BAD_SCALES)
    return kets


class TestBoundary:
    """Input that cannot be a state is rejected with ValueError before the means kernel runs."""

    @settings(max_examples=150, deadline=None)
    @given(kets=broken_kets())
    def test_broken_kets_are_rejected_before_the_kernel(self, kets):
        psi, xi, phi = kets
        observable = _cnot_prepared(TOL_DEG).squares
        with pytest.MonkeyPatch.context() as mp:
            calls = kernel_calls(mp)
            with pytest.raises(ValueError):
                postselected_error_disturbance(*_cnot_model_setup(), psi, xi, phi)
            with pytest.raises(ValueError):
                MeasurementScenario(psi=psi, xi=xi, observable=observable, postselect=phi)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(
        axis=st.integers(0, 2),
        position=st.integers(0, 2),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_a_non_finite_grid_value_is_rejected_before_the_kernel(self, axis, position, bad):
        grids = [[0.0, 0.5, 1.0], [0.1, 0.8], [0.2, 3.0]]
        # NaN on any axis; Inf on the strength axis, where it leaves [0, 1]
        bad = bad if axis == 0 else math.nan
        grids[axis].insert(position, bad)
        with pytest.MonkeyPatch.context() as mp:
            calls = kernel_calls(mp)
            with pytest.raises(ValueError):
                cnot_sweep(*grids)
        assert calls == []


class TestInteractionModel:
    def test_hamiltonian_form_resolves_to_unitary(self):
        rng = np.random.default_rng(2)
        h_s, h_d = random_hermitian(2, rng), random_hermitian(2, rng)
        u = InteractionModel.from_hamiltonians(h_s, h_d, 0.4).unitary
        assert u.tobytes() == matrix_exponential_skew(tensor_product(h_s, h_d), 0.4).tobytes()
        assert not u.flags.writeable

    def test_exactly_one_form(self):
        # the unitary is the model; the JSON form rules live in the config reader
        assert [f.name for f in dataclasses.fields(InteractionModel)] == ["unitary"]

    def test_one_exponential_per_model(self, monkeypatch):
        calls = []

        def counting(h, t):
            calls.append(t)
            return matrix_exponential_skew(h, t)

        monkeypatch.setattr(error_disturbance, "matrix_exponential_skew", counting)
        model = InteractionModel.from_hamiltonians(PAULI_Z, PAULI_X, math.pi / 4)
        setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
        psi, xi = np.array([1.0, 1.0j]) / np.sqrt(2.0), np.array([0.6, 0.8])
        postselected_error_disturbance(model, setup, psi, xi, np.array([1.0, 0.0]))
        mean_square_error(model, setup, psi, xi)
        mean_square_disturbance(model, setup, psi, xi)
        assert calls == [math.pi / 4]

    def test_a_built_model_is_not_checked_again(self, monkeypatch):
        model, setup = _cnot_model_setup()  # U is checked unitary here
        calls = []
        check = error_disturbance.is_unitary
        monkeypatch.setattr(error_disturbance, "is_unitary", lambda u: calls.append(u) or check(u))
        params = CnotScenario(0.4, 0.3, 0.2)
        report = postselected_error_disturbance(model, setup, params.psi(), params.xi(), params.phi())
        mean_square_error(model, setup, params.psi(), params.xi())
        mean_square_disturbance(model, setup, params.psi(), params.xi())
        assert calls == []
        assert report.error_verdict.passed and report.disturbance_verdict.passed
        # the public route takes outside input, so it still checks
        assert np.array_equal(heisenberg_evolve(CNOT, np.eye(4)), np.eye(4))
        assert len(calls) == 1
        with pytest.raises(ValueError, match="evolution matrix is not unitary"):
            heisenberg_evolve(2 * CNOT, np.eye(4))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            InteractionModel.from_unitary(np.diag([1.0, 2.0, 3.0, 4.0]))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time_when_built(self, t):
        with pytest.raises(ValueError, match="^t has NaN or Inf entries$"):
            InteractionModel.from_hamiltonians(PAULI_Z, PAULI_X, t)
