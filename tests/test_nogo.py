"""Degeneracy reports, basis requirement, invariance verdicts, corollaries."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nogosim import error_disturbance, linalg, measurement, nogo, oracle
from nogosim.errors import (
    DimensionMismatch,
    ZeroProbability,
)
from nogosim.linalg import TOL_DEG, TOL_NORM, as_state, spectral_decompose
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    conditional_expectation,
    expectation,
    joint_probability_grid,
    outcome_probability_grid,
    product_spectral,
)
from nogosim.nogo import (
    AuditInstance,
    TheoremVerdict,
    basis_transform,
    check_basis_requirement,
    check_rank_m_degeneracy,
    instance_rng,
    random_audit,
    random_hermitian,
    random_ket,
    random_scenario,
    term_basis_transform,
    verify_nogo,
)

from helpers import cnot_error_scenario

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
#: tol_deg values refused where they are read: NaN, a negative just below zero, and -inf
BAD_TOL_DEG = [math.nan, -1e-12, -math.inf]


def in_order(values) -> float:
    """The values added left to right from 0.0, as Python 3.11's ``sum`` adds floats; later ``sum`` compensates."""
    total = 0.0
    for value in values:
        total += value
    return total


class TestDegeneracyCheck:
    def test_column_constant_grid(self):
        obs = JointObservable(n=2, m=2, terms=((4 * I2, P1),))
        report = check_rank_m_degeneracy(product_spectral(obs))
        assert report.all_degenerate
        assert np.allclose(report.terms[0].column_eigenvalues, [0.0, 4.0])
        assert report.terms[0].witness is None

    def test_distinct_grid_reports_witness(self):
        obs = JointObservable(n=2, m=2, terms=((np.diag([1.0, 3.0]), np.diag([1.0, 4 / 3])),))
        spectral = product_spectral(obs)
        assert np.allclose(spectral.grids[0], [[1.0, 4 / 3], [3.0, 4.0]])
        report = check_rank_m_degeneracy(spectral)
        assert not report.all_degenerate
        assert report.terms[0].witness == (0, 1, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_system_factor_always_passes(self, seed):
        rng = np.random.default_rng(seed)
        obs = JointObservable(n=3, m=3, terms=((np.eye(3), random_hermitian(3, rng)),))
        assert check_rank_m_degeneracy(product_spectral(obs)).all_degenerate

    def test_zero_device_eigenvalue_column_is_degenerate(self):
        # grid column for the null device direction is constant no matter the system spectrum
        obs = JointObservable(n=2, m=2, terms=((np.diag([1.0, 2.0]), P1),))
        report = check_rank_m_degeneracy(product_spectral(obs))
        assert not report.all_degenerate
        assert report.terms[0].witness == (0, 1, 1)

    def test_tolerance_is_respected(self):
        obs = JointObservable(n=2, m=2, terms=((np.diag([1.0, 1.0 + 5e-10]), I2),))
        assert check_rank_m_degeneracy(product_spectral(obs), tol_deg=1e-9).all_degenerate
        assert not check_rank_m_degeneracy(product_spectral(obs), tol_deg=1e-12).all_degenerate

    @pytest.mark.parametrize("tol_deg", BAD_TOL_DEG)
    @pytest.mark.parametrize("system", [np.diag([1.0, 2.0]), 4 * np.eye(2)], ids=["generic", "exactly-degenerate"])
    def test_nan_or_negative_tolerance_is_refused(self, system, tol_deg):
        # a NaN used to mark every term, even an exactly degenerate one, as not degenerate
        data = product_spectral(JointObservable(n=2, m=2, terms=((system.astype(complex), P1),)))
        with pytest.raises(ValueError, match="tol_deg must be a non-negative number"):
            check_rank_m_degeneracy(data, tol_deg)

    def test_each_tol_deg_reads_its_own_columns(self):
        # no memo on the data: every call reads the columns at the tol_deg it is given
        data = product_spectral(JointObservable(n=2, m=2, terms=((np.diag([0.0, 1e-8]), I2),)))
        for _ in range(2):
            assert check_rank_m_degeneracy(data, 1e-7).all_degenerate
            assert not check_rank_m_degeneracy(data, 1e-9).all_degenerate
        assert check_rank_m_degeneracy(data, 1e-7) is not check_rank_m_degeneracy(data, 1e-7)
        # -0.0 reads as 0.0; inf merges every eigenvalue
        witnesses = [check_rank_m_degeneracy(data, tol_deg).terms[0].witness for tol_deg in (-0.0, 0.0)]
        assert witnesses[0] == witnesses[1] == (0, 1, 0)
        assert check_rank_m_degeneracy(data, math.inf).all_degenerate
        # the column values are the data's kept mean(u_k) times v_j
        columns = check_rank_m_degeneracy(data, 1e-7).terms[0].column_eigenvalues
        assert columns.tolist() == (data.mean_system_values[0] * data.device_values[0]).tolist()

    def test_memo_is_not_a_field(self):
        data = product_spectral(JointObservable(n=2, m=2, terms=((I2, Z),)))
        before = repr(data)
        check_rank_m_degeneracy(data)
        assert repr(data) == before
        # eigenvectors are shown by spectral_decompose alone: the data keeps no view of them
        assert not hasattr(data, "system") and not hasattr(data, "device")
        assert [f.name for f in dataclasses.fields(data)] == [
            "system_adjoint",
            "device_factors",
            "system_values",
            "device_values",
        ]


#: Every entry point that reads tol_deg, each called on the shared (scen, data) at one tol_deg.
TOL_DEG_READERS = {
    "product_spectral": lambda scen, data, tol_deg: product_spectral(scen.observable, tol_deg),
    "spectral_decompose": lambda scen, data, tol_deg: linalg.spectral_decompose(np.diag([1.0, 1.0, 2.0]), tol_deg),
    "jacobi_decompose": lambda scen, data, tol_deg: linalg.jacobi_decompose(np.diag([1.0, 1.0, 2.0]), tol_deg),
    "check_rank_m_degeneracy": lambda scen, data, tol_deg: check_rank_m_degeneracy(data, tol_deg),
    "verify_nogo": lambda scen, data, tol_deg: verify_nogo(scen, tol_deg=tol_deg),
    "verify_nogo-spectral": lambda scen, data, tol_deg: verify_nogo(
        scen, tol_deg=tol_deg, spectral=product_spectral(scen.observable, tol_deg)
    ),
    "random_audit": lambda scen, data, tol_deg: random_audit(3, 1, "degenerate", tol_deg=tol_deg),
    "cnot_report": lambda scen, data, tol_deg: error_disturbance.cnot_report(
        error_disturbance.CnotScenario(0.4), tol_deg
    ),
    "cnot_sweep": lambda scen, data, tol_deg: error_disturbance.cnot_sweep([0.4, 1.0], [0.3], [0.0, 1.0], tol_deg),
    "postselected_error_disturbance": lambda scen, data, tol_deg: error_disturbance.postselected_error_disturbance(
        *error_disturbance._cnot_model_setup(), scen.psi, scen.xi, scen.postselect, tol_deg=tol_deg
    ),
    "sample_two_step": lambda scen, data, tol_deg: oracle.sample_two_step(scen, 10, 1, tol_deg=tol_deg),
}


@pytest.mark.parametrize("tol_deg", BAD_TOL_DEG)
@pytest.mark.parametrize("call", TOL_DEG_READERS.values(), ids=TOL_DEG_READERS.keys())
def test_nan_or_negative_tol_deg_is_refused_before_any_memo_entry(call, tol_deg):
    scen = cnot_error_scenario(0.4)
    data = product_spectral(scen.observable)
    verify_nogo(scen)
    check_rank_m_degeneracy(data)
    error_disturbance.cnot_report(error_disturbance.CnotScenario(0.4))
    oracle.enumerate_two_step(scen)  # the oracle adds its memo to the scenario on first use
    family = error_disturbance._cnot_prepared
    memos = (scen.observable._spectral, scen._oracle_weights, scen._means, family(TOL_DEG).squares._spectral)
    sizes = [len(memo) for memo in memos], family.cache_info().currsize
    with pytest.raises(ValueError, match="tol_deg must be a non-negative number"):
        call(scen, data, tol_deg)
    assert ([len(memo) for memo in memos], family.cache_info().currsize) == sizes
    for value in (0.0, math.inf):  # zero and inf bound the accepted range
        call(scen, data, value)


def grid_degeneracy(u, v, tol_deg):
    """(holds per column, witness) of one term read off its (n, m) grid r_ij = u_i v_j: the rule on the grid itself."""
    grid = np.outer(u, v)
    within = grid.max(axis=0) - grid.min(axis=0) <= tol_deg
    if within.all():
        return within, None
    j = int(np.argmin(within))
    i, i2 = sorted((int(np.argmin(grid[:, j])), int(np.argmax(grid[:, j]))))
    return within, (i, i2, j)


#: Factor pairs (system, device) by kind: c I (x) M passes, a generic pair fails, a pair of system eigenvalues
#: 5e-10 apart passes or fails with tol_deg, and a rank-1 device projector leaves constant columns.
TERM_KINDS = {
    "degenerate": lambda n, m, rng: (rng.standard_normal() * np.eye(n), random_hermitian(m, rng)),
    "generic": lambda n, m, rng: (random_hermitian(n, rng), random_hermitian(m, rng)),
    "near": lambda n, m, rng: (np.diag([1.0] + [1.0 + 5e-10] * (n - 1)), random_hermitian(m, rng)),
    "projector": lambda n, m, rng: (random_hermitian(n, rng), np.diag([1.0] + [0.0] * (m - 1))),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(sorted(TERM_KINDS)), min_size=1, max_size=2),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    tol_deg=st.sampled_from([0.0, 1e-9, 1e-7, 0.5, 3.0, math.inf]),
)
@settings(max_examples=300, deadline=None)
def test_factored_degeneracy_check_equals_the_grid_check(seed, n, m, kinds, scale, tol_deg):
    rng = np.random.default_rng(seed)
    terms = []
    for kind in kinds:
        system, device = TERM_KINDS[kind](n, m, rng)
        terms.append((system, scale * device))
    data = product_spectral(JointObservable(n=n, m=m, terms=tuple(terms)), tol_deg)
    u, v = data.system_values, data.device_values
    report = check_rank_m_degeneracy(data, tol_deg)
    assert len(report.terms) == len(kinds)
    for verdict, u_k, v_k in zip(report.terms, u, v):
        within, witness = grid_degeneracy(u_k, v_k, tol_deg)
        assert verdict.is_rank_m_degenerate is bool(within.all())
        assert verdict.witness == witness
        if witness is None:
            # the kernel's closed-column mean(u) times v, within rounding of the grid's column means
            assert verdict.column_eigenvalues.tobytes() == (u_k.sum() / n * v_k).tobytes()
            bound = 4 * np.finfo(float).eps * np.abs(u_k).max() * np.abs(v_k)
            assert np.all(np.abs(verdict.column_eigenvalues - np.outer(u_k, v_k).mean(axis=0)) <= bound)
        else:
            assert verdict.column_eigenvalues is None
    # the audit's (B, K) form: every row gets the flags it gets alone
    rows = [(u, v), (u[::-1], v[::-1])]
    stacked = nogo._within(np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows]), tol_deg)
    for flags, (u_b, v_b) in zip(stacked, rows):
        for flags_k, u_k, v_k in zip(flags, u_b, v_b):
            assert np.array_equal(flags_k, grid_degeneracy(u_k, v_k, tol_deg)[0])


def test_verify_nogo_builds_no_degeneracy_report(monkeypatch):
    built = []
    monkeypatch.setattr(nogo, "_term_degeneracy", lambda *a: built.append(a))
    for degenerate in (True, False):
        scen = random_scenario(np.random.default_rng(9), 3, 2, degenerate=degenerate, num_terms=2)
        for tol_deg in (TOL_DEG, 0.5):
            verify_nogo(scen, tol_deg=tol_deg)
    assert built == []


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    num_terms=st.integers(1, 3),
    degenerate=st.booleans(),
    tol_deg=st.sampled_from([0.0, 1e-9, 0.5, 3.0, math.inf]),
)
@settings(max_examples=200, deadline=None)
def test_verify_nogo_hypothesis_is_the_degeneracy_report(seed, n, m, num_terms, degenerate, tol_deg):
    scen = random_scenario(np.random.default_rng(seed), n, m, degenerate=degenerate, num_terms=num_terms)
    report = check_rank_m_degeneracy(product_spectral(scen.observable, tol_deg), tol_deg)
    assert verify_nogo(scen, tol_deg=tol_deg).hypothesis_holds is report.all_degenerate


class TestBasisRequirement:
    def test_canonical_transform_always_passes(self):
        rng = np.random.default_rng(5)
        phi = random_ket(2, rng)
        tr = basis_transform(np.eye(4), phi, 2)
        assert check_basis_requirement(tr, 2, 2)

    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 4, np.pi / 2])
    @pytest.mark.parametrize("varphi", [0.0, np.pi / 3])
    def test_plus_minus_column_transform(self, theta, varphi):
        phi = np.array([math.cos(theta), np.exp(-1j * varphi) * math.sin(theta)])
        t_pub = np.array(
            [[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]], dtype=complex
        ) / np.sqrt(2)
        tr = basis_transform(t_pub, phi, 2)
        diag = np.diag(tr.transformed_projector).real
        expected = [math.cos(theta) ** 2] * 2 + [math.sin(theta) ** 2] * 2
        assert np.max(np.abs(diag - expected)) < 1e-12
        assert check_basis_requirement(tr, 2, 2)

    def test_block_mixing_transform_fails(self):
        # frozen counterexample: rotate flat indices 1 <-> 2 (different system blocks)
        c = s = 1 / np.sqrt(2)
        t_mix = np.eye(4, dtype=complex)
        t_mix[1, 1] = t_mix[2, 2] = c
        t_mix[1, 2] = s
        t_mix[2, 1] = -s
        phi = np.array([math.sqrt(0.3), math.sqrt(0.7)])
        tr = basis_transform(t_mix, phi, 2)
        diag = np.diag(tr.transformed_projector).real
        assert np.allclose(diag, [0.3, 0.5, 0.5, 0.7])
        assert not check_basis_requirement(tr, 2, 2)

    @pytest.mark.parametrize("phi, device_dim", [([1, 0, 0], 2), ([1, 0], 3), ([1.0], 2)])
    def test_phi_and_device_dim_must_match_the_transform(self, phi, device_dim):
        with pytest.raises(DimensionMismatch, match="phi has dim"):
            basis_transform(np.eye(4), phi, device_dim)

    def test_term_transform_from_factor_eigenvectors(self):
        scen = cnot_error_scenario(0.5, theta=0.7)
        tr = term_basis_transform(scen, 0)
        # T = V_sys (x) V_dev, the factors' eigenvectors as columns
        want = np.kron(linalg.spectral_decompose(4 * I2).eigenvectors, linalg.spectral_decompose(P1).eigenvectors)
        assert tr.matrix.tobytes() == want.tobytes()
        assert check_basis_requirement(tr, 2, 2)


class TestVerifyNogo:
    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0])
    def test_cnot_error_observable(self, s):
        verdict = verify_nogo(cnot_error_scenario(s))
        assert verdict.hypothesis_holds and verdict.basis_requirement_holds
        assert verdict.conditional == pytest.approx(2 * (1 - s), abs=1e-12)
        assert verdict.unconditional == pytest.approx(2 * (1 - s), abs=1e-12)
        assert verdict.gap <= 1e-12
        assert verdict.closed_form == pytest.approx(2 * (1 - s), abs=1e-12)
        assert verdict.closed_form_gap <= 1e-12
        assert verdict.passed

    def test_identity_system_with_device_eigenstate(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        scen = MeasurementScenario(psi=plus, xi=[1, 0], observable=obs, postselect=[1, 0])
        verdict = verify_nogo(scen)
        assert verdict.hypothesis_holds and verdict.basis_requirement_holds
        assert verdict.gap <= 1e-14
        assert verdict.conditional == pytest.approx(1.0, abs=1e-14)

    def test_frozen_generic_instance_violates(self):
        rng = instance_rng(2024, 0)
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        scen = random_scenario(rng, n, m, degenerate=False)
        verdict = verify_nogo(scen)
        assert not verdict.hypothesis_holds
        assert verdict.gap > 0.01
        assert verdict.closed_form is None
        assert verdict.passed  # the bound is only claimed under the hypothesis

    def test_verdict_invariant_detects_violation(self):
        fake = TheoremVerdict(
            hypothesis_holds=True,
            basis_requirement_holds=True,
            conditional=1.0,
            unconditional=0.5,
            gap=0.5,
            closed_form=1.0,
            closed_form_gap=0.5,
            tol_verify=1e-9,
        )
        assert not fake.passed

    @pytest.mark.parametrize("field", ["gap", "closed_form_gap"])
    def test_nan_gap_fails_the_verdict(self, field):
        values = dict(
            hypothesis_holds=True,
            basis_requirement_holds=True,
            conditional=1.0,
            unconditional=1.0,
            gap=0.0,
            closed_form=1.0,
            closed_form_gap=0.0,
            tol_verify=1e-9,
        )
        values[field] = math.nan
        assert not TheoremVerdict(**values).passed


class TestClosedFormIdentities:
    @pytest.mark.parametrize("index", range(40))
    def test_denominator_and_numerator_factorization(self, index):
        rng = instance_rng(777, index)
        scen = random_scenario(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), degenerate=True)
        data = product_spectral(scen.observable)
        report = check_rank_m_degeneracy(data)
        assert report.all_degenerate
        for k, (_, dev_op) in enumerate(scen.observable.terms):
            joint = joint_probability_grid(scen, k)
            psi_amp = np.abs(data.system_adjoint[k] @ scen.psi) ** 2
            phi_amp = np.abs(data.system_adjoint[k] @ scen.postselect) ** 2
            xi_amp = np.abs(spectral_decompose(dev_op).eigenvectors.conj().T @ scen.xi) ** 2
            denominator = float(np.dot(psi_amp, phi_amp))
            assert float(joint.sum()) == pytest.approx(denominator, abs=1e-10)
            numerator = float(np.sum(data.grids[k] * joint))
            tilde = report.terms[k].column_eigenvalues
            assert numerator == pytest.approx(float(np.dot(tilde, xi_amp)) * denominator, abs=1e-10)


class TestClosedForm:
    def test_non_degenerate_grid_has_no_closed_form(self):
        # diag(1, 2) (x) I has grid rows (1, 1) and (2, 2): column 0 varies between rows 0 and 1
        skewed = (np.diag([1.0, 2.0]), I2)
        for terms, idx in (((skewed,), 0), (((I2, Z), skewed), 1)):
            obs = JointObservable(n=2, m=2, terms=terms)
            scen = MeasurementScenario(psi=[1, 0], xi=[1, 0], observable=obs, postselect=[1, 0])
            assert check_rank_m_degeneracy(product_spectral(obs)).terms[idx].witness == (0, 1, 0)
            verdict = verify_nogo(scen)
            assert not verdict.hypothesis_holds
            assert verdict.closed_form is None and verdict.closed_form_gap is None


class TestRandomAudit:
    def test_degenerate_mode_has_no_violations(self):
        summary = random_audit(count=150, seed=909, mode="degenerate")
        assert summary.violations == 0
        assert summary.gap_max <= 1e-9
        assert all(inst.hypothesis_holds for inst in summary.instances)
        assert all(
            inst.closed_form_gap is not None and inst.closed_form_gap <= 1e-9 for inst in summary.instances
        )

    def test_generic_mode_reports_large_gaps(self):
        summary = random_audit(count=60, seed=909, mode="generic")
        assert summary.gap_max > 0.01
        assert summary.violations == 0  # no claim is made without the hypothesis

    def test_replayable_instances(self):
        summary = random_audit(count=5, seed=31337, mode="degenerate")
        for inst in summary.instances:
            rng = instance_rng(31337, inst.index)
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            assert (n, m) == (inst.n, inst.m)
            scen = random_scenario(rng, n, m, degenerate=True)
            assert verify_nogo(scen).gap == inst.gap

    def test_pinned_dimensions(self):
        summary = random_audit(count=5, seed=1, mode="degenerate", n=3, m=2)
        assert all(inst.n == 3 and inst.m == 2 for inst in summary.instances)

    def test_rejects_bad_mode_and_count(self):
        with pytest.raises(ValueError):
            random_audit(count=0, seed=1, mode="degenerate")
        with pytest.raises(ValueError):
            random_audit(count=1, seed=1, mode="other")

    def test_rejects_non_positive_pinned_dims(self):
        with pytest.raises(DimensionMismatch):
            random_audit(count=1, seed=1, mode="degenerate", n=0, m=2)

    def test_rejects_negative_seed(self):
        # numpy's default_rng raises on a negative seed too, but only inside the loop and with its own message
        with pytest.raises(ValueError, match="seed must be non-negative"):
            random_audit(count=1, seed=-1, mode="degenerate")


def per_instance_audit(count, seed, mode, n=None, m=None, min_postselect=nogo.MIN_AUDIT_POSTSELECT, tol_deg=TOL_DEG):
    """``random_audit``'s instances, each from ``random_scenario`` and ``verify_nogo`` on its own stream."""
    instances = []
    for index in range(count):
        rng = instance_rng(seed, index)
        dims_n = n if n is not None else int(rng.integers(2, 4))
        dims_m = m if m is not None else int(rng.integers(2, 4))
        scen = random_scenario(rng, dims_n, dims_m, degenerate=(mode == "degenerate"), min_postselect=min_postselect)
        verdict = verify_nogo(scen, tol_deg=tol_deg)
        instances.append(
            AuditInstance(
                index=index,
                n=dims_n,
                m=dims_m,
                hypothesis_holds=verdict.hypothesis_holds,
                basis_requirement_holds=verdict.basis_requirement_holds,
                gap=verdict.gap,
                closed_form_gap=verdict.closed_form_gap,
            )
        )
    return instances


def assert_same_instances(summary, reference):
    assert len(summary.instances) == len(reference)
    for got, want in zip(summary.instances, reference):
        for field in dataclasses.fields(AuditInstance):
            assert getattr(got, field.name) == getattr(want, field.name), (got, want)
            assert type(getattr(got, field.name)) is type(getattr(want, field.name))


class TestArrayAuditEqualsPerInstancePath:
    @pytest.mark.parametrize("mode", ["degenerate", "generic"])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_mixed_dims(self, mode, seed):
        assert_same_instances(random_audit(80, seed, mode), per_instance_audit(80, seed, mode))

    @pytest.mark.parametrize("mode", ["degenerate", "generic"])
    @pytest.mark.parametrize("dims", [(1, 1), (1, 3), (3, 1), (4, 2)])
    def test_pinned_dims(self, mode, dims):
        n, m = dims
        assert_same_instances(random_audit(40, 3, mode, n=n, m=m), per_instance_audit(40, 3, mode, n=n, m=m))

    @pytest.mark.parametrize("mode", ["degenerate", "generic"])
    @pytest.mark.parametrize("min_postselect", [1e-6, 0.2])
    @pytest.mark.parametrize("tol_deg", [TOL_DEG, 1e-7, 0.5, 3.0, 100.0])
    def test_each_instance_is_its_replay(self, mode, min_postselect, tol_deg, monkeypatch):
        # a draw is accepted on its denominators at TOL_DEG, as random_scenario accepts it, whatever tol_deg is;
        # grouping them at tol_deg instead changed generic instance 15 at 0.5 and 3.0 under the 0.2 floor
        replays = []
        original = nogo.random_scenario
        monkeypatch.setattr(
            nogo, "random_scenario", lambda *args, **kwargs: replays.append(args) or original(*args, **kwargs)
        )
        monkeypatch.setattr(nogo, "MIN_AUDIT_POSTSELECT", min_postselect)
        summary = random_audit(40, 5, mode, tol_deg=tol_deg)
        # at the 0.2 floor some first draws are rejected and replayed; at 1e-6 none is
        assert bool(replays) == (min_postselect == 0.2)
        assert_same_instances(summary, per_instance_audit(40, 5, mode, min_postselect=min_postselect, tol_deg=tol_deg))

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_groups_cross_chunk_boundaries(self, chunk, monkeypatch):
        monkeypatch.setattr(nogo, "AUDIT_CHUNK", chunk)
        for mode in ("degenerate", "generic"):
            assert_same_instances(random_audit(30, 9, mode), per_instance_audit(30, 9, mode))

    @pytest.mark.parametrize("mode", ["degenerate", "generic"])
    @pytest.mark.parametrize("tol_deg", [TOL_DEG, 0.5])
    def test_each_group_builds_its_draws_once(self, mode, tol_deg, monkeypatch):
        # the factors and kets do not depend on tol_deg: only the system stacks and the means are redone,
        # once more, at a tol_deg other than TOL_DEG
        calls = {"_factors": [], "_unit": [], "_spectral_stacks": [], "_means": []}
        for name, seen in calls.items():
            original = getattr(nogo, name)
            monkeypatch.setattr(nogo, name, lambda *a, _f=original, _seen=seen, **k: _seen.append(1) or _f(*a, **k))
        groups = []
        original_group = nogo._audit_group
        monkeypatch.setattr(nogo, "_audit_group", lambda *a: groups.append(a[1:4]) or original_group(*a))
        summary = random_audit(60, 5, mode, tol_deg=tol_deg)
        assert len(groups) == len(set(groups)) > 1
        passes = 1 if tol_deg == TOL_DEG else 2
        assert len(calls["_factors"]) == len(groups)
        assert len(calls["_unit"]) == 3 * len(groups)
        assert len(calls["_spectral_stacks"]) == len(calls["_means"]) == passes * len(groups)
        assert_same_instances(summary, per_instance_audit(60, 5, mode, tol_deg=tol_deg))

    def test_unreachable_floor_raises_like_the_scalar_path(self, monkeypatch):
        with pytest.raises(ZeroProbability) as scalar:
            per_instance_audit(3, 1, "degenerate", min_postselect=1.1)
        monkeypatch.setattr(nogo, "MIN_AUDIT_POSTSELECT", 1.1)
        with pytest.raises(ZeroProbability) as array:
            random_audit(3, 1, "degenerate")
        assert str(array.value) == str(scalar.value)


def test_random_scenario_postselection_floor():
    rng = np.random.default_rng(8)
    for _ in range(20):
        scen = random_scenario(rng, 2, 2, degenerate=False)
        data = product_spectral(scen.observable)
        for k in range(len(data)):
            assert float(joint_probability_grid(scen, k).sum()) >= 1e-6


@pytest.mark.parametrize("degenerate", [True, False])
@pytest.mark.parametrize(
    "n, m, num_terms, message",
    [
        *(pytest.param(v, 2, None, "system and device dimensions must be positive", id=f"n={v}") for v in (0, -1)),
        *(pytest.param(2, v, 2, "system and device dimensions must be positive", id=f"m={v}") for v in (0, -1)),
        *(pytest.param(2, 2, v, "observable needs at least one term", id=f"num_terms={v}") for v in (0, -1)),
    ],
)
def test_random_scenario_refuses_non_positive_sizes_before_drawing(degenerate, n, m, num_terms, message):
    # the messages JointObservable gives, before the generator is read
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(DimensionMismatch) as excinfo:
        random_scenario(rng, n, m, degenerate=degenerate, num_terms=num_terms)
    assert str(excinfo.value) == message
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("degenerate", [True, False])
@pytest.mark.parametrize("nan", [math.nan, np.float64("nan"), -math.nan], ids=["math", "numpy", "negative"])
def test_random_scenario_refuses_a_nan_postselection_floor_before_drawing(degenerate, nan):
    # no denominator is >= NaN, so without the check every one of MAX_DRAW_TRIES attempts would be drawn and rejected
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as excinfo:
        random_scenario(rng, 2, 2, degenerate=degenerate, min_postselect=nan)
    assert str(excinfo.value) == f"min_postselect must be a number, got {nan!r}"
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("degenerate", [True, False])
def test_random_scenario_and_verify_nogo_share_one_decomposition(monkeypatch, degenerate):
    stacks, device_stacks, passes = [], [], []
    decompose, eigh, means = measurement._decompose, measurement._eigh, measurement._means

    def counting_decompose(mats, tol_deg):
        stacks.append(mats.shape)
        return decompose(mats, tol_deg)

    def counting_eigh(mats):
        device_stacks.append(mats.shape)
        return eigh(mats)

    def counting_means(*args):
        passes.append(args)
        return means(*args)

    monkeypatch.setattr(measurement, "_decompose", counting_decompose)
    monkeypatch.setattr(measurement, "_eigh", counting_eigh)
    # random_scenario runs the kernel through nogo's binding, a memo miss in verify_nogo through measurement's
    monkeypatch.setattr(nogo, "_means", counting_means)
    monkeypatch.setattr(measurement, "_means", counting_means)
    rng = np.random.default_rng(5)
    for num_terms in (None, 1, 2, 3):
        for _ in range(4):
            stacks.clear()
            device_stacks.clear()
            passes.clear()
            # a zero floor accepts the first draw
            scen = random_scenario(rng, 3, 2, degenerate=degenerate, num_terms=num_terms, min_postselect=0.0)
            k = scen.observable.num_terms
            # one stacked system decomposition, the device eigenvalues from one stacked eigh, and one
            # amplitude pass, whatever K is: the means read the device factors, not their eigenvectors
            assert (stacks, device_stacks) == ([(k, 3, 3)], [(k, 2, 2)])
            assert len(passes) == 1
            verify_nogo(scen)
            assert (stacks, device_stacks) == ([(k, 3, 3)], [(k, 2, 2)])  # none inside verify_nogo
            assert len(passes) == 1


def rebuilt(scenario):
    """The scenario rebuilt from its own fields through the public constructors, which check every factor and ket."""
    obs = scenario.observable
    return MeasurementScenario(
        psi=scenario.psi,
        xi=scenario.xi,
        observable=JointObservable(n=obs.n, m=obs.m, terms=obs.terms),
        postselect=scenario.postselect,
    )


@pytest.mark.parametrize("degenerate", [True, False])
def test_a_drawn_scenario_is_what_the_checked_constructors_build(degenerate):
    # random_scenario assembles the accepted draw without the constructors' checks; each must hold of it anyway
    shapes = list(itertools.product((1, 2, 3), (1, 2, 3), (None, 1, 2, 3)))
    rng = np.random.default_rng(28)
    for draw in range(6 * len(shapes)):
        n, m, num_terms = shapes[draw % len(shapes)]
        scen = random_scenario(rng, n, m, degenerate=degenerate, num_terms=num_terms)
        obs, checked = scen.observable, rebuilt(scen)
        data, row = obs._spectral[TOL_DEG], scen._means[TOL_DEG]
        assert (obs._spectral.keys(), scen._means.keys()) == ({TOL_DEG}, {TOL_DEG})
        # the seeded memos hold what the checked objects compute
        fresh = product_spectral(checked.observable)
        for name in ("system_adjoint", "device_factors", "system_values", "device_values", "mean_system_values"):
            assert np.array_equal(getattr(data, name), getattr(fresh, name)), name
        assert row == measurement._scenario_row(checked)
        for tol_deg in (TOL_DEG, 0.5):
            assert repr(verify_nogo(scen, tol_deg)) == repr(verify_nogo(checked, tol_deg))
        stacks = (data.system_adjoint, data.device_factors, data.system_values, data.device_values)
        arrays = (scen.psi, scen.xi, scen.postselect, *itertools.chain(*obs.terms), *stacks, data.mean_system_values)
        assert not any(arr.flags.writeable for arr in arrays)
        for sys_op, dev_op in obs.terms:
            assert np.array_equal(sys_op, sys_op.conj().T) and np.array_equal(dev_op, dev_op.conj().T)
        for ket in (scen.psi, scen.xi, scen.postselect):
            assert abs(np.vdot(ket, ket).real - 1.0) <= TOL_NORM
        # a memo added to either __post_init__ later is an attribute the assembled objects lack
        assert vars(scen).keys() == vars(checked).keys()
        assert vars(obs).keys() == vars(checked.observable).keys()


def _no_phase_fix(rows):
    raise AssertionError("an eigenvector's phase was fixed")


@pytest.mark.parametrize("mode", ["degenerate", "generic"])
def test_the_item_path_forms_no_eigenvector_it_does_not_show(monkeypatch, mode):
    # the phase fix runs only where eigenvectors are shown, behind spectral_decompose and jacobi_decompose, the
    # only places that form a device eigenvector: random_scenario, verify_nogo and the audit reach neither
    monkeypatch.setattr(linalg, "_fixed_columns", _no_phase_fix)
    assert not hasattr(measurement, "_fixed_columns")
    rng = np.random.default_rng(12)
    for num_terms in (1, 2, 3):
        scen = random_scenario(rng, 3, 2, degenerate=mode == "degenerate", num_terms=num_terms)
        verify_nogo(scen)
        product_spectral(scen.observable)
    assert random_audit(50, 1, mode).count == 50
    # the readers that show eigenvectors are where the patch bites
    for shown in (outcome_probability_grid, joint_probability_grid, term_basis_transform):
        with pytest.raises(AssertionError, match="phase was fixed"):
            shown(scen, 0)


def test_verify_nogo_makes_one_pass_per_tol_deg(monkeypatch):
    drawn = random_scenario(np.random.default_rng(3), 3, 2, degenerate=False, num_terms=2)
    obs = drawn.observable
    # a fresh scenario: random_scenario's pass stays memoized on drawn
    scen = MeasurementScenario(psi=drawn.psi, xi=drawn.xi, observable=obs, postselect=drawn.postselect)
    passes = []
    means = measurement._means
    monkeypatch.setattr(measurement, "_means", lambda *args: passes.append(args) or means(*args))
    before = repr(scen)
    calls = [
        ({}, 1),
        ({}, 1),
        ({"tol_deg": TOL_DEG}, 1),  # the default: same key
        ({"spectral": product_spectral(obs)}, 1),  # the data read without it: same key
        ({"tol_deg": 100.0}, 2),
        ({"tol_deg": 100.0, "spectral": product_spectral(obs, 100.0)}, 2),
        ({"tol_deg": 1e-7}, 3),
        ({}, 3),
        ({"tol_deg": 100.0}, 3),
    ]
    verdicts = {}
    for kwargs, count in calls:
        verdict = verify_nogo(scen, **kwargs)
        assert len(passes) == count, kwargs
        assert verdicts.setdefault(kwargs.get("tol_deg", TOL_DEG), verdict) == verdict
    assert list(scen._means) == [TOL_DEG, 100.0, 1e-7]
    # each row is the kernel on the observable's own data at its tol_deg
    for tol_deg, row in scen._means.items():
        data = product_spectral(obs, tol_deg)
        assert row == means(data, measurement._system_side(data, scen.psi[None]), scen.xi[None], scen.postselect[None])
    # the public per-term means read the default row from the memo
    for k in range(obs.num_terms):
        assert expectation(scen, k) == scen._means[TOL_DEG].unconditional[0][k]
        assert conditional_expectation(scen, k) == scen._means[TOL_DEG].conditional[0][k]
    assert len(passes) == 3
    assert repr(scen) == before
    assert [f.name for f in dataclasses.fields(scen)] == ["psi", "xi", "observable", "postselect"]


#: Spectral data that verify_nogo does not read for its scenario at the default tol_deg.
FOREIGN_SPECTRAL = {
    "other-dims": lambda scen: product_spectral(JointObservable(n=3, m=2, terms=((np.eye(3), I2),))),
    "other-observable": lambda scen: product_spectral(JointObservable(n=2, m=2, terms=((Z, X),))),
    "equal-copy": lambda scen: product_spectral(JointObservable(n=2, m=2, terms=scen.observable.terms)),
    "other-tol_deg": lambda scen: product_spectral(scen.observable, 1e-7),
}


@pytest.mark.parametrize("foreign", FOREIGN_SPECTRAL.values(), ids=FOREIGN_SPECTRAL.keys())
def test_verify_nogo_refuses_spectral_data_it_would_not_read(foreign):
    # the means of another observable on this scenario's kets used to pass for its own
    scen = random_scenario(np.random.default_rng(8), 2, 2, degenerate=False, num_terms=2)
    stored = verify_nogo(scen)  # the row random_scenario memoized
    data = foreign(scen)
    rows = dict(scen._means)
    with pytest.raises(ValueError, match=r"spectral must be product_spectral\(scenario.observable, tol_deg\)"):
        verify_nogo(scen, spectral=data)
    for tol_deg in BAD_TOL_DEG:  # refused before the data is looked at
        with pytest.raises(ValueError, match="tol_deg must be a non-negative number"):
            verify_nogo(scen, tol_deg=tol_deg, spectral=data)
    assert scen._means.keys() == rows.keys() and all(scen._means[key] is row for key, row in rows.items())
    assert verify_nogo(scen, spectral=product_spectral(scen.observable)) == stored


@pytest.mark.parametrize("degenerate", [True, False])
def test_random_scenario_and_verify_nogo_build_no_per_term_objects(monkeypatch, degenerate):
    built = []
    init = linalg.SpectralDecomposition.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(linalg.SpectralDecomposition, "__init__", counting_init)
    rng = np.random.default_rng(6)
    for num_terms in (1, 2, 3):
        scen = random_scenario(rng, 3, 2, degenerate=degenerate, num_terms=num_terms)
        verify_nogo(scen)
    # the kernel and the degeneracy check read product_spectral's stacks alone
    assert built == []
    # a decomposition built outside them is counted
    linalg.spectral_decompose(scen.observable.terms[0][1])
    assert len(built) == 1


@pytest.mark.parametrize("degenerate", [True, False])
def test_verdict_on_a_drawn_scenario_equals_a_fresh_one_from_the_same_arrays(degenerate):
    rng = np.random.default_rng(12)
    for _ in range(20):
        scen = random_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), degenerate=degenerate)

        def fresh():
            obs = scen.observable
            terms = tuple((np.array(s), np.array(d)) for s, d in obs.terms)
            return MeasurementScenario(
                psi=np.array(scen.psi),
                xi=np.array(scen.xi),
                observable=JointObservable(n=obs.n, m=obs.m, terms=terms),
                postselect=np.array(scen.postselect),
            )

        before = repr(scen)
        # random_scenario left the default tol_deg's means on scen; a fresh scenario has none
        assert verify_nogo(scen) == verify_nogo(fresh())
        for tol_deg in (1e-7, 100.0):
            other = fresh()
            assert verify_nogo(scen, tol_deg=tol_deg) == verify_nogo(other, tol_deg=tol_deg)
            # the row at tol_deg, not the default one random_scenario memoized
            verdict, row = verify_nogo(scen, tol_deg=tol_deg), measurement._scenario_row(scen, tol_deg)
            assert verdict.conditional == in_order(row.conditional[0])
            assert verdict.unconditional == in_order(row.unconditional[0])
            data = product_spectral(other.observable, tol_deg)
            system = measurement._system_side(data, scen.psi[None])
            assert row == measurement._means(data, system, scen.xi[None], scen.postselect[None])
        if not degenerate and scen.n > 1:
            # at tol_deg 100 every drawn grid is column-constant, so reading the default memo would show
            assert not verify_nogo(scen).hypothesis_holds
            assert verify_nogo(scen, tol_deg=100.0).hypothesis_holds
        assert repr(scen) == before
        assert [f.name for f in dataclasses.fields(scen)] == ["psi", "xi", "observable", "postselect"]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stacked_draws_equal_the_per_matrix_formulas(dim):
    # the formulas random_hermitian and random_ket used before they took stacks
    rng = np.random.default_rng(dim)
    normals = rng.standard_normal((50, 2 * dim * dim))
    ket_normals = rng.standard_normal((50, 2 * dim))
    hermitians = nogo._hermitian(normals, dim)
    kets = nogo._unit(ket_normals)
    for b in range(50):
        re, im = normals[b, : dim * dim].reshape(dim, dim), normals[b, dim * dim :].reshape(dim, dim)
        g = (re + 1j * im) / np.sqrt(2.0)
        assert hermitians[b].tobytes() == ((g + g.conj().T) / 2.0).tobytes()
        v = ket_normals[b, :dim] + 1j * ket_normals[b, dim:]
        assert kets[b].tobytes() == (v / np.linalg.norm(v)).tobytes()
        assert nogo._unit(ket_normals[b]).tobytes() == kets[b].tobytes()
    # the guarantees the audit relies on instead of checking what it builds
    c_identities, _ = nogo._factors(rng.standard_normal((50, 3 * (1 + 2 * dim * dim))), dim, dim, 3, True)
    for h in (*hermitians, *c_identities.reshape(-1, dim, dim)):
        assert np.max(np.abs(h - h.conj().T)) == 0.0
    for ket in kets:
        as_state(ket)


def test_one_draw_call_reads_what_separate_calls_read():
    # one call reads what one draw call per factor part and per ket part used to read, in that order
    for degenerate in (True, False):
        one, separate = np.random.default_rng(4), np.random.default_rng(4)
        k, normals = nogo._draw_attempt(one, 3, 2, degenerate, kets=True)
        assert k == int(separate.integers(1, 3))
        parts = []
        for _ in range(k):
            parts.append(separate.standard_normal(1 if degenerate else 18))
            parts += [separate.standard_normal(4), separate.standard_normal(4)]
        parts += [separate.standard_normal(dim) for dim in (3, 3, 2, 2, 3, 3)]
        assert normals.tobytes() == np.concatenate(parts).tobytes()


def test_random_hermitian_statistics():
    rng = np.random.default_rng(0)
    h = random_hermitian(3, rng)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    ket = random_ket(4, rng)
    assert np.vdot(ket, ket).real == pytest.approx(1.0, abs=1e-12)


def test_term_means_are_added_in_order_on_every_python_version():
    # from Python 3.12 on, sum() of these is 1.0: it compensates; 3.11's sum() and the verdict give 0.0
    row = [1e16, 1.0, -1e16]
    means = measurement._Means(denominators=[[0.5] * 3], conditional=[row], unconditional=[row], closed=[row])
    verdict = nogo._row_verdict(means, True, 0, 1e-9, 1e-12)
    assert verdict.conditional == 0.0
    assert (verdict.conditional, verdict.unconditional, verdict.closed_form) == (in_order(row),) * 3


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 3]),
    m=st.sampled_from([1, 2, 3]),
    num_terms=st.integers(1, 3),
    degenerate=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_verdict_equals_the_public_per_term_sums(seed, n, m, num_terms, degenerate):
    """One amplitude pass per term gives exactly the sums of the public per-term functions."""
    scen = random_scenario(np.random.default_rng(seed), n, m, degenerate=degenerate, num_terms=num_terms)
    data = product_spectral(scen.observable)
    report = check_rank_m_degeneracy(data)
    conditional = in_order(conditional_expectation(scen, k) for k in range(len(data)))
    unconditional = in_order(expectation(scen, k) for k in range(len(data)))
    verdict = verify_nogo(scen)
    assert verdict.conditional == conditional
    assert verdict.unconditional == unconditional
    assert verdict.gap == abs(conditional - unconditional)
    assert verdict.hypothesis_holds == report.all_degenerate
    if report.all_degenerate:
        # sum_k mean(u_k) <xi|M_k|xi>: the kernel's closed column added in slot order, near the same sum
        # formed from the public column values and device weights
        closed = in_order(measurement._scenario_row(scen).closed[0])
        adjoints = [spectral_decompose(dev_op).eigenvectors.conj().T for _, dev_op in scen.observable.terms]
        device = [np.abs(adjoint @ scen.xi) ** 2 for adjoint in adjoints]
        public = sum(float(t.column_eigenvalues @ q) for t, q in zip(report.terms, device))
        assert verdict.closed_form == closed
        assert closed == pytest.approx(public, rel=1e-12, abs=1e-12)
        assert verdict.closed_form_gap == max(abs(closed - conditional), abs(closed - unconditional))
    else:
        assert verdict.closed_form is None and verdict.closed_form_gap is None
