"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import math

import numpy as np
import pytest

from nogosim.error_disturbance import (
    CNOT,
    DEFAULT_STRENGTH_GRID,
    DEFAULT_THETA_GRID,
    DEFAULT_VARPHI_GRID,
    PAULI_X,
    PAULI_Z,
    CnotScenario,
    InteractionModel,
    MeasurementSetup,
    cnot_report,
    disturbance_operator,
    first_order_expansion,
    heisenberg_evolve,
    noise_operator,
)
from nogosim.linalg import matrix_exponential_skew, tensor_product
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    abl_conditional_grid,
    conditional_expectation,
    postselection_denominator,
    product_spectral,
    weak_value,
)
from nogosim.nogo import basis_transform, instance_rng, random_audit, random_ket, random_scenario
from nogosim.oracle import enumerate_two_step, sample_two_step

I2 = np.eye(2, dtype=complex)


def judge(label: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {label}{suffix}")
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="module")
def sweep_reports():
    reports = {}
    for s in DEFAULT_STRENGTH_GRID:
        for theta in DEFAULT_THETA_GRID:
            for varphi in DEFAULT_VARPHI_GRID:
                reports[(s, theta, varphi)] = cnot_report(
                    CnotScenario(strength=s, theta=theta, varphi=varphi)
                )
    return reports


def test_criterion_01_error_curve(sweep_reports):
    worst = max(
        abs(rep.epsilon_sq - 2 * (1 - s)) for (s, _, _), rep in sweep_reports.items()
    )
    judge("criterion 1: squared-error curve 2(1-s) on the strength grid", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_02_disturbance_curve(sweep_reports):
    worst = max(
        abs(rep.eta_sq - 2 * (1 - math.sqrt(1 - s * s))) for (s, _, _), rep in sweep_reports.items()
    )
    judge(
        "criterion 2: squared-disturbance curve 2(1-sqrt(1-s^2))", worst <= 1e-10, f"max dev {worst:.2e}"
    )


def test_criterion_03_postselection_invariance(sweep_reports):
    worst_err = max(rep.nogo_gap_error for rep in sweep_reports.values())
    worst_dis = max(rep.nogo_gap_disturbance for rep in sweep_reports.values())
    judge(
        "criterion 3: postselection leaves error and disturbance",
        worst_err <= 1e-10 and worst_dis <= 1e-10,
        f"max gaps {worst_err:.2e} / {worst_dis:.2e}",
    )


def test_criterion_04_operator_identities():
    model = InteractionModel.from_unitary(CNOT)
    setup = MeasurementSetup(measured=PAULI_Z, disturbed=PAULI_X, readout=PAULI_Z)
    noise = noise_operator(model, setup)
    disturb = disturbance_operator(model, setup)
    noise_target = 4 * tensor_product(I2, np.diag([0.0, 1.0]))
    disturb_target = 2 * tensor_product(I2, I2 - PAULI_X)
    dev = max(
        float(np.max(np.abs(noise @ noise - noise_target))),
        float(np.max(np.abs(disturb @ disturb - disturb_target))),
    )
    judge("criterion 4: squared operator identities", dev <= 1e-12, f"max entry dev {dev:.2e}")


def test_criterion_05_appendix_identities():
    worst_denominator = 0.0
    for s in (0.0, 0.5, 0.9):
        for theta in DEFAULT_THETA_GRID:
            for varphi in DEFAULT_VARPHI_GRID:
                params = CnotScenario(strength=s, theta=theta, varphi=varphi)
                for term in (
                    (4 * I2, np.diag([0.0, 1.0]).astype(complex)),
                    (2 * I2, I2 - PAULI_X),
                ):
                    scen = MeasurementScenario(
                        psi=params.psi(),
                        xi=params.xi(),
                        observable=JointObservable(n=2, m=2, terms=(term,)),
                        postselect=params.phi(),
                    )
                    worst_denominator = max(
                        worst_denominator, abs(postselection_denominator(scen, 0) - 0.5)
                    )

    published_t = np.array(
        [[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]], dtype=complex
    ) / np.sqrt(2)
    worst_diag = 0.0
    for theta in DEFAULT_THETA_GRID:
        for varphi in DEFAULT_VARPHI_GRID:
            phi = np.array([math.cos(theta), np.exp(-1j * varphi) * math.sin(theta)])
            transform = basis_transform(published_t, phi, 2)
            diag = np.diag(transform.transformed_projector).real
            pattern = np.array(
                [math.cos(theta) ** 2, math.cos(theta) ** 2, math.sin(theta) ** 2, math.sin(theta) ** 2]
            )
            worst_diag = max(worst_diag, float(np.max(np.abs(diag - pattern))))
    judge(
        "criterion 5: postselection denominator 1/2 and transformed-projector diagonal",
        worst_denominator <= 1e-12 and worst_diag <= 1e-12,
        f"denominator dev {worst_denominator:.2e}, diagonal dev {worst_diag:.2e}",
    )


def test_criterion_06_theorem_audit():
    summary = random_audit(count=1000, seed=20240, mode="degenerate")
    worst_gap = summary.gap_max
    worst_closed = max(inst.closed_form_gap for inst in summary.instances)
    ok = (
        summary.violations == 0
        and worst_gap <= 1e-9
        and all(inst.hypothesis_holds and inst.basis_requirement_holds for inst in summary.instances)
        and worst_closed <= 1e-9
    )
    judge(
        "criterion 6: 1000 hypothesis-satisfying instances stay within 1e-9",
        ok,
        f"max gap {worst_gap:.2e}, max closed-form gap {worst_closed:.2e}",
    )


def test_criterion_07_oracle_equivalence():
    worst = 0.0
    for index in range(200):
        rng = instance_rng(8080, index)
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        scen = random_scenario(rng, n, m, degenerate=bool(rng.integers(0, 2)), min_postselect=1e-3)
        result = enumerate_two_step(scen)
        data = product_spectral(scen.observable)
        for k in range(len(data)):
            worst = max(
                worst,
                float(np.max(np.abs(result.conditional[k] - abl_conditional_grid(scen, k, data)))),
                abs(result.conditional_expectation(k) - conditional_expectation(scen, k, data)),
            )
    formula_ok = worst <= 1e-12

    s = 0.5
    params = CnotScenario(strength=s)
    scen = MeasurementScenario(
        psi=params.psi(),
        xi=params.xi(),
        observable=JointObservable(n=2, m=2, terms=((4 * I2, np.diag([0.0, 1.0])),)),
        postselect=params.phi(),
    )
    sampled = sample_two_step(scen, shots=1_000_000, seed=424242)
    grid = product_spectral(scen.observable).grids[0]
    estimate = sampled.conditional_expectation(grid)
    p_four = (1 - s) / 2
    sigma = 4 * math.sqrt(p_four * (1 - p_four) / sampled.accepted)
    monte_carlo_ok = abs(estimate - 2 * (1 - s)) <= 3 * sigma
    rate_sigma = math.sqrt(0.25 / sampled.shots)
    rate_ok = abs(sampled.accepted / sampled.shots - 0.5) <= 3 * rate_sigma
    judge(
        "criterion 7: formula path vs enumeration (200 seeds) and 1e6-shot sampling",
        formula_ok and monte_carlo_ok and rate_ok,
        f"max formula dev {worst:.2e}, MC dev {abs(estimate - 1.0):.2e} vs 3sigma {3 * sigma:.2e}",
    )


def test_criterion_08_degenerate_weak_values():
    worst = 0.0
    for level, scale in enumerate((-2.0, 0.5, 3.0)):
        for pair in range(20):
            rng = instance_rng(6060 + level, pair)
            dim = int(rng.integers(2, 4))
            psi, phi = random_ket(dim, rng), random_ket(dim, rng)
            if abs(np.vdot(phi, psi)) < 1e-6:
                continue
            value = weak_value(psi, phi, scale * np.eye(dim))
            worst = max(worst, abs(value - scale))
    judge("criterion 8: weak value of a*I equals a", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_09_falsification_sanity():
    summary = random_audit(count=100, seed=13579, mode="generic")
    judge(
        "criterion 9: generic instances produce a real gap",
        summary.gap_max > 0.01,
        f"max gap {summary.gap_max:.3f}",
    )


def test_criterion_10_first_order_expansion():
    o0 = tensor_product(I2, PAULI_Z)
    errors = []
    for t in (1e-2, 5e-3, 2.5e-3):
        u = matrix_exponential_skew(tensor_product(PAULI_Z, PAULI_X), t)
        exact = heisenberg_evolve(u, o0)
        approx = first_order_expansion(PAULI_Z, PAULI_X, t, o0)
        errors.append(float(np.max(np.abs(exact - approx))))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    judge(
        "criterion 10: first-order expansion error shrinks >= 3.5x per halving",
        all(r >= 3.5 for r in ratios),
        f"ratios {ratios[0]:.3f}, {ratios[1]:.3f}",
    )
