"""Identities that need no eigensolver: expectation values read straight off the factors.

Term k's unconditional mean is <psi|S_k|psi> <xi|M_k|xi>, and under c I
system factors the closed form is sum_k (tr S_k / n) <xi|M_k|xi>. Both are
computed here with ``np.vdot`` and ``np.trace`` on ``observable.terms``, so a
fault in the formula path's decompositions or canonical frames cannot cancel
out of the comparison. Nothing is imported from ``linalg`` beyond constants.

Term k's conditional mean is wbar_k <xi|M_k|xi>: the device enters only
through <xi|M_k|xi>, taken here with ``np.vdot``. Under c I system factors
wbar_k = tr S_k / n; for a generic S_k it is the conditional mean of the
term S_k (x) I alone, whose device mean is <xi|xi> = 1, so no device
eigenvector enters either side.

One quantity is frame-dependent by design: a c I factor is measured in the
canonical (standard) basis, so its postselection denominator is
sum_i |psi_i|^2 |phi_i|^2, and a system unitary applied to psi and phi moves
it while every mean stays put.
"""

import numpy as np
import pytest

from nogosim.measurement import JointObservable, MeasurementScenario, conditional_expectation, postselection_denominator
from nogosim.nogo import random_scenario, verify_nogo

TOL = 1e-13
SEEDS = range(60)


def mean(ket, op) -> float:
    return np.vdot(ket, op @ ket).real


def drawn(degenerate, n, m, seed):
    return random_scenario(np.random.default_rng((seed, n, m, int(degenerate))), n, m, degenerate=degenerate)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("degenerate", [True, False], ids=["degenerate", "generic"])
def test_unconditional_mean_is_the_sum_of_factor_means(degenerate, n, m):
    for seed in SEEDS:
        scen = drawn(degenerate, n, m, seed)
        direct = sum(mean(scen.psi, s) * mean(scen.xi, d) for s, d in scen.observable.terms)
        assert abs(verify_nogo(scen).unconditional - direct) <= TOL


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [2, 3])
def test_closed_form_is_the_trace_average_times_the_device_mean(n, m):
    for seed in SEEDS:
        scen = drawn(True, n, m, seed)
        direct = sum(np.trace(s).real / n * mean(scen.xi, d) for s, d in scen.observable.terms)
        verdict = verify_nogo(scen)
        assert verdict.hypothesis_holds
        assert abs(verdict.closed_form - direct) <= TOL


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("degenerate", [True, False], ids=["degenerate", "generic"])
def test_each_conditional_mean_is_the_system_average_times_the_device_mean(degenerate, n, m):
    for seed in SEEDS:
        scen = drawn(degenerate, n, m, seed)
        for k, (s, d) in enumerate(scen.observable.terms):
            if degenerate:
                wbar = np.trace(s).real / n
            else:
                alone = JointObservable(n=n, m=m, terms=((s, np.eye(m)),))
                wbar = conditional_expectation(
                    MeasurementScenario(psi=scen.psi, xi=scen.xi, observable=alone, postselect=scen.postselect), 0
                )
            assert abs(conditional_expectation(scen, k) - wbar * mean(scen.xi, d)) <= TOL


def haar_unitary(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [2, 3])
def test_degenerate_denominators_follow_the_canonical_frame(n, m):
    largest_move = 0.0
    for seed in SEEDS:
        scen = drawn(True, n, m, seed)
        w = haar_unitary(n, np.random.default_rng((seed, n, m)))
        # W (c I) W^dag = c I: the same observable, with psi and phi rotated
        rotated = MeasurementScenario(
            psi=w @ scen.psi, xi=scen.xi, observable=scen.observable, postselect=w @ scen.postselect
        )
        denominators = []
        for case in (scen, rotated):
            standard = float(np.sum(np.abs(case.psi) ** 2 * np.abs(case.postselect) ** 2))
            for k in range(case.observable.num_terms):
                assert abs(postselection_denominator(case, k) - standard) <= TOL
            denominators.append(standard)
        before, after = verify_nogo(scen), verify_nogo(rotated)
        for name in ("conditional", "unconditional", "closed_form"):
            assert abs(getattr(before, name) - getattr(after, name)) <= TOL, name
        largest_move = max(largest_move, abs(denominators[0] - denominators[1]))
    assert largest_move > 0.05
