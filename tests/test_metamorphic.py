"""Metamorphic relations: transformations of a scenario that must leave its results in place.

Each relation maps a ``random_scenario`` draw to a second scenario whose means,
closed form and postselection denominators must agree with the first within
1e-13, with ``hypothesis_holds`` unchanged. None needs a reference value:

- a global phase on psi, xi and phi changes no probability;
- a device unitary W, with M_k -> W M_k W^dag and xi -> W xi, keeps every
  <xi|M_k|xi>, and the device never couples to the postselection;
- the terms in reverse order permute the per-term values and keep the sums;
- a term scaled by a > 0, on either factor, scales that term's means (and its
  share of the closed form) by a and keeps its denominator, since the factor
  eigenbases stay put;
- a term S_k (x) M_k split into two halves S_k (x) M_k/2 keeps every sum, and
  each half carries half of the term's means over the term's denominator;
- a system unitary W, with S_k -> W S_k W^dag, psi -> W psi and phi -> W phi,
  keeps every probability in generic mode, where each system eigenvector
  turns with W. In degenerate mode the denominators depend on the canonical
  frame of the c I factors, which ``test_identities.py`` pins;
- a device unitary W supported on one tol_deg group of distinct device
  eigenvalues, with M_k -> W M_k W^dag and xi -> W xi, moves no mean at that
  tol_deg (within 1e-12): the group's canonical frame stays put while its
  eigenvectors turn, so a device mean paired from frame columns and
  individual eigenvalues would move, and <xi|M_k|xi> does not.
"""

import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nogosim import measurement
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    conditional_expectation,
    expectation,
    postselection_denominator,
)
from nogosim.nogo import random_scenario, verify_nogo

TOL = 1e-13


def haar_unitary(dim, rng):
    """Haar-random unitary: QR of a complex Gaussian matrix, with R's diagonal phases moved into Q."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def results(scen):
    """The verdict and, per term, (denominator, conditional mean, unconditional mean)."""
    per_term = [
        (postselection_denominator(scen, k), conditional_expectation(scen, k), expectation(scen, k))
        for k in range(scen.observable.num_terms)
    ]
    return verify_nogo(scen), per_term


def assert_same_results(got, want):
    (verdict, per_term), (ref_verdict, ref_per_term) = got, want
    assert verdict.hypothesis_holds == ref_verdict.hypothesis_holds
    assert (verdict.closed_form is None) == (ref_verdict.closed_form is None)
    totals = [(verdict.conditional, ref_verdict.conditional), (verdict.unconditional, ref_verdict.unconditional)]
    if verdict.closed_form is not None:
        totals.append((verdict.closed_form, ref_verdict.closed_form))
    for term, ref_term in zip(per_term, ref_per_term, strict=True):
        totals += zip(term, ref_term)
    for value, ref in totals:
        assert abs(value - ref) <= TOL, (value, ref)


draws = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.sampled_from([2, 3]),
        "m": st.sampled_from([2, 3]),
        "degenerate": st.booleans(),
        "num_terms": st.integers(1, 3),
    }
)


def drawn_scenario(draw):
    rng = np.random.default_rng(draw["seed"])
    scen = random_scenario(rng, draw["n"], draw["m"], draw["degenerate"], num_terms=draw["num_terms"])
    return scen, rng


@given(draw=draws, phases=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3))
@settings(max_examples=120, deadline=None)
def test_a_global_phase_on_each_ket_changes_nothing(draw, phases):
    scen, _ = drawn_scenario(draw)
    psi, xi, phi = (np.exp(1j * a) * ket for a, ket in zip(phases, (scen.psi, scen.xi, scen.postselect)))
    shifted = MeasurementScenario(psi=psi, xi=xi, observable=scen.observable, postselect=phi)
    assert_same_results(results(shifted), results(scen))


@given(draw=draws)
@settings(max_examples=120, deadline=None)
def test_a_device_unitary_changes_nothing(draw):
    scen, rng = drawn_scenario(draw)
    w = haar_unitary(scen.m, rng)
    terms = tuple((system, w @ device @ w.conj().T) for system, device in scen.observable.terms)
    rotated = MeasurementScenario(
        psi=scen.psi,
        xi=w @ scen.xi,
        observable=JointObservable(n=scen.n, m=scen.m, terms=terms),
        postselect=scen.postselect,
    )
    assert_same_results(results(rotated), results(scen))


@given(draw=draws)
@settings(max_examples=120, deadline=None)
def test_reversed_terms_permute_the_per_term_values(draw):
    scen, _ = drawn_scenario(draw)
    obs = scen.observable
    reversed_scen = MeasurementScenario(
        psi=scen.psi,
        xi=scen.xi,
        observable=JointObservable(n=obs.n, m=obs.m, terms=obs.terms[::-1]),
        postselect=scen.postselect,
    )
    verdict, per_term = results(reversed_scen)
    assert_same_results((verdict, per_term[::-1]), results(scen))


def with_terms(scen, terms, psi=None, phi=None):
    """The scenario with other terms, and psi and phi where given."""
    return MeasurementScenario(
        psi=scen.psi if psi is None else psi,
        xi=scen.xi,
        observable=JointObservable(n=scen.n, m=scen.m, terms=tuple(terms)),
        postselect=scen.postselect if phi is None else phi,
    )


@given(draw=draws, a=st.floats(0.1, 10.0), side=st.sampled_from(["system", "device"]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_a_term_scaled_by_a_positive_factor_scales_its_means(draw, a, side, data):
    scen, _ = drawn_scenario(draw)
    terms = list(scen.observable.terms)
    k = data.draw(st.integers(0, len(terms) - 1))
    system, device = terms[k]
    terms[k] = (a * system, device) if side == "system" else (system, a * device)
    ref_verdict, ref_per_term = results(scen)
    share, _ = results(with_terms(scen, scen.observable.terms[k : k + 1]))  # term k alone
    denom, conditional, unconditional = ref_per_term[k]
    ref_per_term[k] = (denom, a * conditional, a * unconditional)
    # term k's share of each sum grows by (a - 1) times itself; a generic draw's column spreads stay far above
    # tol_deg at any a here, so hypothesis_holds stays put in both modes
    expected = dataclasses.replace(
        ref_verdict,
        conditional=ref_verdict.conditional + (a - 1.0) * share.conditional,
        unconditional=ref_verdict.unconditional + (a - 1.0) * share.unconditional,
        closed_form=None if ref_verdict.closed_form is None else ref_verdict.closed_form + (a - 1.0) * share.closed_form,
    )
    assert_same_results(results(with_terms(scen, terms)), (expected, ref_per_term))


@given(draw=draws, data=st.data())
@settings(max_examples=120, deadline=None)
def test_a_term_split_in_two_halves_keeps_the_sums(draw, data):
    scen, _ = drawn_scenario(draw)
    terms = list(scen.observable.terms)
    k = data.draw(st.integers(0, len(terms) - 1))
    system, device = terms[k]
    halves = [(system, device / 2.0)] * 2
    verdict, per_term = results(with_terms(scen, terms[:k] + halves + terms[k + 1 :]))
    ref_verdict, ref_per_term = results(scen)
    denom, conditional, unconditional = ref_per_term[k]
    half = (denom, conditional / 2.0, unconditional / 2.0)
    assert_same_results((verdict, per_term), (ref_verdict, ref_per_term[:k] + [half, half] + ref_per_term[k + 1 :]))


@given(draw=draws.filter(lambda d: not d["degenerate"]))
@settings(max_examples=120, deadline=None)
def test_a_system_unitary_changes_nothing_in_generic_mode(draw):
    scen, rng = drawn_scenario(draw)
    w = haar_unitary(scen.n, rng)
    terms = [(w @ system @ w.conj().T, device) for system, device in scen.observable.terms]
    rotated = with_terms(scen, terms, psi=w @ scen.psi, phi=w @ scen.postselect)
    assert_same_results(results(rotated), results(scen))


def grouped_device_factors(m, num_terms, tol_deg, rng):
    """Device factors V diag(levels_k) V^dag sharing a Haar V, and the V whose first two columns span their group.

    Each term's two lowest levels lie 0.6 tol_deg apart, one tol_deg group of distinct
    eigenvalues; every further level sits 2 tol_deg above the one before, a group of its own.
    """
    v = haar_unitary(m, rng)
    steps = np.concatenate([[0.0, 0.6 * tol_deg], np.full(m - 2, 2.0 * tol_deg)])
    factors = []
    for _ in range(num_terms):
        levels = rng.standard_normal() + np.cumsum(steps)
        factors.append((v * levels) @ v.conj().T)
    return factors, v


@given(draw=draws, tol_deg=st.sampled_from([0.5, 3.0]))
@settings(max_examples=120, deadline=None)
def test_a_device_unitary_inside_one_tol_deg_group_changes_nothing(draw, tol_deg):
    scen, rng = drawn_scenario(draw)
    systems = [system for system, _ in scen.observable.terms]
    devices, v = grouped_device_factors(scen.m, len(systems), tol_deg, rng)
    block = np.eye(scen.m, dtype=complex)
    block[:2, :2] = haar_unitary(2, rng)
    w = v @ block @ v.conj().T  # W M_k W^dag has M_k's spectrum and tol_deg groups
    grouped = with_terms(scen, zip(systems, devices))
    terms = tuple((system, w @ device @ w.conj().T) for system, device in zip(systems, devices))
    rotated = MeasurementScenario(
        psi=scen.psi,
        xi=w @ scen.xi,
        observable=JointObservable(n=scen.n, m=scen.m, terms=terms),
        postselect=scen.postselect,
    )
    found = []
    for case in (grouped, rotated):
        row = measurement._scenario_row(case, tol_deg)
        denominators = row.denominators[0]
        # the system side is shared, so a draw whose denominators vanish at this tol_deg's system frame does so twice
        assume(min(denominators) > 1e-6)
        verdict = verify_nogo(case, tol_deg=tol_deg)
        per_term = list(zip(row.conditional[0], row.unconditional[0]))
        found.append((verdict, denominators, per_term))
    (verdict, denominators, per_term), (ref_verdict, ref_denominators, ref_per_term) = found
    assert verdict.hypothesis_holds == ref_verdict.hypothesis_holds
    values = [(getattr(verdict, name), getattr(ref_verdict, name)) for name in ("conditional", "unconditional", "gap")]
    if verdict.closed_form is not None:
        values.append((verdict.closed_form, ref_verdict.closed_form))
    values += zip(denominators, ref_denominators, strict=True)
    for term, ref_term in zip(per_term, ref_per_term, strict=True):
        values += zip(term, ref_term)
    for value, ref in values:
        assert abs(value - ref) <= 1e-12, (value, ref)
