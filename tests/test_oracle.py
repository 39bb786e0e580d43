"""Brute-force enumeration and Monte Carlo sampling against the formula path."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nogosim
from nogosim import measurement, oracle
from nogosim.cli import main
from nogosim.config import ScenarioConfig, encode_complex_array
from nogosim.errors import MissingPostselection, ZeroProbability
from nogosim.linalg import TOL_DEG
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    PostselectionProjector,
    abl_conditional_grid,
    conditional_expectation,
    expectation,
    joint_probability_grid,
    postselection_denominator,
    product_spectral,
)
from nogosim.nogo import instance_rng, random_hermitian, random_ket, random_scenario
from nogosim.oracle import _accepted_counts, _outcome_cdf, enumerate_two_step, sample_two_step

I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def cnot_error_scenario(s, theta=np.pi / 4, varphi=0.0):
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    xi = np.array([np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)], dtype=complex)
    phi = np.array([math.cos(theta), np.exp(-1j * varphi) * math.sin(theta)])
    obs = JointObservable(n=2, m=2, terms=((4 * I2, np.diag([0.0, 1.0])),))
    return MeasurementScenario(psi=psi, xi=xi, observable=obs, postselect=phi)


class TestEnumeration:
    @pytest.mark.parametrize("index", range(50))
    def test_matches_formula_path(self, index):
        rng = instance_rng(31, index)
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        scen = random_scenario(rng, n, m, degenerate=bool(rng.integers(0, 2)), min_postselect=1e-3)
        result = enumerate_two_step(scen)
        data = product_spectral(scen.observable)
        for k in range(len(data)):
            assert np.max(np.abs(result.joint[k] - joint_probability_grid(scen, k))) < 1e-12
            assert np.max(np.abs(result.conditional[k] - abl_conditional_grid(scen, k))) < 1e-12
            assert result.denominators[k] == pytest.approx(postselection_denominator(scen, k), abs=1e-12)
            assert result.conditional_expectation(k) == pytest.approx(
                conditional_expectation(scen, k), abs=1e-12
            )

    def test_trivial_system_dimension(self):
        obs = JointObservable(n=1, m=2, terms=((np.array([[3.0]]), Z),))
        scen = MeasurementScenario(psi=[1.0], xi=[0.6, 0.8], observable=obs, postselect=[1.0])
        result = enumerate_two_step(scen)
        for j in range(2):
            assert result.conditional[0, 0, j] == result.joint[0, 0, j]
        assert result.conditional_expectation(0) == pytest.approx(expectation(scen, 0), abs=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.5, np.pi / 4, np.pi / 2])
    def test_cnot_denominator(self, theta):
        result = enumerate_two_step(cnot_error_scenario(0.5, theta))
        assert result.denominators[0] == pytest.approx(0.5, abs=1e-12)

    def test_conditional_rows_normalize(self):
        result = enumerate_two_step(cnot_error_scenario(0.3))
        assert float(result.conditional[0].sum()) == pytest.approx(1.0, abs=1e-12)

    def test_postselection_required(self):
        scen = cnot_error_scenario(0.5)
        bare = MeasurementScenario(psi=scen.psi, xi=scen.xi, observable=scen.observable)
        with pytest.raises(MissingPostselection):
            enumerate_two_step(bare)

    def test_zero_probability(self):
        obs = JointObservable(n=2, m=2, terms=((I2, Z),))
        scen = MeasurementScenario(psi=[1, 0], xi=[0.6, 0.8], observable=obs, postselect=[0, 1])
        with pytest.raises(ZeroProbability):
            enumerate_two_step(scen)


class TestSampling:
    def test_seed_reproducibility(self):
        scen = cnot_error_scenario(0.5)
        first = sample_two_step(scen, shots=50_000, seed=99)
        second = sample_two_step(scen, shots=50_000, seed=99)
        assert np.array_equal(first.counts, second.counts)
        assert first.accepted == second.accepted

    def test_counts_bookkeeping(self):
        scen = cnot_error_scenario(0.5)
        result = sample_two_step(scen, shots=10_000, seed=5)
        assert int(result.counts.sum()) == result.accepted <= result.shots

    def test_cnot_conditional_expectation_within_three_sigma(self):
        s = 0.5
        scen = cnot_error_scenario(s)
        result = sample_two_step(scen, shots=100_000, seed=12)
        grid = product_spectral(scen.observable).grids[0]
        estimate = result.conditional_expectation(grid)
        p_four = (1 - s) / 2
        sigma = 4 * math.sqrt(p_four * (1 - p_four) / result.accepted)
        assert abs(estimate - 2 * (1 - s)) <= 3 * sigma

    def test_cnot_acceptance_rate_within_three_sigma(self):
        scen = cnot_error_scenario(0.5)
        result = sample_two_step(scen, shots=100_000, seed=12)
        sigma = math.sqrt(0.5 * 0.5 / result.shots)
        assert abs(result.accepted / result.shots - 0.5) <= 3 * sigma

    def test_error_shrinks_with_square_root_of_shots(self):
        scen = cnot_error_scenario(0.5)
        grid = product_spectral(scen.observable).grids[0]
        p_four = 0.25
        for shots in (10_000, 1_000_000):
            result = sample_two_step(scen, shots=shots, seed=2718)
            sigma = 4 * math.sqrt(p_four * (1 - p_four) / result.accepted)
            assert abs(result.conditional_expectation(grid) - 1.0) <= 3 * sigma

    def test_sharded_run_is_deterministic_and_additive(self):
        scen = cnot_error_scenario(0.5)
        sharded = sample_two_step(scen, shots=40_000, seed=7, shards=4)
        again = sample_two_step(scen, shots=40_000, seed=7, shards=4)
        assert np.array_equal(sharded.counts, again.counts)
        assert int(sharded.counts.sum()) == sharded.accepted
        # first shard alone matches the head of the sharded stream
        single = sample_two_step(scen, shots=10_000, seed=7, shards=1)
        assert single.accepted <= sharded.accepted

    def test_rejects_bad_arguments(self):
        scen = cnot_error_scenario(0.5)
        with pytest.raises(ValueError):
            sample_two_step(scen, shots=0, seed=1)
        with pytest.raises(ValueError):
            sample_two_step(scen, shots=10, seed=1, shards=11)

    @pytest.mark.parametrize(
        "kwargs",
        [{"term": 1}, {"term": -1}, {"seed": -1}, {"shards": 0}],
        ids=["term-past-end", "negative-term", "negative-seed", "zero-shards"],
    )
    def test_rejects_out_of_range_arguments(self, kwargs):
        scen = cnot_error_scenario(0.5)  # one term
        with pytest.raises(ValueError):
            sample_two_step(scen, **{"shots": 10, "seed": 1, **kwargs})

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rejects_a_non_distribution(self, monkeypatch):
        # zero eigenvectors give every outcome probability 0, so normalizing yields NaN
        def zero_vectors(observable, k, tol_deg):
            return None, [[np.zeros(4, dtype=complex)] * 2] * 2

        monkeypatch.setattr(oracle, "_term_product_vectors", zero_vectors)
        with pytest.raises(ValueError):
            sample_two_step(cnot_error_scenario(0.5), shots=10, seed=1)

    def test_enumeration_and_sampling_decompose_each_factor_once(self, monkeypatch):
        calls = []
        original = oracle.jacobi_decompose

        def counting(h, *args, **kwargs):
            calls.append(h.shape)
            return original(h, *args, **kwargs)

        monkeypatch.setattr(oracle, "jacobi_decompose", counting)
        rng = np.random.default_rng(31)
        terms = tuple((random_hermitian(3, rng), random_hermitian(2, rng)) for _ in range(3))
        scen = MeasurementScenario(
            psi=random_ket(3, rng),
            xi=random_ket(2, rng),
            observable=JointObservable(n=3, m=2, terms=terms),
            postselect=random_ket(3, rng),
        )
        enumerate_two_step(scen)
        sample_two_step(scen, shots=100, seed=1, term=1)
        sample_two_step(scen, shots=100, seed=2, term=0)
        assert len(calls) == 2 * scen.observable.num_terms
        assert scen.observable._spectral == {}  # the formula path's memo stays untouched

    def test_empirical_frequencies_track_formula(self):
        rng = instance_rng(55, 1)
        scen = random_scenario(rng, 2, 2, degenerate=False, num_terms=1, min_postselect=1e-2)
        result = sample_two_step(scen, shots=200_000, seed=4)
        target = abl_conditional_grid(scen, 0)
        assert np.max(np.abs(result.frequencies() - target)) < 0.01


def near_degenerate_config(path):
    """A config whose system factor Q diag(1, 1 + 1e-7) Q^dag is degenerate at its tolerances.deg of 1e-6.

    At that tol_deg the factor is measured in e_1, e_2 and the postselection
    denominator is 1/2; at the default tol_deg it is measured in the columns of
    Q and the denominator is about 0.3148.
    """
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    system = q @ np.diag([1.0, 1.0 + 1e-7]) @ q.conj().T
    raw = {
        "n": 2,
        "m": 2,
        "psi": encode_complex_array(np.array([1.0, 1.0j]) / math.sqrt(2)),
        "xi": encode_complex_array([math.sqrt(0.75), 0.5]),
        "phi": encode_complex_array([math.cos(0.7), math.sin(0.7)]),
        "observable": {
            "terms": [{"system": encode_complex_array(system), "device": encode_complex_array(np.diag([0.0, 1.0]))}]
        },
        "tolerances": {"deg": 1e-6},
    }
    path.write_text(json.dumps(raw))
    return path


class TestRunTolerance:
    """The oracle measures in the eigenbases the formula path uses at the same tol_deg."""

    def test_the_oracle_denominator_equals_the_formula_path_at_the_config_tolerance(self, tmp_path):
        cfg = ScenarioConfig.from_path(near_degenerate_config(tmp_path / "near.json"))
        scen = cfg.scenario()
        pi = PostselectionProjector(phi=scen.postselect, device_dim=scen.m).matrix

        def oracle_denominator(tol_deg):  # the weight pass the sampler and the enumeration share
            _, vectors = oracle._term_product_vectors(scen.observable, 0, tol_deg)
            return oracle._outcome_weights(vectors, scen.joint_state(), pi)[1].sum()

        formula = measurement._scenario_row(scen, cfg.tol_deg).denominators[0][0]
        assert formula == pytest.approx(0.5, abs=1e-12)
        assert oracle_denominator(cfg.tol_deg) == pytest.approx(formula, abs=1e-12)
        # the default tol_deg, the enumeration's, splits the pair, so its measurement basis is another one
        assert oracle_denominator(TOL_DEG) == enumerate_two_step(scen).denominators[0] == pytest.approx(0.3148, abs=1e-4)
        assert set(scen.observable._oracle_terms) == {(0, cfg.tol_deg), (0, TOL_DEG)}

    def test_sample_cli_accepts_at_the_verify_denominator(self, tmp_path, capsys):
        path = near_degenerate_config(tmp_path / "near.json")
        shots = 200_000
        assert main(["sample", "--config", str(path), "--shots", str(shots), "--seed", "3"]) == 0
        rate = json.loads(capsys.readouterr().out)["acceptance_rate"]
        assert abs(rate - 0.5) < 5 * math.sqrt(0.25 / shots)

    def test_sample_at_a_tolerance_equals_sample_on_the_tolerance_basis(self, tmp_path):
        scen = ScenarioConfig.from_path(near_degenerate_config(tmp_path / "near.json")).scenario()
        # merged at 1e-6, the system factor is measured in e_1, e_2, as the system factor I measures
        obs = JointObservable(n=2, m=2, terms=((I2, np.diag([0.0, 1.0])),))
        standard = MeasurementScenario(psi=scen.psi, xi=scen.xi, observable=obs, postselect=scen.postselect)
        a = sample_two_step(scen, shots=5000, seed=11, tol_deg=1e-6)
        b = sample_two_step(standard, shots=5000, seed=11)
        assert a.counts.tolist() == b.counts.tolist()


FIXTURES = Path(nogosim.__file__).parent / "fixtures"

#: (fixture, shots, seed, shards, counts, accepted), recorded with the
#: ``Generator.choice``-based sampler that the counting kernel replaced.
GOLDEN_SAMPLES = [
    ("cnot_disturbance.json", 1, 0, 1, [[0, 0], [1, 0]], 1),
    ("cnot_disturbance.json", 1, 5, 1, [[0, 0], [0, 0]], 0),
    ("cnot_disturbance.json", 7, 3, 7, [[3, 0], [1, 0]], 4),
    ("cnot_disturbance.json", 1000, 7, 1, [[245, 14], [239, 13]], 511),
    ("cnot_disturbance.json", 10001, 42, 4, [[2381, 166], [2360, 159]], 5066),
    ("cnot_disturbance.json", 25000, 2024, 3, [[5884, 379], [5851, 408]], 12522),
    ("cnot_error.json", 1, 0, 1, [[0, 0], [1, 0]], 1),
    ("cnot_error.json", 1, 5, 1, [[0, 0], [0, 0]], 0),
    ("cnot_error.json", 7, 3, 7, [[3, 0], [0, 1]], 4),
    ("cnot_error.json", 1000, 7, 1, [[192, 67], [192, 60]], 511),
    ("cnot_error.json", 10001, 42, 4, [[1923, 624], [1933, 586]], 5066),
    ("cnot_error.json", 25000, 2024, 3, [[4718, 1545], [4730, 1529]], 12522),
    ("generic_violation.json", 1, 0, 1, [[0, 0, 0], [0, 0, 0]], 0),
    ("generic_violation.json", 1, 5, 1, [[0, 0, 0], [0, 0, 0]], 0),
    ("generic_violation.json", 7, 3, 7, [[1, 2, 1], [0, 0, 0]], 4),
    ("generic_violation.json", 1000, 7, 1, [[48, 76, 288], [11, 20, 70]], 513),
    ("generic_violation.json", 10001, 42, 4, [[457, 753, 2977], [146, 194, 786]], 5313),
    ("generic_violation.json", 25000, 2024, 3, [[1176, 1706, 7549], [321, 472, 1984]], 13208),
]


class TestSamplingStream:
    """The sampler's counts are pinned to the stream of earlier versions."""

    @pytest.mark.parametrize(
        "name,shots,seed,shards,counts,accepted",
        GOLDEN_SAMPLES,
        ids=[f"{row[0]}-{row[1]}-{row[2]}-{row[3]}" for row in GOLDEN_SAMPLES],
    )
    def test_golden_counts(self, name, shots, seed, shards, counts, accepted):
        scen = ScenarioConfig.from_path(FIXTURES / name).scenario()
        result = sample_two_step(scen, shots=shots, seed=seed, shards=shards)
        assert result.counts.tolist() == counts
        assert result.accepted == accepted

    @given(data=st.data(), size=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_shard_counts_equal_choice_then_accept(self, data, size, seed):
        k = data.draw(st.integers(1, 9), label="k")
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), label="weights")
        for index in data.draw(st.sets(st.sampled_from([0, k // 2, k - 1])), label="zeroed"):
            weights[index] = 0.0
        assume(sum(weights) > 0.0)
        accept = np.array(
            data.draw(
                st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=k, max_size=k),
                label="accept",
            )
        )
        probs = np.array(weights) / sum(weights)

        # reference: one shard of the sampler as it was written with Generator.choice
        rng = np.random.default_rng((seed, 0))
        drawn = rng.choice(k, size=size, p=probs)
        expected = np.bincount(drawn[rng.random(size) < accept[drawn]], minlength=k)

        assert _accepted_counts(seed, size, 1, _outcome_cdf(probs), accept).tolist() == expected.tolist()
