"""Brute-force enumeration and Monte Carlo sampling against the formula path."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import nogosim
from nogosim import measurement, oracle
from nogosim.cli import main
from nogosim.config import ScenarioConfig, encode_complex_array
from nogosim.errors import MissingPostselection, ZeroProbability
from nogosim.linalg import TOL_DEG
from nogosim.measurement import (
    JointObservable,
    MeasurementScenario,
    abl_conditional_grid,
    conditional_expectation,
    expectation,
    joint_probability_grid,
    postselection_denominator,
    product_spectral,
)
from nogosim.nogo import instance_rng, random_hermitian, random_ket, random_scenario
from nogosim.oracle import enumerate_two_step, sample_two_step

from helpers import cnot_error_scenario

I2 = np.eye(2, dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def documented_cells(scen, term=0):
    """The cells ``sample_two_step`` documents: P(i, j and post) / sum P(i, j) in [0, 1], then the reject cell."""
    _, outcome, joint = oracle._outcome_weights(scen, term, TOL_DEG)
    cells = np.clip(joint.reshape(-1) / outcome.sum(), 0.0, 1.0)
    return np.append(cells, max(0.0, 1.0 - cells.sum()))


def documented_counts(cells, shots, seed, shards):
    """Accepted counts per outcome: the sum of each shard's multinomial draw, without the reject cell."""
    base, extra = divmod(shots, shards)
    draws = [np.random.default_rng((seed, s)).multinomial(base + (s < extra), cells) for s in range(shards)]
    return np.sum(draws, axis=0)[:-1]


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
        # the first shard alone is the one-shard run, seeded (7, 0); shards 1 to 3 add their own draws
        single = sample_two_step(scen, shots=10_000, seed=7, shards=1)
        cells = documented_cells(scen)
        rest = sum(np.random.default_rng((7, s)).multinomial(10_000, cells)[:-1] for s in range(1, 4))
        assert sharded.counts.reshape(-1).tolist() == (single.counts.reshape(-1) + rest).tolist()

    def test_rejects_bad_arguments(self):
        scen = cnot_error_scenario(0.5)
        with pytest.raises(ValueError):
            sample_two_step(scen, shots=0, seed=1)
        with pytest.raises(ValueError):
            sample_two_step(scen, shots=10, seed=1, shards=11)

    @pytest.mark.parametrize(
        "kwargs",
        [{"term": 1}, {"term": -1}, {"seed": -1}, {"shards": 0}, {"shots": 2**63}],
        ids=["term-past-end", "negative-term", "negative-seed", "zero-shards", "shots-past-int64"],
    )
    def test_rejects_out_of_range_arguments(self, kwargs):
        scen = cnot_error_scenario(0.5)  # one term
        with pytest.raises(ValueError):
            sample_two_step(scen, **{"shots": 10, "seed": 1, **kwargs})

    @pytest.mark.parametrize("kwargs", [{"shots": 10.5}, {"shots": 10.9}, {"shots": 10.0}, {"shards": 2.5}], ids=repr)
    def test_rejects_a_count_that_is_not_an_integer(self, monkeypatch, kwargs):
        # shots=10.5 used to draw 11 shots and report 10
        def no_draw(*args):
            raise AssertionError("a generator was seeded")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sample_two_step(cnot_error_scenario(0.5), **{"shots": 10, "seed": 1, **kwargs})

    def test_an_integer_of_any_type_is_a_count(self):
        scen = cnot_error_scenario(0.5)
        want = sample_two_step(scen, shots=10, seed=1, shards=2)
        got = sample_two_step(scen, shots=np.int64(10), seed=1, shards=np.int32(2))
        assert (type(got.shots), got.shots, got.counts.tolist()) == (int, 10, want.counts.tolist())

    def test_rejects_a_non_distribution(self, monkeypatch):
        # zero outcome weights, stored in the oracle's memo, sum to 0
        scen = cnot_error_scenario(0.5)
        vars(scen)["_oracle_weights"] = {(0, TOL_DEG): (np.zeros((2, 2)),) * 3}
        with pytest.raises(ValueError):
            sample_two_step(scen, shots=10, seed=1)

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, float("nan")], ids=["off-by-1e-6", "nan"])
    def test_rejects_outcome_weights_that_do_not_sum_to_one(self, monkeypatch, scale):
        weights = oracle._outcome_weights
        monkeypatch.setattr(oracle, "_outcome_weights", lambda *args: tuple(w * scale for w in weights(*args)))
        with pytest.raises(ValueError, match="not a distribution"):
            sample_two_step(cnot_error_scenario(0.5), shots=10, seed=1)

    def test_cells_rounded_past_their_bounds_are_clipped(self, monkeypatch):
        # multinomial refuses a cell below 0 or above 1: here P(0, 0 and post) rounded to -1e-17, and a reject
        # cell 1 - sum rounded to -2**-52, as when every shot of an outcome passes postselection
        outcome = np.full((2, 2), 0.25)
        joint = np.array([[-1e-17, 0.25], [0.25, 0.5 + 2**-52]])
        monkeypatch.setattr(oracle, "_outcome_weights", lambda *args: (None, outcome, joint))
        result = sample_two_step(cnot_error_scenario(0.5), shots=10_000, seed=1, shards=2)
        assert result.counts[0, 0] == 0
        assert result.accepted == 10_000
        # and a cell rounded to 1 + 2**-52, as when one outcome holds every shot and passes postselection
        one = np.array([[0.0, 0.0], [0.0, 1.0 + 2**-52]])
        monkeypatch.setattr(oracle, "_outcome_weights", lambda *args: (None, outcome, one))
        result = sample_two_step(cnot_error_scenario(0.5), shots=10_000, seed=1, shards=2)
        assert result.counts[1, 1] == result.accepted == 10_000

    def test_the_largest_shot_count_costs_one_draw(self):
        shots = 2**63 - 1
        result = sample_two_step(cnot_error_scenario(0.5), shots=shots, seed=3)
        assert int(result.counts.sum()) == result.accepted
        assert abs(result.accepted / shots - 0.5) <= 5 * math.sqrt(0.25 / shots)

    def test_enumeration_and_sampling_decompose_each_factor_once(self, monkeypatch):
        calls, projectors = [], []
        original, projector = oracle.jacobi_decompose, oracle.PostselectionProjector

        def counting(h, *args, **kwargs):
            calls.append(h.shape)
            return original(h, *args, **kwargs)

        def counting_projector(**kwargs):
            projectors.append(kwargs["device_dim"])
            return projector(**kwargs)

        monkeypatch.setattr(oracle, "jacobi_decompose", counting)
        # one explicit projector per weight pass: the sampler reads the pass that the enumeration made
        monkeypatch.setattr(oracle, "PostselectionProjector", counting_projector)
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
        assert len(projectors) == scen.observable.num_terms
        assert set(scen._oracle_weights) == {(k, TOL_DEG) for k in range(scen.observable.num_terms)}
        assert scen.observable._spectral == {}  # the formula path's memo stays untouched

    def test_the_weight_memo_belongs_to_the_scenario(self):
        # two scenarios on one observable have their own weights: the memo is keyed by the scenario's kets too
        first = cnot_error_scenario(0.5, theta=0.3)  # phi = (cos 0.3, sin 0.3): denominators 1/2 and cos^2 0.3
        second = MeasurementScenario(psi=[1.0, 0.0], xi=first.xi, observable=first.observable, postselect=first.postselect)
        assert enumerate_two_step(first).denominators[0] == pytest.approx(0.5, abs=1e-12)
        assert enumerate_two_step(second).denominators[0] == pytest.approx(abs(first.postselect[0]) ** 2, abs=1e-12)
        assert "_oracle_weights" not in vars(first.observable)

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

        def oracle_denominator(tol_deg):  # the weight pass the sampler and the enumeration share
            return oracle._outcome_weights(scen, 0, tol_deg)[2].sum()

        formula = measurement._scenario_row(scen, cfg.tol_deg).denominators[0][0]
        assert formula == pytest.approx(0.5, abs=1e-12)
        assert oracle_denominator(cfg.tol_deg) == pytest.approx(formula, abs=1e-12)
        # the default tol_deg, the enumeration's, splits the pair, so its measurement basis is another one
        assert oracle_denominator(TOL_DEG) == enumerate_two_step(scen).denominators[0] == pytest.approx(0.3148, abs=1e-4)
        assert set(scen._oracle_weights) == {(0, cfg.tol_deg), (0, TOL_DEG)}

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

#: (fixture, shots, seed, shards, counts, accepted), recorded with the per-shard
#: ``Generator.multinomial`` draw on numpy 2.4.6. NEP 19 does not promise that
#: draw the same values across numpy versions, so another numpy may need them re-recorded.
GOLDEN_SAMPLES = [
    ("cnot_disturbance.json", 1, 0, 1, [[0, 0], [0, 0]], 0),
    ("cnot_disturbance.json", 1, 5, 1, [[1, 0], [0, 0]], 1),
    ("cnot_disturbance.json", 7, 3, 7, [[1, 0], [4, 0]], 5),
    ("cnot_disturbance.json", 1000, 7, 1, [[235, 20], [233, 21]], 509),
    ("cnot_disturbance.json", 10001, 42, 4, [[2272, 147], [2307, 155]], 4881),
    ("cnot_disturbance.json", 25000, 2024, 3, [[5891, 429], [5794, 436]], 12550),
    ("cnot_error.json", 1, 0, 1, [[0, 0], [0, 0]], 0),
    ("cnot_error.json", 1, 5, 1, [[0, 0], [0, 0]], 0),
    ("cnot_error.json", 7, 3, 7, [[1, 0], [4, 0]], 5),
    ("cnot_error.json", 1000, 7, 1, [[178, 53], [196, 67]], 494),
    ("cnot_error.json", 10001, 42, 4, [[1820, 610], [1844, 597]], 4871),
    ("cnot_error.json", 25000, 2024, 3, [[4744, 1565], [4648, 1550]], 12507),
    ("generic_violation.json", 1, 0, 1, [[0, 0, 0], [0, 0, 1]], 1),
    ("generic_violation.json", 1, 5, 1, [[0, 0, 0], [0, 0, 0]], 0),
    ("generic_violation.json", 7, 3, 7, [[0, 0, 4], [0, 0, 2]], 6),
    ("generic_violation.json", 1000, 7, 1, [[57, 64, 275], [17, 19, 86]], 518),
    ("generic_violation.json", 10001, 42, 4, [[491, 684, 2950], [128, 203, 837]], 5293),
    ("generic_violation.json", 25000, 2024, 3, [[1270, 1737, 7408], [350, 481, 2004]], 13250),
]


class TestSamplingStream:
    """The sampler's counts are the documented multinomial draws, pinned on one numpy build."""

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

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 2**-30], ids=["weights", "weights-off-by-2^-30"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["cnot_disturbance.json", "cnot_error.json", "generic_violation.json"])
    def test_counts_equal_the_per_shard_multinomial_draw(self, monkeypatch, name, shards, scale):
        # weights whose P(i, j) sum to 1 + 2**-30, within the distribution check, tell a draw on
        # joint / outcome.sum() from one on joint: on 10**15 shots the means differ by about 10**5
        weights = oracle._outcome_weights
        monkeypatch.setattr(oracle, "_outcome_weights", lambda *args: tuple(w * scale for w in weights(*args)))
        scen = ScenarioConfig.from_path(FIXTURES / name).scenario()
        shots, seed = 10**15 + 3, 2024
        result = sample_two_step(scen, shots=shots, seed=seed, shards=shards)
        expected = documented_counts(documented_cells(scen), shots, seed, shards)
        assert result.counts.reshape(-1).tolist() == expected.tolist()
        assert result.accepted == expected.sum()

    def test_first_two_moments_over_seeds_are_the_multinomial_ones(self):
        scen = ScenarioConfig.from_path(FIXTURES / "generic_violation.json").scenario()
        joint = enumerate_two_step(scen).joint[0].reshape(-1)
        shots, runs = 20_000, 2000
        draws = np.array([sample_two_step(scen, shots=shots, seed=seed).counts.reshape(-1) for seed in range(runs)])
        mean = shots * joint
        cov = shots * (np.diag(joint) - np.outer(joint, joint))
        # standard errors of the sample mean and of the sample covariance of near-normal counts
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 5 * np.sqrt(np.diag(cov) / runs))
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / runs)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) <= 5 * cov_se)
        accepted = draws.sum(axis=1)  # binomial in the postselection probability
        p_post = joint.sum()
        assert abs(accepted.mean() - shots * p_post) <= 5 * math.sqrt(shots * p_post * (1 - p_post) / runs)
