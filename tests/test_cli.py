"""Command line behavior: exit codes, report shape, formats, determinism."""

import ast
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import nogosim
from nogosim import cli, config, error_disturbance
from nogosim.cli import SWEEP_COLUMNS, build_parser, main, parse_grid
from nogosim.error_disturbance import (
    DEFAULT_STRENGTH_GRID,
    DEFAULT_THETA_GRID,
    DEFAULT_VARPHI_GRID,
    PAULI_X,
    PAULI_Z,
    CnotScenario,
    cnot_report,
    cnot_sweep,
)
from nogosim.errors import ConfigError
from nogosim.linalg import TOL_DEG, TOL_POSTSELECT, TOL_VERIFY
from nogosim.nogo import instance_rng, random_audit, random_scenario, verify_nogo

FIXTURES = Path(nogosim.__file__).parent / "fixtures"
README = Path(__file__).resolve().parents[1] / "README.md"


def csv_writer_bytes(rows) -> bytes:
    """The sweep CSV as ``csv.writer`` writes it, one ``repr(float(value))`` per field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([repr(float(value)) for value in row])
    return buffer.getvalue().encode()


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def generated_cnot() -> dict:
    """The generated-form interaction block whose exponential is CNOT: H_s = I - Z, H_d = I - X, t = -pi/4."""
    eye = np.eye(2)
    return {
        "h_system": config.encode_complex_array(eye - PAULI_Z),
        "h_device": config.encode_complex_array(eye - PAULI_X),
        "t": -math.pi / 4,
    }


def huge_config(tmp_path, scale: float = 1e200) -> str:
    """generic_violation.json with every factor entry scaled by 1e200 (or scale): finite, but its eigenvalue
    products overflow."""
    raw = load_fixture("generic_violation.json")
    for term in raw["observable"]["terms"]:
        for side in ("system", "device"):
            term[side] = [[[scale * re, scale * im] for re, im in row] for row in term[side]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    return str(path)


def assert_one_non_finite_error(captured):
    """Nothing on stdout, and one stderr line: the refusal of a non-finite report."""
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("verification aborted: report has a non-finite value")


def test_fixtures_are_bundled():
    for name in ("cnot_error.json", "cnot_disturbance.json", "generic_violation.json"):
        assert (FIXTURES / name).is_file()


class TestVerify:
    def test_cnot_error_fixture_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(FIXTURES / "cnot_error.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"]["hypothesis_holds"] is True
        assert report["verdict"]["basis_requirement_holds"] is True
        assert report["verdict"]["gap"] <= 1e-10
        assert report["degeneracy"]["terms"][0]["is_rank_m_degenerate"] is True
        ed = report["error_disturbance"]
        assert abs(ed["epsilon_sq"] - 1.0) < 1e-10
        assert ed["nogo_gap_error"] <= 1e-10
        assert ed["nogo_gap_disturbance"] <= 1e-10

    def test_cnot_disturbance_fixture_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(FIXTURES / "cnot_disturbance.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"]["gap"] <= 1e-10
        assert report["error_disturbance"] is None

    def test_generic_violation_fixture_reports_gap(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(FIXTURES / "generic_violation.json"), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"]["hypothesis_holds"] is False
        assert report["verdict"]["gap"] > 0.01

    def test_forcing_the_hypothesis_tolerance_fails_verification(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--config",
                str(FIXTURES / "generic_violation.json"),
                "--tol-deg",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["verdict"]["hypothesis_holds"] is True
        assert report["verdict"]["gap"] > 1e-9

    def test_malformed_matrix_row(self, tmp_path):
        raw = load_fixture("cnot_error.json")
        raw["observable"]["terms"][0]["system"][0] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(bad)]) == 2

    def test_non_hermitian_observable(self, tmp_path):
        raw = load_fixture("cnot_error.json")
        raw["observable"]["terms"][0]["system"][0][1] = [5.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(bad)]) == 2

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_observable_entry(self, tmp_path, bad):
        raw = load_fixture("cnot_error.json")
        raw["observable"]["terms"][0]["device"][1][1] = [bad, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))  # Python's json reads and writes NaN / Infinity
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_amplitude(self, tmp_path, capsys, bad):
        raw = load_fixture("generic_violation.json")
        raw["psi"][0] = [bad, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_integer_beyond_float_range(self, tmp_path):
        raw = load_fixture("generic_violation.json")
        raw["tolerances"] = {"deg": 10**400}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2

    def test_overflowing_report_is_not_emitted(self, tmp_path, capsys):
        # the gap is inf - inf = NaN; numpy's overflow warnings stay off stderr (five RuntimeWarning lines used to
        # print first, and pyproject's filter turns any that is raised into a failure here)
        assert main(["verify", "--config", huge_config(tmp_path)]) == 1
        assert_one_non_finite_error(capsys.readouterr())

    def test_unnormalized_state(self, tmp_path):
        raw = load_fixture("cnot_error.json")
        raw["psi"] = [[1.0, 0.0], [1.0, 0.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(bad)]) == 2

    def test_missing_config_file(self):
        assert main(["verify", "--config", "/does/not/exist.json"]) == 2

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2

    def test_replay_determinism_excluding_wall_time(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        config = str(FIXTURES / "cnot_error.json")
        assert main(["verify", "--config", config, "--out", str(out_a)]) == 0
        assert main(["verify", "--config", config, "--out", str(out_b)]) == 0
        rep_a = json.loads(out_a.read_text())
        rep_b = json.loads(out_b.read_text())
        rep_a.pop("wall_time_s")
        rep_b.pop("wall_time_s")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tol-deg", "nan"],
            ["--tol-deg", "inf"],
            ["--tol-deg", "-1e-9"],
            ["--tol-verify", "nan"],
            ["--tol-verify", "-inf"],
        ],
    )
    def test_bad_tolerance_flag(self, capsys, flags):
        assert main(["verify", "--config", str(FIXTURES / "generic_violation.json"), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0] in captured.err

    @pytest.mark.parametrize("key,bad", [("deg", -1.0), ("verify", -1e-9), ("postselect", -1.0), ("deg", math.nan)])
    def test_bad_config_tolerance(self, tmp_path, key, bad):
        raw = load_fixture("generic_violation.json")
        raw["tolerances"] = {key: bad}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("bad", [[], 0, "", False, [1], 1, "x"], ids=repr)
    def test_non_object_tolerances_block(self, tmp_path, capsys, bad):
        raw = load_fixture("generic_violation.json")
        raw["tolerances"] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'tolerances' must be an object" in captured.err

    def test_null_tolerances_block_is_absent(self, tmp_path, capsys):
        raw = load_fixture("generic_violation.json")
        outputs = []
        for block in ("absent", None):
            if block == "absent":
                raw.pop("tolerances", None)
            else:
                raw["tolerances"] = block
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(raw))
            assert main(["verify", "--config", str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["wall_time_s"], report["config_sha256"]  # the file's bytes differ
            outputs.append(report)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("value", ["absent", "null"])
    @pytest.mark.parametrize("key", ["psi", "xi", "phi", "observable"])
    def test_a_config_needs_every_input_of_the_scenario(self, key, value):
        raw = load_fixture("generic_violation.json")
        if value == "absent":
            del raw[key]
        else:
            raw[key] = None
        with pytest.raises(ConfigError, match=f"^configuration needs {key!r}$"):
            config.ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("key", ["psi", "xi", "phi", "observable"])
    def test_a_config_without_a_scenario_input_exits_2(self, tmp_path, capsys, key, command):
        raw = load_fixture("cnot_error.json")
        del raw[key]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: configuration needs {key!r}\n")

    def test_absent_tolerances_take_the_builtin_defaults(self):
        raw = load_fixture("generic_violation.json")
        raw.pop("tolerances", None)
        cfg = config.ScenarioConfig.from_dict(raw)
        assert (cfg.tol_deg, cfg.tol_verify, cfg.tol_postselect) == (TOL_DEG, TOL_VERIFY, TOL_POSTSELECT)
        raw["tolerances"] = {"verify": 0.5}
        cfg = config.ScenarioConfig.from_dict(raw)
        assert (cfg.tol_deg, cfg.tol_verify, cfg.tol_postselect) == (TOL_DEG, 0.5, TOL_POSTSELECT)

    @pytest.mark.parametrize(
        "fixture, block, key",
        [
            ("cnot_error.json", (), "interacton"),
            ("generic_violation.json", ("tolerances",), "degg"),
            ("cnot_error.json", ("interaction",), "h_sytem"),
            ("cnot_error.json", ("setup",), "readuot"),
            ("generic_violation.json", ("observable",), "term"),
            ("generic_violation.json", ("observable", "terms", 0), "devcie"),
        ],
        ids=["top-level", "tolerances", "interaction", "setup", "observable", "term"],
    )
    def test_unknown_key(self, tmp_path, capsys, fixture, block, key):
        # a misspelled key used to fall back to its default: {"degg": 100} passed where {"deg": 100} fails
        raw = load_fixture(fixture)
        target = raw
        for step in block:
            target = target.setdefault(step, {}) if isinstance(step, str) else target[step]
        target[key] = 100
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        for command in ("verify", "sample"):
            assert main([command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"unknown keys: {key!r}" in captured.err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"t": 5.0, "h_system": "not even a matrix"}, "interaction.h_system: expected 2 rows"),
            ({"t": 5.0}, "not both"),
            ({"h_system": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "h_device": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
             "not both"),
        ],
        ids=["bad-matrix", "t", "hamiltonians"],
    )
    def test_interaction_in_both_forms(self, tmp_path, capsys, extra, message):
        # the unitary used to win and the generated form's keys were never read
        raw = load_fixture("cnot_error.json")
        raw["interaction"].update(extra)
        path = tmp_path / "both.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_partial_generated_form(self, tmp_path, capsys):
        raw = load_fixture("cnot_error.json")
        raw["interaction"] = {"h_system": generated_cnot()["h_system"], "t": -math.pi / 4}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: generated form needs h_system, h_device and t\n"

    def test_generated_form_gives_the_unitary_form_report(self, tmp_path, capsys):
        # exp(i pi/4 (I - Z) (x) (I - X)) is CNOT
        raw = load_fixture("cnot_error.json")
        raw["interaction"] = generated_cnot()
        path = tmp_path / "generated.json"
        path.write_text(json.dumps(raw))
        reports = []
        for config_path in (path, FIXTURES / "cnot_error.json"):
            assert main(["verify", "--config", str(config_path)]) == 0
            report = json.loads(capsys.readouterr().out)
            del report["wall_time_s"], report["config_sha256"]
            reports.append(report)

        def assert_close(got, want):
            assert type(got) is type(want) or {type(got), type(want)} <= {int, float}
            if isinstance(got, dict):
                assert got.keys() == want.keys()
                for key in got:
                    assert_close(got[key], want[key])
            elif isinstance(got, list):
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert_close(g, w)
            elif isinstance(got, (int, float)) and not isinstance(got, bool):
                assert abs(got - want) <= 1e-12
            else:
                assert got == want

        assert_close(*reports)

    def test_overflowing_generated_form_is_a_config_error(self, tmp_path, capsys):
        # t * lambda overflows to NaN phases, refused as the config is read rather than at the first evolution;
        # numpy's overflow warnings stay off stderr (two RuntimeWarning lines used to print first)
        raw = load_fixture("cnot_error.json")
        big = config.encode_complex_array(np.diag([10.0, -10.0]))
        raw["interaction"] = {"h_system": big, "h_device": big, "t": 1e308}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interaction matrix is not unitary within 1e-10\n"

    @pytest.mark.parametrize("value", ["absent", "null"])
    @pytest.mark.parametrize("dropped", ["setup", "interaction"])
    def test_interaction_and_setup_come_together(self, tmp_path, capsys, dropped, value):
        # verify without the setup block used to exit 0 with "error_disturbance": null, without a word
        raw = load_fixture("cnot_error.json")
        if value == "absent":
            del raw[dropped]
        else:
            raw[dropped] = None
        path = tmp_path / "half.json"
        path.write_text(json.dumps(raw))
        for command in ("verify", "sample"):
            assert main([command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: 'interaction' and 'setup' must be given together\n"

    def test_empty_interaction_names_neither_form(self, tmp_path, capsys):
        # an empty block used to be refused as "... not both"
        raw = load_fixture("cnot_error.json")
        raw["interaction"] = {}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "neither was given" in captured.err
        assert "not both" not in captured.err

    @pytest.mark.parametrize("key", ["n", "m"])
    @pytest.mark.parametrize("kind", ["float", "string", "bool"])
    def test_non_integer_dimension(self, tmp_path, capsys, key, kind):
        # int() would read 2.9 and "2" as 2 and true as 1, so each must be rejected by type
        raw = load_fixture("generic_violation.json")
        raw[key] = {"float": raw[key] + 0.9, "string": str(raw[key]), "bool": True}[kind]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integer fields 'n' and 'm'" in captured.err

    def test_zero_tolerance_is_allowed(self, tmp_path):
        # the CNOT error grid 4*I (x) diag(0, 1) is exactly column-constant
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(FIXTURES / "cnot_error.json"), "--tol-deg", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["degeneracy"]["terms"][0]["is_rank_m_degenerate"] is True


class TestCnotSweep:
    def test_default_grid_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["cnot-sweep", "--out", str(out)]) == 0
        assert b"\r\n" in out.read_bytes()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 21 * 5 * 3
        first = rows[0]
        assert float(first["s"]) == 0.0
        assert float(first["epsilon_sq"]) == pytest.approx(2.0, abs=1e-12)
        assert float(first["eta_sq"]) == pytest.approx(0.0, abs=1e-12)
        last = rows[-1]
        assert float(last["s"]) == 1.0
        assert float(last["epsilon_sq"]) == pytest.approx(0.0, abs=1e-12)
        assert float(last["eta_sq"]) == pytest.approx(2.0, abs=1e-12)
        for row in rows:
            assert float(row["gap_error"]) <= 1e-10
            assert float(row["gap_disturbance"]) <= 1e-10

    def test_csv_round_trip_equals_json_values(self, tmp_path):
        csv_out = tmp_path / "sweep.csv"
        json_out = tmp_path / "sweep.json"
        args = ["--s-grid", "0:1:3", "--theta-grid", "0.3", "--varphi-grid", "0.1,0.9"]
        assert main(["cnot-sweep", *args, "--out", str(csv_out)]) == 0
        assert main(["cnot-sweep", *args, "--format", "json", "--out", str(json_out)]) == 0
        csv_rows = list(csv.DictReader(csv_out.read_text().splitlines()))
        json_rows = json.loads(json_out.read_text())
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, value in j_row.items():
                assert float(c_row[key]) == value

    def test_default_grid_rows_equal_the_library(self, capsys):
        assert main(["cnot-sweep"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert tuple(rows[0]) == SWEEP_COLUMNS
        points = [(s, t, v) for s in DEFAULT_STRENGTH_GRID for t in DEFAULT_THETA_GRID for v in DEFAULT_VARPHI_GRID]
        assert len(rows) - 1 == len(points)
        for row, (s, theta, varphi) in zip(rows[1:], points):
            report = cnot_report(CnotScenario(strength=s, theta=theta, varphi=varphi))
            expected = (
                s,
                theta,
                varphi,
                report.epsilon_sq,
                report.epsilon_sq_post,
                report.eta_sq,
                report.eta_sq_post,
                report.nogo_gap_error,
                report.nogo_gap_disturbance,
            )
            assert tuple(float(value) for value in row) == expected

    def test_signed_zero_angles_print_their_own_points(self, capsys):
        assert main(["cnot-sweep", "--s-grid", "0.3,1", "--theta-grid=-0.0,0.0", "--varphi-grid", "0.7"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
        assert [row[:3] for row in rows] == [[s, t, "0.7"] for s in ("0.3", "1.0") for t in ("-0.0", "0.0")]
        for row in rows:
            s, theta, varphi = (float(value) for value in row[:3])
            report = cnot_report(CnotScenario(strength=s, theta=theta, varphi=varphi))
            expected = (
                report.epsilon_sq,
                report.epsilon_sq_post,
                report.eta_sq,
                report.eta_sq_post,
                report.nogo_gap_error,
                report.nogo_gap_disturbance,
            )
            assert tuple(float(value) for value in row[3:]) == expected

    @pytest.mark.parametrize("grid_args", [[], ["--theta-grid=-0.0,0.0"]], ids=["default", "signed-zero-theta"])
    def test_csv_has_the_bytes_of_csv_writer(self, tmp_path, grid_args):
        out = tmp_path / "sweep.csv"
        assert main(["cnot-sweep", *grid_args, "--out", str(out)]) == 0
        grids = (DEFAULT_STRENGTH_GRID, (-0.0, 0.0) if grid_args else DEFAULT_THETA_GRID, DEFAULT_VARPHI_GRID)
        rows = [
            (*point, r.epsilon_sq, r.epsilon_sq_post, r.eta_sq, r.eta_sq_post, r.nogo_gap_error, r.nogo_gap_disturbance)
            for point, r in zip(itertools.product(*grids), cnot_sweep(*grids))
        ]
        assert out.read_bytes() == csv_writer_bytes(rows)

    def test_csv_of_extreme_floats_has_the_bytes_of_csv_writer(self, tmp_path, monkeypatch):
        # the writer formats whatever floats the sweep returns: subnormal, signed zero, tiny and huge values
        rng = np.random.default_rng(23)
        pool = [5e-324, -5e-324, -0.0, 0.0, 1e-17, -1e-17, 1e300, -1e300, 0.1, 1 / 3, 2.0**-1074 * 3]
        fields = ("epsilon_sq", "epsilon_sq_post", "eta_sq", "eta_sq_post", "nogo_gap_error", "nogo_gap_disturbance")

        def value():
            if rng.random() < 0.5:
                return pool[rng.integers(len(pool))]
            return float(rng.standard_normal() * 10.0 ** rng.integers(-320, 300))

        rows = []

        def fake_sweep(*grids, **kwargs):
            for point in itertools.product(*grids):
                rows.append((*point, *(value() for _ in fields)))
            return [types.SimpleNamespace(**dict(zip(fields, row[3:]))) for row in rows]

        monkeypatch.setattr(error_disturbance, "cnot_sweep", fake_sweep)
        grids = ["--s-grid", "0,5e-324,1e-17,1", "--theta-grid=-0.0,0.0,5e-324,1e-17,1e300", "--varphi-grid=-1e300,0.5"]
        out = tmp_path / "sweep.csv"
        assert main(["cnot-sweep", *grids, "--out", str(out)]) == 0
        assert len(rows) == 4 * 5 * 2
        assert out.read_bytes() == csv_writer_bytes(rows)

    def test_invalid_strength_grid(self):
        assert main(["cnot-sweep", "--s-grid", "0:2:5"]) == 2

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--s-grid", "1.5", "strength must lie in [0, 1], got 1.5"),
            ("--s-grid", "nan", "strength must lie in [0, 1], got nan"),
            ("--theta-grid", "inf", "theta and varphi must be finite, got inf"),
            ("--varphi-grid", "0,-inf", "theta and varphi must be finite, got -inf"),
        ],
    )
    def test_cnot_sweep_refuses_a_bad_grid_value(self, capsys, flag, value, message):
        # the values are checked once, by cnot_sweep, whose ValueError is a usage error here
        assert main(["cnot-sweep", f"{flag}={value}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_empty_grid(self):
        assert main(["cnot-sweep", "--s-grid", ","]) == 2

    def test_bad_grid_spec(self):
        assert main(["cnot-sweep", "--s-grid", "a:b:c"]) == 2

    @pytest.mark.parametrize("flag", ["--tol-deg", "--tol-verify"])
    def test_nan_tolerance(self, flag):
        assert main(["cnot-sweep", "--s-grid", "0.5", flag, "nan"]) == 2


class TestRandomAudit:
    def test_degenerate_mode(self, tmp_path, capsys):
        out = tmp_path / "audit.json"
        code = main(["random-audit", "--count", "40", "--mode", "degenerate", "--seed", "11", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "violations=0" in stdout
        assert "instance 0 seed=(11,0)" in stdout
        summary = json.loads(out.read_text())
        assert summary["violations"] == 0
        assert summary["gap_max"] <= 1e-9

    def test_generic_mode(self, tmp_path):
        out = tmp_path / "audit.json"
        code = main(["random-audit", "--count", "30", "--mode", "generic", "--seed", "11", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["gap_max"] > 0.01
        assert summary["gap_min"] >= 0.0

    def test_zero_count_is_usage_error(self):
        assert main(["random-audit", "--count", "0"]) == 2

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["random-audit", "--count", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "--seed" in captured.err

    @pytest.mark.parametrize("mode", ["degenerate", "generic"])
    def test_instance_lines_carry_the_library_gap(self, capsys, mode):
        assert main(["random-audit", "--count", "50", "--seed", "5", "--mode", mode]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert len(lines) == 50
        for index, line in enumerate(lines):
            found = re.fullmatch(
                r"instance (\d+) seed=\(5,(\d+)\) n=(\d) m=(\d) hypothesis=(\w+) basis=True gap=(\S+)", line
            )
            assert found is not None, line
            rng = instance_rng(5, index)
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            verdict = verify_nogo(random_scenario(rng, n, m, degenerate=(mode == "degenerate")))
            assert found.groups()[:5] == (str(index), str(index), str(n), str(m), str(verdict.hypothesis_holds))
            assert float(found.group(6)) == verdict.gap

    @pytest.mark.parametrize("flag", ["--tol-deg", "--tol-verify"])
    def test_nan_tolerance(self, flag):
        assert main(["random-audit", "--count", "1", flag, "nan"]) == 2

    def test_bad_dims(self):
        assert main(["random-audit", "--count", "1", "--dims", "2"]) == 2
        assert main(["random-audit", "--count", "1", "--dims", "a,b"]) == 2
        assert main(["random-audit", "--count", "1", "--dims", "0,2"]) == 2
        assert main(["random-audit", "--count", "1", "--dims", "2,-1"]) == 2

    def test_pinned_dims(self, capsys):
        assert main(["random-audit", "--count", "3", "--dims", "2,3", "--seed", "5"]) == 0
        stdout = capsys.readouterr().out
        assert "n=2 m=3" in stdout


#: One cheap run of each subcommand that takes tolerance flags.
TOLERANCE_COMMANDS = {
    "verify": ["verify", "--config", str(FIXTURES / "generic_violation.json")],
    "cnot-sweep": ["cnot-sweep", "--s-grid", "0.5"],
    "random-audit": ["random-audit", "--count", "1"],
}


@pytest.mark.parametrize("command", sorted(TOLERANCE_COMMANDS))
def test_nan_tolerance_flag_message(capsys, command):
    assert main([*TOLERANCE_COMMANDS[command], "--tol-deg", "nan"]) == 2
    assert capsys.readouterr() == ("", "error: --tol-deg: expected a finite number, got nan\n")


@pytest.mark.parametrize(
    "bad,message",
    [
        (math.nan, "tolerances.deg: expected a finite number, got nan"),
        (-1.0, "tolerances.deg: expected a non-negative tolerance, got -1.0"),
    ],
)
def test_bad_config_tolerance_message(tmp_path, capsys, bad, message):
    raw = load_fixture("generic_violation.json")
    raw["tolerances"] = {"deg": bad}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestSample:
    def test_sample_fixture(self, tmp_path):
        out = tmp_path / "sample.json"
        code = main(
            [
                "sample",
                "--config",
                str(FIXTURES / "cnot_error.json"),
                "--shots",
                "20000",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["shots"] == 20000
        assert payload["accepted"] <= payload["shots"]
        assert sum(sum(row) for row in payload["counts"]) == payload["accepted"]
        assert abs(payload["acceptance_rate"] - 0.5) < 0.02
        assert abs(payload["empirical_conditional_expectation"] - 1.0) < 0.05

    def test_sample_determinism(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["sample", "--config", str(FIXTURES / "cnot_error.json"), "--shots", "5000", "--seed", "21"]
        assert main([*base, "--out", str(out_a)]) == 0
        assert main([*base, "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_no_accepted_shot_reports_no_mean(self, capsys):
        # seed 5 draws its one shot into the reject cell: there is no accepted outcome to average
        code = main(["sample", "--config", str(FIXTURES / "generic_violation.json"), "--shots", "1", "--seed", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] == 0
        assert payload["empirical_conditional_expectation"] is None

    def test_an_outcome_that_holds_every_shot_is_sampled(self, tmp_path, capsys):
        # psi = phi is numpy's eigenvector of S for its lowest eigenvalue and xi = e_1 is Z's, so one outcome holds
        # every shot and passes postselection; its cell rounds to 1 + 2**-52, which multinomial refused (exit 2)
        ket = [[-0.7882054380161092, 0.0], [0.6154122094026357, 0.0]]
        raw = {
            "n": 2,
            "m": 2,
            "psi": ket,
            "xi": [[1.0, 0.0], [0.0, 0.0]],
            "phi": ket,
            "observable": {
                "terms": [
                    {
                        "system": [[[-2.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [-1.0, 0.0]]],
                        "device": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                    }
                ]
            },
        }
        path = tmp_path / "eigenvector.json"
        path.write_text(json.dumps(raw))
        assert main(["sample", "--config", str(path), "--shots", "1000", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["accepted"] == payload["shots"] == 1000

    def test_the_largest_int64_shot_count_is_sampled(self, capsys):
        # 2^63 - 1 shots, one multinomial call per shard: exit 0, no warning, and every accepted shot counted once;
        # one shot more is refused (test_bad_flag_is_usage_error[shots-past-int64])
        shots = 2**63 - 1
        assert main(["sample", "--config", str(FIXTURES / "cnot_error.json"), "--shots", str(shots)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["shots"] == shots
        assert sum(sum(row) for row in payload["counts"]) == payload["accepted"] <= shots

    def test_overflowing_payload_is_not_emitted(self, tmp_path, capsys):
        # the empirical mean is inf - inf = NaN; it used to print as a bare NaN, which is not JSON, with exit 0
        assert main(["sample", "--config", huge_config(tmp_path), "--shots", "1000"]) == 1
        assert_one_non_finite_error(capsys.readouterr())

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_factors_whose_hermitian_part_overflows_are_refused_as_non_finite(self, tmp_path, capsys, command):
        # at 1e308 the factors still decompose, as hermitian_part halves before it sums, but the grid and mean
        # products overflow
        assert main([command, "--config", huge_config(tmp_path, 1e308)]) == 1
        assert_one_non_finite_error(capsys.readouterr())

    def test_config_seed_is_default(self, tmp_path, capsys):
        code = main(["sample", "--config", str(FIXTURES / "cnot_error.json"), "--shots", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7  # the fixture's seed field

    @pytest.mark.parametrize(
        "flags",
        [
            ["--term", "5"],
            ["--term", "-1"],
            ["--shots", "0"],
            ["--shots", "9223372036854775808"],
            ["--shards", "0"],
            ["--seed", "-1"],
        ],
        ids=["term-past-end", "negative-term", "zero-shots", "shots-past-int64", "zero-shards", "negative-seed"],
    )
    def test_bad_flag_is_usage_error(self, capsys, flags):
        code = main(["sample", "--config", str(FIXTURES / "cnot_error.json"), "--shots", "100", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert flags[0].lstrip("-") in captured.err  # the message names the offending flag


class TestParser:
    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self):
        assert main(["verify"]) == 2

    def test_parse_grid_forms(self):
        assert parse_grid("0:1:3", "g") == [0.0, 0.5, 1.0]
        assert parse_grid("0.25", "g") == [0.25]
        assert parse_grid("1,2,3", "g") == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError):
            parse_grid("1:2", "g")


def test_sweep_stdout_when_no_out(capsys):
    assert main(["cnot-sweep", "--s-grid", "0.5", "--theta-grid", "0.1", "--varphi-grid", "0.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("s,theta,varphi,epsilon_sq")
    values = lines[1].split(",")
    assert float(values[3]) == pytest.approx(1.0, abs=1e-12)


#: One short run of each subcommand that takes --out.
OUT_COMMANDS = {
    "verify": ["verify", "--config", str(FIXTURES / "cnot_error.json")],
    "cnot-sweep": ["cnot-sweep", "--s-grid", "0.5", "--theta-grid", "0.1", "--varphi-grid", "0.2"],
    "random-audit": ["random-audit", "--count", "2"],
    "sample": ["sample", "--config", str(FIXTURES / "cnot_error.json"), "--shots", "10"],
}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys, argv, where):
    # open() used to raise through main: a FileNotFoundError or IsADirectoryError traceback and exit 1
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: [Errno ")
    assert err.count("\n") == 1 and str(out) in err
    assert "Traceback" not in err


def test_random_audit_checks_out_before_it_runs(tmp_path, capsys, monkeypatch):
    # the table used to be printed in full before the unwritable path failed
    def unreachable(*args, **kwargs):
        raise AssertionError("the audit ran")

    monkeypatch.setattr(cli, "random_audit", unreachable)
    out = tmp_path / "missing" / "x.json"
    assert main(["random-audit", "--count", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: [Errno ") and str(out) in captured.err


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # 3000 instance lines are about 200 KiB, more than a pipe holds (64 KiB), so the writer meets the closed pipe
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(nogosim.__file__).parents[1]), env.get("PYTHONPATH"))))
    with subprocess.Popen(
        [sys.executable, "-m", "nogosim", "random-audit", "--count", "3000"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline().startswith(b"instance 0 seed=(0,0) ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err, err
    assert (code, err) == (141, "")


def _readme_synopsis() -> dict[str, set[str]]:
    """Long options per subcommand, from the README's CLI synopsis block."""
    text = README.read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", text, re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "nogosim", line
        synopsis[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    return synopsis


def _parser_long_options() -> dict[str, set[str]]:
    (subparsers,) = [a for a in build_parser()._actions if a.choices and a.dest == "command"]
    return {
        name: {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }


def test_readme_synopsis_lists_every_long_option():
    assert _readme_synopsis() == _parser_long_options()


def _readme_sketch_values() -> dict[str, object]:
    """Run the README's Library sketch block in order; the value of each bare expression, keyed by its source."""
    text = README.read_text()
    block = re.search(r"## Library sketch\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(source, namespace)
        else:
            exec(source, namespace)
    return values


def test_readme_library_sketch_runs_and_its_comments_hold():
    values = _readme_sketch_values()
    assert values["ng.expectation(scen, 0)"] == pytest.approx(1.0, abs=1e-12)
    assert values["ng.conditional_expectation(scen, 0)"] == pytest.approx(1.0, abs=1e-12)
    verdict = values["ng.verify_nogo(scen)"]
    assert verdict.passed and verdict.hypothesis_holds and verdict.gap <= 1e-12
    report = values["ng.cnot_report(params)"]
    assert report.nogo_gap_error <= 1e-12 and report.nogo_gap_disturbance <= 1e-12


def test_a_config_builds_its_scenario_once(monkeypatch):
    built = []
    scenario_type = config.MeasurementScenario
    monkeypatch.setattr(config, "MeasurementScenario", lambda **kw: built.append(scenario_type(**kw)) or built[-1])
    for name in ("cnot_error.json", "cnot_disturbance.json", "generic_violation.json"):
        built.clear()
        cfg = config.ScenarioConfig.from_path(FIXTURES / name)
        assert len(built) == 1
        assert cfg.scenario() is cfg.scenario() is built[0]
        assert len(built) == 1
        scen = cfg.scenario()
        assert scen.observable is cfg.observable
        for ket, given in ((scen.psi, cfg.psi), (scen.xi, cfg.xi), (scen.postselect, cfg.phi)):
            assert ket.tobytes() == given.tobytes()
    assert "_scenario" not in repr(cfg)


def recursive_encode(arr) -> list:
    """The per-row recursion ``config.encode_complex_array`` replaced."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [recursive_encode(row) for row in arr]


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4)])
def test_encode_complex_array_gives_the_recursive_lists(shape):
    rng = np.random.default_rng(sum(shape))
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    arr.flat[0] = complex(-0.0, -0.0)
    arr.flat[-1] = complex(0.0, -0.0)
    encoded = config.encode_complex_array(arr)
    # repr tells -0.0 from 0.0, and a numpy scalar from a Python float
    assert repr(encoded) == repr(recursive_encode(arr))


@pytest.mark.parametrize(
    "scalar",
    [
        np.bool_(True),
        np.int8(-7),
        np.int64(2**62),
        np.uint64(2**64 - 1),
        np.float32(0.1),
        np.float64(-0.0),
        np.float64(1 / 3),
        np.complex128(1.5 - 0.0j),
        np.longdouble(1.5),
        np.longdouble(1) / 3,
        np.clongdouble(1.5 + 2j),
    ],
    ids=repr,
)
def test_numpy_scalars_serialize_as_their_python_values(scalar):
    if isinstance(scalar, np.bool_):
        expected = bool(scalar)
    elif isinstance(scalar, np.integer):
        expected = int(scalar)
    elif isinstance(scalar, np.complexfloating):
        expected = [float(scalar.real), float(scalar.imag)]
    else:
        expected = float(scalar)
    assert json.dumps(config.to_jsonable(scalar)) == json.dumps(expected)
    assert config.report_json({"x": scalar}) == config.report_json({"x": expected})


def test_an_audit_with_numpy_integer_arguments_serializes_as_with_python_ints():
    assert config.report_json(random_audit(np.int64(3), np.int64(1), "generic")) == config.report_json(
        random_audit(3, 1, "generic")
    )
