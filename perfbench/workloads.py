"""The three benchmark workloads: seeded inputs, the public calls, output checks.

A workload turns a seed into a list of items. ``prepare(item)`` returns a
zero-argument callable that makes the public nogosim calls for that item; only
that callable is timed. ``check`` tests its output against the physics and
returns a problem description, or None. ``digest`` reduces an output to the
values that must repeat exactly: on a second run of the same item, under the
tracer, and in the CLI's output for the same inputs. ``cli_commands`` gives the
CLI runs that cover the same items, and ``check_cli`` parses and checks their
stdout.

Every check is written as ``not (abs(x - ref) <= tol)`` or ``not (x <= tol)``,
so a NaN anywhere counts as a failure.

Functions are looked up on the ``nogosim`` modules at call time, never bound
here, so the tracer's patches see the benchmark's own calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import nogosim as ng
from nogosim import config as ngconfig

TOL = ng.TOL_VERIFY


def close(x, ref, tol: float = TOL) -> bool:
    """False for NaN, unlike ``abs(x - ref) > tol``."""
    return abs(x - ref) <= tol


def small(x, tol: float = TOL) -> bool:
    return x is not None and x <= tol


# --- cnot_sweep ---------------------------------------------------------------

SWEEP_COLUMNS = (
    "s",
    "theta",
    "varphi",
    "epsilon_sq",
    "epsilon_sq_post",
    "eta_sq",
    "eta_sq_post",
    "gap_error",
    "gap_disturbance",
)


def _cnot_problem(s: float, values) -> str | None:
    eps, eps_post, eta, eta_post, gap_e, gap_d = values
    ref_eps = 2.0 * (1.0 - s)
    ref_eta = 2.0 * (1.0 - math.sqrt(1.0 - s * s))
    if not (close(eps, ref_eps) and close(eps_post, ref_eps)):
        return f"s={s!r}: epsilon^2 {eps!r} / post {eps_post!r} != 2(1-s) = {ref_eps!r}"
    if not (close(eta, ref_eta) and close(eta_post, ref_eta)):
        return f"s={s!r}: eta^2 {eta!r} / post {eta_post!r} != 2(1-sqrt(1-s^2)) = {ref_eta!r}"
    if not (small(gap_e) and small(gap_d)):
        return f"s={s!r}: no-go gaps {gap_e!r}, {gap_d!r} exceed {TOL}"
    return None


class CnotSweep:
    """Seeded (s, theta, varphi) product grid; one ``cnot_report`` per point.

    Every point shares the same two CNOT operators, so caching or batching
    spectral data shows here, and so does dropping unused ``CnotBundle`` work.
    The solver only ever sees d = 2.
    """

    name = "cnot_sweep"
    grid_shape = (15, 6, 6)  # 540 points, more than the CLI's default 315

    def items(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        n_s, n_theta, n_varphi = self.grid_shape
        s_grid = sorted([0.0, 1.0, *(float(x) for x in rng.uniform(0.0, 1.0, n_s - 2))])
        theta_grid = sorted(float(x) for x in rng.uniform(0.0, math.pi, n_theta))
        varphi_grid = sorted(float(x) for x in rng.uniform(0.0, 2.0 * math.pi, n_varphi))
        # the CLI loops s, then theta, then varphi: keep its row order
        return [(s, theta, varphi) for s in s_grid for theta in theta_grid for varphi in varphi_grid]

    def prepare(self, item):
        s, theta, varphi = item
        return lambda: ng.cnot_report(ng.CnotScenario(strength=s, theta=theta, varphi=varphi))

    def digest(self, report) -> tuple:
        return (
            report.epsilon_sq,
            report.epsilon_sq_post,
            report.eta_sq,
            report.eta_sq_post,
            report.nogo_gap_error,
            report.nogo_gap_disturbance,
        )

    def check(self, item, report) -> str | None:
        return _cnot_problem(item[0], self.digest(report))

    def cli_commands(self, seed: int, items: list) -> list:
        grids = [sorted({item[axis] for item in items}) for axis in range(3)]
        flags = ("--s-grid", "--theta-grid", "--varphi-grid")
        argv = ["cnot-sweep"]
        for flag, grid in zip(flags, grids):
            argv += [flag, ",".join(repr(v) for v in grid)]
        return [argv]

    def check_cli(self, items: list, runs: list, references: dict) -> tuple[int, list]:
        (code, text), = runs
        if code != 0:
            return len(items), [f"cnot-sweep exited {code}"]
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
            return len(items), ["cnot-sweep CSV header differs"]
        body = rows[1:]
        problems = []
        if len(body) != len(items):
            problems.append(f"cnot-sweep printed {len(body)} rows for {len(items)} points")
        for index, (item, row) in enumerate(zip(items, body)):
            values = tuple(float(v) for v in row)
            if values[:3] != item:
                problems.append(f"row {index}: inputs {values[:3]} != {item}")
            elif index in references and values[3:] != references[index]:
                problems.append(f"row {index}: CLI values differ from the library's")
            else:
                problem = _cnot_problem(values[0], values[3:])
                if problem:
                    problems.append(f"row {index}: {problem}")
        return len(items), problems


# --- random_audit -------------------------------------------------------------

INSTANCE_LINE = re.compile(
    r"instance (\d+) seed=\((\d+),(\d+)\) n=(\d+) m=(\d+) hypothesis=(True|False) basis=(True|False) gap=(\S+)$"
)
SUMMARY_LINE = re.compile(r"summary mode=(\w+) count=(\d+) violations=(\d+) ")
MODES = ("degenerate", "generic")


def _audit_problem(mode: str, n: int, m: int, hypothesis: bool, basis: bool, gap: float, closed_gap) -> str | None:
    if mode == "degenerate":
        if not (hypothesis and basis and small(gap) and small(closed_gap)):
            return (
                f"degenerate {n}x{m}: hypothesis={hypothesis} basis={basis} "
                f"gap={gap!r} closed_form_gap={closed_gap!r}"
            )
    elif not math.isfinite(gap):
        return f"generic {n}x{m}: gap {gap!r} is not finite"
    return None


class RandomAudit:
    """Seeded instances, n, m in {2, 3}, half degenerate and half generic.

    Item (mode, i) is ``random_scenario`` plus ``verify_nogo`` on the generator
    seeded by (seed, i), exactly as ``random-audit --seed seed`` draws instance
    i. No two instances share an observable, so caching gains nothing; the
    eigensolver dominates self time, so a solver swap or a batched eigh shows.
    """

    name = "random_audit"
    per_mode = 250  # instances per mode in one CLI run: the first items of the list
    in_process_per_mode = 20_000  # enough that a run never repeats an instance

    def items(self, seed: int) -> list:
        return [(seed, mode, index) for index in range(self.in_process_per_mode) for mode in MODES]

    def prepare(self, item):
        seed, mode, index = item
        rng = np.random.default_rng((seed, index))
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))

        def run():
            scenario = ng.random_scenario(rng, n, m, degenerate=(mode == "degenerate"))
            return n, m, ng.verify_nogo(scenario)

        return run

    def digest(self, output) -> tuple:
        n, m, verdict = output
        return (n, m, verdict.hypothesis_holds, verdict.basis_requirement_holds, verdict.gap)

    def check(self, item, output) -> str | None:
        n, m, verdict = output
        problem = _audit_problem(
            item[1], n, m, verdict.hypothesis_holds, verdict.basis_requirement_holds, verdict.gap, verdict.closed_form_gap
        )
        if problem is None and item[1] == "degenerate" and not verdict.passed:
            problem = f"degenerate {n}x{m}: verdict did not pass"
        if problem is None and not (math.isfinite(verdict.conditional) and math.isfinite(verdict.unconditional)):
            problem = f"{item[1]} {n}x{m}: non-finite expectation"
        return problem

    def cli_commands(self, seed: int, items: list) -> list:
        return [["random-audit", "--count", str(self.per_mode), "--mode", mode, "--seed", str(seed)] for mode in MODES]

    def check_cli(self, items: list, runs: list, references: dict) -> tuple[int, list]:
        seed = items[0][0]
        position = {item[1:]: k for k, item in enumerate(items)}
        problems = []
        for mode, (code, text) in zip(MODES, runs):
            if code != 0:
                problems.append(f"random-audit --mode {mode} exited {code}")
            lines = text.splitlines()
            summary = SUMMARY_LINE.match(lines[-1]) if lines else None
            if summary is None or summary.groups() != (mode, str(self.per_mode), "0"):
                problems.append(f"random-audit --mode {mode}: summary line {lines[-1:]!r}")
            seen = 0
            for line in lines[:-1]:
                match = INSTANCE_LINE.match(line)
                if match is None:
                    problems.append(f"random-audit --mode {mode}: unparsed line {line!r}")
                    continue
                index, line_seed, line_index, n, m = (int(g) for g in match.groups()[:5])
                hypothesis, basis = match.group(6) == "True", match.group(7) == "True"
                gap = float(match.group(8))
                seen += 1
                k = position.get((mode, index))
                if line_seed != seed or line_index != index or k is None:
                    problems.append(f"random-audit --mode {mode}: unexpected instance {line!r}")
                elif k in references and (n, m, hypothesis, basis, gap) != references[k]:
                    problems.append(f"random-audit --mode {mode}: instance {index} differs from the library's")
                else:
                    # the CLI prints no closed-form gap; the library check covers it
                    problem = _audit_problem(mode, n, m, hypothesis, basis, gap, 0.0)
                    if problem:
                        problems.append(f"instance {index}: {problem}")
            if seen != self.per_mode:
                problems.append(f"random-audit --mode {mode} printed {seen} instances, expected {self.per_mode}")
        return len(MODES) * self.per_mode, problems


# --- fixture_oracle -----------------------------------------------------------

FIXTURE_DIR = Path(ng.__file__).resolve().parent / "fixtures"
#: ``verify`` passes on every bundled fixture at the seed state (exit code 0).
EXPECTED_VERIFY_PASSED = {"cnot_disturbance.json": True, "cnot_error.json": True, "generic_violation.json": True}
SAMPLE_SIGMAS = 5.0


def _without_wall_time(report_text: str) -> dict:
    payload = json.loads(report_text)
    payload.pop("wall_time_s", None)
    return payload


@dataclass(frozen=True)
class FixtureOutput:
    scenario: object
    report: object
    text: str
    enumeration: object
    sample: object


class FixtureOracle:
    """Round-robin over the bundled fixtures through config, nogo and oracle.

    Each item loads the JSON, runs the ``verify`` pipeline, serializes the
    report, enumerates the two-step process and draws a seeded, sharded
    sample sized so that sampling is most of the item. The random number
    generator bounds it, so formula-path optimizations should leave it flat;
    any change to the oracle's solver shows here.
    """

    name = "fixture_oracle"
    rounds = 10
    shots = 400_000
    shards = 4

    def items(self, seed: int) -> list:
        fixtures = sorted(FIXTURE_DIR.glob("*.json"))
        count = self.rounds * len(fixtures)
        return [(fixtures[k % len(fixtures)], seed * count + k) for k in range(count)]

    def prepare(self, item):
        path, sample_seed = item

        def run():
            start = perf_counter()
            cfg = ngconfig.ScenarioConfig.from_path(path)
            tol_deg = ng.TOL_DEG if cfg.tol_deg is None else cfg.tol_deg
            tol_verify = ng.TOL_VERIFY if cfg.tol_verify is None else cfg.tol_verify
            scenario = cfg.scenario()
            spectral = ng.product_spectral(scenario.observable, tol_deg)
            degeneracy = ng.check_rank_m_degeneracy(spectral, tol_deg)
            verdict = ng.verify_nogo(
                scenario, tol_deg=tol_deg, tol_verify=tol_verify, tol_p=cfg.tol_postselect, spectral=spectral
            )
            error_disturbance = None
            if cfg.interaction is not None and cfg.setup is not None:
                error_disturbance = ng.postselected_error_disturbance(
                    cfg.interaction, cfg.setup, cfg.psi, cfg.xi, cfg.phi,
                    tol_deg=tol_deg, tol_verify=tol_verify, tol_p=cfg.tol_postselect,
                )
            report = ngconfig.RunReport(
                config_sha256=ngconfig.config_sha256(path),
                degeneracy=degeneracy,
                verdict=verdict,
                error_disturbance=error_disturbance,
                wall_time_s=perf_counter() - start,
            )
            text = ngconfig.report_json(report)
            enumeration = ng.enumerate_two_step(scenario, tol_p=cfg.tol_postselect)
            sample = ng.sample_two_step(scenario, shots=self.shots, seed=sample_seed, shards=self.shards)
            return FixtureOutput(scenario, report, text, enumeration, sample)

        return run

    def digest(self, out) -> tuple:
        return (
            json.dumps(_without_wall_time(out.text), sort_keys=True),
            tuple(out.sample.counts.ravel().tolist()),
            out.sample.accepted,
        )

    def check(self, item, out) -> str | None:
        name = item[0].name
        if out.report.passed != EXPECTED_VERIFY_PASSED[name]:
            return f"{name}: verify passed={out.report.passed}, expected {EXPECTED_VERIFY_PASSED[name]}"
        for k in range(out.scenario.observable.num_terms):
            formula = ng.conditional_expectation(out.scenario, k)
            oracle = out.enumeration.conditional_expectation(k)
            if not close(oracle, formula):
                return f"{name}: term {k} enumeration {oracle!r} != formula {formula!r}"
        values = out.enumeration.values[0]
        probs = out.enumeration.conditional[0]
        exact = float(np.sum(values * probs))
        spread = math.sqrt(float(np.sum(probs * (values - exact) ** 2)) / max(out.sample.accepted, 1))
        sampled = out.sample.conditional_expectation(values)
        if out.sample.accepted == 0 or not close(sampled, exact, SAMPLE_SIGMAS * spread + TOL):
            return f"{name}: sampled mean {sampled!r} is more than {SAMPLE_SIGMAS} SE from {exact!r}"
        return None

    def cli_commands(self, seed: int, items: list) -> list:
        commands = []
        for path, sample_seed in items[: len(EXPECTED_VERIFY_PASSED)]:
            commands.append(["verify", "--config", str(path)])
            commands.append(
                ["sample", "--config", str(path), "--shots", str(self.shots),
                 "--seed", str(sample_seed), "--shards", str(self.shards)]
            )
        return commands

    def check_cli(self, items: list, runs: list, references: dict) -> tuple[int, list]:
        problems = []
        for k, (path, _) in enumerate(items[: len(EXPECTED_VERIFY_PASSED)]):
            (verify_code, verify_text), (sample_code, sample_text) = runs[2 * k : 2 * k + 2]
            expected_code = 0 if EXPECTED_VERIFY_PASSED[path.name] else 1
            if verify_code != expected_code or sample_code != 0:
                problems.append(f"{path.name}: verify exited {verify_code}, sample exited {sample_code}")
                continue
            try:
                report = _without_wall_time(verify_text)
                sample = json.loads(sample_text)
            except json.JSONDecodeError as exc:
                problems.append(f"{path.name}: CLI output is not JSON ({exc})")
                continue
            digest = (
                json.dumps(report, sort_keys=True),
                tuple(c for row in sample["counts"] for c in row),
                sample["accepted"],
            )
            if sample["shots"] != self.shots or sum(digest[1]) != sample["accepted"]:
                problems.append(f"{path.name}: sample counts do not add up")
            elif k in references and digest != references[k]:
                problems.append(f"{path.name}: CLI report or counts differ from the library's")
            elif report["verdict"]["hypothesis_holds"] and not small(report["verdict"]["gap"]):
                problems.append(f"{path.name}: CLI gap {report['verdict']['gap']!r} exceeds {TOL}")
        return len(EXPECTED_VERIFY_PASSED), problems


WORKLOADS = {w.name: w for w in (CnotSweep(), RandomAudit(), FixtureOracle())}
