"""Command line front end.

Subcommands: verify (run the invariance checks on a JSON scenario),
cnot-sweep (emit the analytic error/disturbance table over parameter grids),
random-audit (batch random-instance verification), sample (Monte Carlo
counts for one scenario term). Exit codes: 0 success, 1 verification
failure, 2 usage or configuration error, 141 (128 + SIGPIPE, as a shell
reports a process that SIGPIPE ended) when the reader closes stdout
early, as ``| head`` does. NOGO_DEFAULT_TOL overrides the
built-in degeneracy/verification tolerances when flags and config stay
silent.

Only the no-go core is imported at the top; each ``cmd_*`` imports the
layers it runs (``config``, ``error_disturbance``, ``oracle``, ``json``),
so a subcommand never compiles or runs modules it does not call.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from time import perf_counter

import numpy as np

from .errors import ConfigError, NogoSimError, require_tolerance
from .linalg import TOL_DEG, TOL_VERIFY
from .measurement import product_spectral
from .nogo import check_rank_m_degeneracy, random_audit, verify_nogo

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


def _env_default(builtin: float) -> float:
    raw = os.environ.get("NOGO_DEFAULT_TOL")
    if raw is None:
        return builtin
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"NOGO_DEFAULT_TOL is not a number: {raw!r}") from exc
    return require_tolerance(value, "NOGO_DEFAULT_TOL")


def _resolve_tol(flag_value: float | None, flag: str, config_value: float | None, builtin: float) -> float:
    """Flag, then config (validated on load), then environment, then built-in default."""
    if flag_value is not None:
        return require_tolerance(flag_value, flag)
    if config_value is not None:
        return config_value
    return _env_default(builtin)


def parse_grid(spec: str, where: str) -> list[float]:
    """Either 'start:stop:count' (inclusive linspace) or a comma list."""
    spec = spec.strip()
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:count")
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError("count must be at least 1")
            if count == 1:
                return [start]
            step = (stop - start) / (count - 1)
            return [start + k * step for k in range(count)]
        values = [float(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid grid spec {spec!r} ({exc})") from exc
    if not values:
        raise ConfigError(f"{where}: grid is empty")
    return values


def _emit(text: str, out_path: str | None) -> None:
    """Write text to stdout (newline-terminated) or to out_path; a path that cannot be written is a usage error."""
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def cmd_verify(args) -> int:
    from .config import RunReport, ScenarioConfig, config_sha256, report_json

    t0 = perf_counter()
    config = ScenarioConfig.from_path(args.config)
    tol_deg = _resolve_tol(args.tol_deg, "--tol-deg", config.tol_deg, TOL_DEG)
    tol_verify = _resolve_tol(args.tol_verify, "--tol-verify", config.tol_verify, TOL_VERIFY)

    scenario = config.scenario()
    if config.phi is None:
        raise ConfigError("verify needs a 'phi' postselection state")
    degeneracy = check_rank_m_degeneracy(product_spectral(scenario.observable, tol_deg), tol_deg)
    verdict = verify_nogo(scenario, tol_deg=tol_deg, tol_verify=tol_verify, tol_p=config.tol_postselect)

    error_disturbance = None
    if config.interaction is not None:  # from_dict admits interaction and setup only together
        from .error_disturbance import postselected_error_disturbance

        error_disturbance = postselected_error_disturbance(
            config.interaction,
            config.setup,
            config.psi,
            config.xi,
            config.phi,
            tol_deg=tol_deg,
            tol_verify=tol_verify,
            tol_p=config.tol_postselect,
        )

    report = RunReport(
        config_sha256=config_sha256(args.config),
        degeneracy=degeneracy,
        verdict=verdict,
        error_disturbance=error_disturbance,
        wall_time_s=perf_counter() - t0,
    )
    _emit(report_json(report), args.out)
    return 0 if report.passed else 1


def cmd_cnot_sweep(args) -> int:
    import itertools

    from .error_disturbance import DEFAULT_STRENGTH_GRID, DEFAULT_THETA_GRID, DEFAULT_VARPHI_GRID, cnot_sweep

    tol_deg = _resolve_tol(args.tol_deg, "--tol-deg", None, TOL_DEG)
    tol_verify = _resolve_tol(args.tol_verify, "--tol-verify", None, TOL_VERIFY)
    s_grid = parse_grid(args.s_grid, "--s-grid") if args.s_grid else list(DEFAULT_STRENGTH_GRID)
    theta_grid = parse_grid(args.theta_grid, "--theta-grid") if args.theta_grid else list(DEFAULT_THETA_GRID)
    varphi_grid = parse_grid(args.varphi_grid, "--varphi-grid") if args.varphi_grid else list(DEFAULT_VARPHI_GRID)
    for s in s_grid:
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"--s-grid: strength {s!r} outside [0, 1]")
    for value in (*theta_grid, *varphi_grid):
        if not math.isfinite(value):
            raise ConfigError("angle grids must be finite")

    reports = cnot_sweep(s_grid, theta_grid, varphi_grid, tol_deg=tol_deg, tol_verify=tol_verify)
    rows = [
        (*point, r.epsilon_sq, r.epsilon_sq_post, r.eta_sq, r.eta_sq_post, r.nogo_gap_error, r.nogo_gap_disturbance)
        for point, r in zip(itertools.product(s_grid, theta_grid, varphi_grid), reports)
    ]

    if args.format == "json":
        import json

        payload = [dict(zip(SWEEP_COLUMNS, row)) for row in rows]
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        # csv.writer's bytes: repr of a float never needs quoting, and every value is already a Python float
        lines = [",".join(SWEEP_COLUMNS), *(",".join(map(repr, row)) for row in rows)]
        _emit("\r\n".join(lines) + "\r\n", args.out)
    return 0


def cmd_random_audit(args) -> int:
    if args.count < 1:
        raise ConfigError("--count must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    tol_deg = _resolve_tol(args.tol_deg, "--tol-deg", None, TOL_DEG)
    tol_verify = _resolve_tol(args.tol_verify, "--tol-verify", None, TOL_VERIFY)
    n = m = None
    if args.dims:
        parts = args.dims.split(",")
        if len(parts) != 2:
            raise ConfigError("--dims expects 'n,m'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"--dims expects integers: {args.dims!r}") from exc
        if n < 1 or m < 1:
            raise ConfigError("--dims entries must be positive")

    if args.out:
        _emit("", args.out)  # the table goes to stdout before the report: a path that cannot be written fails first
    summary = random_audit(
        count=args.count, seed=args.seed, mode=args.mode, n=n, m=m, tol_deg=tol_deg, tol_verify=tol_verify
    )
    for inst in summary.instances:
        print(
            f"instance {inst.index} seed=({summary.seed},{inst.index}) n={inst.n} m={inst.m} "
            f"hypothesis={inst.hypothesis_holds} basis={inst.basis_requirement_holds} gap={inst.gap!r}"
        )
    print(
        f"summary mode={summary.mode} count={summary.count} violations={summary.violations} "
        f"gap_min={summary.gap_min!r} gap_median={summary.gap_median!r} gap_max={summary.gap_max!r}"
    )
    if args.out:
        from .config import report_json

        _emit(report_json(summary), args.out)
    if summary.mode == "degenerate" and summary.violations > 0:
        return 1
    return 0


def cmd_sample(args) -> int:
    from .config import ScenarioConfig, report_json
    from .oracle import sample_two_step

    config = ScenarioConfig.from_path(args.config)
    scenario = config.scenario()
    if config.phi is None:
        raise ConfigError("sample needs a 'phi' postselection state")
    seed = args.seed if args.seed is not None else (config.seed if config.seed is not None else 0)
    tol_deg = _resolve_tol(None, "--tol-deg", config.tol_deg, TOL_DEG)  # the basis verify reports on
    try:
        result = sample_two_step(
            scenario, shots=args.shots, seed=seed, term=args.term, shards=args.shards, tol_deg=tol_deg
        )
    except ValueError as exc:  # --shots, --shards, --seed or --term out of range
        raise ConfigError(str(exc)) from exc
    grid = product_spectral(scenario.observable).grids[args.term]
    payload = {
        "seed": result.seed,
        "shots": result.shots,
        "accepted": result.accepted,
        "counts": result.counts.tolist(),
        "acceptance_rate": result.accepted / result.shots,
        "empirical_conditional_expectation": result.conditional_expectation(grid),
    }
    _emit(report_json(payload), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nogosim",
        description="Postselected measurement statistics and invariance verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a JSON scenario configuration")
    verify.add_argument("--config", required=True, help="path to the scenario JSON")
    verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    verify.add_argument("--tol-deg", type=float, default=None, dest="tol_deg")
    verify.add_argument("--tol-verify", type=float, default=None, dest="tol_verify")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("cnot-sweep", help="emit the controlled-NOT error/disturbance table")
    sweep.add_argument("--s-grid", default=None, dest="s_grid", help="'start:stop:count' or comma list")
    sweep.add_argument("--theta-grid", default=None, dest="theta_grid")
    sweep.add_argument("--varphi-grid", default=None, dest="varphi_grid")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--tol-deg", type=float, default=None, dest="tol_deg")
    sweep.add_argument("--tol-verify", type=float, default=None, dest="tol_verify")
    sweep.set_defaults(func=cmd_cnot_sweep)

    audit = sub.add_parser("random-audit", help="verify seeded random instances in batch")
    audit.add_argument("--count", type=int, required=True)
    audit.add_argument("--mode", choices=("degenerate", "generic"), default="degenerate")
    audit.add_argument("--dims", default=None, help="'n,m' to pin dimensions (default: mixed 2 and 3)")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--out", default=None)
    audit.add_argument("--tol-deg", type=float, default=None, dest="tol_deg")
    audit.add_argument("--tol-verify", type=float, default=None, dest="tol_verify")
    audit.set_defaults(func=cmd_random_audit)

    sample = sub.add_parser("sample", help="Monte Carlo sample one scenario term")
    sample.add_argument("--config", required=True)
    sample.add_argument("--shots", type=int, default=10_000)
    sample.add_argument("--seed", type=int, default=None)
    sample.add_argument("--term", type=int, default=0)
    sample.add_argument("--shards", type=int, default=1)
    sample.add_argument("--out", default=None)
    sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # one errstate per run, so no kernel call pays for its own; a non-finite result is still refused: report_json
        # writes verify's and sample's reports with allow_nan=False, and the sweep and the audit read bounded inputs
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NogoSimError as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
