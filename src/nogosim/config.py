"""JSON scenario configuration and report serialization.

Complex numbers are encoded as [re, im] pairs everywhere: a ket is a list of
pairs, a matrix a list of rows of pairs. Reports are serialized with sorted
keys and default float formatting (shortest round-trip), so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NogoSimError
from .error_disturbance import ErrorDisturbanceReport, InteractionModel, MeasurementSetup
from .linalg import TOL_POSTSELECT
from .measurement import JointObservable, MeasurementScenario
from .nogo import DegeneracyReport, TheoremVerdict


def _require_number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value


def require_tolerance(obj, where: str) -> float:
    """A finite, non-negative number; a NaN tolerance would let every ``x > tol`` gate pass."""
    value = _require_number(obj, where)
    if value < 0.0:
        raise ConfigError(f"{where}: expected a non-negative tolerance, got {value!r}")
    return value


def _complex_scalar(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ConfigError(f"{where}: complex entries must be [re, im] pairs")
    return complex(_require_number(obj[0], where), _require_number(obj[1], where))


def parse_ket(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigError(f"{where}: expected {dim} amplitude pairs")
    return np.array([_complex_scalar(entry, f"{where}[{k}]") for k, entry in enumerate(obj)])


def parse_matrix(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ConfigError(f"{where}: expected {dim} rows")
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ConfigError(f"{where}: row {r} must hold {dim} entries")
        rows.append([_complex_scalar(entry, f"{where}[{r}][{c}]") for c, entry in enumerate(row)])
    return np.array(rows)


def encode_complex_array(arr: np.ndarray) -> list:
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in arr]
    return [encode_complex_array(row) for row in arr]


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario inputs loaded from a JSON file."""

    n: int
    m: int
    psi: np.ndarray
    xi: np.ndarray
    phi: np.ndarray | None
    observable: JointObservable | None
    interaction: InteractionModel | None
    setup: MeasurementSetup | None
    tol_deg: float | None
    tol_verify: float | None
    tol_postselect: float
    seed: int | None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        try:
            n = int(raw["n"])
            m = int(raw["m"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("configuration needs integer fields 'n' and 'm'") from exc
        if n < 1 or m < 1:
            raise ConfigError("'n' and 'm' must be positive")

        tolerances = raw.get("tolerances") or {}
        if not isinstance(tolerances, dict):
            raise ConfigError("'tolerances' must be an object")
        # absent entries stay None so the CLI can fall back to env/builtin defaults
        tol_deg = require_tolerance(tolerances["deg"], "tolerances.deg") if "deg" in tolerances else None
        tol_verify = require_tolerance(tolerances["verify"], "tolerances.verify") if "verify" in tolerances else None
        tol_post = require_tolerance(tolerances.get("postselect", TOL_POSTSELECT), "tolerances.postselect")

        seed = raw.get("seed")
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            raise ConfigError("'seed' must be an integer")

        try:
            psi = parse_ket(raw["psi"], n, "psi") if "psi" in raw else None
            xi = parse_ket(raw["xi"], m, "xi") if "xi" in raw else None
            if psi is None or xi is None:
                raise ConfigError("configuration needs 'psi' and 'xi'")
            phi = parse_ket(raw["phi"], n, "phi") if raw.get("phi") is not None else None

            observable = None
            if raw.get("observable") is not None:
                obs_raw = raw["observable"]
                if not isinstance(obs_raw, dict) or not isinstance(obs_raw.get("terms"), list) or not obs_raw["terms"]:
                    raise ConfigError("'observable.terms' must be a non-empty list")
                terms = []
                for k, entry in enumerate(obs_raw["terms"]):
                    if not isinstance(entry, dict):
                        raise ConfigError(f"observable.terms[{k}] must be an object")
                    terms.append(
                        (
                            parse_matrix(entry.get("system"), n, f"observable.terms[{k}].system"),
                            parse_matrix(entry.get("device"), m, f"observable.terms[{k}].device"),
                        )
                    )
                observable = JointObservable(n=n, m=m, terms=tuple(terms))

            interaction = None
            if raw.get("interaction") is not None:
                inter = raw["interaction"]
                if not isinstance(inter, dict):
                    raise ConfigError("'interaction' must be an object")
                if "unitary" in inter:
                    interaction = InteractionModel.from_unitary(
                        parse_matrix(inter["unitary"], n * m, "interaction.unitary")
                    )
                else:
                    interaction = InteractionModel.from_hamiltonians(
                        parse_matrix(inter.get("h_system"), n, "interaction.h_system"),
                        parse_matrix(inter.get("h_device"), m, "interaction.h_device"),
                        _require_number(inter.get("t"), "interaction.t"),
                    )

            setup = None
            if raw.get("setup") is not None:
                setup_raw = raw["setup"]
                if not isinstance(setup_raw, dict):
                    raise ConfigError("'setup' must be an object")
                setup = MeasurementSetup(
                    measured=parse_matrix(setup_raw.get("measured"), n, "setup.measured"),
                    disturbed=parse_matrix(setup_raw.get("disturbed"), n, "setup.disturbed"),
                    readout=parse_matrix(setup_raw.get("readout"), m, "setup.readout"),
                )

            if observable is not None:
                MeasurementScenario(psi=psi, xi=xi, observable=observable, postselect=phi)
        except ConfigError:
            raise
        except (NogoSimError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

        return cls(
            n=n,
            m=m,
            psi=psi,
            xi=xi,
            phi=phi,
            observable=observable,
            interaction=interaction,
            setup=setup,
            tol_deg=tol_deg,
            tol_verify=tol_verify,
            tol_postselect=tol_post,
            seed=seed,
        )

    @classmethod
    def from_path(cls, path) -> "ScenarioConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read configuration: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def scenario(self) -> MeasurementScenario:
        if self.observable is None:
            raise ConfigError("configuration has no 'observable' block")
        return MeasurementScenario(psi=self.psi, xi=self.xi, observable=self.observable, postselect=self.phi)


@dataclass(frozen=True)
class RunReport:
    """Verification output for one configuration."""

    config_sha256: str
    degeneracy: DegeneracyReport
    verdict: TheoremVerdict
    error_disturbance: ErrorDisturbanceReport | None
    wall_time_s: float

    @property
    def passed(self) -> bool:
        if not self.verdict.passed:
            return False
        if self.error_disturbance is None:
            return True
        return self.error_disturbance.error_verdict.passed and self.error_disturbance.disturbance_verdict.passed


def config_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def to_jsonable(obj):
    """Recursive conversion to JSON-safe values; complex data becomes [re, im]."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return encode_complex_array(obj)
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(entry) for entry in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_json(report) -> str:
    """Sorted, indented JSON; a NaN or Inf value raises NogoSimError instead of yielding invalid JSON."""
    try:
        return json.dumps(to_jsonable(report), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NogoSimError(f"report has a non-finite value: {exc}") from exc
