"""JSON scenario configuration and report serialization.

Complex numbers are encoded as [re, im] pairs everywhere: a ket is a list of
pairs, a matrix a list of rows of pairs. Reports are serialized with sorted
keys and default float formatting (shortest round-trip), so identical inputs
produce byte-identical output.

``error_disturbance`` is imported only where an interaction or setup block is
built, so a config without them never loads it; its types are annotations
here, which ``from __future__ import annotations`` leaves unevaluated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NogoSimError, _require_number, require_tolerance
from .linalg import TOL_POSTSELECT
from .measurement import JointObservable, MeasurementScenario
from .nogo import DegeneracyReport, TheoremVerdict


def _require_known_keys(block: dict, known: tuple[str, ...], where: str) -> None:
    """A misspelled key would otherwise fall back to its default without a word."""
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {', '.join(map(repr, unknown))}")


def _optional_block(raw: dict, key: str, known: tuple[str, ...]) -> dict | None:
    """raw[key] as an object of known keys; None when absent or null, and any other non-object is refused."""
    block = raw.get(key)
    if block is None:
        return None
    if not isinstance(block, dict):
        raise ConfigError(f"'{key}' must be an object")
    _require_known_keys(block, known, f"'{key}'")
    return block


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
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):
        # scenario()'s one checked scenario: a plain attribute like JointObservable's memos, so fields() skip it
        scenario = None
        if self.observable is not None:
            scenario = MeasurementScenario(psi=self.psi, xi=self.xi, observable=self.observable, postselect=self.phi)
        object.__setattr__(self, "_scenario", scenario)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        _require_known_keys(
            raw,
            ("n", "m", "psi", "xi", "phi", "observable", "interaction", "setup", "tolerances", "seed"),
            "configuration",
        )
        n, m = raw.get("n"), raw.get("m")
        # int() would truncate 2.9, parse "2" and turn true into 1; reject them as 'seed' is rejected
        if any(isinstance(dim, bool) or not isinstance(dim, int) for dim in (n, m)):
            raise ConfigError("configuration needs integer fields 'n' and 'm'")
        if n < 1 or m < 1:
            raise ConfigError("'n' and 'm' must be positive")

        tolerances = _optional_block(raw, "tolerances", ("deg", "verify", "postselect")) or {}
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
            obs_raw = _optional_block(raw, "observable", ("terms",))
            if obs_raw is not None:
                if not isinstance(obs_raw.get("terms"), list) or not obs_raw["terms"]:
                    raise ConfigError("'observable.terms' must be a non-empty list")
                terms = []
                for k, entry in enumerate(obs_raw["terms"]):
                    if not isinstance(entry, dict):
                        raise ConfigError(f"observable.terms[{k}] must be an object")
                    _require_known_keys(entry, ("system", "device"), f"observable.terms[{k}]")
                    terms.append(
                        (
                            parse_matrix(entry.get("system"), n, f"observable.terms[{k}].system"),
                            parse_matrix(entry.get("device"), m, f"observable.terms[{k}].device"),
                        )
                    )
                observable = JointObservable(n=n, m=m, terms=tuple(terms))

            inter = _optional_block(raw, "interaction", ("unitary", "h_system", "h_device", "t"))
            setup_raw = _optional_block(raw, "setup", ("measured", "disturbed", "readout"))
            # one without the other would drop the error/disturbance report without a word
            if (inter is None) != (setup_raw is None):
                raise ConfigError("'interaction' and 'setup' must be given together")

            interaction = None
            if inter is not None:
                from .error_disturbance import InteractionModel

                # every key present is parsed, so InteractionModel sees, and refuses, both forms at once
                interaction = InteractionModel(
                    unitary=parse_matrix(inter["unitary"], n * m, "interaction.unitary") if "unitary" in inter else None,
                    h_system=parse_matrix(inter["h_system"], n, "interaction.h_system") if "h_system" in inter else None,
                    h_device=parse_matrix(inter["h_device"], m, "interaction.h_device") if "h_device" in inter else None,
                    t=_require_number(inter["t"], "interaction.t") if "t" in inter else None,
                )

            setup = None
            if setup_raw is not None:
                from .error_disturbance import MeasurementSetup

                setup = MeasurementSetup(
                    measured=parse_matrix(setup_raw.get("measured"), n, "setup.measured"),
                    disturbed=parse_matrix(setup_raw.get("disturbed"), n, "setup.disturbed"),
                    readout=parse_matrix(setup_raw.get("readout"), m, "setup.readout"),
                )

            # __post_init__ checks the kets against the observable
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
        except ConfigError:
            raise
        except (NogoSimError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

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
        """The scenario built and checked with the configuration, the same object on every call."""
        if self._scenario is None:
            raise ConfigError("configuration has no 'observable' block")
        return self._scenario


@dataclass(frozen=True, eq=False)
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
    if isinstance(obj, np.generic):  # a numpy scalar as its Python value
        if isinstance(obj, np.inexact):  # not .item(): it returns a long double itself where that is wider than float64
            obj = complex(obj) if isinstance(obj, np.complexfloating) else float(obj)
        else:
            obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
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
