"""Print a sha256 prefix of every CLI output that a byte-identical change must keep.

Usage: python scripts/output_digests.py

Each command runs in a fresh interpreter on this checkout's src/, and must
exit 0 with nothing on stderr, so a numpy warning or a stray print fails the
run. The script prints one ``name prefix`` line per command, the prefix
being the first 16 hex digits of the sha256 of its stdout. ``verify``
reports carry their wall time, so the script drops ``wall_time_s`` and
digests ``json.dumps(report, sort_keys=True)`` plus a newline. Run it at two commits
and diff the outputs: equal lines mean equal outputs on this numpy build.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "nogosim" / "fixtures"
FIXTURE_NAMES = ("cnot_disturbance", "cnot_error", "generic_violation")


def generated_cnot_config(path: Path) -> None:
    """cnot_error.json with its interaction in the generated form: exp(i pi/4 (I - Z) (x) (I - X)) = CNOT."""
    raw = json.loads((FIXTURES / "cnot_error.json").read_text())
    h_system, h_device = [[0, 0], [0, 2]], [[1, -1], [-1, 1]]
    raw["interaction"] = {
        "h_system": [[[float(x), 0.0] for x in row] for row in h_system],
        "h_device": [[[float(x), 0.0] for x in row] for row in h_device],
        "t": -math.pi / 4,
    }
    path.write_text(json.dumps(raw))


def generated_3x3_config(path: Path) -> None:
    """The largest oracle case, n = m = 3 (n*m = 9): one term whose device factor I - 2|w><w| has the
    eigenvalue 1 twice, so the sampler measures in the canonical basis of a degenerate eigenspace.

    Each ket is a rational unit vector (a, b, c)/3 with |a|^2 + |b|^2 + |c|^2 = 9. The file is written
    outside the fixtures directory, which perfbench's fixture_oracle reads whole.
    """

    def pairs(entries):  # complex entries as the [re, im] pairs a config holds
        return [[complex(x).real, complex(x).imag] for x in entries]

    w = [x / 3 for x in (1, 2j, 2)]
    system = [[0.8, 0.3 - 0.2j, 0.1], [0.3 + 0.2j, -0.5, 0.4j], [0.1, -0.4j, 0.2]]
    device = [[(i == j) - 2 * w[i] * w[j].conjugate() for j in range(3)] for i in range(3)]
    raw = {
        "n": 3,
        "m": 3,
        "psi": pairs(x / 3 for x in (1, 2, 2j)),
        "xi": pairs(x / 3 for x in (2, -1, 2j)),
        "phi": pairs(x / 3 for x in (2j, 2, 1)),
        "observable": {"terms": [{"system": list(map(pairs, system)), "device": list(map(pairs, device))}]},
    }
    path.write_text(json.dumps(raw))


def commands(generated: Path, generated_3x3: Path) -> list[tuple[str, list[str]]]:
    configs = [(name, str(FIXTURES / f"{name}.json")) for name in FIXTURE_NAMES]
    return [
        *((f"verify/{name}", ["verify", "--config", path]) for name, path in configs),
        ("verify/generated_cnot", ["verify", "--config", str(generated)]),
        *(
            (f"sample/{name}", ["sample", "--config", path, "--shots", "100000", "--seed", "3"])
            for name, path in configs
        ),
        (
            "sample/generic_violation_shards_4",
            # the shape perfbench's fixture_oracle samples: four shards, each one multinomial draw
            ["sample", "--config", dict(configs)["generic_violation"]]
            + ["--shots", "400000", "--seed", "3", "--shards", "4"],
        ),
        ("sample/generated_3x3", ["sample", "--config", str(generated_3x3), "--shots", "100000", "--seed", "3"]),
        ("cnot-sweep/csv", ["cnot-sweep"]),
        ("cnot-sweep/json", ["cnot-sweep", "--format", "json"]),
        ("cnot-sweep/tol_deg_0.5", ["cnot-sweep", "--tol-deg", "0.5", "--s-grid", "0:1:7"]),
        *(
            (f"random-audit/{mode}", ["random-audit", "--count", "1000", "--seed", "1", "--mode", mode])
            for mode in ("degenerate", "generic")
        ),
        (
            "random-audit/generic_tol_deg_0.5",
            ["random-audit", "--count", "300", "--seed", "5", "--mode", "generic", "--tol-deg", "0.5"],
        ),
    ]


def digest(name: str, args: list[str], env: dict[str, str]) -> str:
    run = subprocess.run([sys.executable, "-m", "nogosim", *args], capture_output=True, env=env, check=False)
    if run.returncode != 0 or run.stderr:
        raise SystemExit(f"{name}: exit {run.returncode}\n{run.stderr.decode(errors='replace')}")
    out = run.stdout
    if args[0] == "verify":
        report = json.loads(out)
        report.pop("wall_time_s")
        out = (json.dumps(report, sort_keys=True) + "\n").encode()
    return hashlib.sha256(out).hexdigest()[:16]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    with tempfile.TemporaryDirectory() as tmp:
        generated, generated_3x3 = Path(tmp) / "generated_cnot.json", Path(tmp) / "generated_3x3.json"
        generated_cnot_config(generated)
        generated_3x3_config(generated_3x3)
        for name, args in commands(generated, generated_3x3):
            print(name, digest(name, args, env), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
