"""Golden table for the scalar path: ``random_scenario`` plus ``verify_nogo``, drawn as the ``random_audit`` workload
draws its items.

The CLI digests reach ``random_scenario`` only on a rejected first draw, so this table pins its verdicts. Flags and
integers compare exactly and floats within a few ulps: bit-exact floats hold only on one numpy/LAPACK build.

Regenerate (only when a change is meant to move these numbers) with
``PYTHONPATH=src python tests/test_scalar_golden.py > tests/golden/random_scenario.json``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from nogosim.nogo import random_scenario, verify_nogo

GOLDEN = Path(__file__).parent / "golden" / "random_scenario.json"
SEED = 2028
PER_MODE = 40
#: ulps of slack on each float, counted at the row's larger mean: every float here is a sum of per-term means or a
#: difference of two such sums, so its rounding is that of the means
ULPS = 8


def scalar_rows(seed: int = SEED, per_mode: int = PER_MODE) -> list[dict]:
    """One row per (mode, index): dims drawn from {2, 3} on the generator seeded by (seed, index), then
    ``random_scenario`` and ``verify_nogo`` at the defaults on the same generator."""
    rows = []
    for mode in ("degenerate", "generic"):
        for index in range(per_mode):
            rng = np.random.default_rng((seed, index))
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            scenario = random_scenario(rng, n, m, degenerate=mode == "degenerate")
            verdict = verify_nogo(scenario)
            rows.append(
                {
                    "mode": mode,
                    "index": index,
                    "n": n,
                    "m": m,
                    "num_terms": scenario.observable.num_terms,
                    "hypothesis_holds": verdict.hypothesis_holds,
                    "gap": verdict.gap,
                    "conditional": verdict.conditional,
                    "unconditional": verdict.unconditional,
                    "closed_form_gap": verdict.closed_form_gap,
                }
            )
    return rows


def _close(actual: float, expected: float, scale: float) -> bool:
    return abs(actual - expected) <= ULPS * math.ulp(scale)


def test_the_scalar_path_matches_its_golden_table():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["seed"], golden["per_mode"]) == (SEED, PER_MODE)
    rows = scalar_rows()
    assert len(rows) == len(golden["rows"]) == 2 * PER_MODE
    for row, want in zip(rows, golden["rows"]):
        where = f"{row['mode']} {row['index']}"
        exact = ("mode", "index", "n", "m", "num_terms", "hypothesis_holds")
        assert {key: row[key] for key in exact} == {key: want[key] for key in exact}, where
        scale = max(abs(want["conditional"]), abs(want["unconditional"]))
        for key in ("conditional", "unconditional", "gap"):
            assert _close(row[key], want[key], scale), (where, key)
        assert (row["closed_form_gap"] is None) == (want["closed_form_gap"] is None), where
        if want["closed_form_gap"] is not None:
            assert _close(row["closed_form_gap"], want["closed_form_gap"], scale), (where, "closed_form_gap")


def test_the_golden_table_covers_both_verdicts_and_every_dim():
    rows = json.loads(GOLDEN.read_text())["rows"]
    assert {(row["mode"], row["hypothesis_holds"]) for row in rows} == {("degenerate", True), ("generic", False)}
    assert {(row["n"], row["m"]) for row in rows} == {(2, 2), (2, 3), (3, 2), (3, 3)}
    assert {row["num_terms"] for row in rows} == {1, 2}


if __name__ == "__main__":
    json.dump({"seed": SEED, "per_mode": PER_MODE, "rows": scalar_rows()}, sys.stdout, indent=1)
    sys.stdout.write("\n")
