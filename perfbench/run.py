"""nogosim benchmark: one workload, one process, one thread, one closed-loop client.

    python3 perfbench/run.py --workload cnot_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. With
``--trace 0`` the run reports the end-to-end metrics: import time, in-process
throughput and latency of the public calls, and the CLI's wall time and peak
memory on the same items. With ``--trace 1`` it reports per-layer metrics from
the outside-in tracer instead. Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Every output is checked; see ``workloads.py``. Timings are
scaled to a reference host speed; see ``reference.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 15
IMPORT_PROBE = "import time; t = time.perf_counter(); import nogosim; print(time.perf_counter() - t)"
WARMUP_S = 0.5
BLOCK_S = 0.25
ITEM_PROBE_ITERATIONS = 5
PROBE_WINDOW = 5
ROUND_IN_PROCESS_S = 1.0
MIN_CLI_PASSES = 3
CHILD_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10
MAX_PROBLEMS = 20
#: Printed with the metrics but left out of the result's ``metrics``. The p99
#: of cnot_sweep's equal-cost items measures the host's interruptions, not
#: nogosim: over ten seeds its spread reached 0.2 of its median even after
#: scaling, too close to any bound to gate a change on.
PRINTED_ONLY = ("item_tail_ms",)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NOGO_DEFAULT_TOL"}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(argv: list, stdout_path: Path, env: dict) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB).

    The peak comes from the child's own rusage via ``os.wait4``; the
    cumulative RUSAGE_CHILDREN maximum would carry earlier children over.
    """
    with open(stdout_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(seconds, speed scale) for ``import nogosim`` in fresh interpreters."""
    import reference

    probes = []
    before = reference.seconds()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        after = reference.seconds()
        probes.append((float(done.stdout), reference.scale(before, after)))
        before = after
    return probes


class Ledger:
    """Attempted and failed items, the first problems seen, and reference digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[int, tuple] = {}

    def record(self, problems: list[str], attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += min(len(problems), attempted)
        self.problems.extend(problems[: max(0, MAX_PROBLEMS - len(self.problems))])

    def check_item(self, workload, index: int, item, output) -> None:
        """Physics check plus exact repeat of any earlier output for the same item."""
        problem = workload.check(item, output)
        digest = workload.digest(output)
        if problem is None and self.references.setdefault(index, digest) != digest:
            problem = f"item {index}: output differs from an earlier run of the same item"
        self.record([problem] if problem else [])


def call(thunk):
    """Time one item; a raised exception is returned as the problem."""
    start = perf_counter()
    try:
        output = thunk()
    except Exception:  # an item that raises is a failed item, not a crashed run
        return None, perf_counter() - start, traceback.format_exc(limit=3)
    return output, perf_counter() - start, None


def warm_up(workload, items: list) -> float:
    """Run items untimed until WARMUP_S has passed; returns seconds per item."""
    start = perf_counter()
    count = 0
    while perf_counter() - start < WARMUP_S:
        call(workload.prepare(items[count % len(items)]))
        count += 1
    return (perf_counter() - start) / count


class EndToEndRun:
    """In-process blocks and CLI passes over one workload's items, interleaved.

    Interleaving spreads both kinds of measurement over the whole run, so a
    slow spell on the host touches a few blocks and passes of each rather than
    all of one kind. Every item and every CLI child is scaled by probes of the
    reference routine taken around it.
    """

    def __init__(self, workload, seed: int, ledger: Ledger, env: dict, scratch: Path):
        import reference

        self.workload = workload
        self.items = workload.items(seed)
        self.commands = workload.cli_commands(seed, self.items)
        self.ledger = ledger
        self.env = env
        self.scratch = scratch
        self.index = 0
        self.blocks: list[tuple[list, list]] = []  # (scaled, raw) item latencies per block
        self.passes: list[tuple[float, float, float]] = []  # (scaled s, raw s, peak RSS MB) per pass
        self.before = reference.seconds()

    def _rescale(self) -> float:
        """Probe the reference; the factor for the stretch since the last probe."""
        import reference

        after = reference.seconds()
        factor = reference.scale(self.before, after)
        self.before = after
        return factor

    def in_process(self, seconds: float) -> None:
        """Closed loop over the items with a short probe after each one.

        An item is scaled by the mean of the 2 * PROBE_WINDOW probes nearest
        to it: local enough to follow the host through a tail spike, wide
        enough to average out the noise of single short probes.
        """
        import reference

        probes = [self.before]
        timed = []  # (index of the probe before it, raw latency, block number) per item
        start = perf_counter()
        while perf_counter() - start < seconds:
            k = self.index % len(self.items)
            self.index += 1
            output, elapsed, error = call(self.workload.prepare(self.items[k]))
            probes.append(reference.seconds(ITEM_PROBE_ITERATIONS, 1))
            if error:
                self.ledger.record([f"item {k} raised: {error}"])
                continue
            timed.append((len(probes) - 2, elapsed, int((perf_counter() - start) / BLOCK_S)))
            self.ledger.check_item(self.workload, k, self.items[k], output)
        self.before = probes[-1]
        blocks: dict[int, tuple[list, list]] = {}
        for i, elapsed, block in timed:
            window = probes[max(0, i + 1 - PROBE_WINDOW) : i + 1 + PROBE_WINDOW]
            factor = reference.NOMINAL_S / statistics.fmean(window)
            scaled, raw = blocks.setdefault(block, ([], []))
            scaled.append(elapsed * factor)
            raw.append(elapsed)
        self.blocks.extend(blocks.values())

    def cli_pass(self) -> None:
        """One run of each CLI command, then the parse-and-compare checks."""
        runs, scaled, wall, peak = [], 0.0, 0.0, 0.0
        for k, argv in enumerate(self.commands):
            stdout_path = self.scratch / f"{k}.out"
            code, child_wall, rss = run_child([sys.executable, "-m", "nogosim", *argv], stdout_path, self.env)
            scaled += child_wall * self._rescale()
            wall += child_wall
            peak = max(peak, rss)
            runs.append((code, stdout_path.read_text()))
        self.passes.append((scaled, wall, peak))
        attempted, problems = self.workload.check_cli(self.items, runs, self.ledger.references)
        self.ledger.record([f"cli: {p}" for p in problems], attempted)


def measure_traced(workload, items: list, seconds: float, ledger: Ledger, tracer) -> tuple[dict, int]:
    """Alternate untraced and traced blocks over the same items.

    Both sides time the same items, and which side goes first alternates, so
    ``trace.overhead`` compares like with like. Every traced output must equal
    its untraced twin exactly.
    """
    block_size = max(1, int(BLOCK_S / 2 / warm_up(workload, items)))
    elapsed = {False: 0.0, True: 0.0}
    deadline = perf_counter() + seconds
    done = 0
    while perf_counter() < deadline:
        indices = [(done + j) % len(items) for j in range(block_size)]
        digests: dict[int, list] = {}
        order = (False, True) if (done // block_size) % 2 == 0 else (True, False)
        for traced in order:
            with tracer if traced else contextlib.nullcontext():
                for k in indices:
                    thunk = workload.prepare(items[k])
                    output, seconds_taken, error = call(partial(tracer.item, thunk) if traced else thunk)
                    if error:
                        ledger.record([f"item {k} raised: {error}"])
                        continue
                    elapsed[traced] += seconds_taken
                    ledger.check_item(workload, k, items[k], output)
                    digests.setdefault(k, []).append(workload.digest(output))
        for k, pair in digests.items():
            if len(pair) == 2 and pair[0] != pair[1]:
                ledger.record([f"item {k}: traced output differs from untraced"])
        done += block_size
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = elapsed[True] / elapsed[False] - 1.0 if elapsed[False] else 0.0
    return metrics, done


def tail_latency(latencies: list) -> tuple[float, float, int]:
    """(percentile, value, items beyond) at the highest ladder percentile with
    at least MIN_BEYOND items beyond it (nearest-rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * n / 100.0 - 1e-9)  # the epsilon absorbs float noise in pct * n
        if n - rank >= MIN_BEYOND or pct == TAIL_LADDER[-1]:
            return pct, ordered[max(rank, 1) - 1], n - rank


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError as exc:
        return f"unavailable: {exc}"
    return done.stdout.strip() or f"unavailable: {done.stderr.strip()}"


def provenance(seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "nogosim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def end_to_end(workload, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, list]:
    """The end-to-end metrics, each timing scaled to the reference host speed."""
    env = child_env()
    setup = measure_setup(env)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"cli-{workload.name}-", dir=OUT))
    try:
        run = EndToEndRun(workload, seed, ledger, env, scratch)
        warm_up(workload, run.items)
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(run.passes) < MIN_CLI_PASSES:
            run.in_process(ROUND_IN_PROCESS_S)
            run.cli_pass()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    blocks, passes, items = run.blocks, run.passes, run.items

    def timings(adjust: bool) -> dict:
        side = 0 if adjust else 1
        latencies = [t for block in blocks for t in block[side]]
        pct, tail, beyond = tail_latency(latencies)
        values = {
            "setup_s": statistics.median(t * (k if adjust else 1.0) for t, k in setup),
            "items_per_s": statistics.median(len(b[side]) / sum(b[side]) for b in blocks),
            "item_p50_ms": 1e3 * statistics.median(latencies),
            "item_tail_ms": 1e3 * tail,
            "cli_s": statistics.median(scaled if adjust else wall for scaled, wall, _ in passes),
            "peak_rss_mb": statistics.median(rss for _, _, rss in passes),
        }
        return values, (pct, beyond, len(latencies))

    adjusted, (pct, beyond, count) = timings(adjust=True)
    raw, _ = timings(adjust=False)
    units = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms", "item_tail_ms": "ms", "cli_s": "s", "peak_rss_mb": "MB"}
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters importing nogosim",
        "items_per_s": f"median of {len(blocks)} blocks of {BLOCK_S} s in-process",
        "item_p50_ms": f"median of {count} items",
        "item_tail_ms": f"p{pct:g}, {beyond} of {count} items beyond it",
        "cli_s": f"median of {len(passes)} CLI passes, {len(workload.cli_commands(seed, items))} processes each",
        "peak_rss_mb": f"largest CLI child per pass, median of {len(passes)} passes",
    }
    speed = adjusted["item_p50_ms"] / raw["item_p50_ms"]
    lines = [f"  timings scaled to the reference host speed; this host ran at {speed:.3f} times it"]
    lines += [
        f"  {name:<16}{value:>12.6g} {units[name]:<9}raw {raw[name]:<12.6g}{notes[name]}"
        for name, value in adjusted.items()
    ]
    fraction = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    lines.append(
        f"  {'failed_fraction':<16}{fraction:>12.6g} {'fraction':<21}{ledger.failed} of {ledger.attempted} items"
        " (the result's failed / attempted)"
    )
    return {
        name: {"value": value, "unit": units[name]} for name, value in adjusted.items() if name not in PRINTED_ONLY
    }, lines


LAYER_UNITS = (
    (".calls_per_item", "calls/item"),
    (".self_share", "fraction"),
    (".us_per_call.d2", "us"),
    (".us_per_call.d3", "us"),
    (".distinct_ratio", "fraction"),
    (".attempts_per_accept", "attempts"),
    (".shots_per_s", "1/s"),
    (".bytes_per_item", "B/item"),
    ("trace.overhead", "fraction"),
)


def per_layer(workload, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, list]:
    from tracer import Tracer

    tracer = Tracer()
    raw, items_done = measure_traced(workload, workload.items(seed), seconds, ledger, tracer)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}.csv.gz"
    tracer.write_spans(spans_path)
    metrics = {}
    for name, value in raw.items():
        unit = next(u for suffix, u in LAYER_UNITS if name.endswith(suffix))
        metrics[name] = {"value": value, "unit": unit}
    shares = sorted(((v, k) for k, v in raw.items() if k.endswith(".self_share")), reverse=True)
    lines = [f"  traced {items_done} items in blocks alternating with untraced runs; spans in {spans_path.name}"]
    lines += [f"  {name:<64}{value:>12.4g}" for value, name in shares[:5]]
    lines.append(f"  {'trace.overhead':<64}{raw['trace.overhead']:>12.4g}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nogosim" / "__init__.py").is_file():
        print(f"error: no nogosim sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2

    # One thread: the BLAS reads these when numpy loads, so set them first.
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ.pop("NOGO_DEFAULT_TOL", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    ledger = Ledger()
    measure = per_layer if args.trace else end_to_end
    metrics, lines = measure(workload, args.seed, args.seconds, ledger)
    info = provenance(args.seed)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    for problem in ledger.problems:
        print(f"  problem: {problem}")
    print("provenance " + json.dumps(info, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=workload.name, trace=args.trace, provenance=info, problems=ledger.problems)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
