"""Tests of the benchmark's own machinery: tracer, checks and tail percentile.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import nogosim  # noqa: E402
from nogosim import config as ngconfig  # noqa: E402
from run import tail_latency  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, _audit_problem, _cnot_problem, close, small  # noqa: E402

ITEMS = 4


def _digests(workload, items, tracer=None):
    out = []
    for item in items:
        thunk = workload.prepare(item)
        out.append(workload.digest(tracer.item(thunk) if tracer else thunk()))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_match_untraced(name):
    workload = WORKLOADS[name]
    items = workload.items(7)[:ITEMS]
    plain = _digests(workload, items)
    tracer = Tracer()
    with tracer:
        traced = _digests(workload, items, tracer)
    assert traced == plain
    assert sum(1 for span in tracer.spans if span[0] == "item") == len(items)


def test_every_traced_function_records_calls_on_some_workload():
    called = set()
    for workload in WORKLOADS.values():
        tracer = Tracer()
        with tracer:
            _digests(workload, workload.items(3)[:ITEMS], tracer)
        called |= tracer.called()
    assert called == {f"{module}.{qualname}" for module, qualname, _ in TRACED}


def test_tracer_patches_every_namespace_and_restores_them():
    modules = {name: mod for name, mod in sys.modules.items() if name == "nogosim" or name.startswith("nogosim.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    from_path = ngconfig.ScenarioConfig.__dict__["from_path"]
    original = nogosim.linalg.spectral_decompose
    with Tracer():
        for name in ("nogosim", "nogosim.linalg", "nogosim.measurement", "nogosim.nogo", "nogosim.oracle"):
            assert vars(modules[name])["spectral_decompose"].__wrapped__ is original
        assert ngconfig.ScenarioConfig.__dict__["from_path"] is not from_path
    for name, mod in modules.items():
        assert all(vars(mod)[key] is value for key, value in before[name].items())
    assert ngconfig.ScenarioConfig.__dict__["from_path"] is from_path


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans[:] = [
        ("item", 0.0, 10.0, -1, None),
        ("nogo.verify_nogo", 1.0, 6.0, 0, None),
        ("linalg.spectral_decompose", 2.0, 4.0, 1, 2),
        ("linalg.spectral_decompose", 4.0, 5.0, 1, 3),
    ]
    metrics = tracer.layer_metrics()
    assert metrics["nogo.verify_nogo.self_share"] == pytest.approx(0.2)
    assert metrics["linalg.spectral_decompose.self_share"] == pytest.approx(0.3)
    assert metrics["linalg.spectral_decompose.calls_per_item"] == 2
    assert metrics["linalg.spectral_decompose.us_per_call.d2"] == pytest.approx(2e6)
    assert metrics["linalg.spectral_decompose.us_per_call.d3"] == pytest.approx(1e6)


def test_checks_count_nan_as_failure():
    nan = math.nan
    assert not close(nan, 1.0) and not small(nan) and not small(None)
    assert _cnot_problem(0.5, (1.0, 1.0, nan, nan, 0.0, 0.0)) is not None
    assert _cnot_problem(0.5, (1.0, 1.0, 2 - math.sqrt(3), 2 - math.sqrt(3), nan, 0.0)) is not None
    assert _cnot_problem(0.5, (1.0, 1.0, 2 - math.sqrt(3), 2 - math.sqrt(3), 0.0, 0.0)) is None
    assert _audit_problem("degenerate", 2, 2, True, True, nan, 0.0) is not None
    assert _audit_problem("generic", 2, 2, False, True, nan, None) is not None
    assert _audit_problem("generic", 2, 2, False, True, 0.3, None) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_a_second_seed(name):
    workload = WORKLOADS[name]
    for item in workload.items(11)[:ITEMS]:
        assert workload.check(item, workload.prepare(item)()) is None


def test_tail_uses_highest_percentile_with_ten_items_beyond():
    assert tail_latency(list(range(1000)))[::2] == (99.0, 10)
    assert tail_latency(list(range(999)))[::2] == (90.0, 99)
    assert tail_latency(list(range(5)))[0] == 50.0
