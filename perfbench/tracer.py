"""Outside-in tracer for nogosim's public functions.

The tracer wraps each listed function in every ``nogosim`` module namespace
that holds it. ``from .linalg import spectral_decompose`` binds the name again
in ``measurement``, ``nogo`` and ``oracle``, so patching only the defining
module would miss their internal calls. Spans (name, start, end, parent, tag)
stay in memory; ``write_spans`` puts them on disk once the run is over, and
leaving the ``with`` block restores every original function.

Nothing here changes what a wrapped function computes: the wrapper calls the
original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import csv
import functools
import gzip
import hashlib
import importlib
import statistics
import sys
from time import perf_counter

#: Traced functions as (module, qualified name, tag). A tag picks the value a
#: derived metric needs out of (args, kwargs, result); it only keeps a
#: reference, and the metric is computed after the run.
TRACED = (
    ("linalg", "spectral_decompose", lambda a, k, r: len(a[0] if a else k["h"])),
    ("linalg", "require_hermitian", None),
    ("linalg", "as_state", None),
    ("measurement", "product_spectral", lambda a, k, r: a[0] if a else k["observable"]),
    ("measurement", "expectation", None),
    ("measurement", "conditional_expectation", None),
    ("nogo", "verify_nogo", None),
    ("nogo", "term_basis_transform", None),
    ("nogo", "check_basis_requirement", None),
    ("nogo", "random_scenario", None),
    # random_scenario draws psi, xi and phi with random_ket once per attempt.
    ("nogo", "random_ket", None),
    ("error_disturbance", "cnot_report", None),
    ("error_disturbance", "cnot_scenario", None),
    ("error_disturbance", "joint_observable_from_operator", None),
    ("error_disturbance", "noise_operator", None),
    ("error_disturbance", "disturbance_operator", None),
    ("error_disturbance", "postselected_error_disturbance", None),
    ("oracle", "enumerate_two_step", None),
    ("oracle", "sample_two_step", lambda a, k, r: r.shots),
    ("config", "ScenarioConfig.from_path", None),
    ("config", "report_json", lambda a, k, r: r),
)

KETS_PER_ATTEMPT = 3
ITEM = "item"


class Tracer:
    """Records spans for the TRACED functions while ``recording`` is true.

    Use as a context manager: entering patches the nogosim namespaces,
    leaving restores them. Outside ``item()`` blocks the wrappers pass calls
    straight through, so output checks made between items record nothing.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.recording = False

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in sorted(sys.modules.items()) if name == "nogosim" or name.startswith("nogosim.")]
        for module_name, qualname, tag in TRACED:
            label = f"{module_name}.{qualname}"
            home = importlib.import_module(f"nogosim.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapped = classmethod(self._wrap(label, original.__func__, tag))
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(home, qualname)
            wrapped = self._wrap(label, original, tag)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, label: str, fn, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                value = tag(args, kwargs, result) if tag is not None and result is not None else None
                spans[sid] = (label, start, end, parent, value)

        return traced

    # -- recording ------------------------------------------------------------

    def item(self, thunk):
        """Run one benchmark item as a root span and return its output."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self.recording = True
        start = perf_counter()
        try:
            return thunk()
        finally:
            end = perf_counter()
            self.recording = False
            self._stack.pop()
            self.spans[sid] = (ITEM, start, end, -1, None)

    def write_spans(self, path) -> None:
        """Gzipped CSV: id, name, start_s, end_s, parent (-1 for an item)."""
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("id", "name", "start_s", "end_s", "parent"))
            for sid, (name, start, end, parent, _) in enumerate(self.spans):
                writer.writerow((sid, name, repr(start), repr(end), parent))

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls_per_item and self_share, plus the derived metrics."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        items = 0
        wall = 0.0
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        tags: dict[str, list] = {}
        for sid, (name, start, end, parent, value) in enumerate(self.spans):
            if name == ITEM:
                items += 1
                wall += end - start
                continue
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[sid]
            tags.setdefault(name, []).append((value, end - start, parent))

        metrics: dict[str, float] = {}
        for module_name, qualname, _ in TRACED:
            label = f"{module_name}.{qualname}"
            metrics[f"{label}.calls_per_item"] = calls.get(label, 0) / items if items else 0.0
            metrics[f"{label}.self_share"] = self_time.get(label, 0.0) / wall if wall else 0.0

        decomposes = tags.get("linalg.spectral_decompose", [])
        for dim in (2, 3):
            times = [t for d, t, _ in decomposes if d == dim]
            metrics[f"linalg.spectral_decompose.us_per_call.d{dim}"] = 1e6 * statistics.fmean(times) if times else 0.0

        observables = tags.get("measurement.product_spectral", [])
        distinct = {_fingerprint(obs) for obs, _, _ in observables}
        metrics["measurement.product_spectral.distinct_ratio"] = len(distinct) / len(observables) if observables else 0.0

        scenario_ids = {sid for sid, span in enumerate(self.spans) if span[0] == "nogo.random_scenario"}
        kets = sum(1 for _, _, parent in tags.get("nogo.random_ket", []) if parent in scenario_ids)
        metrics["nogo.random_scenario.attempts_per_accept"] = (
            kets / KETS_PER_ATTEMPT / len(scenario_ids) if scenario_ids else 0.0
        )

        samples = tags.get("oracle.sample_two_step", [])
        sample_time = sum(t for _, t, _ in samples)
        metrics["oracle.sample_two_step.shots_per_s"] = sum(s for s, _, _ in samples) / sample_time if sample_time else 0.0

        reports = tags.get("config.report_json", [])
        report_bytes = sum(len(text.encode()) for text, _, _ in reports)
        metrics["config.report_json.bytes_per_item"] = report_bytes / items if items else 0.0
        return metrics

    def called(self) -> set[str]:
        return {span[0] for span in self.spans if span[0] != ITEM}


def _fingerprint(observable) -> str:
    digest = hashlib.sha256()
    digest.update(f"{observable.n},{observable.m}".encode())
    for sys_op, dev_op in observable.terms:
        digest.update(sys_op.tobytes())
        digest.update(dev_op.tobytes())
    return digest.hexdigest()
