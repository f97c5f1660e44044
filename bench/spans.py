"""Span recorder for the traced run, and the self-time arithmetic.

The recorder replaces public functions of the coprime_lab modules with thin
wrappers, from inside the worker process.  Because the package calls across
modules through module attributes (``counting.count_mobius``,
``arith.build_tables``), internal calls pass through the wrappers too, so the
spans nest the way the calls do.  Spans stay in memory and are written out
once, as JSON lines, when the worker finishes.

A layer's time is its self time: a span's duration minus the part of it that
its child spans cover.  ``count_mobius -> build_tables`` therefore counts the
sieve under ``arith`` and only the enumeration under ``counting``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time
import tracemalloc

# module -> public functions wrapped in the traced run
WRAPPED = {
    "arith": ("build_tables",),
    "constants": (
        "zeta",
        "zeta_reciprocal",
        "pairwise_constant",
        "kwise_constant",
        "base_constant",
        "correction_factor",
        "density",
    ),
    "counting": (
        "count_mobius",
        "count_toth",
        "count_box_bruteforce",
        "weighted_sum_gcd",
        "weighted_sum_lcm",
    ),
    "discrepancy": ("build_grid", "sup_discrepancy", "measure_cdf_error"),
    "montecarlo": ("estimate",),
}

# calls whose arguments give a span attribute (see Recorder._attrs)
ATTR_SPANS = {
    "arith.build_tables",
    "counting.count_mobius",
    "discrepancy.build_grid",
    "montecarlo.estimate",
}
# grid-layer calls whose peak Python-heap use is recorded with tracemalloc
MEMORY_SPANS = {"discrepancy.build_grid", "discrepancy.sup_discrepancy"}

ROOT_CLI = "cli.main"

PER_LAYER = (
    ("arith.build_tables_s", "s"),
    ("arith.sieve_entries", "count"),
    ("constants.density_s", "s"),
    ("counting.mobius_cold_s", "s"),
    ("counting.mobius_warm_s", "s"),
    ("counting.mobius_calls", "count"),
    ("counting.toth_s", "s"),
    ("counting.bruteforce_s", "s"),
    ("counting.weighted_sum_s", "s"),
    ("discrepancy.build_grid_s", "s"),
    ("discrepancy.sup_scan_s", "s"),
    ("discrepancy.measure_cdf_s", "s"),
    ("discrepancy.grid_cells", "count"),
    ("discrepancy.peak_traced_mb", "MB"),
    ("montecarlo.estimate_s", "s"),
    ("montecarlo.samples_per_s", "1/s"),
    ("cli.other_s", "s"),
)


class Recorder:
    """Collects spans (id, parent, name, start, end, attrs) in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._seen_shapes: set[tuple] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> dict:
        stack = self._stack()
        span = {
            "id": len(self.spans),
            "parent": stack[-1] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs or {},
        }
        self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def install(self, package) -> None:
        """Wrap every function in WRAPPED on the imported package's modules."""
        for mod_name, names in WRAPPED.items():
            module = getattr(package, mod_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))

    def _attrs(self, name: str, bound: inspect.BoundArguments) -> dict:
        a = bound.arguments
        if name == "arith.build_tables":
            return {"entries": int(a["limit"]) + 1}
        if name == "counting.count_mobius":
            box, c = a["box"], a["constraint"]
            shape = (tuple(box.bounds), c.kind, c.effective_k)
            warm = shape in self._seen_shapes
            self._seen_shapes.add(shape)
            return {"warm": warm}
        if name == "discrepancy.build_grid":
            return {"cells": int(a["n"]) ** int(a["constraint"].r)}
        return {"samples": int(a["samples"])}  # montecarlo.estimate

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        with_attrs = name in ATTR_SPANS
        measure_heap = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if with_attrs:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = self._attrs(name, bound)
            started_heap = measure_heap and not tracemalloc.is_tracing()
            if started_heap:
                tracemalloc.start()
            span = self.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
                if started_heap:
                    span["attrs"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (zero where a layer is idle)."""
    own = self_times(spans)
    out = {name: 0.0 for name, _ in PER_LAYER}
    samples = 0
    peak_bytes = 0
    for s in spans:
        name, t, attrs = s["name"], own[s["id"]], s["attrs"]
        if name == "arith.build_tables":
            out["arith.build_tables_s"] += t
            out["arith.sieve_entries"] += attrs["entries"]
        elif name.startswith("constants."):
            out["constants.density_s"] += t
        elif name == "counting.count_mobius":
            out["counting.mobius_warm_s" if attrs["warm"] else "counting.mobius_cold_s"] += t
            out["counting.mobius_calls"] += 1
        elif name == "counting.count_toth":
            out["counting.toth_s"] += t
        elif name == "counting.count_box_bruteforce":
            out["counting.bruteforce_s"] += t
        elif name in ("counting.weighted_sum_gcd", "counting.weighted_sum_lcm"):
            out["counting.weighted_sum_s"] += t
        elif name == "discrepancy.build_grid":
            out["discrepancy.build_grid_s"] += t
            out["discrepancy.grid_cells"] += attrs["cells"]
        elif name == "discrepancy.sup_discrepancy":
            out["discrepancy.sup_scan_s"] += t
        elif name == "discrepancy.measure_cdf_error":
            out["discrepancy.measure_cdf_s"] += t
        elif name == "montecarlo.estimate":
            out["montecarlo.estimate_s"] += t
            samples += attrs["samples"]
        elif name == ROOT_CLI:
            out["cli.other_s"] += t
        peak_bytes = max(peak_bytes, attrs.get("peak_bytes", 0))
    out["discrepancy.peak_traced_mb"] = peak_bytes / 2**20
    if out["montecarlo.estimate_s"] > 0:
        out["montecarlo.samples_per_s"] = samples / out["montecarlo.estimate_s"]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name, _ in PER_LAYER}
