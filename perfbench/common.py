"""The run context every workload shares.

A :class:`Run` owns the host clock, the set-up and operation timings, the
failures, the per-program rows, and the resources a workload opened; it
turns them into the metrics document.  All timestamps are raw
``time.perf_counter()`` values; normalization happens once, at the end.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from hostnorm import NOMINAL_REF_MS, HostClock

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPS = 5

#: Minimum timed operations per run: p90 needs ten samples beyond it.
MIN_OPS = 100

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "surface.parse_ms": "ms",
    "cc.check_ms": "ms",
    "cc.check_steps": "count",
    "cc.normalize_ms": "ms",
    "closconv.translate_ms": "ms",
    "closconv.target_nodes": "count",
    "cccc.verify_ms": "ms",
    "cccc.verify_steps": "count",
    "machine.hoist_ms": "ms",
    "machine.exec_ms": "ms",
    "machine.steps": "count",
    "machine.env_allocs": "count",
    "backend.stage_ms": "ms",
    "backend.exec_ms": "ms",
    "backend.artifact_hit_ratio": "ratio",
    "kernel.memo_hits": "count",
    "kernel.cache_entries": "count",
    "wire.codec_ms": "ms",
    "wire.store_hit_ratio": "ratio",
    "service.worker_busy_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.transport_ms": "ms",
    "service.requeued": "count",
    "endpoint.overhead_ms": "ms",
    "harness.ref_ms": "ms",
    "harness.trace_overhead": "ratio",
    "harness.unattributed_ms": "ms",
    "harness.traced_op_ms": "ms",
}

#: Span names whose mean self time is reported under a ``*_ms`` metric.
TIMED_LAYERS = (
    "surface.parse", "cc.check", "cc.normalize", "closconv.translate", "cccc.verify",
    "machine.hoist", "machine.exec", "backend.stage", "backend.exec",
)

#: The layer group that must have the largest self time in a workload's
#: traced run, compared with every other timed layer.
LARGEST_LAYERS = {
    "cold_verify": ("cccc.verify_ms",),
    "exec_heavy": ("machine.exec_ms", "backend.exec_ms"),
}


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile (the p50 is the median)."""
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def child_pids(parent: int) -> list[int]:
    """Live direct children of ``parent``, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == parent:
            found.append(int(entry))
    return found


def in_thread(function):
    """Run ``function`` on a fresh thread and return its result.

    A fresh thread's interpreter data stack starts empty, so every timed
    call sits at the same frame-chunk alignment no matter how deep the
    harness itself was (on CPython 3.11 the alignment alone moves staged
    execution by about 40%).
    """
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = function()
        except BaseException as error:  # re-raised on the calling thread
            box["error"] = error

    thread = threading.Thread(target=target, name="perfbench-ops")
    thread.start()
    thread.join()
    if "error" in box:
        raise box["error"]
    return box.get("value")


def time_wire_codec(run, spans, sources) -> None:
    """``wire.codec`` spans: ``term_to_b64`` plus a cold ``term_from_b64``.

    ``sources`` are ``(text, b64)`` pairs, one of them ``None``; each
    distinct program is interned in one fresh session, encoded there, and
    decoded in another, so decoding starts from empty caches.
    """
    from repro import api, cc
    from repro.surface import parse_term
    from repro.wire.codec import term_from_b64, term_to_b64

    for text, b64 in dict.fromkeys(sources):
        encoder, decoder = api.Session(), api.Session()
        with encoder.activate():
            source = parse_term(text) if b64 is None else term_from_b64(cc.ast.LANGUAGE, b64)
            term = cc.intern(source)
        run.clock.maybe_sample()
        with spans.span("wire.codec"):
            with encoder.activate():
                encoded = term_to_b64(cc.ast.LANGUAGE, term)
            with decoder.activate():
                term_from_b64(cc.ast.LANGUAGE, encoded)


class Run:
    """One benchmark run: arguments, clock, timings, failures, resources."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.clock = HostClock()
        self.import_span: tuple[float, float] | None = None
        self.setup_spans: list[tuple[float, float]] = []
        self.setup_phases: list[tuple[int, str, float, float]] = []  # (rep, name, start, end)
        self.ops: list[tuple[float, float]] = []  # every completed timed operation
        self.list_spans: list[tuple[float, float]] = []  # the fixed list's timed intervals
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set = set()
        self.rows: dict[str, dict] = {}
        self.peak_rss_mb = 0.0
        self.layers: dict[str, float] = {}
        self.spans = None
        self.report: dict = {}
        self.work_dir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self._closers: list = []

    # -- resources ----------------------------------------------------------

    def on_exit(self, close) -> None:
        """Register a cleanup; cleanups run last-in first-out in :meth:`close`."""
        self._closers.append(close)

    def close(self) -> None:
        while self._closers:
            self._closers.pop()()
        shutil.rmtree(self.work_dir, ignore_errors=True)
        try:
            self.work_dir.parent.rmdir()
        except OSError:
            pass

    # -- set-up -------------------------------------------------------------

    def pin_one_core(self) -> None:
        """Run this process, and every process it starts, on one core.

        For workloads that never run two processes at once: the reference
        kernel then always samples the core the operations run on, instead
        of whichever core the scheduler last picked.
        """
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def import_repro(self, *modules: str) -> None:
        """Import the code under test; the import counts toward set-up."""
        sys.path.insert(0, str(ROOT / "src"))
        self.clock.burst()
        start = time.perf_counter()
        for name in modules:
            importlib.import_module(name)
        self.import_span = (start, time.perf_counter())

    def setup(self, build, teardown=None):
        """Run ``build(rep)`` :data:`SETUP_REPS` times; keep the last value.

        Each repetition is timed on its own and ``setup_s`` reports the
        median, so one slow repetition cannot move it.  ``teardown`` undoes
        an earlier repetition (outside the timed span).  A burst of
        reference samples brackets every repetition while the host is idle;
        ``build`` may sample between its in-process steps too (those samples
        are not charged to set-up).
        """
        self.work_dir.mkdir(parents=True, exist_ok=True)
        value = None
        for rep in range(SETUP_REPS):
            if rep and teardown is not None:
                teardown(value)
            value = None  # every repetition starts from the same heap
            gc.collect()
            self.clock.burst()
            start = time.perf_counter()
            value = build(rep)
            self.setup_spans.append((start, time.perf_counter()))
        # Everything set-up built moves to the collector's permanent
        # generation, so a full collection during the measured phase scans
        # only what the operations allocate, not the warm caches of set-up.
        gc.collect()
        gc.freeze()
        self.clock.burst()
        return value

    @contextmanager
    def phase(self, name: str):
        """Time one step of the current set-up repetition, for the report."""
        start = time.perf_counter()
        yield
        self.setup_phases.append((len(self.setup_spans), name, start, time.perf_counter()))

    # -- operations ---------------------------------------------------------

    def fail(self, message: str, op=None) -> None:
        """Record a failure of operation ``op``; ``failed`` counts each
        operation once, however many of its checks failed."""
        self.failures.append(message)
        self.failed_ops.add(message if op is None else op)

    def record(self, label: str, start: float, end: float, counters: dict) -> None:
        """A per-program row: its timings and deterministic counters."""
        row = self.rows.setdefault(label, {"spans": [], "counters": counters, "drift": []})
        row["spans"].append((start, end))
        if counters != row["counters"] and counters not in row["drift"]:
            row["drift"].append(counters)

    # -- results ------------------------------------------------------------

    def e2e_metrics(self) -> dict[str, tuple[float, float]]:
        """``name -> (normalized, raw)`` for every end-to-end metric."""
        clock = self.clock
        normalized = [clock.normalize(s, e) * 1e3 for s, e in self.ops]
        raw = [(e - s) * 1e3 for s, e in self.ops]
        list_norm = sum(clock.normalize(s, e) for s, e in self.list_spans)
        list_raw = sum(e - s for s, e in self.list_spans)
        reps_norm = [clock.normalize(s, e) for s, e in self.setup_spans]
        reps_raw = [e - s - clock.sampled_within(s, e) for s, e in self.setup_spans]
        import_norm = clock.normalize(*self.import_span)
        import_raw = self.import_span[1] - self.import_span[0]
        return {
            "setup_s": (import_norm + statistics.median(reps_norm),
                        import_raw + statistics.median(reps_raw)),
            "throughput_ops_per_s": (len(self.ops) / list_norm, len(self.ops) / list_raw),
            "latency_p50_ms": (percentile(normalized, 50), percentile(raw, 50)),
            "latency_p90_ms": (percentile(normalized, 90), percentile(raw, 90)),
            "peak_rss_mb": (self.peak_rss_mb, self.peak_rss_mb),
        }

    def take_layers(self, means: dict[str, float], root: str) -> None:
        """The per-layer split of one kind of traced root span.

        ``means`` is that root kind's entry of :meth:`layers.Spans.layer_means`.
        The layers' self times plus the root's own (``harness.unattributed_ms``)
        must add up to ``harness.traced_op_ms``, and the workload's expected
        largest layer group (:data:`LARGEST_LAYERS`) must be the largest;
        otherwise the run fails.
        """
        layers = {f"{layer}_ms": means.get(layer, 0.0) for layer in TIMED_LAYERS}
        layers["surface.parse_ms"] += means.get("wire.ingest", 0.0)  # binary specs' ingest
        self.layers.update(layers)
        self.layers["harness.unattributed_ms"] = means.get(root, 0.0)
        self.layers["harness.traced_op_ms"] = means["_total"]
        accounted = sum(layers.values()) + means.get(root, 0.0)
        if abs(accounted - means["_total"]) > 1e-6 * max(1.0, means["_total"]):
            self.fail(f"layer self times sum to {accounted} ms, traced operations "
                      f"to {means['_total']} ms", op="layer-accounting")
        group = LARGEST_LAYERS.get(self.workload)
        if group:
            largest = max(value for name, value in layers.items() if name not in group)
            if sum(layers[name] for name in group) <= largest:
                self.fail(f"{' + '.join(group)} is not the largest layer", op="layer-order")

    def program_rows(self) -> dict[str, dict]:
        rows = {}
        for label, row in sorted(self.rows.items()):
            times = [self.clock.normalize(s, e) * 1e3 for s, e in row["spans"]]
            rows[label] = {
                "runs": len(times),
                "median_ms": statistics.median(times),
                "median_raw_ms": statistics.median((e - s) * 1e3 for s, e in row["spans"]),
                "counters": row["counters"],
                "counter_drift": row["drift"],
            }
        return rows

    def finish(self) -> dict:
        """Write the report, print the summary, and return the result line."""
        if self.trace:
            self.layers["harness.ref_ms"] = self.clock.ref_ms()
            metrics = {name: {"value": float(self.layers.get(name, 0.0)), "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
            raw = {}
        else:
            values = self.e2e_metrics()
            if len(self.ops) < MIN_OPS:
                self.fail(f"only {len(self.ops)} timed operations; need {MIN_OPS}")
            metrics = {name: {"value": values[name][0], "unit": unit}
                       for name, unit in E2E_UNITS.items()}
            raw = {name: values[name][1] for name in E2E_UNITS}
        report = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "nominal_ref_ms": NOMINAL_REF_MS,
            "harness.ref_ms": self.clock.ref_ms(),
            "metrics": metrics,
            "raw": raw,
            "operations": len(self.ops),
            "attempted": self.attempted,
            "failures": self.failures,
            "reference_samples_ms": self.clock.durations_ms,
            "reference_sample_at_s": [at - self.clock.starts[0] for at in self.clock.times],
            "setup_reps": [
                {"raw_s": e - s - self.clock.sampled_within(s, e),
                 "normalized_s": self.clock.normalize(s, e)}
                for s, e in self.setup_spans
            ],
            "setup_phases": [
                {"rep": rep, "phase": name, "raw_s": e - s - self.clock.sampled_within(s, e),
                 "normalized_s": self.clock.normalize(s, e)}
                for rep, name, s, e in self.setup_phases
            ],
            "programs": self.program_rows(),
            **self.report,
        }
        if self.spans is not None:
            report["spans"] = self.spans.to_json()
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        path.write_text(json.dumps(report, indent=1, default=str))
        print(f"# {self.workload} seed={self.seed} trace={int(self.trace)} "
              f"ops={len(self.ops)} attempted={self.attempted} failed={len(self.failed_ops)}")
        print(f"# harness.ref_ms={self.clock.ref_ms():.4f} (nominal {NOMINAL_REF_MS}); report: {path}")
        for failure in self.failures[:10]:
            print(f"# FAIL {failure}")
        for name, metric in metrics.items():
            shown = f"  raw {raw[name]:.4f}" if name in raw else ""
            print(f"{name:28s} {metric['value']:14.4f} {metric['unit']}{shown}")
        return {
            "correct": not self.failures and self.attempted > 0,
            "attempted": max(1, self.attempted),
            "failed": len(self.failed_ops),
            "metrics": metrics,
        }
