"""E23 — the compile-to-host backend against the machine oracle.

Two acceptance gates and one timing, one artifact (``BENCH_backend.json``):

* **Execution (timed, ungated).**  Both executors are timed on the heavy
  reduction families (``bool_flip_tower``, ``church_sum``) and each
  speedup of the staged closures over the machine interpreter is
  recorded.  The ratio is not a gate: its denominator is the oracle, so a
  faster machine moved it with no change in the backend.  A slower staged
  backend is caught exactly instead, by tier-1's
  ``tests/test_backend.py::TestExecutionWork``, which pins the Python
  opcodes each engine executes on these two workloads.

* **Complexity class.**  Staging must not change the *asymptotics* the
  paper's cost model assigns (the Accattoli-et-al. discipline: count
  machine transitions, not wall time).  The backend's counters mirror
  the machine's exactly, so the gate is the strongest version of
  "within a constant factor": every counter is **equal** at every tower
  size, so the cost curves coincide point for point.

* **Restart.**  A ``compile_py`` stream served warm from the persistent
  artifact table across a **real process restart** must run **≥ 2×**
  faster than the cold run that filled it (both timed inside the
  subprocess via the batch report's ``elapsed_seconds``).  The workload
  is compile-heavy/run-light, so what the artifact cache skips — type
  check, closure conversion, Theorem 5.6 verification, hoisting — is the
  dominant cost.  Payloads must be **byte-identical** cold vs. warm, and
  identical to the in-process solo run; the machine-oracle differential
  and a 4-worker pool sharing one artifact store ride the same stream.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time

from repro import api, cc
from repro.api import Session
from repro.backend import compile_program
from repro.closconv import compile_term
from repro.machine import hoist, run
from repro.surface import to_surface
from workloads import bool_flip_tower, church_sum, nested_lambdas

_ARTIFACT = pathlib.Path(__file__).with_name("BENCH_backend.json")
_REPO = pathlib.Path(__file__).resolve().parent.parent

_RESTART_GATE = 2.0
_EXEC_REPS = 5
_ATTEMPTS = 3
_TOWER_SIZES = (7, 9, 11, 13)

_STAT_FIELDS = (
    "steps",
    "closure_allocs",
    "tuple_allocs",
    "projections",
    "code_lookups",
    "max_frame_size",
    "env_allocs",
    "max_env_size",
)


def _merge_artifact(section: str, payload: dict) -> None:
    """Fold one gate's results into the shared ``BENCH_backend.json``."""
    document = {"bench": "e23_backend", "schema": 1, "python": sys.version.split()[0]}
    if _ARTIFACT.exists():
        try:
            document.update(json.loads(_ARTIFACT.read_text()))
        except json.JSONDecodeError:
            pass  # a torn artifact from a crashed run: start over
    document[section] = payload
    _ARTIFACT.write_text(json.dumps(document, indent=2) + "\n")


def _hoisted(term: cc.Term):
    """Closed CC term → hoisted machine program (the shared input form)."""
    return hoist(compile_term(cc.Context.empty(), term, verify=False).target)


# --------------------------------------------------------------------------
# Timing: staged execution vs. the machine interpreter (recorded, ungated).
# --------------------------------------------------------------------------


def _time_family(name: str, term: cc.Term, inner: int) -> dict:
    """Best-of-groups timing of one workload under both executors.

    ``inner`` executions per timed group keep a group in the milliseconds
    so best-of-groups is stable against scheduler noise; the differential
    (same value, same counters) rides the timing loop.

    Both executors are timed inside a **fresh thread**: CPython 3.11
    allocates Python frames in fixed-size data-stack chunks, so the
    caller's base stack depth decides where chunk boundaries fall inside
    the compiled run's call oscillation — an unlucky alignment (pytest's
    runner sits ~50 frames deep) turns a hot boundary crossing into a
    malloc/free per β and costs the staged executor ~40% for reasons
    that have nothing to do with the code under test.  A fresh thread's
    data stack starts at offset zero, making the alignment deterministic.
    """
    session = Session(name=f"e23-exec-{name}")
    with session.activate():
        program = _hoisted(term)
        start = time.perf_counter()
        compiled = compile_program(program)
        stage_seconds = time.perf_counter() - start
        box: dict = {}

        def measure() -> None:
            best_machine = best_compiled = float("inf")
            for _ in range(_EXEC_REPS):
                start = time.perf_counter()
                for _rep in range(inner):
                    machine_value, machine_stats = run(program)
                best_machine = min(
                    best_machine, (time.perf_counter() - start) / inner
                )
                start = time.perf_counter()
                for _rep in range(inner):
                    value, stats = compiled.execute()
                best_compiled = min(
                    best_compiled, (time.perf_counter() - start) / inner
                )
            box["machine"] = best_machine
            box["compiled"] = best_compiled
            box["machine_stats"] = machine_stats
            box["differential"] = value == machine_value and all(
                getattr(stats, field) == getattr(machine_stats, field)
                for field in _STAT_FIELDS
            )

        thread = threading.Thread(target=measure, name=f"e23-time-{name}")
        thread.start()
        thread.join()
    assert box["differential"], f"executors diverged on {name}"
    return {
        "workload": name,
        "steps": box["machine_stats"].steps,
        "stage_seconds": stage_seconds,
        "machine_seconds_best": box["machine"],
        "compiled_seconds_best": box["compiled"],
        "speedup": box["machine"] / box["compiled"],
    }


def test_execution_timing():
    """Both executors timed on the heavy reduction workloads; the speedup is recorded."""
    rows = [
        _time_family("bool_flip_tower(12)", bool_flip_tower(12), 1),
        _time_family("church_sum(48)", church_sum(48), 20),
    ]
    _merge_artifact("execution", {"reps": _EXEC_REPS, "workloads": rows})


# --------------------------------------------------------------------------
# Gate 1: identical cost curves (the complexity-class differential).
# --------------------------------------------------------------------------


def test_complexity_class_gate():
    """Every counter equal at every tower size: the curves coincide."""
    series = []
    for size in _TOWER_SIZES:
        session = Session(name=f"e23-curve-{size}")
        with session.activate():
            program = _hoisted(bool_flip_tower(size))
            _value, machine_stats = run(program)
            _value2, stats = compile_program(program).execute()
        point = {field: getattr(machine_stats, field) for field in _STAT_FIELDS}
        compiled_point = {field: getattr(stats, field) for field in _STAT_FIELDS}
        assert compiled_point == point, (
            f"cost curves diverge at tower size {size}: "
            f"machine {point} vs compiled {compiled_point}"
        )
        series.append({"size": size, **point})
    # The family really is exponential in the size knob — the curve the
    # counters must (and do) reproduce identically.
    steps = [point["steps"] for point in series]
    assert all(later > 3 * earlier for earlier, later in zip(steps, steps[2:]))
    _merge_artifact(
        "complexity",
        {
            "workload": "bool_flip_tower",
            "sizes": list(_TOWER_SIZES),
            "series": series,
            "counters_identical": True,
        },
    )


# --------------------------------------------------------------------------
# Gate 2: warm-from-artifact across a real process restart.
# --------------------------------------------------------------------------


def _compile_py_jobs() -> list[dict]:
    """A compile-heavy/run-light ``compile_py`` stream.

    ``nested_lambdas`` towers make closure conversion and Theorem 5.6
    verification the dominant cost while executing in microseconds — the
    regime where the artifact cache's skip pays.  A build-indexed
    ζ-wrapper keeps the programs α-distinct, one artifact row each.
    """
    jobs = []
    for build, depth in enumerate((30, 34, 38)):
        term = cc.Let(
            "build", cc.nat_literal(build), cc.Nat(), nested_lambdas(depth)
        )
        jobs.append(
            {
                "id": f"stage-{build}",
                "kind": "compile_py",
                "program": to_surface(term),
            }
        )
    jobs.append(
        {
            "id": "tower",
            "kind": "compile_py",
            "program": to_surface(bool_flip_tower(8)),
        }
    )
    return jobs


def _run_batch(corpus: pathlib.Path, store: pathlib.Path) -> dict:
    """One ``python -m repro batch`` subprocess — a genuinely fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "batch",
            str(corpus),
            "--json",
            "--memo-store",
            str(store),
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(_REPO),
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _canonical_from_report(report: dict) -> list[dict]:
    return [
        {key: value for key, value in result.items() if key != "meta"}
        for result in report["results"]
    ]


def test_artifact_restart_gate():
    """Warm-from-artifact ≥ 2× cold across a restart; payloads identical
    cold / warm / solo; machine oracle and 4-worker pool ride along."""
    jobs = _compile_py_jobs()

    solo = api.execute_jobs(jobs)
    solo_canonical = solo.canonical()

    # Machine-oracle differential: the same programs through the machine
    # backend produce the same payloads modulo the backend-only keys.
    oracle = api.execute_jobs([dict(spec, kind="run") for spec in jobs])
    for machine_result, compiled_result in zip(oracle.results, solo.results):
        assert machine_result.ok and compiled_result.ok
        left = {k: v for k, v in machine_result.payload.items() if k != "backend"}
        right = {
            k: v
            for k, v in compiled_result.payload.items()
            if k not in ("backend", "artifact")
        }
        assert left == right, f"oracle diverged on {machine_result.id}"

    best = None
    identical = True
    with tempfile.TemporaryDirectory(prefix="e23-restart-") as scratch:
        scratch_path = pathlib.Path(scratch)
        corpus = scratch_path / "jobs.jsonl"
        corpus.write_text("".join(json.dumps(spec) + "\n" for spec in jobs))
        for attempt in range(_ATTEMPTS):
            store = scratch_path / f"artifacts-{attempt}.sqlite"
            cold = _run_batch(corpus, store)
            warm = _run_batch(corpus, store)
            identical = identical and (
                _canonical_from_report(cold)
                == _canonical_from_report(warm)
                == solo_canonical
            )
            assert warm["stats"]["persist"]["artifact_hits"] > 0, (
                "warm run never hit the artifact table"
            )
            attempt_result = {
                "cold_seconds": cold["elapsed_seconds"],
                "warm_seconds": warm["elapsed_seconds"],
                "speedup": cold["elapsed_seconds"] / warm["elapsed_seconds"],
                "warm_artifact_hits": warm["stats"]["persist"]["artifact_hits"],
            }
            if best is None or attempt_result["speedup"] > best["speedup"]:
                best = attempt_result
            if identical and best["speedup"] >= _RESTART_GATE:
                break

        # The pooled differential: 4 workers sharing one artifact store.
        pooled = api.execute_jobs(
            jobs, workers=4, memo_store=scratch_path / "artifacts-pool.sqlite"
        )
        pooled_identical = pooled.canonical() == solo_canonical

    _merge_artifact(
        "restart",
        {
            "jobs": len(jobs),
            "attempts": _ATTEMPTS,
            "gate": _RESTART_GATE,
            "payloads_identical": identical and pooled_identical,
            "oracle_identical": True,
            "pool_workers": 4,
            **best,
        },
    )
    assert identical, "restart differential: payloads diverged across runs"
    assert pooled_identical, "pooled differential: payloads diverged from solo"
    assert best["speedup"] >= _RESTART_GATE, (
        f"warm {best['warm_seconds']:.3f}s vs cold {best['cold_seconds']:.3f}s "
        f"= {best['speedup']:.1f}x, below the {_RESTART_GATE:.0f}x gate"
    )
