"""E24 — observability: byte identity and trace determinism.

Two acceptance gates, one artifact (``BENCH_obs.json``).  That the
profiler costs nothing when off is checked exactly, not timed: tier-1's
``tests/test_obs.py::TestProfilerOffWork`` counts the opcodes of a machine
run and a compiled run before ``repro.obs`` is ever imported and after an
activate/deactivate round trip, and requires them equal.

* **Byte identity with obs imported.**  With ``repro.obs`` imported and
  the profiler off, the generated service corpus must produce
  byte-identical canonical documents solo, pooled, warm-from-store
  (second run over the same persistent tier), and under a same-seed
  chaos plan — observability must be invisible to every determinism
  differential the service already gates.

* **Deterministic trace sections.**  Two same-seed chaos runs of a traced
  stream must produce byte-identical ``events`` sections (submit
  sequence, execution kind, completion ok/attempts) for every job, while
  wall-clock data stays confined to the ``timeline`` section
  (:func:`repro.obs.trace.validate_trace` on every trace).
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro import api
from repro.service.faults import FaultPlan

_ARTIFACT = pathlib.Path(__file__).with_name("BENCH_obs.json")

_SEED = 2400
_WORKERS = 2


def _merge_artifact(section: str, payload: dict) -> None:
    """Fold one gate's results into the shared ``BENCH_obs.json``."""
    document = {"bench": "e24_obs", "schema": 1, "python": sys.version.split()[0]}
    if _ARTIFACT.exists():
        try:
            document.update(json.loads(_ARTIFACT.read_text()))
        except json.JSONDecodeError:
            pass  # a torn artifact from a crashed run: start over
    document[section] = payload
    _ARTIFACT.write_text(json.dumps(document, indent=2) + "\n")


# --------------------------------------------------------------------------
# Gate 1: byte identity with repro.obs imported, profiler off.
# --------------------------------------------------------------------------


def _jobs() -> list[dict]:
    from repro.gen.jobs import job_corpus

    jobs: list[dict] = []
    for build in range(2):
        template = job_corpus(
            _SEED + build, count=3, kinds=("normalize", "check", "run"), key=f"obs-{build}"
        )
        for pass_index in range(2):
            for job_index, spec in enumerate(template):
                stamped = dict(spec)
                stamped["id"] = f"b{build}-p{pass_index}-{job_index}"
                jobs.append(stamped)
    jobs.append({"id": "ill-typed", "kind": "check", "program": "0 0"})
    return jobs


def _chaos_plan(jobs: list[dict]) -> FaultPlan:
    """Healing faults only (kills, store errors): canonical bytes survive."""
    return FaultPlan.generate(
        _SEED,
        [spec["id"] for spec in jobs],
        kills=2,
        store_read_errors=1,
        store_write_errors=1,
    )


def test_byte_identity_with_obs_imported(tmp_path):
    """Acceptance: obs imported + profiler off is invisible on the wire."""
    import repro.obs  # noqa: F401  (imported is the point)

    jobs = _jobs()
    solo = api.execute_jobs(jobs).canonical()
    pooled = api.execute_jobs(jobs, workers=_WORKERS).canonical()

    store = tmp_path / "obs-memo.sqlite"
    cold = api.execute_jobs(jobs, memo_store=str(store)).canonical()
    warm = api.execute_jobs(jobs, memo_store=str(store)).canonical()

    plan = _chaos_plan(jobs)
    chaos = api.execute_jobs(
        jobs, workers=_WORKERS, fault_plan=plan, memo_store=str(tmp_path / "chaos.sqlite")
    ).canonical()

    assert pooled == solo, "pooled diverged from solo with obs imported"
    assert cold == solo and warm == solo, "persistent tier changed payload bytes"
    assert chaos == solo, "healing chaos changed payload bytes"
    _merge_artifact(
        "byte_identity",
        {
            "jobs": len(jobs),
            "workers": _WORKERS,
            "modes": ["solo", "pooled", "cold_store", "warm_store", "chaos"],
            "identical": True,
        },
    )


# --------------------------------------------------------------------------
# Gate 2: deterministic trace sections across same-seed chaos runs.
# --------------------------------------------------------------------------


def test_trace_sections_deterministic_under_chaos(tmp_path):
    from repro.obs.trace import deterministic_section, validate_trace

    jobs = [{**spec, "trace": True} for spec in _jobs()]
    plan = _chaos_plan(jobs)

    def run_traced(tag: str):
        report = api.execute_jobs(
            jobs,
            workers=_WORKERS,
            fault_plan=plan,
            memo_store=str(tmp_path / f"trace-{tag}.sqlite"),
        )
        sections = {}
        for result in report.results:
            trace = result.meta["trace"]
            validate_trace(trace)
            sections[result.id] = deterministic_section(result)
        return sections

    first = run_traced("a")
    second = run_traced("b")
    assert set(first) == {spec["id"] for spec in jobs}
    first_bytes = json.dumps(first, sort_keys=True)
    assert first_bytes == json.dumps(second, sort_keys=True), (
        "deterministic trace sections diverged between same-seed chaos runs"
    )
    retried = sum(
        1 for events in first.values() if events and events[-1].get("attempts", 1) > 1
    )
    assert retried >= 1, "the chaos plan never forced a retry into the traces"
    _merge_artifact(
        "trace_determinism",
        {
            "jobs": len(jobs),
            "retried_jobs": retried,
            "events_bytes": len(first_bytes),
            "identical": True,
        },
    )
