"""Tests for the observability layer (:mod:`repro.obs`).

Three contracts under test:

1. **Profiling reconciles and is backend-identical.**  The per-phase
   flamegraph totals are the same deterministic counters the result
   objects carry, and the machine and compiled backends attribute
   identically — per phase and per hoisted code label.
2. **Off means off.**  A build that never imports ``repro.obs`` produces
   byte-identical result documents and memo-store rows to one that does
   (but never activates a profile) — the hook is a slot check, not an
   import.
3. **Telemetry is out-of-band.**  Job traces ride the result meta (the
   deterministic payloads are untouched), the deterministic ``events``
   section carries no wall-clock fields, and a live metrics subscription
   delivers snapshots without perturbing batch results.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro import api, obs
from repro.api import Session
from repro.obs.trace import deterministic_section, new_trace, validate_trace
from repro.service.dispatcher import Dispatcher, PoolStats, ScalingRule
from repro.service.jobs import Job

IDENTITY = r"\ (A : Type) (x : A). x"
REDEX = r"(\ (x : Nat). succ x) 41"
TWICE = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 0"

CORPUS = [REDEX, TWICE, r"\ (x : Nat). succ x"]


# --------------------------------------------------------------------------
# 1. The profiling collector
# --------------------------------------------------------------------------


class TestProfileReconciliation:
    def _profiled_run(self, program: str, engine: str | None):
        session = Session(name="prof-test")
        with obs.activate() as profile:
            result = session.run(program, engine=engine)
        return result, profile

    @pytest.mark.parametrize("program", CORPUS)
    def test_machine_vs_compiled_totals_identical(self, program):
        _, machine = self._profiled_run(program, engine=None)
        _, compiled = self._profiled_run(program, engine="compiled")
        assert machine.totals() == compiled.totals()

    def test_totals_reconcile_with_result_counters(self):
        result, profile = self._profiled_run(REDEX, engine=None)
        phases = profile.totals()["phases"]
        assert phases["typecheck"]["weight"] == result.check_steps
        assert phases["verify"]["weight"] == result.verify_steps
        assert phases["execute"]["weight"] == result.machine_steps
        assert phases["hoist"]["weight"] == result.code_count
        assert phases["execute"]["counters"]["code_lookups"] == sum(
            profile.totals()["labels"].values()
        )

    def test_speedscope_document_is_wellformed(self):
        _, profile = self._profiled_run(TWICE, engine=None)
        document = profile.to_speedscope(name="twice")
        assert document["$schema"].startswith("https://www.speedscope.app/")
        [evented] = document["profiles"]
        assert evented["type"] == "evented" and evented["unit"] == "none"
        opens = [e for e in evented["events"] if e["type"] == "O"]
        closes = [e for e in evented["events"] if e["type"] == "C"]
        assert len(opens) == len(closes)
        assert evented["endValue"] == sum(
            record["weight"] for record in profile.phases
        )
        # Deterministic weights: re-profiling renders the same bytes.
        _, again = self._profiled_run(TWICE, engine=None)
        assert json.dumps(document, sort_keys=True) == json.dumps(
            again.to_speedscope(name="twice"), sort_keys=True
        )

    def test_activation_nests_and_restores(self):
        assert obs.active() is None
        with obs.activate() as outer:
            assert obs.active() is outer
            with obs.activate() as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None

    def test_max_counters_aggregate_by_max(self):
        profile = obs.Profile()
        profile.phase("execute", weight=1, counters={"max_env_size": 3, "steps": 2})
        profile.phase("execute", weight=1, counters={"max_env_size": 2, "steps": 2})
        counters = profile.totals()["phases"]["execute"]["counters"]
        assert counters["max_env_size"] == 3  # high-water mark, not 5
        assert counters["steps"] == 4


# --------------------------------------------------------------------------
# 2. Profiler-off byte identity against a build that never imports obs
# --------------------------------------------------------------------------

_RUN_SCRIPT = """
import json, sqlite3, sys
{prelude}
from repro import api
specs = json.loads({specs!r})
report = api.execute_jobs(specs, memo_store={store!r})
{postlude}
rows = sqlite3.connect({store!r}).execute(
    "SELECT key, steps, result FROM memo ORDER BY key"
).fetchall()
digest = [[row[0].hex(), row[1], row[2].hex()] for row in rows]
print(json.dumps({{"report": report.canonical(), "memo": digest}}, sort_keys=True))
"""


class TestProfilerOffByteIdentity:
    def _run(self, tmp_path, name: str, prelude: str, postlude: str = "") -> bytes:
        specs = json.dumps(
            [
                {"id": "b0", "kind": "normalize", "program": REDEX},
                {"id": "b1", "kind": "run", "program": TWICE},
                {"id": "b2", "kind": "compile_py", "program": REDEX},
                {"id": "b3", "kind": "check", "program": "0 0"},
            ]
        )
        store = str(tmp_path / f"{name}.sqlite")
        script = _RUN_SCRIPT.format(
            prelude=prelude, specs=specs, store=store, postlude=postlude
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_results_and_store_identical_without_obs_import(self, tmp_path):
        # The baseline *is* the pre-observability build: it asserts
        # repro.obs was never imported by the default pipeline.
        baseline = self._run(
            tmp_path,
            "plain",
            prelude="",
            postlude="assert 'repro.obs' not in sys.modules, 'obs leaked into the default pipeline'",
        )
        with_obs = self._run(tmp_path, "obs", prelude="import repro.obs")
        assert baseline == with_obs


# --------------------------------------------------------------------------
# 3. PoolStats drift audit
# --------------------------------------------------------------------------


class TestPoolStatsDrift:
    def test_every_field_reaches_the_wire(self):
        field_names = {spec.name for spec in dataclasses.fields(PoolStats)}
        assert set(PoolStats().to_dict()) == field_names

    def test_sentinel_round_trip(self):
        sentinels = {}
        kwargs = {}
        for index, spec in enumerate(dataclasses.fields(PoolStats)):
            if spec.type in ("int", int):
                kwargs[spec.name] = sentinels[spec.name] = 1000 + index
        document = PoolStats(**kwargs).to_dict()
        for name, value in sentinels.items():
            assert document[name] == value, f"{name} dropped or mangled"

    def test_slot_maps_are_string_keyed_copies(self):
        stats = PoolStats(
            jobs_per_slot={1: 4, 0: 2},
            slots={"0": {"alive": True}},
            cache_hits={"kernel.judgments": 3},
        )
        document = stats.to_dict()
        assert document["jobs_per_slot"] == {"0": 2, "1": 4}
        document["cache_hits"]["kernel.judgments"] = 99
        assert stats.cache_hits["kernel.judgments"] == 3  # copied, not aliased


# --------------------------------------------------------------------------
# 4. Job tracing
# --------------------------------------------------------------------------


def _traced(specs: list[dict]) -> list[dict]:
    return [{**spec, "trace": True} for spec in specs]


_TRACE_SPECS = [
    {"id": "t0", "kind": "normalize", "program": REDEX},
    {"id": "t1", "kind": "run", "program": TWICE},
    {"id": "t2", "kind": "check", "program": "0 0"},
]


class TestTrace:
    def test_wire_round_trip(self):
        job = Job.from_dict({"id": "x", "kind": "parse", "program": REDEX, "trace": True})
        assert job.trace is True
        assert job.to_dict()["trace"] is True
        assert "trace" not in Job(kind="parse", program=REDEX).to_dict()

    def test_solo_trace_rides_meta_only(self):
        plain = api.execute_jobs(_TRACE_SPECS)
        traced = api.execute_jobs(_traced(_TRACE_SPECS))
        assert traced.canonical() == plain.canonical()
        for result in traced.results:
            trace = result.meta["trace"]
            validate_trace(trace)
            kinds = [event["ev"] for event in trace["events"]]
            assert kinds == ["execute", "complete"]
            assert any(entry["ev"] == "memo" for entry in trace["timeline"])
        for result in plain.results:
            assert "trace" not in result.meta
            assert deterministic_section(result) is None

    def test_pooled_trace_adds_submit_and_attempts(self):
        report = api.execute_jobs(_traced(_TRACE_SPECS), workers=1)
        plain = api.execute_jobs(_TRACE_SPECS)
        assert report.canonical() == plain.canonical()
        seqs = []
        for result in report.results:
            trace = result.meta["trace"]
            validate_trace(trace)
            events = trace["events"]
            assert events[0]["ev"] == "submit"
            seqs.append(events[0]["seq"])
            assert events[-1]["ev"] == "complete"
            assert events[-1]["attempts"] == 1
            assert any(entry["ev"] == "dispatch" for entry in trace["timeline"])
        assert seqs == sorted(seqs)  # monotonic in submission order

    def test_validate_trace_rejects_leaks(self):
        validate_trace(new_trace())
        with pytest.raises(ValueError, match="unknown trace sections"):
            validate_trace({"events": [], "timeline": [], "extra": []})
        with pytest.raises(ValueError, match="non-deterministic"):
            validate_trace({"events": [{"ev": "dispatch", "slot": 1}]})
        with pytest.raises(ValueError, match="wall-clock"):
            validate_trace({"events": [{"ev": "complete", "ok": True, "at": 1.0}]})
        with pytest.raises(ValueError, match="timeline"):
            validate_trace({"timeline": [{"ev": "submit", "seq": 0}]})


# --------------------------------------------------------------------------
# 5. Live telemetry: supervisor signals and the metrics stream
# --------------------------------------------------------------------------


#: The keys of an elastic pool's scaling signals.
SIGNAL_KEYS = {
    "depth",
    "active",
    "completion_rate",
    "memo_hit_rate",
    "high_watermark",
    "low_watermark",
    "min_workers",
    "max_workers",
    "scale_ups",
    "scale_downs",
    "stalled_ticks",
}


class TestSupervisorSignals:
    def test_signal_document_shape(self):
        with Dispatcher(workers=1, max_workers=2) as pool:
            signals = pool.scaling.signals()
        assert set(signals) == SIGNAL_KEYS
        assert signals["memo_hit_rate"] is None
        assert (signals["min_workers"], signals["max_workers"]) == (1, 2)
        json.dumps(signals)  # NDJSON-able

    def test_memo_hit_rate_counts_each_lookup_once(self, tmp_path):
        """The rate reads a real tier document, whose ``tier_hits`` repeats ``hits``."""
        path = tmp_path / "memo.sqlite"
        cold = Session(name="cold")
        cold.attach_memo_store(path)
        cold.normalize(REDEX)
        cold.detach_memo_store()
        warm = Session(name="warm")
        tier = warm.attach_memo_store(path)
        warm.normalize(REDEX)
        warm.normalize("(\\ (x : Nat). succ (succ x)) 1")
        counters = tier.counters()
        warm.detach_memo_store()
        assert counters["hits"] > 0 and counters["misses"] > 0
        assert counters["tier_hits"] == counters["hits"]
        hits = counters["hits"] + counters["artifact_hits"]
        lookups = hits + counters["misses"] + counters["artifact_misses"]
        rate = ScalingRule(1, 2).signals
        assert rate(counters)["memo_hit_rate"] == pytest.approx(hits / lookups)
        assert rate(
            {"hits": 2, "misses": 1, "tier_hits": 2, "artifact_hits": 0, "artifact_misses": 0}
        )["memo_hit_rate"] == pytest.approx(2 / 3)
        assert rate(None)["memo_hit_rate"] is None
        assert rate({"breakers_open": 0})["memo_hit_rate"] is None


class TestWatchStats:
    def test_metrics_stream_during_live_batch(self):
        from repro.service import ServiceClient, serve_background

        jobs = [{"id": f"w{i}", "kind": "normalize", "program": REDEX} for i in range(4)]
        jobs += [{"id": f"s{i}", "kind": "sleep", "seconds": 0.08} for i in range(4)]
        solo = api.execute_jobs(jobs)
        seen = []
        with serve_background(min_workers=1, max_workers=2) as server:
            with ServiceClient(server.host, server.port) as client:
                client.watch_stats(interval=0.05, callback=seen.append)
                documents = client.run_batch(jobs)
                client.unwatch_stats()
        stripped = [{k: v for k, v in doc.items() if k != "meta"} for doc in documents]
        assert stripped == solo.canonical()
        assert len(client.metrics) >= 2, "expected at least two snapshots mid-batch"
        assert seen == client.metrics
        for snapshot in client.metrics:
            assert snapshot["op"] == "metrics"
            assert "pool" in snapshot and "endpoint" in snapshot
            assert set(snapshot["supervisor"]) == SIGNAL_KEYS  # elastic pool publishes signals
            assert "queues" in snapshot
        summary = obs.summarize_snapshot(client.metrics[-1])
        assert "workers" in summary and "pending" in summary

    def test_a_fixed_pool_publishes_no_signals(self):
        from repro.service import Endpoint

        with Dispatcher(workers=1) as pool:
            snapshot = Endpoint(pool).metrics_snapshot()
        assert "pool" in snapshot and "supervisor" not in snapshot

    def test_summarize_snapshot_minimal(self):
        line = obs.summarize_snapshot({"pool": {"active": 2, "pending": 1}})
        assert line.startswith("workers 2")


# --------------------------------------------------------------------------
# 6. store stat: artifact table reporting
# --------------------------------------------------------------------------


class TestStoreStatArtifacts:
    def test_reports_bytes_and_orphans(self, tmp_path):
        from repro.wire.persist import _seal, store_stat

        store = tmp_path / "memo.sqlite"
        session = Session(name="store-test")
        session.attach_memo_store(str(store))
        session.run(REDEX, engine="compiled")
        session.detach_memo_store()

        report = store_stat(str(store))
        assert report["artifact_valid"] >= 1
        assert report["artifact_bytes"] > 0
        assert report["artifact_orphaned"] == 0
        assert report["memo_bytes"] >= 0

        # A validly-sealed row that is not an RPYC artifact is an orphan.
        bogus_key, bogus_blob = b"orphan-key", b"NOPE not an artifact"
        conn = sqlite3.connect(str(store))
        conn.execute(
            "INSERT INTO artifact (key, steps, result, seal) VALUES (?, ?, ?, ?)",
            (bogus_key, 0, bogus_blob, _seal(bogus_key, 0, bogus_blob)),
        )
        conn.commit()
        conn.close()
        report = store_stat(str(store))
        assert report["artifact_orphaned"] == 1
        assert report["artifact_invalid"] == 0  # sealed fine; orphaned is separate


# --------------------------------------------------------------------------
# 7. CLI surfaces
# --------------------------------------------------------------------------


class TestCLI:
    def test_profile_emits_reconciling_speedscope(self, tmp_path, capsys):
        from repro.__main__ import main

        out_machine = tmp_path / "machine.json"
        out_py = tmp_path / "py.json"
        assert main(["profile", "-e", REDEX, "-o", str(out_machine)]) == 0
        assert main(["profile", "-e", REDEX, "--target", "py", "-o", str(out_py)]) == 0
        capsys.readouterr()
        machine = json.loads(out_machine.read_text())
        compiled = json.loads(out_py.read_text())
        assert machine["totals"] == compiled["totals"]
        assert machine["profiles"][0]["events"]

    def test_profile_stdout_is_json(self, capsys):
        from repro.__main__ import main

        assert main(["profile", "-e", REDEX]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["exporter"] == "repro-obs"

    def test_batch_profile_requires_solo(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "batch.json"
        assert (
            main(["batch", "--gen-seed", "3", "--workers", "2", "--profile", str(out)])
            == 1
        )
        assert "solo" in capsys.readouterr().err

    def test_batch_profile_solo(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "batch.json"
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "\n".join(
                json.dumps(spec)
                for spec in [
                    {"id": "p0", "kind": "run", "program": REDEX},
                    {"id": "p1", "kind": "compile_py", "program": REDEX},
                ]
            )
        )
        assert main(["batch", str(jobs), "--profile", str(out)]) == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        assert document["totals"]["phases"]["execute"]["weight"] > 0
