"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCheck:
    def test_check_expr(self, capsys):
        assert main(["check", "-e", r"\ (A : Type) (x : A). x"]) == 0
        out = capsys.readouterr().out
        assert "Π (A : ⋆). A -> A" in out

    def test_check_file(self, tmp_path, capsys):
        source = tmp_path / "program.cc"
        source.write_text(r"(\ (x : Nat). succ x) 4" + "\n-- a comment\n")
        assert main(["check", str(source)]) == 0
        assert "Nat" in capsys.readouterr().out

    def test_ill_typed_fails(self, capsys):
        assert main(["check", "-e", "0 0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_fails(self, capsys):
        assert main(["check", "-e", "(("]) == 1
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        assert main(["check", "/nonexistent/program.cc"]) == 1


class TestCompile:
    def test_compile_verified(self, capsys):
        assert main(["compile", "-e", r"\ (x : Nat). x"]) == 0
        out = capsys.readouterr().out
        assert "⟨⟨" in out
        assert "verified" in out

    def test_compile_no_verify(self, capsys):
        assert main(["compile", "--no-verify", "-e", r"\ (x : Nat). x"]) == 0
        assert "verified" not in capsys.readouterr().out


class TestRun:
    def test_run_ground_program(self, capsys):
        assert main(["run", "-e", r"(\ (x : Nat). succ x) 41"]) == 0
        out = capsys.readouterr().out
        assert "value        : 42" in out
        assert "code blocks" in out

    def test_run_higher_order(self, capsys):
        assert main(
            ["run", "-e", r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 0"]
        ) == 0
        assert "value        : 2" in capsys.readouterr().out

    def test_run_closure_value(self, capsys):
        assert main(["run", "-e", r"\ (x : Nat). x"]) == 0
        assert "MClo" in capsys.readouterr().out


class TestDecompileAndHoist:
    def test_decompile_reports_roundtrip(self, capsys):
        assert main(["decompile", "-e", r"\ (x : Nat). x"]) == 0
        assert "e ≡ (e⁺)°: True" in capsys.readouterr().out

    def test_hoist_prints_code_table(self, capsys):
        assert main(["hoist", "-e", r"(\ (A : Type) (x : A). x) Nat 1"]) == 0
        out = capsys.readouterr().out
        assert "code$0" in out and "main" in out


class TestDeepPrograms:
    """Every program command gets its result on a deep input: the CLI runs
    on the same deep-stack runner boundary as the executor."""

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        from repro.surface import to_surface
        from tests.test_deep import nat_sum, nested_lambdas

        directory = tmp_path_factory.mktemp("deep")
        paths = {}
        for name, term in (("nested_lambdas", nested_lambdas(400)), ("nat_sum", nat_sum(400))):
            paths[name] = directory / f"{name}.cc"
            paths[name].write_text(to_surface(term))
        return paths

    @pytest.mark.parametrize("program", ["nested_lambdas", "nat_sum"])
    @pytest.mark.parametrize(
        "command",
        [["check"], ["normalize"], ["compile"], ["run"], ["run", "--target", "py"],
         ["hoist"], ["decompile"]],
        ids=" ".join,
    )
    def test_command_succeeds(self, sources, capsys, command, program):
        assert main([*command, str(sources[program])]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("program", ["nested_lambdas", "nat_sum"])
    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_json_is_the_session_document(self, sources, capsys, command, program):
        from repro.api import Session

        assert main([command, "--json", str(sources[program])]) == 0
        telemetry = {"session", "cache_hits", "elapsed_seconds"}
        document = json.loads(capsys.readouterr().out)
        text = sources[program].read_text()
        expected = getattr(Session(), command)(text).to_dict()
        assert {key: value for key, value in document.items() if key not in telemetry} == {
            key: value for key, value in expected.items() if key not in telemetry
        }


class TestJsonOutput:
    """``--json`` emits the structured session result for machine consumption."""

    def test_check_json(self, capsys):
        assert main(["check", "--json", "-e", r"\ (A : Type) (x : A). x"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["type"] == "Π (A : ⋆). A -> A"
        assert document["engine"] == "nbe"
        assert document["steps"] == 0
        assert set(document["cache_hits"]) == {"kernel.normalization", "kernel.judgments"}

    def test_normalize_json_reports_steps_and_engine(self, capsys):
        assert main(["normalize", "--json", "-e", r"(\ (x : Nat). succ x) 41"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["normal"] == "42"
        assert document["type"] == "Nat"
        assert document["steps"] == 1
        assert document["engine"] == "nbe"
        assert document["elapsed_seconds"] >= 0

    def test_normalize_json_subst_engine(self, capsys):
        assert main(
            ["normalize", "--json", "--engine", "subst", "-e", r"(\ (x : Nat). succ x) 4"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["normal"] == "5"
        assert document["engine"] == "subst"

    def test_compile_json(self, capsys):
        assert main(["compile", "--json", "-e", r"\ (x : Nat). x"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["verified"] is True
        assert "⟨⟨" in document["target"]
        assert document["verify_steps"] >= 0
        assert any("Theorem 5.6" in note for note in document["diagnostics"])

    def test_compile_json_no_verify(self, capsys):
        assert main(["compile", "--json", "--no-verify", "-e", r"\ (x : Nat). x"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["verified"] is False

    def test_json_error_still_plain(self, capsys):
        assert main(["check", "--json", "-e", "0 0"]) == 1
        assert "error" in capsys.readouterr().err


class TestLink:
    IMPORTS = ["--assume", "n : Nat", "--import", "n=41"]

    def test_link_plain(self, capsys):
        assert main(["link", "-e", "succ n", *self.IMPORTS]) == 0
        out = capsys.readouterr().out
        assert "linked : 42" in out  # succ 41 renders as the literal
        assert "type   : Nat" in out

    def test_link_json(self, capsys):
        assert main(["link", "--json", "-e", "succ n", *self.IMPORTS]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["term"] == "42"
        assert document["type"] == "Nat"
        assert any("1 import(s)" in note for note in document["diagnostics"])

    def test_link_missing_import_fails(self, capsys):
        assert main(["link", "-e", "succ n", "--assume", "n : Nat"]) == 1
        assert "error" in capsys.readouterr().err

    def test_link_malformed_assume_fails(self, capsys):
        assert main(["link", "-e", "0", "--assume", "nonsense"]) == 1
        assert "--assume" in capsys.readouterr().err


class TestRunJson:
    def test_run_json(self, capsys):
        assert main(["run", "--json", "-e", r"(\ (x : Nat). succ x) 41"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["value"] == 42
        assert document["verified"] is True
        assert document["machine_steps"] > 0


class TestBatch:
    def test_batch_jsonl_file(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"id": "a", "kind": "normalize", "program": "(\\\\ (x : Nat). succ x) 41"}\n'
            '{"id": "b", "kind": "check", "program": "\\\\ (x : Nat). x"}\n'
        )
        assert main(["batch", str(jobs)]) == 0
        out = capsys.readouterr().out
        assert "ok   a" in out and "ok   b" in out
        assert "2 job(s)" in out

    def test_batch_json_array_file_with_json_output(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(
            '[{"id": "a", "kind": "normalize", "program": "(\\\\ (x : Nat). succ x) 4"}]'
        )
        assert main(["batch", "--json", str(jobs)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["results"][0]["payload"]["normal"] == "5"
        assert document["stats"]["completed"] == 1

    def test_batch_failed_job_exits_nonzero(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"id": "bad", "kind": "check", "program": "0 0"}\n')
        assert main(["batch", str(jobs)]) == 1
        assert "FAIL bad" in capsys.readouterr().out

    def test_batch_malformed_json_is_a_clean_error(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"kind": "check", "program"\n')
        assert main(["batch", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad job stream:")

    def test_batch_unknown_job_field_is_a_clean_error(self, tmp_path, capsys):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"kind": "check", "program": "0", "bogus": 1}\n')
        assert main(["batch", str(jobs)]) == 1
        assert "unknown job fields" in capsys.readouterr().err

    def test_batch_zero_gen_builds_is_a_clean_error(self, capsys):
        assert main(["batch", "--gen-builds", "0"]) == 1
        assert "--gen-builds" in capsys.readouterr().err

    def test_batch_generated_corpus_pooled(self, capsys):
        assert main(
            ["batch", "--gen-seed", "9", "--gen-builds", "2", "--gen-count", "2",
             "--gen-passes", "1", "--workers", "2", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["stats"]["workers"] == 2
        # One reset per build plus the corpus passes.
        kinds = [len(result["payload"]) for result in document["results"]]
        assert len(kinds) == 2 * (1 + 2)


def _assert_one_line_error(capsys) -> str:
    """The CLI's error contract: one ``error:`` line on stderr, no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "line",
        [
            '{"kind": "check", "program": "0", "deadline": "5"}',
            '{"kind": "link", "program": "0", "interface": 5}',
            '{"kind": "link", "program": "0", "imports": [1, 2]}',
            '{"kind": "check", "program": "0", "verify": "no"}',
            '{"kind": "check", "program": "0", "trace": "no"}',
            '{"kind": "check", "program": "0", "fuel": true}',
            '{"kind": "sleep", "seconds": "x"}',
            '{"kind": "check", "program": 5}',
            "[1, 2]",
        ],
    )
    @pytest.mark.parametrize("flags", [[], ["--wire", "binary"], ["--chaos-seed", "1"]])
    def test_batch_mistyped_spec_is_a_clean_error(self, tmp_path, capsys, line, flags):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(line + "\n")
        assert main(["batch", str(jobs), *flags]) == 1
        _assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags", [[], ["--wire", "binary"], ["--chaos-seed", "1"]])
    def test_batch_mistyped_id_names_the_job_field(self, tmp_path, capsys, flags):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"kind": "check", "program": "0", "id": 7}\n')
        assert main(["batch", str(jobs), *flags]) == 1
        assert "job field 'id' must be a string" in _assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "plan",
        [
            '{"faults": [{"job_id": "a"}]}',
            '{"faults": [{"kind": "kill", "job_id": "a", "attempts": "x"}]}',
            "this is not json",
        ],
    )
    def test_serve_malformed_chaos_plan_is_a_clean_error(self, tmp_path, capsys, plan):
        path = tmp_path / "plan.json"
        path.write_text(plan)
        assert main(["serve", "--port", "0", "--chaos-plan", str(path)]) == 1
        _assert_one_line_error(capsys)


class TestBadFlags:
    """Bad ``serve``/``batch`` values: one ``error:`` line naming the flag."""

    @pytest.fixture(autouse=True)
    def _no_server(self, monkeypatch):
        # A value the checks miss would start a server that never returns.
        def refuse(*args, **kwargs):
            raise AssertionError("serve started despite a bad flag")

        monkeypatch.setattr("repro.service.endpoint.serve", refuse)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["serve", "--port", "0", "--conn-window", "0"], "--conn-window"),
            (["serve", "--port", "0", "--max-inflight", "0"], "--max-inflight"),
            (["serve", "--port", "0", "--min-workers", "0"], "--min-workers"),
            (["serve", "--port", "0", "--metrics-interval", "-1"], "--metrics-interval"),
            (["serve", "--port", "0", "--max-workers", "0"], "--max-workers"),
            (["serve", "--port", "0", "--job-timeout", "-1"], "--job-timeout"),
            (["serve", "--port", "0", "--fuel-quota", "-5"], "--fuel-quota"),
            (["batch", "--window", "0"], "--window"),
            (["batch", "--workers", "-1"], "--workers"),
            (["batch", "--job-timeout", "0"], "--job-timeout"),
            (["batch", "--gen-count", "-3"], "--gen-count"),
            (["batch", "--gen-passes", "0"], "--gen-passes"),
        ],
    )
    def test_bad_flag_is_a_clean_error(self, capsys, argv, flag):
        assert main(argv) == 1
        assert _assert_one_line_error(capsys).startswith(f"error: {flag} ")


class TestArgumentHandling:
    def test_requires_input(self):
        with pytest.raises(SystemExit):
            main(["check"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestChaosBatch:
    def test_chaos_seed_injects_a_deterministic_plan(self, capsys):
        argv = [
            "batch", "--gen-seed", "5", "--gen-builds", "2", "--gen-count", "2",
            "--gen-passes", "1", "--workers", "2", "--chaos-seed", "11", "--json",
        ]
        # The generated plan always includes one poison job, so the batch
        # reports failure — but with a structured dead-letter document, not
        # a hang or a crashed pool.
        assert main(list(argv)) == 1
        document = json.loads(capsys.readouterr().out)
        chaos = document["stats"]["chaos"]
        assert chaos["seed"] == 11
        assert chaos["faults"] > 0
        letters = [
            result for result in document["results"]
            if not result["ok"] and result["error"].get("dead_letter")
        ]
        assert letters and document["stats"]["exhausted"] == len(letters)
        # Same seed, same corpus: the second run draws the identical plan
        # and diverges on the identical jobs.
        assert main(list(argv)) == 1
        second = json.loads(capsys.readouterr().out)
        assert second["stats"]["chaos"] == chaos
        assert second["stats"]["exhausted"] == document["stats"]["exhausted"]


class TestServeConnect:
    def test_batch_connect_streams_through_a_live_endpoint(self, tmp_path, capsys):
        from repro.service import serve_background

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"id": "a", "kind": "normalize", "program": "(\\\\ (x : Nat). succ x) 41"}\n'
            '{"id": "b", "kind": "check", "program": "0 0"}\n'
        )
        assert main(["batch", "--json", str(jobs)]) == 1  # b is ill-typed
        solo = json.loads(capsys.readouterr().out)
        with serve_background(min_workers=1) as server:
            address = f"{server.host}:{server.port}"
            assert main(["batch", "--json", "--connect", address, str(jobs)]) == 1
        remote = json.loads(capsys.readouterr().out)
        # The deterministic halves are byte-identical to the local run.
        strip = lambda results: [
            {k: v for k, v in doc.items() if k != "meta"} for doc in results
        ]
        assert strip(remote["results"]) == strip(solo["results"])
        # The --json stats surface the pool *and* endpoint telemetry.
        assert remote["stats"]["connect"] == address
        assert remote["stats"]["client"]["reconnects"] == 0
        assert remote["stats"]["pool"]["completed"] >= 2
        assert remote["stats"]["endpoint"]["accepted"] >= 2

    def test_batch_connect_with_chaos_seed_heals_to_identical_bytes(
        self, tmp_path, capsys
    ):
        from repro.service import serve_background

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "\n".join(
                json.dumps(
                    {"id": f"c{i}", "kind": "normalize",
                     "program": "(\\ (x : Nat). succ x) 41"}
                )
                for i in range(8)
            )
            + "\n"
        )
        assert main(["batch", "--json", str(jobs)]) == 0
        solo = json.loads(capsys.readouterr().out)
        with serve_background(min_workers=1) as server:
            address = f"{server.host}:{server.port}"
            assert main(
                ["batch", "--json", "--connect", address,
                 "--chaos-seed", "13", str(jobs)]
            ) == 0
        chaotic = json.loads(capsys.readouterr().out)
        strip = lambda results: [
            {k: v for k, v in doc.items() if k != "meta"} for doc in results
        ]
        # Client-side connection chaos changes nothing but timing.
        assert strip(chaotic["results"]) == strip(solo["results"])
        assert chaotic["stats"]["chaos"]["seed"] == 13


    @pytest.mark.parametrize("flags", [["--memo-store", "m.sqlite"], ["--job-timeout", "5"]])
    def test_batch_connect_refuses_local_pool_options(self, tmp_path, capsys, monkeypatch, flags):
        # The endpoint owns its pool and store: refused before any connection.
        monkeypatch.chdir(tmp_path)
        argv = ["batch", "--gen-seed", "3", "--gen-count", "2", "--connect", "127.0.0.1:9"]
        assert main(argv + flags) == 1
        assert "cannot be set with it" in _assert_one_line_error(capsys)
        assert not (tmp_path / "m.sqlite").exists()


class TestStoreMaintenance:
    def _seeded_store(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            '{"id": "a", "kind": "normalize", "program": "(\\\\ (x : Nat). succ x) 41"}\n'
        )
        assert main(["batch", "--memo-store", str(path), str(jobs)]) == 0
        return path

    def test_store_stat_plain_and_json(self, tmp_path, capsys):
        path = self._seeded_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "stat", str(path)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "valid" in out
        assert main(["store", "stat", str(path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] == document["valid"] > 0
        assert document["invalid"] == 0

    def test_store_scrub_and_compact(self, tmp_path, capsys):
        path = self._seeded_store(tmp_path)
        capsys.readouterr()
        assert main(["store", "scrub", str(path), "--json"]) == 0
        scrub = json.loads(capsys.readouterr().out)
        assert scrub["salvaged"] == scrub["scanned"] > 0
        assert scrub["discarded"] == 0
        assert main(["store", "compact", str(path), "--json"]) == 0
        compact = json.loads(capsys.readouterr().out)
        assert compact["removed"] == 0 and compact["entries"] > 0

    def test_store_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["store", "stat", str(tmp_path / "missing.sqlite")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.sqlite" in err


class TestArtifactHandOff:
    """``compile --target py`` publishes the artifact a later ``run`` loads."""

    PROGRAM = r"(\ (f : Nat -> Nat) (x : Nat). f (f x)) (\ (y : Nat). succ y) 5"

    def test_compile_py_artifact_serves_a_fresh_session(self, tmp_path, capsys):
        from repro import api

        store = str(tmp_path / "artifacts.sqlite")
        argv = ["compile", "--target", "py", "--memo-store", store, "--json", "-e", self.PROGRAM]
        assert main(argv) == 0
        compiled = json.loads(capsys.readouterr().out)
        session = api.Session()
        tier = session.attach_memo_store(store)
        try:
            result = session.run(self.PROGRAM, engine="compiled")
            stats = tier.stats()
        finally:
            session.detach_memo_store()
        assert result.artifact == compiled["artifact"]
        assert result.compile_result is None
        assert stats["artifact_hits"] >= 1
        assert result.observed == api.Session().run(self.PROGRAM).observed == 7


class TestMemoStoreFlush:
    """Every ``--memo-store`` command flushes its rows before it exits."""

    # Checking it normalizes the binder's type: one memo row to persist.
    PROGRAM = r"(\ (b : (\ (T : Type). T) Nat). succ b) 3"

    @pytest.mark.parametrize("command", ["compile", "run"])
    def test_memo_rows_reach_the_store(self, tmp_path, capsys, command):
        store = str(tmp_path / "memo.sqlite")
        assert main([command, "--memo-store", store, "-e", self.PROGRAM]) == 0
        capsys.readouterr()
        assert main(["store", "stat", store, "--json"]) == 0
        stat = json.loads(capsys.readouterr().out)
        assert stat["entries"] == stat["valid"] >= 1
