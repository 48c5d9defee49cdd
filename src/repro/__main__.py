"""Command-line interface: ``python -m repro <command>``.

Every subcommand runs inside one :class:`repro.api.Session` — an isolated
engine workspace.  Program commands read a CC program from a file path or
inline via ``-e/--expr``.

``check``, ``normalize``, ``compile``, ``run`` and ``link`` are the rows of
the service's entrypoint table (:data:`repro.service.jobs.ENTRYPOINTS`):
each command builds the job it stands for (``run --target py`` is a
``compile_py`` job; ``link`` takes its interface Γ from ``--assume
'n : Nat'`` and its closing substitution from ``--import 'n=41'``) and
calls the same ``Session`` method a batch job of that kind calls.
``--json`` prints the result's ``to_dict()`` — the payload in the
program's source spelling plus telemetry (engine, session, cache hits,
diagnostics) — with the kind's extra payload keys and the command's
``elapsed_seconds``; ``--wire binary`` adds the ``*_b64`` encodings.  Text
mode prints a few labelled keys of the same document.  ``--memo-store``
attaches the persistent tier for the whole command and flushes it at the
end.  ``compile --target py`` stages the hoisted program into the
compile-to-host backend without running it (``Session.stage``) and prints
the artifact, which a later ``run --target py`` with the same store loads
instead of compiling.

The other commands:

* ``decompile`` — compile, then translate back through the Figure 8
  model; print the CC image and whether ``e ≡ (e⁺)°`` held.
* ``hoist``     — compile and print the static code table.
* ``profile``   — run a program under the per-span cost profiler
  (:mod:`repro.obs`) and emit a deterministic speedscope flamegraph:
  pipeline phases weighted by the same fuel/step counters the results
  carry, per-code-label β-entry counts inside the execute phase, and
  byte-identical totals between ``--target machine`` and ``--target py``.
  ``batch --profile PATH`` profiles a whole solo job stream the same way.
* ``batch``     — execute a stream of service jobs (JSONL file or a
  generated ``gen/`` corpus) in-process or across a worker pool:
  ``--workers N`` shards the batch over N processes (0 = solo),
  ``--wire binary`` re-encodes program jobs onto the binary DAG wire,
  ``--memo-store PATH`` attaches the persistent memo tier (shared across
  workers, surviving restarts), ``--gen-kinds run,compile_py`` picks the
  job-kind rotation of the generated corpus, ``--chaos-seed N`` runs the
  batch under a small seeded fault plan (the robustness harness of
  ``repro.service.faults``); ``--connect HOST:PORT`` streams the batch to
  a running ``serve`` endpoint instead (``--chaos-seed`` then schedules
  *client-side* connection faults, healed by reconnect-and-resubmit).
  ``batch --json`` emits the full report (results in submission order
  plus pool stats).
* ``serve``     — run the streaming service endpoint: an NDJSON socket
  server over an elastic worker pool with admission control (one job per
  connection per turn, straight into the pool), per-client fuel quotas,
  per-job deadlines, and graceful drain on SIGTERM (zero
  accepted-and-lost); ``--metrics-interval N`` streams live
  NDJSON telemetry snapshots, and clients may subscribe to the same
  stream with the ``watch`` op.
* ``store``     — maintain a persistent memo store: ``stat`` reports row
  and seal-validity counts plus payload byte totals for both the memo and
  compiled-artifact tables, ``scrub`` rebuilds the file from its
  validly-sealed rows, ``compact`` deletes invalid rows in place and
  vacuums.

Examples::

    python -m repro check -e '\\ (A : Type) (x : A). x'
    python -m repro check --json -e '\\ (A : Type) (x : A). x'
    python -m repro run --json -e '(\\ (x : Nat). succ x) 41'
    python -m repro run --target py --memo-store memo.sqlite -e '(\\ (x : Nat). succ x) 41'
    python -m repro compile --target py -e '\\ (x : Nat). x'
    python -m repro link -e 'n' --assume 'n : Nat' --import 'n=41'
    python -m repro compile program.cc
    python -m repro batch jobs.jsonl --workers 4 --json
    python -m repro batch --gen-seed 7 --gen-builds 2 --workers 2
    python -m repro batch --gen-seed 7 --workers 2 --chaos-seed 11
    python -m repro serve --port 7420 --min-workers 1 --max-workers 4
    python -m repro batch --gen-seed 7 --connect 127.0.0.1:7420
    python -m repro store stat memo.sqlite
    python -m repro store scrub memo.sqlite --json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import cc, cccc
from repro.api import Session
from repro.common import deep
from repro.common.errors import ReproError
from repro.kernel.state import ENGINES
from repro.machine import check_program, hoist
from repro.model import decompile
from repro.service.jobs import ENTRYPOINTS, PROGRAM_KINDS, Entrypoint, Job, call
from repro.surface import parse_term

__all__ = ["main"]


def _read_source(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    with open(args.file, encoding="utf-8") as handle:
        return handle.read()


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("file", nargs="?", help="path to a surface-syntax program")
    group.add_argument("-e", "--expr", help="inline surface-syntax program")


def _add_pool_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker-pool options ``batch`` and ``serve`` share."""
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="nbe",
        help="normalization engine every worker session boots with",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="seconds one job may run before its worker is recycled",
    )


def _emit_json(document: dict) -> int:
    print(json.dumps(document, indent=2, default=str))
    return 0


#: Text mode: the document keys each Session method's command prints, as a
#: key (labelled with its words) or a ``(label, key)`` pair.  A None or
#: False value is left out.
_TEXT = {
    "check": ("term", "type"),
    "normalize": ("term", "normal", "engine", "steps", ("elapsed", "elapsed_seconds")),
    "compile": ("target", "target_type", "verified"),
    "stage": ("artifact", "key", "code_blocks", "size_bytes", "stored"),
    "run": ("value", "code_blocks", ("steps", "machine_steps"), ("closures", "closure_allocs"),
            ("env cells", "tuple_allocs"), "projections", "env_allocs", "max_env_size",
            "artifact"),
    "link": (("linked", "term"), "type", "steps"),
}


#: ``compile --target py``: stage without running, a row of no job kind.
_STAGE = Entrypoint("stage", lambda job: {"verify": job.verify})


def _program_job(args: argparse.Namespace) -> Job:
    """The service job a program command stands for."""
    interface = []
    for entry in args.assume or []:
        name, _, type_text = entry.partition(":")
        if not name.strip() or not type_text.strip():
            raise ReproError(f"malformed --assume {entry!r} (expected 'name : TYPE')")
        interface.append((name.strip(), type_text))
    imports: dict[str, str] = {}
    for entry in args.imports or []:
        name, separator, term_text = entry.partition("=")
        if not separator or not name.strip():
            raise ReproError(f"malformed --import {entry!r} (expected 'name=TERM')")
        imports[name.strip()] = term_text
    program = _read_source(args)
    if not program:  # a job needs a program: let the parser report the empty one
        parse_term(program)
    return Job(
        kind="compile_py" if args.command == "run" and args.target == "py" else args.command,
        program=program,
        engine=args.engine,
        verify=not args.no_verify,
        imports=imports,
        interface=tuple(interface),
        wire=2 if args.wire == "binary" else 1,
    )


def _cmd_program(session: Session, args: argparse.Namespace) -> int:
    """``check``/``normalize``/``compile``/``run``/``link``: one entrypoint-table row.

    The program keeps its source spelling (the Session's ``to_dict()``);
    ``--wire binary`` adds the ``*_b64`` encodings, ``--memo-store``
    attaches the persistent tier for the whole command and flushes it at
    the end, and ``compile --target py`` stages without running.
    """
    job = _program_job(args)
    row = _STAGE if job.kind == "compile" and args.target == "py" else ENTRYPOINTS[job.kind]
    if args.memo_store is not None:
        session.attach_memo_store(args.memo_store)
    try:
        start = time.perf_counter()
        document = call(
            session, row, job, lambda: job.program,
            lambda result, extras: result.to_dict(binary=job.wire == 2, **extras),
        )
        elapsed = time.perf_counter() - start
    finally:
        session.detach_memo_store()  # flush the tier's rows (no-op when unattached)
    document["elapsed_seconds"] = elapsed
    if args.json:
        return _emit_json(document)
    lines = []
    for entry in _TEXT[row.method]:
        label, key = (entry.replace("_", " "), entry) if type(entry) is str else entry
        value = document.get(key)
        if value is not None and value is not False:
            lines.append((label, value))
    wire = [f"{key} {len(value)} chars" for key, value in document.items() if key.endswith("_b64")]
    if wire:
        lines.append(("wire", ", ".join(wire)))
    width = max(len(label) for label, _ in lines)
    for label, value in lines:
        print(f"{label:<{width}} : {value}")
    return 0


def _cmd_profile(session: Session, args: argparse.Namespace) -> int:
    """``profile``: run the pipeline under the cost collector, emit speedscope.

    The per-phase weights are the same deterministic counters the result
    objects carry (check/verify/machine steps), so the flamegraph totals
    reconcile exactly with ``run --json`` — and are identical between the
    machine and compiled backends for the same program.
    """
    from repro import obs

    source = _read_source(args)
    engine = "compiled" if args.target == "py" else None
    with obs.activate() as profile:
        result = session.run(source, verify=not args.no_verify, engine=engine)
    subject = args.file if args.file is not None else "<expr>"
    document = profile.to_speedscope(name=subject)
    if args.output is None:
        return _emit_json(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    totals = profile.totals()
    print(f"value    : {result.observed}")
    for phase in obs.PHASES:
        record = totals["phases"].get(phase)
        if record is not None:
            print(f"{phase:<9}: {record['weight']}")
    for label, count in totals.get("labels", {}).items():
        print(f"  {label:<7}: {count} entries")
    print(f"profile  : {args.output} (load it in speedscope)")
    return 0


def _check_flags(*rules: tuple[str, bool, str]) -> None:
    """The one-line error naming the first flag whose ``(flag, ok, rule)`` fails.

    ``batch`` and ``serve`` check every flag before a worker spawns.
    """
    for flag, ok, rule in rules:
        if not ok:
            raise ReproError(f"{flag} must be {rule}")


def _read_job_specs(args: argparse.Namespace) -> list[dict]:
    """Job specs for ``batch``: a JSONL/JSON file, or a generated corpus."""
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
        if text.lstrip().startswith("["):
            return json.loads(text)
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    # Generated workload: N independent build streams, interleaved in the
    # round-robin arrival order a multiplexed service sees.
    from repro.gen.jobs import _DEFAULT_KINDS, build_stream, interleave

    _check_flags(
        ("--gen-builds", args.gen_builds >= 1, "at least 1"),
        ("--gen-count", args.gen_count >= 1, "at least 1"),
        ("--gen-passes", args.gen_passes >= 1, "at least 1"),
    )
    kinds = _DEFAULT_KINDS
    if args.gen_kinds is not None:
        kinds = tuple(kind.strip() for kind in args.gen_kinds.split(",") if kind.strip())
        bad = [kind for kind in kinds if kind not in PROGRAM_KINDS]
        if not kinds or bad:
            expected = ", ".join(sorted(PROGRAM_KINDS))
            raise ReproError(
                f"--gen-kinds must be a comma list of program kinds ({expected}); "
                f"got {args.gen_kinds!r}"
            )
    return interleave(
        build_stream(
            build,
            seed=args.gen_seed + build,
            iterations=1,
            passes=args.gen_passes,
            corpus_size=args.gen_count,
            engine=args.engine if args.engine != "nbe" else None,
            kinds=kinds,
        )
        for build in range(args.gen_builds)
    )


def _chaos_plan(specs: list[dict], seed: int, connect: bool) -> "object":
    """A small seeded fault plan over the stream (``batch --chaos-seed``).

    Scaled to the stream: roughly one job in eight is faulted per fault
    kind.  Job ids are pre-assigned positionally here so the schedule is a
    pure function of (stream, seed).  A local batch gets transient kills,
    one poison, store errors, and wire corruption.  With ``--connect`` the
    plan holds connection faults only, applied *client-side*
    (self-inflicted drops, stalls, truncations at exact job coordinates);
    reconnect-and-resubmit heals every one, so the results must be
    byte-identical to an unfaulted run — which is what that mode proves.
    """
    from repro.service.faults import FaultPlan

    for index, spec in enumerate(specs):
        spec.setdefault("id", f"job-{index}")
    job_ids = [spec["id"] for spec in specs]
    budget = max(1, len(job_ids) // 8)
    if connect:
        return FaultPlan.generate(
            seed, job_ids, conn_drops=budget, conn_stalls=budget, conn_truncates=budget
        )
    corruptible = [
        spec["id"]
        for spec in specs
        if spec.get("kind") in PROGRAM_KINDS and (spec.get("program") or spec.get("term_b64"))
    ]
    return FaultPlan.generate(
        seed,
        job_ids,
        kills=budget,
        poisons=1,
        store_read_errors=budget,
        store_write_errors=budget,
        corruptions=budget,
        corruptible_ids=corruptible,
    )


def _cmd_batch(session: Session, args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro import api

    _check_flags(
        ("--workers", args.workers >= 0, "at least 0"),
        ("--window", args.window >= 1, "at least 1"),
        ("--job-timeout", args.job_timeout is None or args.job_timeout > 0, "positive"),
    )
    profile_scope = nullcontext(None)
    if args.profile is not None:
        if args.workers or args.connect is not None:
            # Worker processes profile their own address spaces; only the
            # in-process solo path shares the collector's slot.
            raise ReproError(
                "--profile requires an in-process solo run (omit --workers/--connect)"
            )
        from repro import obs

        profile_scope = obs.activate()
    try:
        with profile_scope as profile:
            specs = _read_job_specs(args)
            for spec in specs:  # rejected before --wire or --chaos-seed reads the raw dicts
                Job.from_dict(spec)
            if args.wire == "binary":
                from repro.gen.jobs import binary_specs

                specs = binary_specs(specs)
            plan = None
            if args.chaos_seed is not None:
                plan = _chaos_plan(specs, args.chaos_seed, connect=args.connect is not None)
            # With --connect, execute_jobs refuses a set --job-timeout or --memo-store.
            report = api.execute_jobs(
                specs,
                workers=args.workers,
                connect=args.connect,
                engine=args.engine,
                job_timeout=args.job_timeout,
                memo_store=args.memo_store,
                fault_plan=plan,
                client_options={"window": args.window},
            )
    except (ValueError, json.JSONDecodeError) as error:
        # Malformed job specs (bad JSON, unknown kinds/fields) get the
        # CLI's one-line error contract, not a traceback.
        raise ReproError(f"bad job stream: {error}") from error
    if profile is not None:
        with open(args.profile, "w", encoding="utf-8") as handle:
            json.dump(profile.to_speedscope(name=f"batch of {len(specs)}"), handle, indent=2)
            handle.write("\n")
        print(f"profile: {args.profile}", file=sys.stderr)
    if args.json:
        _emit_json(report.to_dict())
    else:
        for result in report.results:
            if result.ok:
                summary = ", ".join(
                    f"{key}={value}" for key, value in sorted(result.payload.items())
                    if not isinstance(value, str) or len(value) <= 40
                )
                print(f"ok   {result.id}: {summary}")
            else:
                print(f"FAIL {result.id}: {result.error.get('type')}: {result.error.get('message')}")
        stats = ", ".join(f"{key}={value}" for key, value in sorted(report.stats.items())
                          if not isinstance(value, dict))
        print(f"-- {len(report.results)} job(s) in {report.elapsed_seconds:.3f}s "
              f"({args.workers} worker(s)); {stats}")
    return 0 if report.ok else 1


def _cmd_serve(session: Session, args: argparse.Namespace) -> int:
    from repro.service.endpoint import serve as serve_endpoint

    from repro.service.faults import FaultPlan

    max_workers = args.min_workers if args.max_workers is None else args.max_workers
    _check_flags(
        ("--min-workers", args.min_workers >= 1, "at least 1"),
        ("--max-workers", max_workers >= args.min_workers, "at least --min-workers"),
        ("--job-timeout", args.job_timeout is None or args.job_timeout > 0, "positive"),
        ("--conn-window", args.conn_window >= 1, "at least 1"),
        ("--max-inflight", args.max_inflight >= args.conn_window, "at least --conn-window"),
        ("--fuel-quota", args.fuel_quota is None or args.fuel_quota >= 0, "at least 0"),
        ("--metrics-interval", args.metrics_interval is None or args.metrics_interval > 0,
         "positive"),
    )
    plan = None
    if args.chaos_plan is not None:
        with open(args.chaos_plan, encoding="utf-8") as handle:
            try:
                plan = FaultPlan.from_dict(json.load(handle))
            except ValueError as error:  # json.JSONDecodeError included
                # The same one-line error contract as a bad batch stream.
                raise ReproError(f"bad chaos plan: {error}") from error
    serve_endpoint(
        args.host,
        args.port,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        engine=args.engine,
        job_timeout=args.job_timeout,
        memo_store=args.memo_store,
        conn_window=args.conn_window,
        max_inflight=args.max_inflight,
        fuel_quota=args.fuel_quota,
        fault_plan=plan,
        metrics_interval=args.metrics_interval,
    )
    return 0


def _cmd_store(session: Session, args: argparse.Namespace) -> int:
    from repro.wire.persist import store_compact, store_scrub, store_stat

    action = {"stat": store_stat, "scrub": store_scrub, "compact": store_compact}
    document = action[args.action](args.path)
    if args.json:
        return _emit_json(document)
    for key, value in document.items():
        print(f"{key:<10}: {value}")
    return 0


def _cmd_decompile(session: Session, args: argparse.Namespace) -> int:
    result = session.compile(_read_source(args), verify=False)

    def roundtrip() -> tuple[str, bool]:
        image = decompile(result.target)
        held = cc.equivalent(cc.Context.empty(), result.compilation.source, image)
        return cc.pretty(image), held

    with session.activate():
        image, held = deep.call(roundtrip, lambda: cccc.term_size(result.target))
    print(f"(e⁺)°    : {image}")
    print(f"e ≡ (e⁺)°: {held}")
    return 0


def _cmd_hoist(session: Session, args: argparse.Namespace) -> int:
    result = session.compile(_read_source(args), verify=False)
    with session.activate():
        program = hoist(result.target)

        def table() -> str:
            check_program(program)  # re-type-check the hoisted form
            return str(program)

        print(deep.call(table, lambda: program.size))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Typed closure conversion for the Calculus of Constructions",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler, description in [
        ("check", _cmd_program, "type check a CC program"),
        ("normalize", _cmd_program, "normalize a CC program (NbE or substitution engine)"),
        ("compile", _cmd_program, "closure-convert and verify (Theorem 5.6)"),
        ("run", _cmd_program, "compile, hoist, and execute on the machine"),
        ("link", _cmd_program, "link a component against imports (Theorem 5.7)"),
        ("decompile", _cmd_decompile, "round-trip through the Figure 8 model"),
        ("hoist", _cmd_hoist, "print the static code table"),
    ]:
        sub = commands.add_parser(name, help=description)
        # Every program command reads the same options; each declares its own.
        sub.set_defaults(assume=None, imports=None, engine=None, no_verify=False,
                         target=None, wire="text", memo_store=None)
        _add_input_arguments(sub)
        if name in ("compile", "run"):
            sub.add_argument(
                "--no-verify",
                action="store_true",
                help="skip re-checking the output in CC-CC",
            )
            sub.add_argument(
                "--target",
                choices=("machine", "py") if name == "run" else ("cccc", "py"),
                default="machine" if name == "run" else "cccc",
                help="py stages the hoisted program into host Python closures "
                "(the compile-to-host backend); the default is the abstract "
                "machine (run) / the CC-CC term (compile)",
            )
            sub.add_argument(
                "--memo-store",
                metavar="PATH",
                default=None,
                help="attach the persistent tier so compiled artifacts are "
                "shared across processes and survive restarts",
            )
        if name == "normalize":
            sub.add_argument(
                "--engine",
                choices=ENGINES,
                default="nbe",
                help="evaluator: NbE environment machine (default) or the substitution oracle",
            )
        if name in ("check", "normalize"):
            sub.add_argument(
                "--wire",
                choices=("text", "binary"),
                default="text",
                help="binary adds base64 DAG encodings (*_b64 fields) to the output",
            )
        if name == "link":
            sub.add_argument(
                "--assume",
                action="append",
                metavar="NAME : TYPE",
                help="one interface entry of Γ (repeatable)",
            )
            sub.add_argument(
                "--import",
                dest="imports",
                action="append",
                metavar="NAME=TERM",
                help="one closing import (repeatable)",
            )
        if name in ("check", "normalize", "compile", "run", "link"):
            sub.add_argument(
                "--json",
                action="store_true",
                help="emit the structured result (type, steps, engine, cache hits) as JSON",
            )
        sub.set_defaults(handler=handler)

    profile = commands.add_parser(
        "profile",
        help="run a program under the cost profiler; emit a speedscope flamegraph",
    )
    _add_input_arguments(profile)
    profile.add_argument(
        "--target",
        choices=("machine", "py"),
        default="machine",
        help="execution backend to profile (per-phase totals are identical)",
    )
    profile.add_argument(
        "--no-verify",
        action="store_true",
        help="skip re-checking the output in CC-CC (drops the verify phase)",
    )
    profile.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        default=None,
        help="write the speedscope JSON here and print a summary "
        "(default: the JSON goes to stdout)",
    )
    profile.set_defaults(handler=_cmd_profile)

    batch = commands.add_parser(
        "batch",
        help="execute a service job stream, in-process or across a worker pool",
    )
    batch.add_argument(
        "file",
        nargs="?",
        help="job specs: a JSONL file (one spec per line) or one JSON array",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes to shard across (0 = in-process solo run)",
    )
    _add_pool_arguments(batch)
    batch.add_argument(
        "--json",
        action="store_true",
        help="emit the full batch report (results + pool stats) as JSON",
    )
    batch.add_argument(
        "--wire",
        choices=("text", "binary"),
        default="text",
        help="binary re-encodes program jobs onto the binary DAG wire (term_b64)",
    )
    batch.add_argument(
        "--memo-store",
        metavar="PATH",
        default=None,
        help="attach a persistent memo store (SQLite) shared across workers and restarts",
    )
    batch.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help="run under a small seeded fault plan (deterministic chaos testing)",
    )
    batch.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="stream the batch to a running 'serve' endpoint instead of "
        "executing locally (the server owns its workers; --job-timeout and "
        "--memo-store are refused)",
    )
    batch.add_argument(
        "--window",
        type=int,
        default=32,
        help="jobs the --connect client keeps in flight at once",
    )
    batch.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="profile the batch (solo runs only) and write speedscope JSON here",
    )
    batch.add_argument("--gen-seed", type=int, default=0, help="generated-corpus seed")
    batch.add_argument(
        "--gen-builds", type=int, default=1, help="independent build streams to generate"
    )
    batch.add_argument(
        "--gen-count", type=int, default=4, help="corpus size per generated build"
    )
    batch.add_argument(
        "--gen-passes", type=int, default=2, help="warm passes per generated build"
    )
    batch.add_argument(
        "--gen-kinds",
        metavar="KIND[,KIND...]",
        default=None,
        help="job-kind rotation for the generated corpus (program kinds only; "
        "default: the mixed normalize/check/compile/run rotation)",
    )
    batch.set_defaults(handler=_cmd_batch)

    serve = commands.add_parser(
        "serve",
        help="run the streaming service endpoint over an elastic worker pool",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7420, help="bind port (0 = pick free)")
    serve.add_argument(
        "--min-workers", type=int, default=1, help="worker slots the pool starts with"
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="elastic ceiling (default: min-workers, i.e. a fixed pool)",
    )
    _add_pool_arguments(serve)
    serve.add_argument(
        "--memo-store",
        metavar="PATH",
        default=None,
        help="shared persistent memo store (new workers start warm from it)",
    )
    serve.add_argument(
        "--conn-window",
        type=int,
        default=32,
        help="accepted-but-unfinished jobs per connection before reads pause",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=128,
        help="endpoint-wide hard admission limit; past it jobs are shed "
        "with Overloaded documents",
    )
    serve.add_argument(
        "--fuel-quota",
        type=int,
        default=None,
        help="per-client fuel clamp threaded into the kernel checkers",
    )
    serve.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print one NDJSON metrics snapshot (pool, endpoint, supervisor) "
        "per interval while serving",
    )
    serve.add_argument(
        "--chaos-plan",
        metavar="PATH",
        default=None,
        help="JSON FaultPlan file: worker faults go to the pool, "
        "connection faults fire at result delivery (chaos testing)",
    )
    serve.set_defaults(handler=_cmd_serve)

    store = commands.add_parser(
        "store",
        help="inspect or repair a persistent memo store (stat/scrub/compact)",
    )
    store.add_argument(
        "action",
        choices=("stat", "scrub", "compact"),
        help="stat: report row/seal counts; scrub: rebuild from validly-sealed "
        "rows (salvages a torn file); compact: delete invalid rows and vacuum",
    )
    store.add_argument("path", help="path of the SQLite memo store")
    store.add_argument(
        "--json", action="store_true", help="emit the maintenance report as JSON"
    )
    store.set_defaults(handler=_cmd_store)

    args = parser.parse_args(argv)
    session = Session(name="cli")
    try:
        return args.handler(session, args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
