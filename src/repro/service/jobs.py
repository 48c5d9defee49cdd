"""The service wire format: JSON job specs and split result documents.

A **job** is one independent unit of kernel work, described entirely by
JSON-serializable data (the dispatcher literally sends ``json.dumps`` of
the spec down the worker pipe, so nothing richer can leak through):

    {"id": "b0-7", "kind": "normalize", "program": "(\\\\ (x : Nat). x) 3",
     "engine": "nbe", "fuel": null, "key": "build-0"}

``kind`` selects the session entrypoint.  The program kinds are the rows
of one table, :data:`ENTRYPOINTS`, which the CLI's program commands use
too: each row names the :class:`repro.api.Session` method, how the job's
fields map to its arguments, and the payload keys the kind adds to the
result's own rendering (``compile_py`` is ``run`` through the
compile-to-host backend, plus the artifact hash).  Four service-level
kinds complete :data:`JOB_KINDS`:

* ``reset`` — return the executing session to its cold deterministic zero
  (the classic start-of-build ``reset_fresh_counter`` discipline; with
  affinity keys this cools exactly one worker instead of the whole pool);
* ``stats`` — telemetry poll: the deterministic payload is the constant
  ``{"stats": true}`` (so a stats job can ride any stream without breaking
  the byte-identical differentials) and the *telemetry* travels in ``meta``
  — the executing session's cache statistics in-process, and the full
  aggregated :class:`~repro.service.dispatcher.PoolStats` document when a
  service endpoint answers the poll itself (``/metrics``-style);
* ``sleep`` / ``crash`` — chaos kinds for health checks and the
  worker-failure test suite (a worker executing ``crash`` dies hard; the
  in-process executor merely fails the job).

``key`` is the **affinity key**: jobs sharing a key are dispatched to the
same worker slot, so a stream of related jobs keeps hitting that worker's
warm memo caches.  Jobs without a key are sharded round-robin.

``deadline`` is the job's **wall-clock budget** in seconds, measured from
dispatcher acceptance.  An expired job never goes silent: it completes as
a structured ``JobTimeout`` dead-letter document (an overdue worker is
recycled exactly like a pool-level timeout), and the service endpoint maps
client-supplied per-job deadlines onto this field.

``trace`` opts the job into structured event tracing: the dispatcher and
executor record submit/execute/complete events (plus a wall-clock
timeline) into the result's ``meta["trace"]`` — out-of-band of the
deterministic payload, so traced results stay byte-identical to untraced
ones.  The schema lives in :mod:`repro.obs.trace`.

A **result** is split in two, and the split is load-bearing:

* ``payload`` (or ``error``) is the *deterministic* half — the session
  result's ``payload()``: every term is rendered α-canonically
  (``pretty(intern(term))``), and every step count comes from the
  fuel-replaying caches, so the payload is byte-identical
  no matter which worker ran the job, how warm its caches were, or what
  had executed before it.  This is what the service's determinism
  differential compares.
* ``meta`` is the *telemetry* half — worker name, attempt number,
  per-job cache-hit deltas, wall time.  It legitimately varies run to run
  and feeds the dispatcher's aggregated pool stats.

Dead letters keep the split: a job quarantined by the dispatcher (crash
attempts exhausted, crash-loop breaker) completes as the *error* half of a
result — ``error["dead_letter"]`` is True and the type/message/attempts
are pure functions of the failure history, so even quarantine documents
are byte-identical across same-plan chaos runs.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Mapping, NamedTuple

from repro.common import deep

__all__ = [
    "ENTRYPOINTS", "JOB_KINDS", "PROGRAM_KINDS", "WIRE_VERSIONS", "Entrypoint", "Job",
    "JobResult", "call",
]


class Entrypoint(NamedTuple):
    """One program kind: the ``Session`` method its jobs call, the method's
    keyword arguments from the job's fields, and the kind's extra payload keys."""

    method: str
    arguments: Callable[["Job"], dict[str, Any]] = lambda job: {}
    extras: Callable[["Job", Any], dict[str, Any]] = lambda job, result: {}


def _link_arguments(job: "Job") -> dict[str, Any]:
    """The interface Γ and the closing imports of a ``link`` job (parsed here)."""
    from repro import cc
    from repro.surface import parse_term

    ctx = cc.Context.empty()
    for name, type_text in job.interface:
        ctx = ctx.extend(name, parse_term(type_text))
    imports = {name: parse_term(text) for name, text in job.imports.items()}
    return {"ctx": ctx, "imports": imports}


#: The one entrypoint table (see the module docstring); :func:`call` runs a row.
ENTRYPOINTS: dict[str, Entrypoint] = {
    "parse": Entrypoint("parse"),
    "check": Entrypoint("check"),
    "normalize": Entrypoint("normalize", lambda job: {"engine": job.engine}),
    "compile": Entrypoint("compile", lambda job: {"verify": job.verify}),
    "run": Entrypoint("run", lambda job: {"verify": job.verify}),
    "compile_py": Entrypoint(
        "run",
        lambda job: {"verify": job.verify, "engine": "compiled"},
        lambda job, result: {"artifact": result.artifact},
    ),
    "link": Entrypoint(
        "link", _link_arguments, lambda job, result: {"imports_linked": len(job.imports)}
    ),
}

#: Kinds that require a program (as surface text or a binary term).
PROGRAM_KINDS = frozenset(ENTRYPOINTS)

#: Every job kind the executor understands: the program kinds, then the
#: service-level kinds.
JOB_KINDS = (*ENTRYPOINTS, "reset", "stats", "sleep", "crash")


def call(
    session: Any,
    row: Entrypoint,
    job: "Job",
    ingest: Callable[[], Any],
    render: Callable[[Any, dict[str, Any]], Any],
) -> Any:
    """``render(result, extras)`` for ``job`` run by ``row`` on ``session``:
    the one boundary of a program job, for the executor and the CLI alike.

    Under the session's ``activate()``, ``ingest()`` gives the program (text
    or a term), the row's method runs on it, and ``render`` turns its result
    and the row's extra payload keys into the caller's document.  All three
    run on one deep-stack runner boundary sized by the job's input, below
    the method's own, so a job has one retry size."""
    from repro.api import _checkpoint

    method = getattr(type(session), row.method).__wrapped__

    def run() -> Any:
        with session.activate():
            result = method(session, program=ingest(), **row.arguments(job))
            return render(result, row.extras(job, result))

    return deep.call(run, lambda: _size(job), _checkpoint(session))


def _size(job: "Job") -> int:
    """The size of a job's program, as ingest measures it."""
    if job.term_b64 is not None:
        return len(job.term_b64)
    from repro.surface import source_size

    return source_size(job.program)


#: Wire-format versions this build speaks.  Version 1 is the original
#: text-only format (``program`` carries surface syntax); version 2 adds
#: the binary DAG form: jobs may carry ``term_b64`` (a base64
#: :mod:`repro.wire.codec` buffer) instead of — or alongside — ``program``,
#: and payloads echo ``*_b64`` renderings next to the pretty text.  Specs
#: without a ``wire`` field are version 1, so every old JSONL corpus loads
#: unchanged; unknown versions are rejected at parse time, not mid-batch.
WIRE_VERSIONS = (1, 2)


@dataclass(frozen=True)
class Job:
    """One unit of kernel work, fully described by JSON-safe data."""

    kind: str
    id: str | None = None
    program: str | None = None
    engine: str | None = None  # normalize only; None = session default
    fuel: int | None = None  # per-job fuel override; None = session default
    key: str | None = None  # affinity key; None = round-robin
    verify: bool = True  # compile/run
    imports: Mapping[str, str] = field(default_factory=dict)  # link
    interface: tuple[tuple[str, str], ...] = ()  # link: the telescope Γ
    seconds: float = 0.0  # sleep
    wire: int = 1  # wire-format version this spec speaks
    term_b64: str | None = None  # binary DAG program (wire >= 2)
    deadline: float | None = None  # wall-clock seconds the job may spend in the pool
    trace: bool = False  # record a structured event trace in the result meta

    def __post_init__(self) -> None:
        # Field types are checked inline, not by a schema walker: this runs
        # several times per pooled job.  Exact ``type`` tests keep a JSON
        # ``true`` out of the integer and number fields.
        for name in ("kind", "id", "program", "engine", "key", "term_b64"):
            value = getattr(self, name)
            if value is not None and type(value) is not str:
                raise ValueError(f"job field {name!r} must be a string")
        if type(self.verify) is not bool:
            raise ValueError("job field 'verify' must be a boolean")
        if type(self.trace) is not bool:
            raise ValueError("job field 'trace' must be a boolean")
        if self.fuel is not None and type(self.fuel) is not int:
            raise ValueError("job field 'fuel' must be an integer")
        if type(self.wire) is not int:
            raise ValueError("job field 'wire' must be an integer")
        if type(self.seconds) not in (int, float):
            raise ValueError("job field 'seconds' must be a number")
        if self.deadline is not None and type(self.deadline) not in (int, float):
            raise ValueError("job field 'deadline' must be a number")
        if self.kind not in JOB_KINDS:
            expected = ", ".join(JOB_KINDS)
            raise ValueError(f"unknown job kind {self.kind!r} (expected one of {expected})")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("'deadline' must be positive (wall-clock seconds)")
        if self.wire not in WIRE_VERSIONS:
            expected = ", ".join(str(version) for version in WIRE_VERSIONS)
            raise ValueError(
                f"unsupported wire version {self.wire!r} (this build speaks {expected})"
            )
        if self.term_b64 is not None and self.wire < 2:
            raise ValueError("'term_b64' requires wire version 2")
        if self.kind in PROGRAM_KINDS and not self.program and not self.term_b64:
            raise ValueError(f"{self.kind!r} job needs a 'program' or 'term_b64' field")

    @property
    def shard_key(self) -> str | None:
        """The affinity key the dispatcher shards on (None → round-robin)."""
        return self.key

    def to_dict(self) -> dict[str, Any]:
        """The JSON wire form (sparse: defaults are omitted), in field order."""
        spec: dict[str, Any] = {"kind": self.kind}
        for name, default in _DEFAULTS.items():
            value = getattr(self, name)
            if value != default:
                spec[name] = value
        if self.imports:
            spec["imports"] = dict(self.imports)
        if self.interface:
            spec["interface"] = [list(entry) for entry in self.interface]
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "Job":
        """Parse a wire spec; unknown fields are rejected, not ignored.

        A missing or mistyped field is a ValueError naming the field.
        """
        # ``dict`` first: the common case skips the slower ABC check.
        if not isinstance(spec, (dict, Mapping)):
            raise ValueError("a job spec must be an object")
        unknown = set(spec).difference(_DEFAULTS, ("kind",))
        if unknown:
            raise ValueError(f"unknown job fields: {', '.join(sorted(unknown))}")
        if "kind" not in spec:
            raise ValueError("job spec is missing 'kind'")
        imports = spec.get("imports", {})
        if not isinstance(imports, (dict, Mapping)) or (imports and not all(
            type(name) is str and type(text) is str for name, text in imports.items()
        )):
            raise ValueError("job field 'imports' must map names to program text")
        interface = spec.get("interface", ())
        if not isinstance(interface, (list, tuple)) or (interface and not all(
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and type(entry[0]) is str
            and type(entry[1]) is str
            for entry in interface
        )):
            raise ValueError(
                "job field 'interface' must be a list of [name, type] string pairs"
            )
        return cls(**{**spec, "imports": dict(imports), "interface": tuple(map(tuple, interface))})


#: Every job field but ``kind``, with its default: the fields a sparse
#: wire spec may omit.
_DEFAULTS = {
    spec.name: spec.default if spec.default is not MISSING else spec.default_factory()
    for spec in fields(Job)
    if spec.name != "kind"
}


@dataclass(frozen=True)
class JobResult:
    """One job's outcome: deterministic payload/error plus telemetry meta."""

    id: str
    ok: bool
    payload: dict[str, Any] = field(default_factory=dict)
    error: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def canonical(self) -> dict[str, Any]:
        """The deterministic half — what pooled-vs-solo differentials compare.

        Identical for the same job spec no matter which worker executed it,
        in what order, or against how warm a session: term renderings are
        α-canonical and step counts replay exactly from the fuel caches.
        """
        if self.ok:
            return {"id": self.id, "ok": True, "payload": dict(self.payload)}
        return {"id": self.id, "ok": False, "error": dict(self.error)}

    def to_dict(self) -> dict[str, Any]:
        """The full JSON wire form, telemetry included."""
        document = self.canonical()
        document["meta"] = dict(self.meta)
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "JobResult":
        return cls(
            id=document["id"],
            ok=document["ok"],
            payload=dict(document.get("payload", {})),
            error=dict(document.get("error", {})),
            meta=dict(document.get("meta", {})),
        )
