"""The session API: isolated engine workspaces with typed entrypoints.

A :class:`Session` is the unit of isolation the paper's separate-compilation
story (Theorem 5.8) needs operationally: components checked and compiled
*independently* must not observe each other's engine state.  Each session
owns a private :class:`~repro.kernel.state.KernelState` — hash-consing
tables, free-variable and intern caches, the whnf/normalize memo, the
judgment cache, the context-token tables, the fresh-name counter, the
default fuel, and the engine choice (``nbe`` vs ``subst``) — so two
sessions can run interleaved workloads (on one thread or on several) with
zero cross-talk and results byte-identical to solo runs.

On top of the state sit typed entrypoints covering the whole pipeline::

    session = api.Session()
    checked  = session.check(r"\\ (A : Type) (x : A). x")   # CheckResult
    normal   = session.normalize("(\\ (x : Nat). succ x) 41")
    compiled = session.compile(checked.term)                # Theorem 5.6
    ran      = session.run(checked.term)                    # CBV machine
    linked   = session.link(ctx, term, {"n": "41"})         # Theorem 5.7

Every entrypoint accepts surface text or an already-built ``cc.Term`` and
returns a structured result object carrying the value, the inferred type,
the reduction steps spent (exact, fuel-replay semantics — identical warm or
cold), the engine used, per-call cache-hit counts, and human-readable
diagnostics.  Each result type renders once, from its field list:
``payload()`` is the α-canonical document a service job returns, and
``to_dict()`` is the same payload in the program's source spelling plus
telemetry — what the CLI's ``--json`` prints.  ``session.stage(program)``
stages a program for the compiled backend and publishes its artifact
without running it.

The legacy module functions (``repro.cc.infer``, ``repro.cccc.normalize``,
``closconv.pipeline.compile_term`` …) remain first-class: they read the
*active* kernel state, so outside any session they are thin shims over the
shared process-default session (:func:`default_session`), and inside
``with session.activate():`` they operate on that session's state.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from typing import Any, ClassVar, Mapping, NamedTuple

from repro import cc, cccc
from repro.backend import (
    ArtifactMeta,
    CompiledProgram,
    artifact_key,
    compile_program,
    encode_artifact,
    load_artifact,
    store_artifact,
    validate_backend,
)
from repro.cc.reduce import normalize_subst
from repro.closconv.pipeline import CompilationResult, compile_term
from repro.kernel.budget import DEFAULT_FUEL, Budget
from repro.kernel.state import KernelState, activate, default_state, validate_engine
from repro.linking.link import ClosingSubstitution, check_substitution, link
from repro.machine import Program, hoist, machine_observation, run
from repro.surface import parse_term

__all__ = [
    "BatchReport",
    "CheckResult",
    "CompileResult",
    "LinkResult",
    "NormalizeResult",
    "ParseResult",
    "RunResult",
    "Session",
    "StageResult",
    "default_session",
    "execute_jobs",
]

_SESSION_IDS = itertools.count(1)

#: The profiling hook: ``repro.obs.activate()`` installs a Profile
#: collector here; every entrypoint checks the slot (one list indexing,
#: no import of ``repro.obs``) and records phase attributions when it is
#: non-None.  A process that never profiles never imports the obs
#: package at all — the byte-identity tests rely on that.
_PROFILE: list = [None]


# --------------------------------------------------------------------------
# Structured results.
# --------------------------------------------------------------------------


class TermField(NamedTuple):
    """A term-valued payload key: rendered with its calculus's printer."""

    key: str
    path: str  # the attribute it reads (dotted paths allowed)
    calculus: Any  # ``cc`` or ``cccc``
    b64: bool = False  # a binary payload adds ``{key}_b64``, the wire encoding


class _Document:
    """One rendering per result type, written once as its ``FIELDS`` list.

    A field is an attribute name, or a ``(key, attribute)`` pair when the
    key differs, or a :class:`TermField`.  :meth:`payload` is the deterministic
    document: the fields in order, terms α-canonical (``pretty(intern(t))``)
    when ``canonical`` and in their source spelling otherwise, then
    ``extras``, then the ``*_b64`` encodings of the interned terms when
    ``binary``.  Interning reads the active kernel state, so a canonical
    or binary rendering runs under the owning session's ``activate()``.
    :meth:`to_dict` is the source-spelled payload plus the ``TELEMETRY``
    attributes, leaving out a None value.
    """

    FIELDS: ClassVar[tuple] = ()
    TELEMETRY: ClassVar[tuple[str, ...]] = ("engine", "session", "cache_hits", "diagnostics")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Each field as (key, getter, calculus or None, b64), once per type.
        cls._plan = tuple(
            (spec, attrgetter(spec), None, False) if type(spec) is str
            else (spec[0], attrgetter(spec[1]), None, False) if type(spec) is tuple
            else (spec.key, attrgetter(spec.path), spec.calculus, spec.b64)
            for spec in cls.FIELDS
        )

    def payload(self, binary: bool = False, canonical: bool = True, **extras: Any) -> dict:
        document: dict[str, Any] = {}
        wire: dict[str, str] = {}
        for key, get, calculus, b64 in self._plan:
            value = get(self)
            if calculus is None:
                document[key] = value
                continue
            encode = binary and b64
            interned = calculus.intern(value) if canonical or encode else value
            document[key] = calculus.pretty(interned if canonical else value)
            if encode:
                from repro.wire.codec import term_to_b64

                wire[f"{key}_b64"] = term_to_b64(calculus.ast.LANGUAGE, interned)
        document.update(extras)
        document.update(wire)
        return document

    def to_dict(self, binary: bool = False, **extras: Any) -> dict[str, Any]:
        document = self.payload(binary, canonical=False, **extras)
        for key in self.TELEMETRY:
            value = getattr(self, key)
            if type(value) is tuple:
                document[key] = list(value)
            elif type(value) is dict:  # a copy: the document must not alias the result
                document[key] = dict(value)
            elif value is not None:
                document[key] = value
        return document


@dataclass(frozen=True)
class ParseResult(_Document):
    """A parsed surface program."""

    term: cc.Term
    source: str | cc.Term
    session: str

    FIELDS = (TermField("term", "term", cc, b64=True),)
    TELEMETRY = ("session",)


@dataclass(frozen=True)
class CheckResult(_Document):
    """One run of the CC typing judgment ``Γ ⊢ e : A``."""

    term: cc.Term
    type_: cc.Term
    steps: int
    engine: str
    session: str
    cache_hits: dict[str, int] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    FIELDS = (TermField("term", "term", cc, b64=True), TermField("type", "type_", cc, b64=True),
              "steps")


@dataclass(frozen=True)
class NormalizeResult(_Document):
    """A full normalization, with the input's type as a well-typedness witness."""

    term: cc.Term
    value: cc.Term
    type_: cc.Term
    steps: int
    check_steps: int
    engine: str
    session: str
    cache_hits: dict[str, int] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    FIELDS = (TermField("term", "term", cc, b64=True), TermField("normal", "value", cc, b64=True),
              TermField("type", "type_", cc), "steps", "check_steps", "engine")
    TELEMETRY = ("session", "cache_hits", "diagnostics")


@dataclass(frozen=True)
class CompileResult(_Document):
    """One closure conversion, optionally verified (Theorem 5.6).

    ``compilation`` is the full :class:`~repro.closconv.pipeline.CompilationResult`
    (source/target terms, types, and contexts); the flat fields summarize it.
    """

    compilation: CompilationResult
    steps: int
    check_steps: int
    verify_steps: int
    engine: str
    session: str
    cache_hits: dict[str, int] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    FIELDS = (TermField("term", "compilation.source", cc, b64=True),
              TermField("type", "compilation.source_type", cc),
              TermField("target", "target", cccc, b64=True),
              TermField("target_type", "target_type", cccc),
              "verified", "steps", "check_steps", "verify_steps")

    @property
    def target(self) -> cccc.Term:
        return self.compilation.target

    @property
    def target_type(self) -> cccc.Term:
        return self.compilation.target_type

    @property
    def verified(self) -> bool:
        return self.compilation.checked_type is not None


@dataclass(frozen=True)
class RunResult(_Document):
    """A full pipeline execution: compile, hoist, run — machine or compiled.

    ``backend`` records which execution engine produced the value:
    ``"machine"`` (the interpreting CBV oracle) or ``"compiled"`` (staged
    host closures, :mod:`repro.backend`).  Both backends report
    a :class:`~repro.machine.machine.MachineStats`, and their equality is
    the compiled backend's differential contract.  On a warm hit — the
    session's compile memo on either backend (keyed on the text or the
    term's identity plus ``verify``; bypassed by profiled and open-context
    runs; emptied by ``reset``), or an artifact-cache hit on the compiled
    one — the run never compiles, so ``compile_result`` is None there;
    the flat ``check_steps``/``verify_steps``/``verified`` fields
    (replayed from the recorded fuel) are the stable surface either way,
    and the only ones ``FIELDS`` renders.
    """

    compile_result: CompileResult | None
    program: Program
    source: cc.Term
    value: Any
    observation: Any
    machine_steps: int
    closure_allocs: int
    tuple_allocs: int
    projections: int
    env_allocs: int
    max_env_size: int
    compile_steps: int
    check_steps: int
    verify_steps: int
    verified: bool
    engine: str
    backend: str
    session: str
    artifact: str | None = None
    cache_hits: dict[str, int] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    FIELDS = (TermField("term", "source", cc), ("value", "observed"),
              ("code_blocks", "code_count"), "machine_steps", "closure_allocs", "tuple_allocs",
              "projections", "env_allocs", "max_env_size", "verified", "compile_steps", "backend")
    TELEMETRY = ("check_steps", "verify_steps", "engine", "session", "cache_hits",
                 "diagnostics", "artifact")

    @property
    def code_count(self) -> int:
        return self.program.code_count

    @property
    def observed(self) -> Any:
        """What the run observed: its ground value, else the value's class name."""
        return self.observation if self.observation is not None else type(self.value).__name__

    def to_dict(self, binary: bool = False, **extras: Any) -> dict[str, Any]:
        document = super().to_dict(binary, **extras)
        # The session-facing name of the payload's ``compile_steps``.
        document["steps"] = document.pop("compile_steps")
        return document


@dataclass(frozen=True)
class StageResult(_Document):
    """A program staged for the compiled backend and published, not run."""

    artifact: str
    key: str
    code_blocks: int
    size_bytes: int
    verified: bool
    check_steps: int
    verify_steps: int
    stored: bool
    engine: str
    session: str
    cache_hits: dict[str, int] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    FIELDS = ("artifact", "key", "code_blocks", "size_bytes", "verified", "check_steps",
              "verify_steps", "stored")


@dataclass(frozen=True)
class LinkResult(_Document):
    """A verified link ``γ(e)`` of a component against its imports."""

    term: cc.Term
    type_: cc.Term
    steps: int
    session: str
    cache_hits: dict[str, int] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    FIELDS = (TermField("term", "term", cc, b64=True), TermField("type", "type_", cc), "steps")
    TELEMETRY = ("session", "cache_hits", "diagnostics")


# --------------------------------------------------------------------------
# The session.
# --------------------------------------------------------------------------


class Session:
    """An isolated engine workspace.

    All mutable kernel state used by this session's entrypoints lives in
    its private :class:`KernelState`; nothing is shared with other sessions
    or with the process-default state.  A single session is safe to use
    from multiple threads in the GIL sense (its caches are dict-based), but
    isolation — and the scaling the benchmark gates — comes from giving
    each concurrent workload its *own* session.

    Args:
        name: label for diagnostics; autogenerated when omitted.
        engine: normalization engine, ``"nbe"`` (default) or ``"subst"``
            (the substitution oracle with per-occurrence step counting).
        fuel: default reduction fuel for every entrypoint's :class:`Budget`.
    """

    def __init__(
        self,
        name: str | None = None,
        engine: str = "nbe",
        fuel: int = DEFAULT_FUEL,
        _state: KernelState | None = None,
    ) -> None:
        if _state is not None:
            self._state = _state
        else:
            self._state = KernelState(
                name or f"session-{next(_SESSION_IDS)}", engine=engine, fuel=fuel
            )

    # -- identity and state -------------------------------------------------

    @property
    def name(self) -> str:
        return self._state.name

    @property
    def engine(self) -> str:
        """The normalization engine ``normalize`` uses by default."""
        return self._state.engine

    @property
    def fuel(self) -> int:
        return self._state.fuel

    @property
    def state(self) -> KernelState:
        """The underlying kernel state (for ``repro.kernel`` interop)."""
        return self._state

    def activate(self):
        """Context manager making this session the active kernel state.

        Inside the block, every legacy entrypoint (``repro.cc.*``,
        ``repro.cccc.*``, ``compile_term`` …) reads and writes this
        session's caches and fresh-name counter.
        """
        return activate(self._state)

    def budget(self) -> Budget:
        """A fresh :class:`Budget` carrying this session's default fuel."""
        return Budget(remaining=self._state.fuel)

    def reset(self) -> None:
        """Return this session to a cold, deterministic zero.

        Clears every cache this session owns and restarts its fresh-name
        counter.  Sibling sessions are untouched — their caches stay warm.
        An attached persistent memo tier is flushed and detached (the
        on-disk store survives; re-attach to keep using it) so a reset
        session holds no cross-session storage handle.
        """
        self._state.reset()

    def attach_memo_store(self, store: Any) -> Any:
        """Attach a persistent memo tier (a path or an opened store).

        The session's normalization caches consult the store's
        content-keyed entries on miss and write through on store; hits
        replay their recorded fuel, so results are byte-identical to cold
        runs — merely warm from the first request, across processes and
        restarts.  Returns the :class:`repro.wire.persist.PersistentTier`.
        """
        return self._state.attach_memo_store(store)

    def detach_memo_store(self) -> Any:
        """Flush and detach the persistent tier (no-op when none attached)."""
        return self._state.detach_memo_store()

    def cache_stats(self) -> dict[str, int]:
        """Entry counts per cache (see ``KernelState.stats``)."""
        return self._state.stats()

    def hit_counts(self) -> dict[str, int]:
        """Cumulative cache-hit counters for the fuel-replaying caches."""
        return self._state.hit_counts()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.name!r}, engine={self.engine!r})"

    # -- entrypoints ---------------------------------------------------------

    def parse(self, program: str | cc.Term) -> ParseResult:
        """Parse surface text into a CC term (no type checking); terms pass through."""
        with self.activate():
            return ParseResult(term=self._coerce(program), source=program, session=self.name)

    def check(self, program: str | cc.Term, ctx: cc.Context | None = None) -> CheckResult:
        """Type check ``program`` (text or term) under ``ctx`` (empty default)."""
        with self.activate():
            term = self._coerce(program)
            context = ctx if ctx is not None else cc.Context.empty()
            before = self._state.hit_counts()
            budget = self.budget()
            type_ = cc.infer(context, term, budget)
            hits = self._hit_delta(before)
            profile = _PROFILE[0]
            if profile is not None:
                profile.phase("typecheck", weight=budget.spent, counters=hits)
            return CheckResult(
                term=term,
                type_=type_,
                steps=budget.spent,
                engine=self.engine,
                session=self.name,
                cache_hits=hits,
            )

    def normalize(
        self,
        program: str | cc.Term,
        ctx: cc.Context | None = None,
        engine: str | None = None,
    ) -> NormalizeResult:
        """Type check, then fully normalize ``program``.

        ``engine`` overrides the session default for this call: ``"nbe"``
        (call-by-need environment machine, each contraction counted once)
        or ``"subst"`` (the substitution oracle whose per-occurrence step
        counts match ``normalize_counting``).
        """
        # Only None means "session default": an empty string from an unset
        # config field must fail validation, not silently pick the default.
        engine = validate_engine(engine if engine is not None else self.engine)
        with self.activate():
            term = self._coerce(program)
            context = ctx if ctx is not None else cc.Context.empty()
            before = self._state.hit_counts()
            check_budget = self.budget()
            type_ = cc.infer(context, term, check_budget)  # reject ill-typed input
            normalize_budget = self.budget()
            if engine == "nbe":
                value = cc.normalize(context, term, normalize_budget)
            else:
                value = normalize_subst(context, term, normalize_budget)
            hits = self._hit_delta(before)
            profile = _PROFILE[0]
            if profile is not None:
                profile.phase("typecheck", weight=check_budget.spent)
                profile.phase("normalize", weight=normalize_budget.spent, counters=hits)
            return NormalizeResult(
                term=term,
                value=value,
                type_=type_,
                steps=normalize_budget.spent,
                check_steps=check_budget.spent,
                engine=engine,
                session=self.name,
                cache_hits=hits,
            )

    def compile(
        self,
        program: str | cc.Term,
        ctx: cc.Context | None = None,
        verify: bool = True,
    ) -> CompileResult:
        """Closure-convert ``program`` (Figure 9), verifying Theorem 5.6.

        With ``verify`` (the default) the CC-CC kernel re-checks the output
        against the translated type; a mismatch raises
        :class:`~repro.closconv.pipeline.TypePreservationViolation`.

        A session compiles each program once: its compile memo, shared with
        :meth:`run`, is keyed on the text itself (a hit skips the parser) or
        a term's identity, plus ``verify``.  A hit replays the recorded fuel
        into fresh budgets, so a starved session fails where a cold compile
        would, and returns the stored compilation: the cold document except
        for ``cache_hits``, its raw target keeping the first compile's fresh
        names.  Entries live until :meth:`reset`; profiled calls and calls
        under a non-empty ``ctx`` neither read nor fill the memo.
        """
        with self.activate():
            memo, key = self._memo(program, ctx, verify)
            entry = memo.get(key) if memo is not None else None
            if entry is None or entry.compiled is None:
                term = entry.source if entry is not None else self._coerce(program)
                return self._compile(memo, key, entry, term, ctx, verify)[1]
            before = self._state.hit_counts()
            self._replay(entry.meta)
            return replace(entry.compiled, cache_hits=self._hit_delta(before))

    def run(
        self,
        program: str | cc.Term,
        ctx: cc.Context | None = None,
        verify: bool = True,
        engine: str | None = None,
    ) -> RunResult:
        """Compile, hoist, and execute ``program``.

        ``engine`` picks the execution backend: ``"machine"`` (default)
        interprets on the CBV abstract machine; ``"compiled"`` stages the
        hoisted program into host Python closures (:mod:`repro.backend`).
        Values, error documents, and every cost counter agree across
        backends.

        Both backends go through the compile memo of :meth:`compile`, with
        the same key, bypass and fuel replay, so a run miss compiles once
        for both.  An entry also holds the hoisted program and, once the
        compiled backend has used it, the staged program, so a warm run
        skips hoisting too; its document is the cold one's except for
        ``cache_hits``.  On a miss the compiled backend first looks the
        program's α-class up in the per-session and persistent artifact
        caches; profiled and open-context runs skip those too.
        """
        backend = validate_backend(engine if engine is not None else "machine")
        with self.activate():
            profile = _PROFILE[0]
            # A profiled run executes a freshly *instrumented* program (the
            # per-label counter dict rides the machine loop or the staged
            # block closures), so it must neither come from nor enter a
            # cache.  Results are unaffected: warm runs replay cold fuel.
            label_counts: dict[str, int] | None = {} if profile is not None else None
            before = self._state.hit_counts()
            entry, compile_result = self._prepare(program, ctx, verify, backend, label_counts)
            meta = entry.meta
            if backend == "machine":
                hoisted, digest = entry.program, None
                value, stats = run(hoisted, label_counts=label_counts)
                source = entry.source
                diagnostics = _compile_diagnostics(meta.verified)
            else:
                hoisted, digest = entry.staged.program, entry.staged.source_hash
                value, stats = entry.staged.execute()
                # α-canonical: an artifact hit never sees the original spelling.
                source = cc.intern(entry.source)
                diagnostics = (
                    f"compiled {hoisted.code_count} code block(s) "
                    f"to host closures (artifact {digest})",
                )
            if profile is not None:
                profile.phase("hoist", weight=hoisted.code_count)
                profile.phase(
                    "execute",
                    weight=stats.steps,
                    counters=asdict(stats),
                    labels=label_counts,
                )
            return RunResult(
                compile_result=compile_result,
                program=hoisted,
                source=source,
                value=value,
                observation=machine_observation(value),
                machine_steps=stats.steps,
                closure_allocs=stats.closure_allocs,
                tuple_allocs=stats.tuple_allocs,
                projections=stats.projections,
                env_allocs=stats.env_allocs,
                max_env_size=stats.max_env_size,
                compile_steps=meta.check_steps + meta.verify_steps,
                check_steps=meta.check_steps,
                verify_steps=meta.verify_steps,
                verified=meta.verified,
                engine=self.engine,
                backend=backend,
                session=self.name,
                artifact=digest,
                cache_hits=self._hit_delta(before),
                diagnostics=diagnostics,
            )

    def stage(self, program: str | cc.Term, verify: bool = True) -> StageResult:
        """Compile, hoist and stage ``program`` for the compiled backend; do not run it.

        The staging step of ``run(engine="compiled")``, compile memo and
        artifact caches included: the staged program is published to the
        α-keyed artifact caches, and to the persistent tier when one is
        attached, where a later compiled run in any process finds it.
        """
        with self.activate():
            before = self._state.hit_counts()
            entry, _ = self._prepare(program, None, verify, "compiled", None)
            staged, meta = entry.staged, entry.meta
            key = artifact_key(cc.intern(entry.source), engine=self.engine, verify=verify)
            return StageResult(
                artifact=staged.source_hash,
                key=key.hex(),
                code_blocks=staged.code_count,
                size_bytes=len(encode_artifact(staged.program, meta)),
                stored=self._state.persistent is not None,
                **asdict(meta),  # the recorded check/verify fuel and verdict
                engine=self.engine,
                session=self.name,
                cache_hits=self._hit_delta(before),
                diagnostics=_compile_diagnostics(meta.verified),
            )

    def link(
        self,
        ctx: cc.Context,
        program: str | cc.Term,
        imports: Mapping[str, str | cc.Term] | ClosingSubstitution,
    ) -> LinkResult:
        """Link component ``program`` (interface ``ctx``) with ``imports``.

        ``imports`` maps each assumption of ``ctx`` to a closed term (text
        or term).  The substitution is checked against the telescope
        (``Γ ⊢ γ``, raising :class:`~repro.common.errors.LinkError` on any
        missing, open, or ill-typed import) before being applied, and the
        linked program is re-checked in the empty context.
        """
        with self.activate():
            term = self._coerce(program)
            if isinstance(imports, ClosingSubstitution):
                gamma = imports
            else:
                gamma = ClosingSubstitution(
                    {name: self._coerce(value) for name, value in imports.items()}
                )
            before = self._state.hit_counts()
            # One budget across the telescope check and the final re-check,
            # so ``steps`` is the exact fuel the whole link spent.
            budget = self.budget()
            check_substitution(ctx, gamma, budget)
            linked = link(ctx, term, gamma)
            type_ = cc.infer(cc.Context.empty(), linked, budget)
            hits = self._hit_delta(before)
            profile = _PROFILE[0]
            if profile is not None:
                profile.phase("link", weight=budget.spent, counters=hits)
            return LinkResult(
                term=linked,
                type_=type_,
                steps=budget.spent,
                session=self.name,
                cache_hits=hits,
                diagnostics=(f"linked {len(gamma.mapping)} import(s) (Γ ⊢ γ checked)",),
            )

    # -- batch/service interop ----------------------------------------------

    def execute(self, job) -> Any:
        """Execute one service wire job against this session.

        ``job`` is a :class:`repro.service.jobs.Job` or its wire dict.  The
        in-process executor is the same function the pool workers run, so
        a solo session and a sharded pool produce byte-identical
        deterministic payloads for the same job stream.
        """
        from repro.service.executor import execute_job
        from repro.service.jobs import Job

        if not isinstance(job, Job):
            job = Job.from_dict(job)
        return execute_job(self, job)

    # -- internals -----------------------------------------------------------

    def _coerce(self, program: str | cc.Term) -> cc.Term:
        """Surface text → term; terms pass through."""
        if isinstance(program, str):
            term = parse_term(program)
            profile = _PROFILE[0]
            if profile is not None:
                # Parse cost is term size: the parser is single-pass, and
                # node count is the deterministic stand-in for its work.
                profile.phase("parse", weight=cc.term_size(term))
            return term
        return program

    def _hit_delta(self, before: dict[str, int]) -> dict[str, int]:
        after = self._state.hit_counts()
        return {name: after[name] - before.get(name, 0) for name in after}

    def _cached_artifact(
        self, term: cc.Term, verify: bool
    ) -> tuple[bytes, tuple[CompiledProgram, ArtifactMeta] | None]:
        """``term``'s α-keyed artifact-cache key and the cached artifact, if any."""
        key = artifact_key(cc.intern(term), engine=self.engine, verify=verify)
        return key, load_artifact(self._state, key)

    def _memo(
        self, program: str | cc.Term, ctx: cc.Context | None, verify: bool
    ) -> tuple[dict | None, tuple]:
        """The compile memo (None when this call bypasses it) and ``program``'s key."""
        cacheable = (ctx is None or len(ctx) == 0) and _PROFILE[0] is None
        memo = self._state.dict_cache("api.compile_memo") if cacheable else None
        return memo, (program if isinstance(program, str) else id(program), verify)

    def _compile(
        self, memo: dict | None, key: tuple, entry: _CompileEntry | None,
        term: cc.Term, ctx: cc.Context | None, verify: bool,
    ) -> tuple[_CompileEntry, CompileResult]:
        """Compile ``term`` cold into ``entry``, or a new entry stored in ``memo``."""
        context = ctx if ctx is not None else cc.Context.empty()
        before = self._state.hit_counts()
        check_budget = self.budget()
        verify_budget = self.budget()
        compilation = compile_term(
            context,
            term,
            verify=verify,
            source_budget=check_budget,
            verify_budget=verify_budget,
        )
        hits = self._hit_delta(before)
        profile = _PROFILE[0]
        if profile is not None:
            profile.phase("typecheck", weight=check_budget.spent, counters=hits)
            # The translation itself is fuel-free; its deterministic
            # weight is the size of the CC-CC term it emitted.
            profile.phase("closconv", weight=cccc.term_size(compilation.target))
            profile.phase("verify", weight=verify_budget.spent)
        result = CompileResult(
            compilation=compilation,
            steps=check_budget.spent + verify_budget.spent,
            check_steps=check_budget.spent,
            verify_steps=verify_budget.spent,
            engine=self.engine,
            session=self.name,
            cache_hits=hits,
            diagnostics=_compile_diagnostics(verify),
        )
        if entry is None:
            meta = ArtifactMeta(result.check_steps, result.verify_steps, result.verified)
            entry = _CompileEntry(term, meta)
            if memo is not None:
                memo[key] = entry
        entry.compiled = result
        return entry, result

    def _prepare(
        self, program: str | cc.Term, ctx: cc.Context | None, verify: bool,
        backend: str, label_counts: dict[str, int] | None,
    ) -> tuple[_CompileEntry, CompileResult | None]:
        """``program``'s compile-memo entry, hoisted, and staged for ``"compiled"``.

        The cold ``CompileResult`` comes back when this call compiled;
        otherwise the entry's recorded fuel has been replayed.
        """
        memo, key = self._memo(program, ctx, verify)
        entry = memo.get(key) if memo is not None else None
        compile_result = artifact = found = None
        if entry is None:
            term = self._coerce(program)
            if backend == "compiled" and memo is not None:
                artifact, found = self._cached_artifact(term, verify)
            if found is not None:
                staged, meta = found
                entry = _CompileEntry(term, meta, program=staged.program, staged=staged)
                memo[key] = entry
            else:
                entry, compile_result = self._compile(memo, key, None, term, ctx, verify)
        if compile_result is None:
            self._replay(entry.meta)
        if entry.program is None:
            entry.program = hoist(entry.compiled.target)
        if backend == "compiled" and entry.staged is None:
            if memo is not None and artifact is None:  # an earlier call made the entry
                artifact, found = self._cached_artifact(entry.source, verify)
            if found is not None:
                entry.staged = found[0]
            else:
                entry.staged = compile_program(entry.program, label_counts=label_counts)
                if artifact is not None:
                    store_artifact(self._state, artifact, entry.staged, entry.meta)
        return entry, compile_result

    def _replay(self, meta: ArtifactMeta) -> None:
        """Charge a hit's recorded fuel: the cold compile's budgets and order."""
        self.budget().charge(meta.check_steps)
        self.budget().charge(meta.verify_steps)


@dataclass
class _CompileEntry:
    """One program in a session's compile memo (see :meth:`Session.compile`).

    ``source`` pins the ingested term, so an identity key stays valid for
    the entry's lifetime, and ``meta`` records the compile's fuel.
    ``compiled`` is None while the entry comes from a compiled-artifact
    hit, until a :meth:`Session.compile` fills it; ``program`` and
    ``staged`` are filled the first time :meth:`Session.run` needs them.
    """

    source: cc.Term
    meta: ArtifactMeta
    compiled: CompileResult | None = None
    program: Program | None = None
    staged: CompiledProgram | None = None


def _compile_diagnostics(verify: bool) -> tuple[str, ...]:
    if verify:
        return ("target re-checked against the translated type (Theorem 5.6)",)
    return ("verification skipped (verify=False)",)


# --------------------------------------------------------------------------
# Batch execution: the same jobs, pooled or solo.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchReport:
    """The outcome of a batch: per-job results plus pool/session statistics.

    ``results`` is in submission order.  ``stats`` is the dispatcher's
    aggregated :class:`~repro.service.dispatcher.PoolStats` dict when the
    batch ran pooled, or the solo session's job/hit counters when it ran
    in-process.
    """

    results: tuple
    stats: dict[str, Any]
    workers: int
    engine: str
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def canonical(self) -> list[dict[str, Any]]:
        """The deterministic halves of every result, in submission order."""
        return [result.canonical() for result in self.results]

    def to_dict(self) -> dict[str, Any]:
        return {
            "results": [result.to_dict() for result in self.results],
            "stats": dict(self.stats),
            "workers": self.workers,
            "engine": self.engine,
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
        }


def execute_jobs(
    jobs,
    *,
    workers: int = 0,
    engine: str = "nbe",
    fuel: int | None = None,
    session: Session | None = None,
    memo_store: Any = None,
    fault_plan: Any = None,
    connect: str | None = None,
    client_options: Any = None,
    **dispatcher_options: Any,
) -> BatchReport:
    """Execute a stream of service jobs, pooled or solo.

    With ``workers=0`` (the default) every job runs in-process against one
    session — the reference semantics, and what a worker does with its
    slice of the stream.  With ``workers > 0`` the batch is sharded across
    a process pool (:class:`repro.service.Dispatcher`), one session per
    worker; deterministic payloads are byte-identical either way, which is
    the contract `benchmarks/bench_e19_service.py` gates.

    ``memo_store`` attaches the persistent memo tier for the duration of
    the batch: a path (or, solo only, an opened
    :class:`~repro.wire.persist.PersistentMemoStore`).  Solo, the batch
    session consults/fills it and the report's ``stats["persist"]``
    carries the store counters; pooled, every worker attaches the path at
    bootstrap.  Either way results stay byte-identical to a store-less
    run — entries replay recorded fuel and render α-canonically.

    ``fault_plan`` (a :class:`~repro.service.faults.FaultPlan` or its wire
    dict) runs the batch under deterministic fault injection — chaos
    testing only.  Solo, an injector is activated around the executor loop
    (worker-kill faults are inert in-process); pooled, the plan ships to
    every worker.  The report's ``stats["chaos"]`` carries the plan
    summary either way.

    ``connect`` ("HOST:PORT") streams the batch to a running service
    endpoint (``python -m repro serve``) through the bundled windowed
    client instead of executing locally; ``workers``/``engine`` are then
    the server's business, and ``fault_plan`` applies its
    *connection-category* faults client-side (self-inflicted drops,
    stalls, truncations — the reconnect/resubmit machinery heals them, so
    results stay byte-identical).  ``client_options`` is a dict forwarded
    to :class:`~repro.service.client.ServiceClient` (``window``,
    ``max_retries``, ``timeout``, …).

    ``dispatcher_options`` are forwarded to the :class:`Dispatcher`
    (``max_pending``, ``job_timeout``, ``max_attempts``, …).
    """
    from contextlib import nullcontext

    from repro.service.faults import FaultInjector, FaultPlan
    from repro.service.jobs import Job, JobResult

    specs = [job if isinstance(job, Job) else Job.from_dict(job) for job in jobs]
    for index, spec in enumerate(specs):
        if spec.id is None:
            specs[index] = Job.from_dict({**spec.to_dict(), "id": f"job-{index}"})
    plan = FaultPlan.coerce(fault_plan)
    start = time.perf_counter()
    if connect is not None:
        from repro.service.client import ServiceClient

        with ServiceClient.from_address(
            connect, fault_plan=plan, **(client_options or {})
        ) as client:
            documents = client.run_batch(specs)
            stats_poll = client.stats()
        results = tuple(JobResult.from_dict(document) for document in documents)
        stats = {
            "connect": connect,
            "client": {
                "reconnects": client.reconnects,
                "resubmitted": client.resubmitted,
                "shed_retries": client.shed_retries,
            },
            **stats_poll.get("meta", {}).get("stats", {}),
        }
        if plan is not None:
            stats["chaos"] = plan.summary()
        workers = stats.get("pool", {}).get("workers", 0)
    elif workers <= 0:
        from repro.service.faults import activate as activate_faults

        solo = session if session is not None else Session(
            name="batch", engine=engine, fuel=DEFAULT_FUEL if fuel is None else fuel
        )
        tier = solo.attach_memo_store(memo_store) if memo_store is not None else None
        chaos = nullcontext() if plan is None else activate_faults(FaultInjector(plan))
        try:
            with chaos:
                results = tuple(solo.execute(spec) for spec in specs)
        finally:
            if tier is not None:
                solo.detach_memo_store()
        stats = {
            "workers": 0,
            "submitted": len(specs),
            "completed": len(specs),
            "failed": sum(1 for result in results if not result.ok),
            "cache_hits": solo.hit_counts(),
        }
        if tier is not None:
            stats["persist"] = tier.store.stats()
            if tier.store is not memo_store:  # opened here from a path
                tier.store.close()
        if plan is not None:
            stats["chaos"] = plan.summary()
        workers = 0
    else:
        from repro.service.dispatcher import Dispatcher

        if memo_store is not None:
            dispatcher_options["memo_store"] = str(memo_store)
        if plan is not None:
            dispatcher_options["fault_plan"] = plan
        with Dispatcher(
            workers=workers, engine=engine, fuel=fuel, **dispatcher_options
        ) as pool:
            results = tuple(pool.run_batch(specs))
            stats = pool.stats().to_dict()
            if plan is not None:
                stats["chaos"] = plan.summary(pool.max_attempts)
    return BatchReport(
        results=results,
        stats=stats,
        workers=workers,
        engine=engine,
        elapsed_seconds=time.perf_counter() - start,
    )


# --------------------------------------------------------------------------
# The process-default session.
# --------------------------------------------------------------------------

_DEFAULT_SESSION: Session | None = None
_DEFAULT_SESSION_LOCK = threading.Lock()


def default_session() -> Session:
    """The session wrapping the process-default kernel state.

    This is the state every legacy entrypoint runs against when no session
    is active, so ``default_session().cache_stats()`` reports on exactly
    the caches `repro.cc.*`` calls outside any session have been filling.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        with _DEFAULT_SESSION_LOCK:
            if _DEFAULT_SESSION is None:
                _DEFAULT_SESSION = Session(_state=default_state())
    return _DEFAULT_SESSION
