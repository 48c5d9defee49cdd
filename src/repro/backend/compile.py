"""Staged compilation of hoisted CC-CC programs to host Python closures.

The paper's closing move is that closure-converted, hoisted code is "one
small step from a real backend": every code block is closed, every
activation record is exactly ⟨environment, argument⟩, so each block can be
translated *once* into a host-native callable and then entered at host
speed, with no term dispatch on the hot path.  This module performs that
translation — the first-Futamura-projection trick of partially evaluating
:mod:`repro.machine.machine`'s ``eval`` loop against a fixed program:

- **Stage one (compile time)**: walk each hoisted code block following the
  same case analysis as the machine and build a tree of Python closures.
  All term dispatch, variable-name resolution (names become tuple slots),
  and error-message formatting happens here, once per block.
- **Stage two (run time)**: call the closure tree.  A staged function has
  the shape ``f(rt, c) -> Value`` where ``rt`` is the flat activation
  tuple (the paper's environment-as-tuple discipline, literally) and ``c``
  is the run's flat counter list, reported as a
  :class:`~repro.machine.machine.MachineStats` when the run completes.

The machine stays in the repo **verbatim** as the differential oracle:
compiled runs must produce the same values (machine value classes are
reused, so equality is structural), raise byte-identical
:class:`MachineError` documents, and — per Accattoli et al.'s cost model —
report the *same* step/allocation counters, not merely the same complexity
class.  Every counter increment below is therefore placed to mirror a
specific line of ``_Machine.eval``; comments call out the mirrored
transition.  Pure constructor subtrees are constant-folded at compile
time, but their closures still replay the exact steps the machine would
have charged.

Counter slots: ``c[0]`` steps, ``c[1]`` closure allocs, ``c[2]`` tuple
allocs, ``c[3]`` projections, ``c[4]`` code lookups, ``c[5]`` env allocs,
``c[6]`` max env width.  A flat list keeps each increment one subscript;
:meth:`CompiledProgram.execute` lifts it into ``MachineStats`` once.

One representational caveat: :func:`compile_program` α-canonicalizes the
program first (so artifact bytes and content hashes are session- and
name-independent), and canonical binder names are always pairwise
distinct.  A hand-built block whose argument binder *shadows* its
environment binder (``env_name == arg_name``) would give the machine a
one-entry activation record but the compiled form a two-name layout; the
closure-conversion pipeline never emits such blocks (its binders are
machine-generated and distinct), so the counters agree on every program
that can reach this backend through the API.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro import cccc
from repro.cccc.ast import LANGUAGE
from repro.common import deep
from repro.machine.hoist import Program
from repro.machine.machine import (
    _TYPE_NODES,
    MBool,
    MClo,
    MCode,
    MNat,
    MPair,
    MType,
    MUnit,
    MachineError,
    MachineStats,
    Value,
    _rewind,
)
from repro.wire.codec import content_hash

__all__ = [
    "BlockFn",
    "CompiledProgram",
    "StagedFn",
    "compile_program",
]

#: A staged term: flat activation tuple + counter list → value.
StagedFn = Callable[[tuple, list], Value]

#: A staged code block: environment value + argument value + counters → value.
BlockFn = Callable[[Value, Value, list], Value]

_TYPE_TAGS = {cls: cls.__name__ for cls in _TYPE_NODES}


# -- constant folding --------------------------------------------------------


def _fold(term: cccc.Term) -> tuple[Value, int, int] | None:
    """Fold a pure constructor subtree to ``(value, steps, tuple_allocs)``.

    Only subtrees the machine is guaranteed to evaluate without touching
    the environment or raising are folded — literals, type nodes (whose
    children the machine never visits), and pairs/naturals built from
    them.  Anything that could fail at run time (``succ`` of a non-number,
    say) returns ``None`` and is staged structurally so the error, and the
    counters leading up to it, surface exactly as the machine's would.
    """
    tag = _TYPE_TAGS.get(type(term))
    if tag is not None:
        return MType(tag), 1, 0  # one loop-top step; children never evaluated
    if isinstance(term, cccc.Zero):
        return MNat(0), 1, 0
    if isinstance(term, cccc.UnitVal):
        return MUnit(), 1, 0
    if isinstance(term, cccc.BoolLit):
        return MBool(term.value), 1, 0
    if isinstance(term, cccc.Succ):
        # Iterative spine walk: numeric literals arrive as ~10k-deep
        # ``succ`` chains and must not recurse here.
        height = 0
        pred: cccc.Term = term
        while isinstance(pred, cccc.Succ):
            height += 1
            pred = pred.pred
        base = _fold(pred)
        if base is None:
            return None
        value, steps, tuples = base
        if not isinstance(value, MNat):
            return None  # the machine would raise "succ of a non-number"
        return MNat(value.value + height), steps + height, tuples
    if isinstance(term, cccc.Pair):
        first = _fold(term.fst_val)
        if first is None:
            return None
        second = _fold(term.snd_val)
        if second is None:
            return None
        first_value, first_steps, first_tuples = first
        second_value, second_steps, second_tuples = second
        return (
            MPair(first_value, second_value),
            1 + first_steps + second_steps,
            1 + first_tuples + second_tuples,
        )
    return None


# -- staging -----------------------------------------------------------------


def _make_apply(table: dict[str, BlockFn]) -> Callable[[Value, Value, list], Value]:
    """The staged twin of ``_Machine.apply`` (natelim's β-entry)."""

    def apply_value(fn_value: Value, arg_value: Value, c: list) -> Value:
        c[0] += 1  # apply: the β transition step
        c[4] += 1  # lookup_code
        # Only MClo carries ``.code``; the attribute chain doubles as the
        # closure check, and the dict hit as the label check.  A failing
        # run never reports counters, so the eager increments are
        # unobservable on the error paths.
        try:
            block = table[fn_value.code.label]
        except AttributeError:
            raise MachineError(f"application of non-closure {fn_value!r}") from None
        except KeyError:
            raise MachineError(f"unknown code label {fn_value.code.label!r}") from None
        return block(fn_value.env, arg_value, c)

    return apply_value


def _stage(
    term: cccc.Term,
    layout: dict[str, int],
    depth: int,
    table: dict[str, BlockFn],
    code_table: dict[str, cccc.CodeLam],
    apply_value: Callable[[Value, Value, list], Value],
) -> StagedFn:
    """Translate ``term`` into a closure over flat activation tuples.

    ``layout`` maps every in-scope name to its slot in the runtime tuple
    and ``depth`` is the tuple's current length (shadowed slots stay in
    the tuple, dead).  ``len(layout)`` is therefore exactly the machine's
    ``len(env)`` at this program point, which is what makes the env-width
    counters static.
    """
    folded = _fold(term)
    if folded is not None:
        value, steps, tuples = folded
        if tuples:

            def const_tuple(rt: tuple, c: list, _v=value, _s=steps, _t=tuples) -> Value:
                c[0] += _s
                c[2] += _t
                return _v

            return const_tuple

        def const(rt: tuple, c: list, _v=value, _s=steps) -> Value:
            c[0] += _s
            return _v

        return const

    if isinstance(term, cccc.Var):
        name = term.name
        slot = layout.get(name)
        if slot is not None:

            def var(rt: tuple, c: list, _slot=slot) -> Value:
                c[0] += 1
                return rt[_slot]

            return var
        if name in code_table:
            code_value = MCode(name)

            def code_ref(rt: tuple, c: list, _v=code_value) -> Value:
                c[0] += 1
                return _v

            return code_ref
        message = f"unbound variable at runtime: {name!r}"

        def unbound(rt: tuple, c: list, _m=message) -> Value:
            c[0] += 1
            raise MachineError(_m)

        return unbound

    if isinstance(term, cccc.Clo):
        code_f = _stage(term.code, layout, depth, table, code_table, apply_value)
        env_f = _stage(term.env, layout, depth, table, code_table, apply_value)

        def clo(rt: tuple, c: list, _code=code_f, _env=env_f) -> Value:
            c[0] += 1
            code_value = _code(rt, c)
            if code_value.__class__ is not MCode:
                raise MachineError("closure over a non-code value")
            env_value = _env(rt, c)
            c[1] += 1  # closure_allocs
            return MClo(code_value, env_value)

        return clo

    if isinstance(term, cccc.App):
        fn = term.fn
        if (
            isinstance(fn, cccc.Clo)
            and isinstance(fn.code, cccc.Var)
            and fn.code.name not in layout
            and fn.code.name in table
        ):
            # Immediate redex over a statically known block (the shape
            # closure conversion gives every source β-redex): resolve the
            # block at stage time and skip the transient MClo.  The charge
            # is the machine's full trace — App, Clo, code-Var, and β
            # steps, the closure alloc, the code lookup — and evaluation
            # order (environment, then argument) is preserved.
            env_f = _stage(fn.env, layout, depth, table, code_table, apply_value)
            arg_f = _stage(term.arg, layout, depth, table, code_table, apply_value)

            def app_known(
                rt: tuple, c: list, _env=env_f, _arg=arg_f, _block=table[fn.code.name]
            ) -> Value:
                c[0] += 4
                c[1] += 1
                c[4] += 1
                env_value = _env(rt, c)
                return _block(env_value, _arg(rt, c), c)

            return app_known
        fn_f = _stage(term.fn, layout, depth, table, code_table, apply_value)
        arg_f = _stage(term.arg, layout, depth, table, code_table, apply_value)

        def app(rt: tuple, c: list, _fn=fn_f, _arg=arg_f, _table=table) -> Value:
            c[0] += 2  # loop-top step for the App node + the β transition
            c[4] += 1  # lookup_code
            fn_value = _fn(rt, c)
            arg_value = _arg(rt, c)
            # Only MClo carries ``.code``; the attribute chain doubles as
            # the closure check, and the dict hit as the label check.  A
            # failing run never reports counters, so hoisting the β/lookup
            # increments above the child evaluations is unobservable: on
            # every successful path they were charged exactly once anyway.
            try:
                block = _table[fn_value.code.label]
            except AttributeError:
                raise MachineError(f"application of non-closure {fn_value!r}") from None
            except KeyError:
                raise MachineError(f"unknown code label {fn_value.code.label!r}") from None
            return block(fn_value.env, arg_value, c)

        return app

    if isinstance(term, cccc.Let):
        bound_f = _stage(term.bound, layout, depth, table, code_table, apply_value)
        inner_layout = dict(layout)
        inner_layout[term.name] = depth  # shadowing rebinds the name, keeps the slot count
        width = len(inner_layout)
        body_f = _stage(term.body, inner_layout, depth + 1, table, code_table, apply_value)

        def let(rt: tuple, c: list, _bound=bound_f, _body=body_f, _w=width) -> Value:
            c[0] += 1
            bound_value = _bound(rt, c)
            c[5] += 1  # env_allocs: the extended let environment
            if _w > c[6]:
                c[6] = _w
            return _body(rt + (bound_value,), c)

        return let

    if isinstance(term, cccc.Pair):
        fst_f = _stage(term.fst_val, layout, depth, table, code_table, apply_value)
        snd_f = _stage(term.snd_val, layout, depth, table, code_table, apply_value)

        def pair(rt: tuple, c: list, _fst=fst_f, _snd=snd_f) -> Value:
            c[0] += 1
            c[2] += 1  # tuple_allocs, charged before the children as in eval
            return MPair(_fst(rt, c), _snd(rt, c))

        return pair

    if isinstance(term, cccc.Fst):
        pair_f = _stage(term.pair, layout, depth, table, code_table, apply_value)

        def fst(rt: tuple, c: list, _pair=pair_f) -> Value:
            c[0] += 1
            c[3] += 1  # projections
            value = _pair(rt, c)
            if value.__class__ is not MPair:
                raise MachineError("fst of a non-pair")
            return value.first

        return fst

    if isinstance(term, cccc.Snd):
        pair_f = _stage(term.pair, layout, depth, table, code_table, apply_value)

        def snd(rt: tuple, c: list, _pair=pair_f) -> Value:
            c[0] += 1
            c[3] += 1
            value = _pair(rt, c)
            if value.__class__ is not MPair:
                raise MachineError("snd of a non-pair")
            return value.second

        return snd

    if isinstance(term, cccc.If):
        cond_f = _stage(term.cond, layout, depth, table, code_table, apply_value)
        then_f = _stage(term.then_branch, layout, depth, table, code_table, apply_value)
        else_f = _stage(term.else_branch, layout, depth, table, code_table, apply_value)

        def if_(rt: tuple, c: list, _cond=cond_f, _then=then_f, _else=else_f) -> Value:
            c[0] += 1
            cond_value = _cond(rt, c)
            if cond_value.__class__ is not MBool:
                raise MachineError("if on a non-boolean")
            if cond_value.value:
                return _then(rt, c)
            return _else(rt, c)

        return if_

    if isinstance(term, cccc.Succ):
        # Reached only when the predecessor is not a foldable literal.
        pred_f = _stage(term.pred, layout, depth, table, code_table, apply_value)

        def succ(rt: tuple, c: list, _pred=pred_f) -> Value:
            c[0] += 1
            value = _pred(rt, c)
            if value.__class__ is not MNat:
                raise MachineError("succ of a non-number")
            return MNat(value.value + 1)

        return succ

    if isinstance(term, cccc.NatElim):
        # The motive is a type annotation; like the machine, never evaluate it.
        target_f = _stage(term.target, layout, depth, table, code_table, apply_value)
        base_f = _stage(term.base, layout, depth, table, code_table, apply_value)
        step_f = _stage(term.step, layout, depth, table, code_table, apply_value)

        def natelim(
            rt: tuple,
            c: list,
            _target=target_f,
            _base=base_f,
            _step=step_f,
            _apply=apply_value,
        ) -> Value:
            c[0] += 1
            target_value = _target(rt, c)
            if target_value.__class__ is not MNat:
                raise MachineError("natelim of a non-number")
            accumulator = _base(rt, c)
            step_value = _step(rt, c)
            for index in range(target_value.value):
                partial = _apply(step_value, MNat(index), c)
                accumulator = _apply(partial, accumulator, c)
            return accumulator

        return natelim

    if isinstance(term, cccc.CodeLam):

        def codelam(rt: tuple, c: list) -> Value:
            c[0] += 1
            raise MachineError("un-hoisted code literal reached the machine")

        return codelam

    message = f"cannot evaluate {term!r}"

    def stuck(rt: tuple, c: list, _m=message) -> Value:
        c[0] += 1
        raise MachineError(_m)

    return stuck


def _stage_block(
    code: cccc.CodeLam,
    table: dict[str, BlockFn],
    code_table: dict[str, cccc.CodeLam],
    apply_value: Callable[[Value, Value, list], Value],
) -> BlockFn:
    """Translate one code block into ``block(env_value, arg_value, c)``.

    The activation-record bookkeeping of ``_Machine._frame`` lives in the
    block prologue: its width is static (the paper's guarantee that a
    record is exactly ⟨environment, argument⟩), so the allocation counter
    and the width high-water mark cost two list operations per entry.
    """
    layout = {code.env_name: 0, code.arg_name: 1}
    width = len(layout)
    body_f = _stage(code.body, layout, 2, table, code_table, apply_value)

    def block(env_value: Value, arg_value: Value, c: list, _body=body_f, _w=width) -> Value:
        c[5] += 1  # env_allocs: the activation record
        if _w > c[6]:
            c[6] = _w
        return _body((env_value, arg_value), c)

    return block


# -- compiled programs -------------------------------------------------------


def _source_hash(program: Program) -> str:
    """A stable hex digest of the (canonical) source program.

    Built from the same per-term BLAKE2b content hashes :mod:`repro.wire`
    uses, over the labelled code table plus ``main`` — so two sessions
    compiling α-equivalent programs agree on the hash byte for byte.
    """
    digest = hashlib.blake2b(digest_size=16, person=b"repro-py-src")
    for label, code in program.code_table.items():
        digest.update(label.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(content_hash(LANGUAGE, code))
    digest.update(b"\x01")
    digest.update(content_hash(LANGUAGE, program.main))
    return digest.hexdigest()


@dataclass(eq=False)
class CompiledProgram:
    """A hoisted program staged into host closures, ready to run repeatedly.

    ``program`` is the α-canonical form of the source (binders renamed to
    canonical depth-indexed names), ``source_hash`` its content digest —
    the identity the artifact cache and the service layer key on.
    """

    program: Program
    source_hash: str
    table: dict[str, BlockFn] = field(repr=False)
    main: StagedFn = field(repr=False)
    #: The profiling dict the blocks count entries into, or None.
    label_counts: dict[str, int] | None = field(default=None, repr=False)

    @property
    def code_count(self) -> int:
        return len(self.table)

    def execute(self) -> tuple[Value, MachineStats]:
        """Run the compiled program once, returning (value, counters).

        Each run gets a fresh counter list; a program too deep for the
        caller's stack runs on the deep-stack runner, like the machine
        oracle.  ``max_frame_size`` is derived, not counted: every
        environment the machine enters is one it allocated, except the
        empty one ``main`` starts in, so it is ``max_env_size`` once any
        was allocated, else 0.
        """

        def attempt() -> tuple[Value, MachineStats]:
            c = [0] * 7
            value = self.main((), c)
            # c[0:5] are MachineStats' first five fields, in order.
            return value, MachineStats(*c[:5], c[6] if c[5] else 0, c[5], c[6])

        rewind = _rewind(None, self.label_counts)
        return deep.call(attempt, lambda: self.program.size, rewind)


def _counted_block(label: str, block: BlockFn, counts: dict[str, int]) -> BlockFn:
    """Wrap a staged block with a per-label entry counter (profiling mode).

    The counter dict is captured in the closure, so instrumented programs
    are staged fresh per profiled run and never enter the artifact caches;
    the wrapper fires once per block entry — the exact sites where the
    machine's ``lookup_code`` counts, so per-label totals agree with the
    oracle and sum to ``code_lookups``.
    """

    def counted(env_value: Value, arg_value: Value, c: list, _b=block) -> Value:
        counts[label] = counts.get(label, 0) + 1
        return _b(env_value, arg_value, c)

    return counted


def _build(
    program: Program, label_counts: dict[str, int] | None = None
) -> tuple[dict[str, BlockFn], StagedFn]:
    table: dict[str, BlockFn] = {}
    apply_value = _make_apply(table)
    code_table = program.code_table
    for label, code in code_table.items():
        block = _stage_block(code, table, code_table, apply_value)
        if label_counts is not None:
            # Wrap *as inserted*: later blocks' ``app_known`` fast paths
            # capture table entries at stage time, so wrapping afterwards
            # would miss every statically resolved β.
            block = _counted_block(label, block, label_counts)
        table[label] = block
    main = _stage(program.main, {}, 0, table, code_table, apply_value)
    return table, main


def compile_program(
    program: Program, label_counts: dict[str, int] | None = None
) -> CompiledProgram:
    """Stage a hoisted program into a :class:`CompiledProgram`.

    The program is α-canonicalized first so the compiled artifact (and its
    content hash) is independent of the session's gensym history; the
    machine value classes carry no binder names, so canonicalization is
    invisible to runtime results.

    ``label_counts`` (profiling mode) instruments every staged block with
    a per-label entry counter writing into the given dict; instrumented
    programs must not be cached (the counter dict is baked into the
    closures), which the API layer enforces by bypassing the artifact
    caches whenever a profile is active.
    """
    interned = Program(
        {
            label: cccc.intern(code)  # type: ignore[misc]
            for label, code in program.code_table.items()
        },
        cccc.intern(program.main),
    )
    table, main = deep.call(lambda: _build(interned, label_counts), lambda: program.size)
    return CompiledProgram(
        program=interned,
        source_hash=_source_hash(interned),
        table=table,
        main=main,
        label_counts=label_counts,
    )
