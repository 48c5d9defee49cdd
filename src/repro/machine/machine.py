"""A call-by-value environment machine for hoisted CC-CC programs.

After closure conversion and hoisting, execution needs no substitution at
all: code blocks live in a static table, every activation record holds
exactly *two* bindings (the environment tuple and the argument), and
closures are two-word heap objects (code label + environment pointer).
This machine makes the paper's "statically allocate the code" motivation
executable and lets the benchmarks measure the cost the paper's Section 7
discusses (environment-tuple allocations and projection dereferences).

Type-level expressions can flow through a full-spectrum program at run
time (e.g. ``id Nat 3``); the machine treats them as inert
:class:`MType` values — they are stored in environments and passed as
arguments, but never eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Union

from repro import cccc
from repro.cccc import (
    App,
    BoolLit,
    Clo,
    CodeLam,
    Fst,
    If,
    Let,
    NatElim,
    Pair,
    Snd,
    Succ,
    UnitVal,
    Var,
    Zero,
)
from repro.common import deep
from repro.common.errors import ReproError
from repro.machine.hoist import Program

__all__ = [
    "MachineError",
    "MachineStats",
    "MBool",
    "MClo",
    "MCode",
    "MNat",
    "MPair",
    "MType",
    "MUnit",
    "Value",
    "machine_observation",
    "run",
]


class MachineError(ReproError):
    """The machine reached a state the type system should have ruled out."""


@dataclass
class MachineStats:
    """Cost counters for one program run.

    ``env_allocs``/``max_env_size`` mirror the NbE engine's environment
    discipline (one environment per activation or ``let``), so machine
    benchmarks and :mod:`repro.kernel.nbe` normalization can be compared on
    the same axes: closures allocated, environments allocated, and how wide
    those environments grow.
    """

    steps: int = 0
    closure_allocs: int = 0  # ⟨⟨code, env⟩⟩ objects built
    tuple_allocs: int = 0  # pairs / environment-tuple cells built
    projections: int = 0  # fst/snd dereferences
    code_lookups: int = 0  # static code-table fetches
    max_frame_size: int = 0  # widest environment entered: max_env_size once one was built
    env_allocs: int = 0  # environment dicts built (activation records + lets)
    max_env_size: int = 0  # widest environment ever built


_STATS_FIELDS = tuple(spec.name for spec in fields(MachineStats))


# -- runtime values ----------------------------------------------------------


@dataclass(frozen=True)
class MCode:
    """A code pointer into the static table."""

    label: str


@dataclass(frozen=True)
class MClo:
    """A closure object: code pointer + environment value."""

    code: MCode
    env: "Value"


@dataclass(frozen=True)
class MPair:
    """A heap pair (also the cells of environment tuples)."""

    first: "Value"
    second: "Value"


@dataclass(frozen=True)
class MUnit:
    """The unit value ⟨⟩."""


@dataclass(frozen=True)
class MBool:
    """A boolean."""

    value: bool


@dataclass(frozen=True)
class MNat:
    """A natural number (unary in the calculus, machine-int here)."""

    value: int


@dataclass(frozen=True)
class MType:
    """An inert type value (types are data at run time, never eliminated)."""

    tag: str


Value = Union[MCode, MClo, MPair, MUnit, MBool, MNat, MType]

_TYPE_NODES = (
    cccc.Star,
    cccc.Box,
    cccc.Pi,
    cccc.Sigma,
    cccc.CodeType,
    cccc.Unit,
    cccc.Bool,
    cccc.Nat,
)


@dataclass
class _Machine:
    code_table: dict[str, cccc.CodeLam]
    stats: MachineStats
    label_counts: dict[str, int] | None = None

    def eval(self, term: cccc.Term, env: dict[str, Value]) -> Value:
        # Tail positions (let/if bodies, β-entry) iterate instead of
        # recursing, so call depth tracks term depth, not reduction length;
        # genuinely deep *terms* are covered by the deep-stack runner in `run`.
        # One identity test on the node's class (a module global) per case,
        # in order of traffic: variables, applications, projections and
        # successors are nearly every step of a run.
        stats = self.stats
        while True:
            stats.steps += 1
            kind = term.__class__
            if kind is Var:
                value = env.get(term.name)
                if value is not None:  # no machine value is None
                    return value
                if term.name in self.code_table:
                    return MCode(term.name)
                raise MachineError(f"unbound variable at runtime: {term.name!r}")
            if kind is App:
                fn_value = self.eval(term.fn, env)
                arg_value = self.eval(term.arg, env)
                if fn_value.__class__ is not MClo:
                    raise MachineError(f"application of non-closure {fn_value!r}")
                stats.steps += 1
                term, env = self._enter(fn_value, arg_value)
                continue
            if kind is Fst:
                stats.projections += 1
                value = self.eval(term.pair, env)
                if value.__class__ is not MPair:
                    raise MachineError("fst of a non-pair")
                return value.first
            if kind is Succ:
                value = self.eval(term.pred, env)
                if value.__class__ is not MNat:
                    raise MachineError("succ of a non-number")
                return MNat(value.value + 1)
            if kind is UnitVal:
                return MUnit()
            if kind is Clo:
                code_value = self.eval(term.code, env)
                if code_value.__class__ is not MCode:
                    raise MachineError("closure over a non-code value")
                env_value = self.eval(term.env, env)
                stats.closure_allocs += 1
                return MClo(code_value, env_value)
            if kind is Let:
                bound_value = self.eval(term.bound, env)
                env = dict(env)
                env[term.name] = bound_value
                stats.env_allocs += 1
                if len(env) > stats.max_env_size:
                    stats.max_env_size = stats.max_frame_size = len(env)
                term = term.body
                continue
            if kind is Pair:
                stats.tuple_allocs += 1
                return MPair(self.eval(term.fst_val, env), self.eval(term.snd_val, env))
            if kind is Snd:
                stats.projections += 1
                value = self.eval(term.pair, env)
                if value.__class__ is not MPair:
                    raise MachineError("snd of a non-pair")
                return value.second
            if kind is BoolLit:
                return MBool(term.value)
            if kind is If:
                cond_value = self.eval(term.cond, env)
                if cond_value.__class__ is not MBool:
                    raise MachineError("if on a non-boolean")
                term = term.then_branch if cond_value.value else term.else_branch
                continue
            if kind is Zero:
                return MNat(0)
            if kind is NatElim:
                target_value = self.eval(term.target, env)
                if target_value.__class__ is not MNat:
                    raise MachineError("natelim of a non-number")
                accumulator = self.eval(term.base, env)
                step_value = self.eval(term.step, env)
                for index in range(target_value.value):
                    partial = self.apply(step_value, MNat(index))
                    accumulator = self.apply(partial, accumulator)
                return accumulator
            if kind is CodeLam:
                raise MachineError("un-hoisted code literal reached the machine")
            if kind in _TYPE_NODES:
                return MType(kind.__name__)
            raise MachineError(f"cannot evaluate {term!r}")

    def _enter(self, closure: MClo, arg_value: Value) -> tuple[cccc.Term, dict[str, Value]]:
        """β-entry: fetch the closure's code from the static table and
        build its activation record, returning (code body, record)."""
        stats = self.stats
        stats.code_lookups += 1
        label = closure.code.label
        counts = self.label_counts
        if counts is not None:
            counts[label] = counts.get(label, 0) + 1
        code = self.code_table.get(label)
        if code is None:
            raise MachineError(f"unknown code label {label!r}")
        # The paper's closedness guarantee, realized: the activation
        # record is exactly {environment, argument}.
        frame: dict[str, Value] = {
            code.env_name: closure.env,
            code.arg_name: arg_value,
        }
        stats.env_allocs += 1
        if len(frame) > stats.max_env_size:
            stats.max_env_size = stats.max_frame_size = len(frame)
        return code.body, frame

    def apply(self, fn_value: Value, arg_value: Value) -> Value:
        self.stats.steps += 1
        if fn_value.__class__ is not MClo:
            raise MachineError(f"application of non-closure {fn_value!r}")
        return self.eval(*self._enter(fn_value, arg_value))


def run(
    program: Program,
    stats: MachineStats | None = None,
    label_counts: dict[str, int] | None = None,
) -> tuple[Value, MachineStats]:
    """Execute a hoisted program to a value, returning (value, counters).

    A program too deep for the caller's stack runs on the deep-stack
    runner (:mod:`repro.common.deep`), sized by ``program.size``; a retry
    counts into ``stats`` and ``label_counts`` as one run.

    ``label_counts`` (profiling mode) receives per-code-label β-entry
    counts — one increment per code-table fetch, so the counts sum to
    ``stats.code_lookups`` exactly.  When None (the default) the hot loop
    pays a single attribute check per β and nothing else.
    """
    if stats is None:
        stats = MachineStats()
    machine = _Machine(program.code_table, stats, label_counts)
    return deep.call(
        lambda: (machine.eval(program.main, {}), stats),
        lambda: program.size,
        _rewind(stats, label_counts),
    )


def _rewind(
    stats: MachineStats | None, label_counts: dict[str, int] | None
) -> Callable[[], None] | None:
    """Restore ``stats`` and ``label_counts`` to their values now (None: nothing to restore)."""
    if stats is None and label_counts is None:
        return None
    # Read field by field: touching ``stats.__dict__`` would give the
    # instance a real dict and slow every counter update in the hot loop.
    saved_stats = None if stats is None else [getattr(stats, name) for name in _STATS_FIELDS]
    saved_counts = None if label_counts is None else dict(label_counts)

    def rewind() -> None:
        if stats is not None:
            for name, value in zip(_STATS_FIELDS, saved_stats):
                setattr(stats, name, value)
        if label_counts is not None:
            label_counts.clear()
            label_counts.update(saved_counts)

    return rewind


def machine_observation(value: Value) -> bool | int | None:
    """The ground observation (Theorem 5.7's ``≈``) of a machine value."""
    if isinstance(value, MBool):
        return value.value
    if isinstance(value, MNat):
        return value.value
    return None
