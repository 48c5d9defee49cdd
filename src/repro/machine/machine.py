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

import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Union

from repro import cccc
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
    max_frame_size: int = 0  # largest activation record (should stay ≤ 2 + table)
    env_allocs: int = 0  # environment dicts built (activation records + lets)
    max_env_size: int = 0  # widest environment ever built


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
    program: Program
    stats: MachineStats
    code_values: dict[str, MCode] = field(default_factory=dict)
    label_counts: dict[str, int] | None = None

    def lookup_code(self, label: str) -> cccc.CodeLam:
        self.stats.code_lookups += 1
        counts = self.label_counts
        if counts is not None:
            counts[label] = counts.get(label, 0) + 1
        code = self.program.code_table.get(label)
        if code is None:
            raise MachineError(f"unknown code label {label!r}")
        return code

    def eval(self, term: cccc.Term, env: dict[str, Value]) -> Value:
        # Tail positions (let/if bodies, β-entry) iterate instead of
        # recursing, so call depth tracks term depth, not reduction length;
        # genuinely deep *terms* are covered by the stack guard in `run`.
        while True:
            self.stats.steps += 1
            self.stats.max_frame_size = max(self.stats.max_frame_size, len(env))
            match term:
                case cccc.Var(name):
                    if name in env:
                        return env[name]
                    if name in self.program.code_table:
                        return MCode(name)
                    raise MachineError(f"unbound variable at runtime: {name!r}")
                case cccc.Clo(code, env_expr):
                    code_value = self.eval(code, env)
                    if not isinstance(code_value, MCode):
                        raise MachineError("closure over a non-code value")
                    env_value = self.eval(env_expr, env)
                    self.stats.closure_allocs += 1
                    return MClo(code_value, env_value)
                case cccc.App(fn, arg):
                    fn_value = self.eval(fn, env)
                    arg_value = self.eval(arg, env)
                    if not isinstance(fn_value, MClo):
                        raise MachineError(f"application of non-closure {fn_value!r}")
                    self.stats.steps += 1
                    code = self.lookup_code(fn_value.code.label)
                    env = self._frame(code, fn_value.env, arg_value)
                    term = code.body
                    continue
                case cccc.Let(name, bound, _annot, body):
                    bound_value = self.eval(bound, env)
                    inner = dict(env)
                    inner[name] = bound_value
                    self.stats.env_allocs += 1
                    self.stats.max_env_size = max(self.stats.max_env_size, len(inner))
                    term, env = body, inner
                    continue
                case cccc.Pair(fst_val, snd_val, _annot):
                    self.stats.tuple_allocs += 1
                    return MPair(self.eval(fst_val, env), self.eval(snd_val, env))
                case cccc.Fst(pair):
                    self.stats.projections += 1
                    value = self.eval(pair, env)
                    if not isinstance(value, MPair):
                        raise MachineError("fst of a non-pair")
                    return value.first
                case cccc.Snd(pair):
                    self.stats.projections += 1
                    value = self.eval(pair, env)
                    if not isinstance(value, MPair):
                        raise MachineError("snd of a non-pair")
                    return value.second
                case cccc.UnitVal():
                    return MUnit()
                case cccc.BoolLit(value):
                    return MBool(value)
                case cccc.If(cond, then_branch, else_branch):
                    cond_value = self.eval(cond, env)
                    if not isinstance(cond_value, MBool):
                        raise MachineError("if on a non-boolean")
                    term = then_branch if cond_value.value else else_branch
                    continue
                case cccc.Zero():
                    return MNat(0)
                case cccc.Succ(pred):
                    value = self.eval(pred, env)
                    if not isinstance(value, MNat):
                        raise MachineError("succ of a non-number")
                    return MNat(value.value + 1)
                case cccc.NatElim(_motive, base, step, target):
                    target_value = self.eval(target, env)
                    if not isinstance(target_value, MNat):
                        raise MachineError("natelim of a non-number")
                    accumulator = self.eval(base, env)
                    step_value = self.eval(step, env)
                    for index in range(target_value.value):
                        partial = self.apply(step_value, MNat(index))
                        accumulator = self.apply(partial, accumulator)
                    return accumulator
                case cccc.CodeLam():
                    raise MachineError("un-hoisted code literal reached the machine")
                case _ if isinstance(term, _TYPE_NODES):
                    return MType(type(term).__name__)
                case _:
                    raise MachineError(f"cannot evaluate {term!r}")

    def _frame(self, code: cccc.CodeLam, env_value: Value, arg_value: Value) -> dict[str, Value]:
        # The paper's closedness guarantee, realized: the activation
        # record is exactly {environment, argument}.
        frame: dict[str, Value] = {
            code.env_name: env_value,
            code.arg_name: arg_value,
        }
        self.stats.env_allocs += 1
        self.stats.max_env_size = max(self.stats.max_env_size, len(frame))
        return frame

    def apply(self, fn_value: Value, arg_value: Value) -> Value:
        self.stats.steps += 1
        if not isinstance(fn_value, MClo):
            raise MachineError(f"application of non-closure {fn_value!r}")
        code = self.lookup_code(fn_value.code.label)
        return self.eval(code.body, self._frame(code, fn_value.env, arg_value))


#: Programs larger than this run inside a dedicated worker thread with a
#: deep C stack and a raised recursion limit: ``eval``'s remaining
#: recursion (argument positions) is bounded by *term* depth, which for
#: ~10k-node-deep programs exceeds the default interpreter limits.  Size
#: must count the code table too — hoisting moves every deep body out of
#: ``main`` and into it.
_DEEP_TERM_THRESHOLD = 2_000
_DEEP_STACK_BYTES = 256 * 1024 * 1024


def _run_guarded(thunk: Callable[[], Any], limit: int) -> Any:
    """Run ``thunk`` on a thread with a deep C stack and a recursion limit ≥ ``limit``.

    The one deep-stack runner, shared by the machine and the staged
    backend (:mod:`repro.backend.compile`); exceptions are re-raised in
    the caller.
    """
    result: list = []
    failure: list = []

    def worker() -> None:
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous, limit))
        try:
            result.append(thunk())
        except BaseException as error:  # noqa: BLE001 — re-raised in the caller
            failure.append(error)
        finally:
            sys.setrecursionlimit(previous)

    old_size = threading.stack_size(_DEEP_STACK_BYTES)
    try:
        thread = threading.Thread(target=worker, name="repro-deep-stack")
        thread.start()
        thread.join()
    finally:
        threading.stack_size(old_size)
    if failure:
        raise failure[0]
    return result[0]


def run(
    program: Program,
    stats: MachineStats | None = None,
    label_counts: dict[str, int] | None = None,
) -> tuple[Value, MachineStats]:
    """Execute a hoisted program to a value, returning (value, counters).

    Deep programs (main plus code-table bodies past
    ``_DEEP_TERM_THRESHOLD`` nodes) are evaluated under a dedicated
    deep-stack thread so that evaluation depth is bounded by memory, not
    the interpreter's default recursion limit.

    ``label_counts`` (profiling mode) receives per-code-label β-entry
    counts — one increment per ``lookup_code``, so the counts sum to
    ``stats.code_lookups`` exactly.  When None (the default) the hot loop
    pays a single attribute check per β and nothing else.
    """
    if stats is None:
        stats = MachineStats()
    machine = _Machine(program, stats, label_counts=label_counts)
    size = program.size
    if size > _DEEP_TERM_THRESHOLD:
        value = _run_guarded(lambda: machine.eval(program.main, {}), 4 * size + 10_000)
    else:
        value = machine.eval(program.main, {})
    return value, stats


def machine_observation(value: Value) -> bool | int | None:
    """The ground observation (Theorem 5.7's ``≈``) of a machine value."""
    if isinstance(value, MBool):
        return value.value
    if isinstance(value, MNat):
        return value.value
    return None
