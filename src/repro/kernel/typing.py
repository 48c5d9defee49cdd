"""One type checker for both calculi, driven by a per-calculus :class:`TypingSpec`.

CC-CC's type system (paper Figure 7) is CC's (Figures 3 and 4) with code
and closures in place of λ, so every shared rule is written once here:
[Var], ``⋆ : □``, [Prod], [App], [Let], [Sig], [Pair], [Fst], [Snd], the
ground-type rules, [Conv] and ``⊢ Γ``.  As for a Pure Type System
(Cousineau and Dowek), tables fix the rest: a spec gives the calculus's
reduction wiring, the type of each constant, its own rules dispatched on
``type(term)`` (CC's [Lam]; CC-CC's [T-Code], [Code] and [Clo]), its memo
kinds and scope, and its name.

**Contexts are indexed by level.**  A context names each level that a
term can still reach once (:func:`level`): a binder that shadows an entry
that a stored type or definition still mentions takes a fresh name, and
its scope is renamed to it.  So a name in a stored type denotes one level,
and a later binder can never capture it; names serve printing and
messages otherwise, and programs that shadow nothing are checked as they
are written.

**Types are checked as values** (:mod:`repro.kernel.nbe`, "Type values").
A judgment synthesizes syntax under delayed substitutions, and every
instantiation costs O(1).  [App], [Pair] and [Snd] add one entry
for the binder they instantiate; an instantiation by the binder's own
variable (``x ↦ x``) adds none and only drops the entry it shadows
(:func:`bind`), so the instantiated type is the same object as before —
as a closure's inner environment pair meets the tail of the environment
type it is annotated with.  [Let] and [Clo] move a type value out of
the context level it was built at: [Let]'s body type leaves the defined
level ``x`` and gets ``{x: e}`` composed into it, one pass over its own
entries; [Clo]'s closure type binds the code's argument level under a new
Π and instantiates its environment level by the entry ``{x′: e′}``, and
nothing in the code body's type is visited.  A value becomes syntax only
as a binder's result type ([Lam], [Code]), in an error message, and as a
public result, read back once and memoized on the value.  ``whnf_value``
reduces exactly the substituted term, so fuel matches substitution.

**[Pair] has a check mode.**  An unmemoized internal check of a pair
``⟨a, b⟩ as T`` against an expected type that *is* ``T`` checks the
components and skips ``T``'s sort.  Its invariant: every internal
expected type is already a type — sorted as a binder's or annotation's
type ([Let], [Code]'s environment type, the enclosing pair's annotation),
or inferred for a well-typed term.  A public check (``entry``) never
takes it, nor does a spec that memoizes every judgment (CC), where the
sort is a memo hit anyway and the check's own memo entry would then
record fuel that a public check must not replay.  So a closure's
environment type is sorted once, in [Code], however wide it is.

**Memo scope is a spec constant.**  Judgments are memoized in the
session's judgment :class:`~repro.kernel.memo.Memo` per (subject
identity, context key): a probe is one ``Memo.replay`` call, which
replays the recorded fuel on a hit and returns before the rule recurses,
and failures are never stored.  One key function, :func:`_memo_key`,
serves every probe and :meth:`TypingSpec.derived_type` (a
``Memo.peek``): the context's path key, except that an
``infer`` or universe judgment of a closed subject keys on the empty
context, since its derivation never reads Γ.  With
``memo_every_judgment`` (CC), every non-leaf judgment probes and stores:
closure conversion reads each λ body's type back through
:meth:`TypingSpec.derived_type`, probes hit on hash-consed input, and a
closed type re-derived under each new binder is checked once.  Without it
(CC-CC), only the public entries probe; the closed subterms closure
conversion shares in its output reach the checker's ``is`` shortcuts
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import TypeCheckError
from repro.kernel import fv
from repro.kernel.budget import Budget
from repro.kernel.memo import judgment_key
from repro.kernel.names import fresh
from repro.kernel.nbe import NbeSpec, Thunk, glue, read_back, view
from repro.kernel.nodespec import Language
from repro.kernel.reduction import whnf, whnf_value
from repro.kernel.substitution import reaches, subst

__all__ = ["TypingSpec", "bind", "check_value", "infer_value", "level", "universe"]

_EMPTY_ENV: dict = {}


@dataclass(eq=False)
class TypingSpec:
    """One calculus's typing wiring; its methods are the public judgments.

    ``axioms`` maps each constant's class to the shared instance of its type
    (the ground types are read off it: ``0 : Nat``, ``Nat : ⋆``, …);
    ``rules`` maps node classes to ``rule(spec, ctx, term, budget)``.
    ``memo_kinds`` names infer, check and universe judgments in the memo.
    ``equivalent`` must accept type values on either side.
    """

    nbe: NbeSpec
    axioms: dict[type, Any]
    rules: dict[type, Callable]
    name: str
    memo_kinds: tuple[str, str, str]
    memo_every_judgment: bool
    pi_cls: type
    sigma_cls: type
    pretty: Callable[[Any], str]
    equivalent: Callable[..., bool]

    def __post_init__(self) -> None:
        nbe = self.nbe
        self.infer_kind, self.check_kind, self.universe_kind = self.memo_kinds
        self.nat = self.axioms[nbe.zero_cls]
        self.bool = self.axioms[nbe.boollit_cls]
        self.star = self.axioms[type(self.nat)]
        self.box = self.axioms[type(self.star)]
        self.sorts = (type(self.star), type(self.box))
        self.table = {
            type(self.box): _box, self.pi_cls: _pi, nbe.app_cls: _app, nbe.let_cls: _let,
            self.sigma_cls: _sigma, nbe.pair_cls: _pair, nbe.fst_cls: _proj, nbe.snd_cls: _proj,
            nbe.succ_cls: _succ, nbe.if_cls: _if, nbe.natelim_cls: _natelim, **self.rules,
        }

    def infer(self, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
        """The type of ``term`` under ``ctx`` (Γ ⊢ e : A), as syntax; not normalized."""
        budget = Budget() if budget is None else budget
        return read_back(self.nbe, infer_value(self, ctx, term, budget, entry=True))

    def check(self, ctx: Any, term: Any, expected: Any, budget: Budget | None = None) -> None:
        """Check ``Γ ⊢ term : expected`` (inference and [Conv])."""
        check_value(self, ctx, term, expected, Budget() if budget is None else budget, entry=True)

    def infer_universe(self, ctx: Any, type_: Any, budget: Budget | None = None) -> Any:
        """Require ``type_`` to be a type; return its universe (⋆ or □)."""
        return universe(self, ctx, type_, Budget() if budget is None else budget, entry=True)

    def well_typed(self, ctx: Any, term: Any, budget: Budget | None = None) -> bool:
        """Does ``term`` have *some* type under ``ctx``?"""
        try:
            infer_value(self, ctx, term, Budget() if budget is None else budget)
        except TypeCheckError:
            return False
        return True

    def check_context(self, ctx: Any, budget: Budget | None = None) -> None:
        """Check well-formedness ``⊢ Γ`` (paper Figure 4)."""
        ctx.distinct()
        budget = Budget() if budget is None else budget
        prefix = ctx.empty()
        for binding in ctx:
            universe(self, prefix, binding.type_, budget)  # [W-Assum]
            if binding.definition is None:
                prefix = prefix.extend(binding.name, binding.type_)
            else:
                check_value(self, prefix, binding.definition, binding.type_, budget)  # [W-Def]
                prefix = prefix.define(binding.name, binding.definition, binding.type_)

    def derived_type(self, ctx: Any, term: Any) -> Any:
        """The type of ``term`` under ``ctx`` if it needs no derivation, else None.

        A leaf's type is its axiom or its [Var] binding; any other term's is
        the ``infer`` judgment memoized under ``ctx``'s key (the empty
        context's for a closed term), read without counting a hit (None if
        none was made since the memo was emptied).
        """
        cls = type(term)
        if cls in self.axioms:
            return self.axioms[cls]
        if cls is self.nbe.var_cls:
            binding = ctx.lookup(term.name)
            return None if binding is None else binding.type_
        memo, key = _memo_key(self, self.infer_kind, ctx, term)
        value = memo.peek(self.infer_kind, term, None, key)
        return None if value is None else read_back(self.nbe, value)


# Each judgment probes the memo when its spec memoizes every judgment, or
# when it is a public entry (``entry``).  The probes are inline, not a
# wrapper, so one level of the term costs two Python frames (the judgment
# and its rule): the checkers recurse on the caller's stack.


def infer_value(spec: TypingSpec, ctx: Any, term: Any, budget: Budget, entry: bool = False) -> Any:
    """The type value of ``term`` under ``ctx``; leaves never reach the memo."""
    cls = type(term)
    axiom = spec.axioms.get(cls)
    if axiom is not None:
        return axiom
    if cls is spec.nbe.var_cls:
        binding = ctx.lookup(term.name)
        if binding is None:
            raise TypeCheckError(f"unbound variable {term.name!r}")
        return binding.type_  # [Var]
    rule = spec.table.get(cls)
    if rule is None:
        raise TypeCheckError(f"not a {spec.name} term: {term!r}")
    if not (entry or spec.memo_every_judgment):
        return rule(spec, ctx, term, budget)
    memo, key, value = _recall(spec, spec.infer_kind, ctx, term, None, budget)
    if value is None:
        before = budget.spent
        value = rule(spec, ctx, term, budget)
        if entry:  # a public result is syntax: store it, not the value, read back once
            value = read_back(spec.nbe, value)
        memo.store(spec.infer_kind, term, None, key, value, budget.spent - before)
    return value


def check_value(spec: TypingSpec, ctx: Any, term: Any, expected: Any, budget: Budget,
                entry: bool = False) -> None:
    """Check ``Γ ⊢ term : expected`` for a type value ``expected`` ([Conv]).

    An unmemoized check of a pair against its own annotation is [Pair] in
    check mode (see the module docstring): the annotation is not sorted
    again.
    """
    memoize = entry or spec.memo_every_judgment
    if memoize:
        memo, key, hit = _recall(spec, spec.check_kind, ctx, term, expected, budget)
        if hit:
            return
        before = budget.spent
    elif type(term) is spec.nbe.pair_cls and term.annot is expected:
        _pair_components(spec, ctx, term, budget)  # [Pair] in check mode
        return
    actual = infer_value(spec, ctx, term, budget)
    if not spec.equivalent(ctx, actual, expected, budget):
        raise TypeCheckError(
            f"type mismatch: term {spec.pretty(term)}\n"
            f"  has type      {_show(spec, actual)}\n"
            f"  but expected  {_show(spec, expected)}"
        )
    if memoize:
        memo.store(spec.check_kind, term, expected, key, True, budget.spent - before)


def universe(spec: TypingSpec, ctx: Any, type_: Any, budget: Budget, entry: bool = False) -> Any:
    """Require ``type_`` to be a type; return its universe (⋆ or □)."""
    memoize = entry or spec.memo_every_judgment
    if memoize:
        memo, key, sort = _recall(spec, spec.universe_kind, ctx, type_, None, budget)
        if sort is not None:
            return sort
        before = budget.spent
    sort = whnf_value(spec.nbe, ctx, infer_value(spec, ctx, type_, budget), budget)
    if type(sort) not in spec.sorts:
        raise TypeCheckError(
            f"expected a type but {spec.pretty(type_)} has type {_show(spec, sort)}"
        )
    if memoize:
        memo.store(spec.universe_kind, type_, None, key, sort, budget.spent - before)
    return sort


def _memo_key(spec: TypingSpec, kind: str, ctx: Any, subject: Any) -> tuple:
    """``(memo, key)``: the judgment memo and the context key ``subject`` is memoized under.

    An ``infer`` or ``universe`` subject whose free-variable set is
    empty keys on the empty context: its derivation never reads Γ.
    ``check`` keeps the path key, because its expected type may be open.
    """
    closed = False
    if ctx.entries and kind != spec.check_kind:
        closed = not fv.free_vars(spec.nbe.lang, subject)
    return judgment_key(ctx, closed)


def _recall(spec: TypingSpec, kind: str, ctx: Any, subject: Any, extra: Any,
            budget: Budget) -> tuple:
    """``(memo, key, verdict)``: verdict is the memoized one (fuel replayed) or None."""
    memo, key = _memo_key(spec, kind, ctx, subject)
    return memo, key, memo.replay(kind, subject, extra, key, budget)


def level(lang: Language, ctx: Any, name: str, stored: tuple, *scope: Any) -> tuple:
    """``(level, *scope)``: the name a binder ``name`` takes as a new level of ``ctx``.

    ``stored`` holds what the new entry keeps (its type, and its
    definition).  A context names each level a term can still reach once.
    A binder shadows an entry of ``ctx`` harmlessly unless that entry is
    reachable from the new level (:func:`~repro.kernel.substitution.reaches`):
    named by a stored term, or by the type or definition of an entry that
    the stored terms or the ``scope`` (less the binder's own occurrences)
    reach.  Then the binder takes a fresh name and the ``scope`` is renamed
    to it (the only case that walks it), so a type stored at an outer level
    is never read at an inner one.
    """
    if name not in ctx:
        return (name, *scope)
    free_vars = fv.free_vars
    pending = [free_vars(lang, term) for term in stored]
    pending += [free_vars(lang, term) - {name} for term in scope]
    if not reaches(lang, ctx, name, pending):
        return (name, *scope)
    renamed = fresh(name)
    mapping = {name: lang.var_cls(renamed)}
    return (renamed, *(subst(lang, term, mapping) for term in scope))


def bind(nbe: NbeSpec, env: dict, name: str, replacement: Any) -> dict:
    """``env`` extended (in parallel) with ``name ↦ replacement``.

    The identity ``name ↦ name`` binds nothing: it only drops the entry the
    binder shadows, so a type instantiated by its own variable is glued
    back as the same object.
    """
    if type(replacement) is nbe.var_cls and replacement.name == name:
        return {key: entry for key, entry in env.items() if key != name}
    return {**env, name: Thunk(replacement, _EMPTY_ENV)}


def _show(spec: TypingSpec, value: Any) -> str:
    return spec.pretty(read_back(spec.nbe, value))


def _box(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    raise TypeCheckError("□ has no type (it is not a valid term)")


def _pi(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    universe(spec, ctx, term.domain, budget)
    name, codomain = level(spec.nbe.lang, ctx, term.name, (term.domain,), term.codomain)
    return universe(spec, ctx.extend(name, term.domain), codomain, budget)  # [Prod]


def _app(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    fn_type = whnf_value(spec.nbe, ctx, infer_value(spec, ctx, term.fn, budget), budget)
    fn_type, sigma = view(spec.nbe, fn_type)
    if type(fn_type) is not spec.pi_cls:
        raise TypeCheckError(
            f"application head has non-Π type {_show(spec, fn_type)}"
        ).with_note(f"checking {spec.pretty(term)}")
    check_value(spec, ctx, term.arg, glue(spec.nbe, fn_type.domain, sigma), budget)
    return glue(spec.nbe, fn_type.codomain, bind(spec.nbe, sigma, fn_type.name, term.arg))  # [App]


def _let(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    universe(spec, ctx, term.annot, budget)
    check_value(spec, ctx, term.bound, term.annot, budget)
    name, body = level(spec.nbe.lang, ctx, term.name, (term.annot, term.bound), term.body)
    body_type = infer_value(spec, ctx.define(name, term.bound, term.annot), body, budget)
    return glue(spec.nbe, body_type, bind(spec.nbe, _EMPTY_ENV, name, term.bound))  # [Let]


def _sigma(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    first = universe(spec, ctx, term.first, budget)
    name, second_type = level(spec.nbe.lang, ctx, term.name, (term.first,), term.second)
    second = universe(spec, ctx.extend(name, term.first), second_type, budget)
    star = spec.sorts[0]
    return spec.star if type(first) is star and type(second) is star else spec.box  # [Sig]


def _pair(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    universe(spec, ctx, term.annot, budget)
    return _pair_components(spec, ctx, term, budget)  # [Pair]


def _pair_components(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    """[Pair]'s premises but the annotation's sort; returns the annotation."""
    sigma = whnf(spec.nbe, ctx, term.annot, budget)
    if type(sigma) is not spec.sigma_cls:
        raise TypeCheckError(
            f"pair annotation {spec.pretty(term.annot)} is not a Σ type"
        ).with_note(f"checking {spec.pretty(term)}")
    check_value(spec, ctx, term.fst_val, sigma.first, budget)
    second = glue(spec.nbe, sigma.second, bind(spec.nbe, _EMPTY_ENV, sigma.name, term.fst_val))
    check_value(spec, ctx, term.snd_val, second, budget)
    return term.annot


def _proj(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    pair_type = whnf_value(spec.nbe, ctx, infer_value(spec, ctx, term.pair, budget), budget)
    pair_type, sigma = view(spec.nbe, pair_type)
    fst = type(term) is spec.nbe.fst_cls
    if type(pair_type) is not spec.sigma_cls:
        raise TypeCheckError(
            f"{'fst' if fst else 'snd'} of non-Σ type {_show(spec, pair_type)}"
        ).with_note(f"checking {spec.pretty(term)}")
    if fst:
        return glue(spec.nbe, pair_type.first, sigma)  # [Fst]
    first = spec.nbe.fst_cls(term.pair)
    return glue(spec.nbe, pair_type.second, bind(spec.nbe, sigma, pair_type.name, first))  # [Snd]


def _succ(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    check_value(spec, ctx, term.pred, spec.nat, budget)
    return spec.nat


def _if(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    check_value(spec, ctx, term.cond, spec.bool, budget)
    then_type = infer_value(spec, ctx, term.then_branch, budget)
    check_value(spec, ctx, term.else_branch, then_type, budget)
    return then_type


def _natelim(spec: TypingSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    nbe, motive, nat = spec.nbe, term.motive, spec.nat
    app, var, pi = nbe.app_cls, nbe.var_cls, spec.pi_cls
    # The motive must have type Π _:Nat. U for some universe U.
    motive_type = whnf_value(nbe, ctx, infer_value(spec, ctx, motive, budget), budget)
    motive_type = read_back(nbe, motive_type)
    if type(motive_type) is not pi:
        raise TypeCheckError(f"natelim motive has non-Π type {spec.pretty(motive_type)}")
    if not spec.equivalent(ctx, motive_type.domain, nat, budget):
        raise TypeCheckError(f"natelim motive domain {spec.pretty(motive_type.domain)} is not Nat")
    name, codomain = level(nbe.lang, ctx, motive_type.name, (nat,), motive_type.codomain)
    codomain = whnf(nbe, ctx.extend(name, nat), codomain, budget)
    if type(codomain) not in spec.sorts:
        raise TypeCheckError(f"natelim motive codomain {spec.pretty(codomain)} is not a universe")
    check_value(spec, ctx, term.target, nat, budget)
    check_value(spec, ctx, term.base, app(motive, nbe.zero_cls()), budget)
    # The step: Π n:Nat. Π ih:(motive n). motive (succ n).
    n, ih = fresh("n"), fresh("ih")
    step_type = pi(n, nat, pi(ih, app(motive, var(n)), app(motive, nbe.succ_cls(var(n)))))
    check_value(spec, ctx, term.step, step_type, budget)
    return app(motive, term.target)
