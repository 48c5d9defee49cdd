"""Incremental, whnf-driven conversion checking shared by both calculi.

The [Conv] rule makes definitional equivalence the hot path of both type
checkers.  The naive decision procedure — fully normalize both sides, then
α-compare — does the worst-case-exponential work of strong normalization
even when the answer is obvious: two terms that diverge at their head
constructors, or that share a large subterm by pointer, pay the full price
anyway.  This engine decides the same relation *incrementally*:

* each side is reduced only to **weak-head normal form**, lazily, one
  node at a time — subterms are reduced only if the comparison actually
  reaches them;
* heads are compared first, so terms that diverge near the root **fail
  fast** without ever normalizing their subtrees;
* at every recursion point the engine short-circuits on **pointer
  equality** and on **interned pointer equality** (``intern(a) is
  intern(b)``, probed through the α-canonical intern memo of
  :mod:`repro.kernel.intern`), so shared or previously-interned subterms
  cost O(1) regardless of size.  The probe never *forces* a
  canonicalization mid-walk — forcing would re-walk the subtree at every
  spine level and turn a linear comparison quadratic; terms that were
  interned by any earlier consumer simply get the fast path for free;
* η-rules (function η in CC, the closure η-principle [≡-Clo1/2] in
  CC-CC) are applied during the spine walk via per-calculus hooks, not by
  a separate pass over normal forms;
* the ``whnf`` hook each calculus supplies is backed by the **NbE
  environment machine** (:mod:`repro.kernel.nbe`): each side is evaluated
  to a semantic weak value (closures and memoizing thunks instead of
  eager substitution), then quoted back to a weak-head-normal term via
  *pruned delayed substitution* — arguments left untouched by reduction
  residualize as pointer-shared originals.  β-heavy heads therefore cost
  the machine's call-by-need discipline instead of per-step tree
  rewriting; comparing machine values spine-to-spine without any
  quotation is a noted next step (ROADMAP "NbE-native conversion
  values").

The walk itself is **iterative** (an explicit stack of pending
comparisons): conversion is a pure conjunction — no rule ever backtracks —
so a work-list with early ``False`` exit decides it without Python-level
recursion, and 10k-node-deep terms compare fine (the per-calculus ``whnf``
is recursive only along *reduction* spines, not along the structural
descent this engine performs).

Binder handling uses **scope chains** instead of per-frame environment
dict copies: crossing a binder conses one ``(left name, right name,
parent)`` node.  A variable pair is equal when the innermost chain node
mentioning either name mentions both (same binder level) or when neither
name is mentioned and the free names coincide.  The pointer short-circuits
are guarded by the same chain: identical subterms (or identical interned
representatives) are only skipped when every free variable of the subterm
resolves to the *same* binder level on both sides — the condition under
which comparing a term to itself is vacuous.

Contexts are threaded per side and only ever consulted by ``whnf`` for
δ-reduction, so crossing a binder extends a side's context **only when the
binder shadows a visible definition** (an assumption entry whose only job
is to make the name neutral).  Everything else about the context — types
of assumptions in particular — is invisible to conversion, which is what
keeps the relation untyped, as in the paper.
"""

from __future__ import annotations

from typing import Any

from repro.kernel import fv
from repro.kernel.budget import Budget
from repro.kernel.judgment import judgment_cache
from repro.kernel.memo import context_token
from repro.kernel.nbe import NbeSpec, Thunk, glue, value_names, value_scopes, view
from repro.kernel.nodespec import Language

__all__ = ["ConversionRules", "convert"]

#: A scope chain node: (left binder name, right binder name, parent | None).
Scope = "tuple[str, str, Any] | None"

#: A pending comparison: (left, right, left context, right context, scope).
Task = tuple


class ConversionRules:
    """Per-calculus hooks for the generic engine.

    Concrete subclasses live next to each calculus's ``equiv`` module; the
    engine itself never imports an AST.
    """

    #: The calculus, for node specs, the var class, and the intern memo.
    lang: Language

    #: The judgment-memo kind of :meth:`equivalent` (``"cc.equiv"``, …).
    kind: str

    #: ``node class -> child attrs`` the comparison ignores (computationally
    #: irrelevant annotations: λ domains in CC, pair annotations in both).
    irrelevant: dict[type, tuple[str, ...]] = {}

    #: The calculus's reduction wiring.  Its checker compares type
    #: values (:func:`repro.kernel.nbe.glue`): ``whnf`` may return a value
    #: whose head is a non-variable weak-head normal node, and the engine
    #: reads it back one node at a time as the comparison descends.
    nbe: NbeSpec

    def equivalent(self, ctx: Any, left: Any, right: Any, budget: Budget | None = None) -> bool:
        """Decide ``Γ ⊢ left ≡ right``, memoized with exact fuel replay.

        Either side may be a type value.  Entries key on both sides'
        identities and the context's definitions.  Comparisons between the
        calculus's irreducible leaves skip the memo, whose round-trip would
        cost more than deciding.
        """
        budget = Budget() if budget is None else budget
        if left is right:  # pointer hit: the engine would conclude the same in O(1)
            return True
        leaves = self.nbe.trivial
        if isinstance(left, leaves) and isinstance(right, leaves):
            return convert(self, ctx, ctx, left, right, budget)
        cache = judgment_cache()
        token = context_token(ctx)
        hit = cache.lookup(self.kind, left, right, token)
        if hit is not None:
            verdict, steps = hit
            budget.charge(steps)
            return verdict
        before = budget.spent
        verdict = convert(self, ctx, ctx, left, right, budget)
        cache.store(self.kind, left, right, token, verdict, budget.spent - before)
        return verdict

    def whnf(self, ctx: Any, term: Any, budget: Budget) -> Any:
        """Weak-head-normalize ``term`` under ``ctx``."""
        raise NotImplementedError

    def prepare(self, ctx: Any, term: Any, budget: Budget) -> Any:
        """Post-whnf head adjustment (default: none).

        CC-CC uses this to weak-head-normalize the *code* position of a
        closure, so the η hook sees literal code even when the closure was
        built over a δ-defined variable.
        """
        return term

    def eta(
        self, left: Any, right: Any, ctx_l: Any, ctx_r: Any, scope: Any, budget: Budget
    ) -> list[Task] | None:
        """η-step for two weak-head normal forms, or None when none applies.

        When an η-rule relates the heads, return the replacement comparison
        tasks (usually one); the engine pushes them and moves on.  The hook
        must only fire when *exactly* the η-capable shape is present —
        returning ``None`` hands the pair to the structural comparator.
        """
        return None


def convert(
    rules: ConversionRules,
    ctx_left: Any,
    ctx_right: Any,
    left: Any,
    right: Any,
    budget: Budget,
) -> bool:
    """Decide ``ctx ⊢ left ≡ right`` incrementally under ``rules``.

    ``ctx_left``/``ctx_right`` start out as the same context; they diverge
    only through shadowing extensions as the walk crosses binders whose
    names differ between the sides.
    """
    lang = rules.lang
    var_cls = lang.var_cls
    nbe = rules.nbe
    intern_memo = lang.intern_cache  # the active session's memo, fixed per walk
    irrelevant = rules.irrelevant
    stack: list[Task] = [(left, right, ctx_left, ctx_right, None)]
    while stack:
        l, r, cl, cr, scope = stack.pop()
        if l is r and _free_agree(lang, l, scope, nbe):
            continue
        lw = rules.prepare(cl, rules.whnf(cl, l, budget), budget)
        rw = rules.prepare(cr, rules.whnf(cr, r, budget), budget)
        if lw is rw and _free_agree(lang, lw, scope, nbe):
            continue
        rep = intern_memo.get(lw)
        if rep is not None and rep is intern_memo.get(rw) and _free_agree(lang, lw, scope):
            continue
        tasks = rules.eta(lw, rw, cl, cr, scope, budget)
        if tasks is not None:
            stack.extend(tasks)
            continue
        # A type value's head is never a variable: compare its node and
        # descend with the delayed substitution pushed one level down.
        env_l = env_r = None
        if type(lw) is Thunk:
            lw, env_l = view(nbe, lw)
        if type(rw) is Thunk:
            rw, env_r = view(nbe, rw)
        if isinstance(lw, var_cls) or isinstance(rw, var_cls):
            if type(lw) is not type(rw) or not _bound_same(lw.name, rw.name, scope):
                return False
            continue
        if type(lw) is not type(rw):
            return False  # divergent heads: no subterm was ever visited
        spec = lang.spec(lw)
        if any(getattr(lw, attr) != getattr(rw, attr) for attr in spec.data_attrs):
            return False
        children = spec.children
        if not children:
            continue
        skipped = irrelevant.get(type(lw), ())
        names_l = names_r = None
        if env_l is not None:
            names_l, envs_l = value_scopes(nbe, lw, env_l)
        if env_r is not None:
            names_r, envs_r = value_scopes(nbe, rw, env_r)
        depth = 0
        for child in children:
            while depth < len(child.binders):
                binder = spec.binder_attrs[depth]
                name_l = getattr(lw, binder) if names_l is None else names_l[depth]
                name_r = getattr(rw, binder) if names_r is None else names_r[depth]
                scope = (name_l, name_r, scope)
                cl = _shadow(cl, name_l)
                cr = _shadow(cr, name_r)
                depth += 1
            if child.attr in skipped:
                continue
            sub_l = getattr(lw, child.attr)
            if env_l is not None:
                sub_l = glue(nbe, sub_l, envs_l[depth])
            sub_r = getattr(rw, child.attr)
            if env_r is not None:
                sub_r = glue(nbe, sub_r, envs_r[depth])
            stack.append((sub_l, sub_r, cl, cr, scope))
    return True


def _bound_same(name_l: str, name_r: str, scope: Any) -> bool:
    """Do the two names resolve to the same binder level (or both free)?"""
    node = scope
    while node is not None:
        nl, nr, node = node
        if nl == name_l or nr == name_r:
            # Innermost binding of either name decides: equal only when it
            # binds both at once (shadowing makes outer nodes irrelevant).
            return nl == name_l and nr == name_r
    return name_l == name_r


def _free_agree(lang: Language, term: Any, scope: Any, nbe: NbeSpec | None = None) -> bool:
    """May ``term``-vs-itself be skipped under ``scope``?

    True when every free variable of ``term`` resolves identically on the
    left and right sides of the chain — bound at the same level, or free on
    both.  With an empty chain this is vacuous, which is the common case at
    the top of a comparison.
    """
    if scope is None:
        return True
    names = value_names(nbe, term) if type(term) is Thunk else fv.free_vars(lang, term)
    if not names:
        return True
    for name in names:
        node = scope
        while node is not None:
            nl, nr, node = node
            if nl == name or nr == name:
                if nl != name or nr != name:
                    return False
                break
    return True


def _shadow(ctx: Any, name: str) -> Any:
    """Mask any visible definition of ``name`` before descending under it.

    Bound variables are neutral; if the surrounding context δ-defines the
    same name, an assumption entry must shadow it or ``whnf`` would unfold
    a bound occurrence.  When no definition is visible the context is
    returned unchanged — the extension would be unobservable.
    """
    binding = ctx.lookup(name)
    if binding is None or binding.definition is None:
        return ctx
    return ctx.extend(name, binding.type_)
