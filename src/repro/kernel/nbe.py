"""Normalization by evaluation: an environment machine shared by both calculi.

The substitution reduction oracle both calculi share
(:mod:`repro.kernel.reduction`) pays for every δ/ζ/β contraction with a
tree rewrite: ``subst`` copies and re-walks the redex body, which makes
*cold* normalization quadratic on deep β-redex chains (each step walks
what the previous steps built).  This module
replaces that with the classic environment-machine discipline of Accattoli
et al. ("Closure Conversion, Flat Environments, and the Complexity of
Abstract Machines"): instead of substituting eagerly, an evaluator threads
an **environment** mapping bound names to **thunks** — unevaluated
``(term, env)`` closures forced at most once — and reads results back into
syntax only at the end (quotation).

The design is *glued* NbE over the named term representation:

* **Semantic values are ``(term, env, spine)`` triples.**  ``term`` is
  weak-head-normal syntax whose free variables are interpreted by ``env``
  (a ``name -> Thunk`` dict); ``spine`` is the stack of eliminations stuck
  on a neutral head, innermost first.  There is no separate value AST — the
  node classes of the calculus itself serve, which keeps the engine fully
  spec-driven (:mod:`repro.kernel.nodespec`) and zero-copy for the parts of
  a term evaluation never touches.
* **Thunks memoize.**  A bound argument is evaluated at most once no matter
  how many times the binder's variable occurs (call-by-need); forcing is
  in-machine (an update marker on the frame stack), so deep chains of
  pending bindings never recurse in Python.
* **The machine is iterative.**  One explicit frame stack holds both
  elimination contexts and thunk-update markers; 10k-deep redex chains
  reduce within constant Python stack depth.
* **Quotation freshens binders only on capture.**  Reading a binder back
  re-uses its source name unless that name occurs free in the residual of
  some environment value that could flow under it (tracked by per-thunk
  free-name sets), in which case a globally fresh name is drawn — exactly
  the cases in which the substitution engine would have α-renamed.
* **The checker's type values live here too** (section "Type values"
  below): syntax under delayed substitutions and O(1) instantiation
  frames, read back by the same residualizer and never run on the machine.
* **δ-unfolding sees the same context slice** as the substitution engine:
  definitions are looked up through the caller's context, and a definition's
  own text is evaluated under the *binder-neutral* fraction of the current
  environment, so a binder that shadows a δ-definition masks it inside its
  scope (matching ``convert._shadow`` and the memo-token discipline of
  :mod:`repro.kernel.memo`).

Budget accounting: the machine spends exactly one unit of the caller's
:class:`~repro.kernel.budget.Budget` per δ/ζ/β/π/ι contraction — the same
axioms the substitution engine charges — so fuel exhaustion still guards
non-termination and warm cache hits replay deterministically.  *Step
counts* of full normalization differ from the substitution engine's
(call-by-need performs each contraction once; the oracle's memo-replay
semantics count per occurrence), which is why ``normalize_counting`` and
the recorded-fuel replay of existing caches stay on the substitution path:
NbE results are memoized under their own cache kinds (``"cc.nf"`` vs.
``"cc.nf.subst"``) and the two engines never share entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernel.names import fresh
from repro.kernel import fv
from repro.kernel.budget import DEFAULT_FUEL, Budget
from repro.kernel.memo import context_token
from repro.kernel.nodespec import Language
from repro.kernel.substitution import subst

__all__ = [
    "NbeSpec",
    "Thunk",
    "glue",
    "glue_node",
    "nbe_normalize",
    "nbe_whnf",
    "read_back",
    "value_names",
    "value_scopes",
    "view",
]

_EMPTY_ENV: dict = {}

# Frame tags.
_F_APP = "app"      # (tag, node, env): application node, argument pending
_F_APPV = "appv"    # (tag, thunk): application with a pre-built argument thunk
_F_FST = "fst"      # (tag, node, env)
_F_SND = "snd"      # (tag, node, env)
_F_IF = "if"        # (tag, node, env)
_F_NAT = "nat"      # (tag, node, env)
_F_FORCE = "force"  # (tag, thunk): update marker for call-by-need
_F_CODE = "code"    # (tag, clo_node, env): CC-CC code-position exposure


class Thunk:
    """A delayed ``(term, env)`` evaluation, forced at most once.

    ``whnf`` caches the weak value ``(term, env, spine)``; ``nf`` the strong
    normal form; ``resid`` the residual term (the delayed substitution
    applied, nothing reduced) and ``fnames`` its free-name set.  ``binder``
    marks quotation-time neutrals: only those participate in δ-shadowing.
    As a type value (see "Type values" below), ``term`` may itself be a
    value, ``glued`` marks a node with value children, ``flat`` caches
    :func:`view` and ``parts`` a glued node's read-back parts.
    """

    __slots__ = (
        "term", "env", "binder", "glued", "whnf", "nf", "resid", "fnames", "flat", "parts",
    )

    def __init__(self, term: Any, env: dict, binder: bool = False, glued: bool = False) -> None:
        self.term = term
        self.env = env
        self.binder = binder
        self.glued = glued
        self.whnf: Any = None
        self.nf: Any = None
        self.resid: Any = None
        self.fnames: Any = None
        self.flat: Any = None
        self.parts: Any = None


def _neutral(var_cls: type, name: str) -> Thunk:
    """A pre-forced thunk for a quotation-time bound variable."""
    var = var_cls(name)
    thunk = Thunk(var, _EMPTY_ENV, binder=True)
    thunk.whnf = (var, _EMPTY_ENV, ())
    thunk.nf = var
    thunk.resid = var
    thunk.fnames = frozenset((name,))
    return thunk


@dataclass
class NbeSpec:
    """Per-calculus wiring for the generic engine.

    The eliminator node classes of both calculi share their field names
    (``fn``/``arg``, ``pair``, ``cond``/``then_branch``/``else_branch``,
    ``motive``/``base``/``step``/``target``, ``name``/``bound``/``body``),
    which the engine relies on; everything *structural* (constructor
    children, binder scoping) is driven by the registered node specs.
    β differs per calculus: CC applies ``lam_cls`` directly, CC-CC applies
    a ``clo_cls`` whose code position weak-head-exposes a ``codelam_cls``.
    The substitution oracle (:mod:`repro.kernel.reduction`) runs on the
    same wiring.  ``kind`` prefixes the memo kinds both engines store
    under (``"cc"`` gives ``"cc.whnf"``, ``"cc.nf"``, ``"cc.whnf.subst"``
    and ``"cc.nf.subst"``); ``active`` is every class a whnf step can act
    on, so anything else is weak-head normal without a memo probe, and
    ``scrutinee`` maps each eliminator class to the field whnf exposes.

    Its methods are the reduction entry points of :mod:`repro.kernel.reduction`
    for this calculus; ``repro.cc.reduce`` and ``repro.cccc.reduce`` bind
    them (``whnf = _NBE.whnf``).
    """

    lang: Language
    kind: str
    var_cls: type
    let_cls: type
    app_cls: type
    fst_cls: type
    snd_cls: type
    pair_cls: type
    if_cls: type
    boollit_cls: type
    natelim_cls: type
    zero_cls: type
    succ_cls: type
    trivial: tuple[type, ...] = ()
    lam_cls: type | None = None
    clo_cls: type | None = None
    codelam_cls: type | None = None
    tags: dict[type, str] = field(default_factory=dict)
    trivial_set: frozenset = frozenset()
    active: tuple[type, ...] = field(init=False)
    scrutinee: dict[type, str] = field(init=False)
    whnf_kind: str = field(init=False)
    nf_kind: str = field(init=False)
    whnf_subst_kind: str = field(init=False)
    nf_subst_kind: str = field(init=False)

    def __post_init__(self) -> None:
        self.tags = {
            self.var_cls: "var",
            self.let_cls: "let",
            self.app_cls: _F_APP,
            self.fst_cls: _F_FST,
            self.snd_cls: _F_SND,
            self.if_cls: _F_IF,
            self.natelim_cls: _F_NAT,
        }
        self.trivial_set = frozenset(self.trivial)
        self.active = tuple(self.tags)
        self.scrutinee = {
            cls: _SPINE_CHILDREN[tag][0]
            for cls, tag in self.tags.items()
            if tag in _SPINE_CHILDREN
        }
        self.whnf_kind = f"{self.kind}.whnf"
        self.nf_kind = f"{self.kind}.nf"
        self.whnf_subst_kind = f"{self.kind}.whnf.subst"
        self.nf_subst_kind = f"{self.kind}.nf.subst"

    def whnf(self, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
        """Reduce ``term`` to weak-head normal form under ``ctx`` (NbE engine).

        Only the head position is reduced; arguments, pair components, binder
        bodies, etc. are left untouched.  Results are memoized per (term
        identity, context definitions); hits replay the originally recorded
        fuel cost, so budgets behave exactly as if the reduction had re-run.
        """
        return _reduction.whnf(self, ctx, term, budget)

    def whnf_subst(self, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
        """:meth:`whnf` on the substitution engine (the differential oracle).

        Memoized under its own cache kind so the two engines never exchange
        results or recorded fuel.
        """
        return _reduction.whnf_subst(self, ctx, term, budget)

    def normalize(self, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
        """Fully normalize ``term`` under ``ctx`` (NbE engine).

        The result contains no δ/ζ/β/π/ι redexes (``let`` disappears entirely:
        normal forms are ``let``-free).  Bound variables shadow any definitions
        of the same name in ``ctx``; binder names are preserved unless re-using
        one would capture, in which case a fresh name is drawn (exactly when
        the substitution engine would α-rename).  Environment-independent
        subcomputations are memoized per (term identity, context definitions)
        with fuel replay on hits.
        """
        return _reduction.normalize(self, ctx, term, budget)

    def normalize_subst(self, ctx: Any, term: Any, budget: Budget | None = None) -> Any:
        """:meth:`normalize` on the substitution engine (the counting oracle).

        Step accounting (one unit per contraction *per occurrence*, replayed
        on memo hits) is what :meth:`normalize_counting` reports.
        """
        return _reduction.normalize_subst(self, ctx, term, budget)

    def normalize_counting(
        self, ctx: Any, term: Any, fuel: int = DEFAULT_FUEL
    ) -> tuple[Any, int]:
        """Normalize and also report how many reduction steps were taken.

        Benchmarks use the step count as a machine-independent cost measure when
        comparing evaluation before and after compilation (Corollary 5.8).
        """
        return _reduction.normalize_counting(self, ctx, term, fuel)

    def head_reducts(self, ctx: Any, term: Any) -> list[Any]:
        """All results of applying a reduction *axiom* at the root of ``term``.

        Purely syntactic except for δ, which consults ``ctx`` for definitions.
        At most one axiom ever applies per node, so the list has length ≤ 1; a
        list keeps the signature uniform with :meth:`reducts`.
        """
        return _reduction.head_reducts(self, ctx, term)

    def reducts(self, ctx: Any, term: Any) -> list[Any]:
        """All one-step reducts of ``term`` (contextual closure of the axioms).

        This enumerates the full relation ``Γ ⊢ e ⊲ e′``, which the metatheory
        properties (preservation of reduction, subject reduction) quantify over.
        """
        return _reduction.reducts(self, ctx, term)


# --------------------------------------------------------------------------
# Residualization: the delayed substitution, applied on demand.
# --------------------------------------------------------------------------


def _thunk_resid(spec: NbeSpec, thunk: Thunk) -> Any:
    """The residual term of ``thunk`` (substitution applied, nothing reduced).

    Iterative over the thunk dependency DAG so chains of pending β-bindings
    or instantiation frames never recurse in Python.  A type value with
    frames is read back through its :func:`view`; a glued node one level at
    a time, its children read back as values.
    """
    if thunk.resid is not None:
        return thunk.resid
    lang = spec.lang
    stack = [thunk]
    while stack:
        current = stack[-1]
        if current.resid is not None:
            stack.pop()
            continue
        node, env, glued = _flat(spec, current)
        if glued:
            parts = current.parts
            if parts is None:
                parts = current.parts = _glued_parts(spec, node, env)
            pending = [part for part in parts[1] if type(part) is Thunk and part.resid is None]
            if pending:
                stack.extend(pending)
                continue
            current.resid = _rebuild_glued(spec, node, parts)
            stack.pop()
            continue
        if env:
            pending = [
                dep
                for name in fv.free_vars(lang, node)
                if (dep := env.get(name)) is not None and dep.resid is None
            ]
            if pending:
                stack.extend(pending)
                continue
        current.resid = _resid(spec, node, env)
        stack.pop()
    return thunk.resid


def _resid(spec: NbeSpec, term: Any, env: dict) -> Any:
    """Substitute the residuals of ``env`` into ``term`` (pruned, sharing)."""
    if not env:
        return term
    mapping: dict[str, Any] | None = None
    for name in fv.free_vars(spec.lang, term):
        thunk = env.get(name)
        if thunk is not None:
            if mapping is None:
                mapping = {}
            mapping[name] = _thunk_resid(spec, thunk)
    if not mapping:
        return term
    return subst(spec.lang, term, mapping)


def _thunk_fnames(spec: NbeSpec, thunk: Thunk) -> frozenset:
    """Free names of ``thunk``'s residual, computed without residualizing."""
    if thunk.fnames is not None:
        return thunk.fnames
    lang = spec.lang
    stack = [thunk]
    while stack:
        current = stack[-1]
        if current.fnames is not None:
            stack.pop()
            continue
        node, env, glued = _flat(spec, current)
        if glued:
            pending = [child for child in _glued_children(spec, node) if child.fnames is None]
            if pending:
                stack.extend(pending)
                continue
            names = _node_names(spec, node)
        else:
            names = fv.free_vars(lang, node)
        if not env:
            current.fnames = names
            stack.pop()
            continue
        pending = [
            dep
            for name in names
            if (dep := env.get(name)) is not None and dep.fnames is None
        ]
        if pending:
            stack.extend(pending)
            continue
        out: set[str] = set()
        for name in names:
            dep = env.get(name)
            if dep is None:
                out.add(name)
            else:
                out |= dep.fnames
        current.fnames = frozenset(out)
        stack.pop()
    return thunk.fnames


def _delta_env(env: dict) -> dict:
    """The fraction of ``env`` a δ-unfolded definition can see.

    A definition's text is context-level syntax: β/ζ-bound names in it refer
    to the context, never to machine bindings.  Quotation-time binder
    neutrals that kept their source name *do* apply — a binder shadowing a
    δ-definition masks it inside its scope, exactly as the substitution
    engine's context-extension does.
    """
    if not env:
        return env
    restricted = {
        name: thunk
        for name, thunk in env.items()
        if thunk.binder and thunk.term.name == name
    }
    return restricted if restricted else _EMPTY_ENV


# --------------------------------------------------------------------------
# The machine: weak-head evaluation with one explicit frame stack.
# --------------------------------------------------------------------------


def _machine(
    spec: NbeSpec, ctx: Any, term: Any, env: dict, budget: Budget
) -> tuple[Any, dict, tuple]:
    """Reduce ``(term, env)`` to a weak value ``(head, env, spine)``.

    ``head`` is weak-head-normal syntax under ``env``; ``spine`` is the
    tuple of elimination frames stuck around it, innermost first (empty
    unless the head is neutral or an eliminator's scrutinee has the wrong
    shape).  Spends one budget unit per δ/ζ/β/π/ι contraction.
    """
    tags = spec.tags
    lam_cls = spec.lam_cls
    clo_cls = spec.clo_cls
    frames: list = []
    while True:
        cls = type(term)
        tag = tags.get(cls)
        if tag is not None:
            if tag == "var":
                thunk = env.get(term.name) if env else None
                if thunk is not None:
                    cached = thunk.whnf
                    if cached is not None:
                        term, env = cached[0], cached[1]
                        if cached[2]:
                            frames.extend(reversed(cached[2]))
                        # The cached head is weak-head normal: fall through
                        # to unwinding rather than re-dispatching on it.
                        cls = type(term)
                    else:
                        frames.append((_F_FORCE, thunk))
                        term, env = thunk.term, thunk.env
                        continue
                else:
                    binding = ctx.lookup(term.name)
                    if binding is not None and binding.definition is not None:
                        budget.spend()
                        term, env = binding.definition, _delta_env(env)
                        continue
                    # neutral: fall through to unwinding
            elif tag == "let":
                budget.spend()
                outer = env
                env = dict(outer)
                env[term.name] = Thunk(term.bound, outer)
                term = term.body
                continue
            elif tag == _F_APP:
                frames.append((_F_APP, term, env))
                term = term.fn
                continue
            elif tag == _F_FST or tag == _F_SND:
                frames.append((tag, term, env))
                term = term.pair
                continue
            elif tag == _F_IF:
                frames.append((_F_IF, term, env))
                term = term.cond
                continue
            else:  # _F_NAT
                frames.append((_F_NAT, term, env))
                term = term.target
                continue

        # ``term`` (under ``env``) is a weak-head value; consume frames.
        resume = False
        while frames:
            frame = frames[-1]
            ftag = frame[0]
            if ftag == _F_FORCE:
                frames.pop()
                frame[1].whnf = (term, env, ())
                continue
            if ftag == _F_APP or ftag == _F_APPV:
                if lam_cls is not None and cls is lam_cls:
                    frames.pop()
                    budget.spend()
                    arg = frame[1] if ftag == _F_APPV else Thunk(frame[1].arg, frame[2])
                    env = dict(env)
                    env[term.name] = arg
                    term = term.body
                    resume = True
                    break
                if clo_cls is not None and cls is clo_cls:
                    # Expose the code position; the app frame stays below.
                    frames.append((_F_CODE, term, env))
                    term = term.code
                    resume = True
                    break
                break  # stuck application
            if ftag == _F_CODE:
                frames.pop()
                clo_node, clo_env = frame[1], frame[2]
                if cls is spec.codelam_cls:
                    app = frames.pop()
                    budget.spend()
                    if app[0] == _F_APPV:
                        arg = app[1]
                    else:
                        arg = Thunk(app[1].arg, app[2])
                    # Parallel binding of environment and argument — the
                    # same discipline as the oracle's closure β in
                    # repro.kernel.reduction._contract (the argument
                    # mapping wins when the code shadows env_name).
                    new_env = dict(env)
                    new_env[term.env_name] = Thunk(clo_node.env, clo_env)
                    new_env[term.arg_name] = arg
                    term, env = term.body, new_env
                    resume = True
                    break
                # Stuck closure (code exposed but not literal): residualize
                # the whole closure, mirroring ``Clo(code_whnf, env)`` in
                # the substitution engine.  The application above it is
                # stuck too, so fall through to finalization.
                code = _resid(spec, term, env)
                if code is clo_node.code:
                    term, env = clo_node, clo_env
                else:
                    term, env = clo_cls(code, _resid(spec, clo_node.env, clo_env)), _EMPTY_ENV
                break
            if ftag == _F_FST:
                if cls is spec.pair_cls:
                    frames.pop()
                    budget.spend()
                    term = term.fst_val
                    resume = True
                    break
                break
            if ftag == _F_SND:
                if cls is spec.pair_cls:
                    frames.pop()
                    budget.spend()
                    term = term.snd_val
                    resume = True
                    break
                break
            if ftag == _F_IF:
                if cls is spec.boollit_cls:
                    frames.pop()
                    budget.spend()
                    node, env = frame[1], frame[2]
                    term = node.then_branch if term.value else node.else_branch
                    resume = True
                    break
                break
            if ftag == _F_NAT:
                if cls is spec.zero_cls:
                    frames.pop()
                    budget.spend()
                    term, env = frame[1].base, frame[2]
                    resume = True
                    break
                if cls is spec.succ_cls:
                    frames.pop()
                    budget.spend()
                    node, node_env = frame[1], frame[2]
                    # ι-succ: continue as ``step pred (natelim … pred)``.
                    # ``pred`` lives under the scrutinee's environment while
                    # motive/base/step live under the node's — a fresh name
                    # bridges the two without residualizing anything.
                    pred = Thunk(term.pred, env)
                    hole = fresh("n")
                    rec_env = dict(node_env)
                    rec_env[hole] = pred
                    rec = Thunk(
                        spec.natelim_cls(
                            node.motive, node.base, node.step, spec.var_cls(hole)
                        ),
                        rec_env,
                    )
                    frames.append((_F_APPV, rec))
                    frames.append((_F_APPV, pred))
                    term, env = node.step, node_env
                    resume = True
                    break
                break
            break  # unreachable: every frame tag is handled above
        if resume:
            continue
        if not frames:
            return term, env, ()
        return _finalize(spec, term, env, frames)


def _finalize(spec: NbeSpec, term: Any, env: dict, frames: list) -> tuple[Any, dict, tuple]:
    """Convert a stuck machine state into ``(head, env, spine)``.

    Pops remaining frames innermost-first, updating thunk markers with the
    stuck value accumulated so far and collapsing CC-CC code-exposure
    markers back into (possibly rebuilt) closures.
    """
    spine: list = []
    while frames:
        frame = frames.pop()
        ftag = frame[0]
        if ftag == _F_FORCE:
            frame[1].whnf = (term, env, tuple(spine))
        elif ftag == _F_CODE:
            clo_node, clo_env = frame[1], frame[2]
            code = _rebuild_weak(spec, term, env, spine)
            spine = []
            if code is clo_node.code:
                term, env = clo_node, clo_env
            else:
                # Fully residual: the rebuilt code's free names are
                # context-level and must not resolve through ``clo_env``.
                term, env = spec.clo_cls(code, _resid(spec, clo_node.env, clo_env)), _EMPTY_ENV
        else:
            spine.append(frame)
    return term, env, tuple(spine)


# --------------------------------------------------------------------------
# Weak quotation: read a weak value back as a term (public whnf).
# --------------------------------------------------------------------------


def _rebuild_weak(spec: NbeSpec, term: Any, env: dict, spine) -> Any:
    """Residualize a weak value, sharing every node evaluation left alone."""
    current = _resid(spec, term, env)
    for frame in spine:
        ftag = frame[0]
        if ftag == _F_APPV:
            current = spec.app_cls(current, _thunk_resid(spec, frame[1]))
            continue
        node, fenv = frame[1], frame[2]
        if ftag == _F_APP:
            arg = _resid(spec, node.arg, fenv)
            if current is node.fn and arg is node.arg:
                current = node
            else:
                current = spec.app_cls(current, arg)
        elif ftag == _F_FST:
            current = node if current is node.pair else spec.fst_cls(current)
        elif ftag == _F_SND:
            current = node if current is node.pair else spec.snd_cls(current)
        elif ftag == _F_IF:
            then_branch = _resid(spec, node.then_branch, fenv)
            else_branch = _resid(spec, node.else_branch, fenv)
            if (
                current is node.cond
                and then_branch is node.then_branch
                and else_branch is node.else_branch
            ):
                current = node
            else:
                current = spec.if_cls(current, then_branch, else_branch)
        else:  # _F_NAT
            motive = _resid(spec, node.motive, fenv)
            base = _resid(spec, node.base, fenv)
            step = _resid(spec, node.step, fenv)
            if (
                current is node.target
                and motive is node.motive
                and base is node.base
                and step is node.step
            ):
                current = node
            else:
                current = spec.natelim_cls(motive, base, step, current)
    return current


def nbe_whnf(spec: NbeSpec, ctx: Any, term: Any, budget: Budget) -> Any:
    """Weak-head-normalize ``term`` under ``ctx`` with the machine."""
    head, env, spine = _machine(spec, ctx, term, _EMPTY_ENV, budget)
    if not spine and not env:
        return head
    return _rebuild_weak(spec, head, env, spine)


# --------------------------------------------------------------------------
# Strong normalization: iterative evaluate-then-quote.
# --------------------------------------------------------------------------

# Task tags for the strong-normalization work loop.
_T_NF = 0      # (tag, term, env, ctx, dest, idx)
_T_BUILD = 1   # (tag, node|None, cls, template, parts, dest, idx)
_T_CACHE = 2   # (tag, term, token, start_spent, dest, idx)
_T_THUNK = 3   # (tag, thunk, dest, idx)

# Spine-frame rebuild plans: (cls attr, scrutinee attr, other child attrs).
_SPINE_CHILDREN = {
    _F_APP: ("fn", ("arg",)),
    _F_FST: ("pair", ()),
    _F_SND: ("pair", ()),
    _F_IF: ("cond", ("then_branch", "else_branch")),
    _F_NAT: ("target", ("motive", "base", "step")),
}
_SPINE_CLS = {
    _F_APP: "app_cls",
    _F_FST: "fst_cls",
    _F_SND: "snd_cls",
    _F_IF: "if_cls",
    _F_NAT: "natelim_cls",
}


def nbe_normalize(
    spec: NbeSpec,
    ctx: Any,
    term: Any,
    budget: Budget,
    cache: Any = None,
    kind: str | None = None,
) -> Any:
    """Fully normalize ``term`` under ``ctx`` by evaluate-then-quote.

    When ``cache``/``kind`` are given, every environment-independent
    subcomputation is memoized under ``(id(term), kind, context_token)``
    with the budget it spent, exactly like the substitution engine's memo —
    warm calls replay recorded fuel deterministically.
    """
    var_cls = spec.var_cls
    trivial = spec.trivial_set
    known = fv.known_free_vars
    out: list = [None]
    tasks: list = [(_T_NF, term, _EMPTY_ENV, ctx, out, 0)]
    while tasks:
        task = tasks.pop()
        tag = task[0]
        if tag == _T_NF:
            _, t, env, tctx, dest, idx = task
            cls = type(t)
            if cls in trivial:
                dest[idx] = t
                continue
            weak = None
            if cls is var_cls and env:
                thunk = env.get(t.name)
                if thunk is not None:
                    if thunk.nf is not None:
                        dest[idx] = thunk.nf
                        continue
                    tasks.append((_T_THUNK, thunk, dest, idx))
                    t, env = thunk.term, thunk.env
                    weak = thunk.whnf
                    cls = type(t)
                    if cls in trivial:
                        dest[idx] = t
                        continue
            if weak is None:
                # Memoize exactly the subcomputations whose identity is
                # stable across runs: environment-independent terms.  The
                # relevance probe must be O(1) — an already computed
                # free-variable set or an empty environment; computing free
                # variables for run-local intermediate terms would dominate
                # the cold path.
                if env:
                    fvs = known(t)
                    if fvs is not None and env.keys().isdisjoint(fvs):
                        env = _EMPTY_ENV
                if not env:
                    if cls is var_cls:
                        binding = tctx.lookup(t.name)
                        if binding is None or binding.definition is None:
                            dest[idx] = t
                            continue
                    if cache is not None:
                        token = context_token(tctx)
                        hit = cache.lookup(kind, t, token)
                        if hit is not None:
                            dest[idx] = hit[0]
                            budget.charge(hit[1])
                            continue
                        tasks.append((_T_CACHE, t, token, budget.spent, dest, idx))
                head, henv, spine = _machine(spec, tctx, t, env, budget)
            else:
                head, henv, spine = weak
            if spine:
                _push_spine(spec, tasks, tctx, head, henv, spine, dest, idx)
            else:
                _push_node(spec, tasks, tctx, head, henv, dest, idx)
        elif tag == _T_BUILD:
            _, node, cls, template, parts, dest, idx = task
            args = [parts[entry] if isinstance(entry, int) else entry[1] for entry in template]
            if node is not None:
                for value, attr in zip(args, _field_order(spec, cls)):
                    if value is not getattr(node, attr):
                        dest[idx] = cls(*args)
                        break
                else:
                    dest[idx] = node
            else:
                dest[idx] = cls(*args)
        elif tag == _T_CACHE:
            _, t, token, start, dest, idx = task
            cache.store(kind, t, token, dest[idx], budget.spent - start)
        else:  # _T_THUNK
            _, thunk, dest, idx = task
            thunk.nf = dest[idx]
    return out[0]


def _field_order(spec: NbeSpec, cls: type) -> tuple[str, ...]:
    node_spec = spec.lang.specs.get(cls)
    return node_spec.field_order if node_spec is not None else ()


def _push_spine(
    spec: NbeSpec, tasks: list, ctx: Any, head: Any, henv: dict, spine, dest, idx
) -> None:
    """Queue normalization of a stuck spine, outermost build popped last."""
    # Chain the frames: frame i's result becomes frame i+1's scrutinee; the
    # innermost scrutinee is the head value itself.
    pending: list = []  # (build task, child nf tasks) queued outermost-first
    current_dest, current_idx = dest, idx
    for frame in reversed(spine):  # outermost first
        ftag = frame[0]
        if ftag == _F_APPV:
            thunk = frame[1]
            parts: list = [None, None]
            template = [0, 1]
            build = (_T_BUILD, None, spec.app_cls, template, parts, current_dest, current_idx)
            children: list = []
            if thunk.nf is not None:
                parts[1] = thunk.nf
            else:
                children.append((_T_THUNK, thunk, parts, 1))
                children.append((_T_NF, thunk.term, thunk.env, ctx, parts, 1))
            pending.append((build, children))
            current_dest, current_idx = parts, 0
            continue
        node, fenv = frame[1], frame[2]
        scrut_attr, other_attrs = _SPINE_CHILDREN[ftag]
        cls = getattr(spec, _SPINE_CLS[ftag])
        node_spec = spec.lang.spec(node)
        parts = [None] * (1 + len(other_attrs))
        slot_of = {scrut_attr: 0}
        for offset, attr in enumerate(other_attrs):
            slot_of[attr] = 1 + offset
        template = [slot_of[attr] for attr in node_spec.field_order]
        build = (_T_BUILD, node, cls, template, parts, current_dest, current_idx)
        children = [
            (_T_NF, getattr(node, attr), fenv, ctx, parts, 1 + offset)
            for offset, attr in enumerate(other_attrs)
        ]
        pending.append((build, children))
        current_dest, current_idx = parts, 0
    for build, children in pending:
        tasks.append(build)
        tasks.extend(children)
    # Innermost: the head value itself.
    _push_node(spec, tasks, ctx, head, henv, current_dest, current_idx)


def _push_node(
    spec: NbeSpec, tasks: list, ctx: Any, node: Any, env: dict, dest, idx
) -> None:
    """Queue normalization of a weak-head-normal node's children."""
    lang = spec.lang
    cls = type(node)
    if cls in spec.trivial_set or (cls is spec.var_cls and (not env or node.name not in env)):
        dest[idx] = node
        return
    if cls is spec.var_cls:
        # An env-bound variable surviving the machine is a quotation neutral.
        thunk = env[node.name]
        if thunk.nf is not None:
            dest[idx] = thunk.nf
            return
        tasks.append((_T_THUNK, thunk, dest, idx))
        tasks.append((_T_NF, thunk.term, thunk.env, ctx, dest, idx))
        return
    node_spec = lang.spec(node)
    children = node_spec.children
    binder_attrs = node_spec.binder_attrs
    if not children:
        dest[idx] = node
        return
    envs = [env]
    ctxs = [ctx]
    chosen: dict[str, str] = {}
    if binder_attrs:
        avoid: frozenset | None = None
        if env:
            collected: set[str] | None = None
            for name in fv.free_vars(lang, node):
                thunk = env.get(name)
                if thunk is not None:
                    names = _thunk_fnames(spec, thunk)
                    if collected is None:
                        collected = set(names)
                    else:
                        collected |= names
            if collected is not None:
                avoid = frozenset(collected)
        current_env, current_ctx = env, ctx
        for attr in binder_attrs:
            source = getattr(node, attr)
            name = fresh(source) if avoid is not None and source in avoid else source
            chosen[attr] = name
            current_env = dict(current_env)
            current_env[source] = _neutral(spec.var_cls, name)
            if name == source:
                binding = current_ctx.lookup(source)
                if binding is not None and binding.definition is not None:
                    # Mask the shadowed definition, as the substitution
                    # engine's context extension does.
                    current_ctx = current_ctx.extend(source, binding.type_)
            envs.append(current_env)
            ctxs.append(current_ctx)
    parts = [None] * len(children)
    slot_of = {child.attr: position for position, child in enumerate(children)}
    template: list = []
    for attr in node_spec.field_order:
        if attr in slot_of:
            template.append(slot_of[attr])
        elif attr in chosen:
            template.append(("lit", chosen[attr]))
        else:
            template.append(("lit", getattr(node, attr)))
    tasks.append((_T_BUILD, node, cls, template, parts, dest, idx))
    for position, child in enumerate(children):
        depth = len(child.binders)
        tasks.append(
            (_T_NF, getattr(node, child.attr), envs[depth], ctxs[depth], parts, position)
        )


# --------------------------------------------------------------------------
# Type values: syntax under delayed instantiation frames, for the checker.
# --------------------------------------------------------------------------
#
# A type checker that instantiates dependent types (``B[e/x]`` in [App],
# [Clo], [Let], [Snd]) keeps the instantiation *delayed*: the value
# ``Thunk(B, {x: Thunk(e, ∅)})`` costs one dict entry, where ``subst``
# rebuilds every path of ``B`` down to an occurrence of ``x``.  A value is
# one of
#
# * plain syntax (nothing delayed);
# * ``Thunk(t, σ)``: syntax ``t`` whose free names in ``σ`` are replaced,
#   capture-avoidingly, by the entries' values;
# * ``Thunk(v, σ)`` for a value ``v``: an *instantiation frame*.  A value
#   built in a context ``Γ, x = e : A`` and used in ``Γ`` ([Let]) has lost
#   the level ``x`` sat at; the frame ``{x: e}`` records what that level
#   reads as outside, in O(1), instead of pushing ``e`` into every pending
#   entry of ``v``;
# * ``Thunk(n, σ)`` with ``glued`` set: a node ``n`` some of whose children
#   are values.  [Clo] types a closure ``Π x:A. B[e′/x′]`` this way: ``B``,
#   the code body's type value, lives in the code's context ``·, x′, x``,
#   so the Π binds level ``x`` of every entry of ``B`` and the frame
#   ``{x′: e′}`` instantiates level ``x′`` — no entry is inspected.
#
# Free names outside every frame are context-level, resolved by name in
# the context the value is used in, exactly as the substitution checker
# resolves them.  A frame is composed into the entries beneath it only when
# something descends into the value (:func:`view`, memoized), and a value
# is never run on the machine (it memoizes forced thunks, which would
# change fuel relative to the substituted term).  Reading one back
# (:func:`read_back`) is ``_thunk_resid``, iterative over the value DAG and
# memoized on each thunk: plain and framed thunks by one pruned, sharing
# ``subst`` over the composed view; a glued node one level at a time, its
# binders renamed exactly when ``subst`` would (:func:`value_scopes`).


def _glued_children(spec: NbeSpec, node: Any) -> list[Thunk]:
    """The children of a glued ``node`` that are values."""
    children = (getattr(node, child.attr) for child in spec.lang.spec(node).children)
    return [child for child in children if type(child) is Thunk]


def _node_names(spec: NbeSpec, node: Any) -> frozenset:
    """Free names of a node whose children may be values."""
    lang = spec.lang
    node_spec = lang.spec(node)
    out: set[str] = set()
    for child in node_spec.children:
        sub = getattr(node, child.attr)
        names = _thunk_fnames(spec, sub) if type(sub) is Thunk else fv.free_vars(lang, sub)
        if child.binders:
            names = names - {getattr(node, binder) for binder in child.binders}
        out |= names
    return frozenset(out)


def _glued_parts(spec: NbeSpec, node: Any, env: dict) -> tuple[list[str], list]:
    """Binder names and child values of a glued ``node`` under ``env``."""
    names, envs = value_scopes(spec, node, env)
    children = [
        glue(spec, getattr(node, child.attr), envs[len(child.binders)])
        for child in spec.lang.spec(node).children
    ]
    return names, children


def _rebuild_glued(spec: NbeSpec, node: Any, parts: tuple[list[str], list]) -> Any:
    """The syntax of a glued ``node`` from its read-back parts."""
    node_spec = spec.lang.spec(node)
    binders = dict(zip(node_spec.binder_attrs, parts[0]))
    children = dict(zip((child.attr for child in node_spec.children), parts[1]))
    args = []
    for attr in node_spec.field_order:
        if attr in binders:
            args.append(binders[attr])
        elif attr in children:
            child = children[attr]
            args.append(child.resid if type(child) is Thunk else child)
        else:
            args.append(getattr(node, attr))
    return type(node)(*args)


def glue(spec: NbeSpec, term: Any, env: dict) -> Any:
    """``term`` under the delayed substitution ``env``, as a type value.

    Syntax: plain when ``env`` binds none of ``term``'s free names, and a
    variable bound by ``env`` resolves to its entry right away (so a
    substituted occurrence is the replacement itself, as with ``subst``);
    the stored env is pruned to the names ``term`` mentions.  A value gets
    ``env`` as an instantiation frame, in O(1): nothing under it is visited.
    """
    lang = spec.lang
    var_cls = spec.var_cls
    while env:
        cls = type(term)
        if cls is var_cls:
            thunk = env.get(term.name)
            if thunk is None:
                return term
            term, env = thunk.term, thunk.env
            continue
        if cls is Thunk:
            return Thunk(term, env)
        fvs = fv.free_vars(lang, term)
        if len(env) < len(fvs):
            relevant = {name: thunk for name, thunk in env.items() if name in fvs}
        else:
            relevant = {name: thunk for name in fvs if (thunk := env.get(name)) is not None}
        return Thunk(term, relevant) if relevant else term
    return term


def glue_node(spec: NbeSpec, node: Any, env: dict) -> Any:
    """:func:`glue` for a node whose children may be values (a glued node)."""
    children = spec.lang.spec(node).children
    if any(type(getattr(node, child.attr)) is Thunk for child in children):
        return Thunk(node, env, glued=True)
    return glue(spec, node, env)


def view(spec: NbeSpec, value: Any) -> tuple[Any, dict]:
    """A type value as ``(node, delayed substitution)``, frames composed.

    Composing a frame into the substitution beneath it costs one step per
    entry, nothing deeper, and is memoized on the value.  The node may be
    glued (children that are values) but is never a variable: glue resolves
    a bound one, and composition resolves an entry that is one.
    """
    if type(value) is not Thunk:
        return value, _EMPTY_ENV
    node, env, _ = _flat(spec, value)
    return node, env


def _flat(spec: NbeSpec, value: Thunk) -> tuple[Any, dict, bool]:
    """:func:`view` of a thunk, and whether its node is glued."""
    if type(value.term) is not Thunk:
        return value.term, value.env, value.glued
    if value.flat is not None:
        return value.flat
    chain = []
    current = value
    while type(current.term) is Thunk and current.flat is None:
        chain.append(current)
        current = current.term
    flat = current.flat if type(current.term) is Thunk else (current.term, current.env, current.glued)
    var_cls = spec.var_cls
    for frame in reversed(chain):
        node, env, glued = flat
        outer = frame.env
        composed = {name: _framed(var_cls, entry, outer) for name, entry in env.items()}
        for name, entry in outer.items():
            if name not in env:
                composed[name] = entry
        flat = frame.flat = (node, composed, glued)
    return flat


def _framed(var_cls: type, entry: Thunk, env: dict) -> Thunk:
    """``entry`` under the frame ``env``.

    A plain entry that is a variable becomes the frame's entry for it, or
    stays as it is when the frame does not bind it, so no entry is ever a
    variable its own substitution binds.  Another plain entry becomes its
    syntax under ``env``, which :func:`glue` prunes when it resolves it: an
    entry the frame does not touch resolves to the same object as before
    (conversion's pointer short-circuits, and so fuel, see it).  A delayed
    or framed entry gets the frame.
    """
    if entry.env or entry.glued or type(entry.term) is Thunk:
        return Thunk(entry, env)
    if type(entry.term) is var_cls:
        return env.get(entry.term.name, entry)
    return Thunk(entry.term, env)


def read_back(spec: NbeSpec, value: Any) -> Any:
    """The syntax of a type value (memoized on the value)."""
    if type(value) is not Thunk:
        return value
    return _thunk_resid(spec, value)


def value_names(spec: NbeSpec, value: Thunk) -> frozenset:
    """Free names of a type value's read-back, without reading it back."""
    return _thunk_fnames(spec, value)


def value_scopes(spec: NbeSpec, node: Any, env: dict) -> tuple[list[str], list[dict]]:
    """Binder names and per-depth envs for descending into a value's ``node``.

    Entry ``k`` of the env list is in force under the first ``k`` binders:
    a binder drops the entry it shadows, and is renamed to a globally fresh
    name exactly when it would capture a free name of an env entry the node
    uses — the cases in which ``subst`` renames.
    """
    lang = spec.lang
    binder_attrs = lang.spec(node).binder_attrs
    names: list[str] = []
    envs = [env]
    if not binder_attrs:
        return names, envs
    avoid: set[str] = set()
    node_names = fv.known_free_vars(node)
    if node_names is None:
        node_names = _node_names(spec, node)
    for name in node_names:
        thunk = env.get(name)
        if thunk is not None:
            avoid |= _thunk_fnames(spec, thunk)
    current = env
    for attr in binder_attrs:
        source = getattr(node, attr)
        if source in avoid:
            name = fresh(source)
            current = dict(current)
            current[source] = Thunk(spec.var_cls(name), _EMPTY_ENV)
        else:
            name = source
            if source in current:
                current = {key: entry for key, entry in current.items() if key != source}
        names.append(name)
        envs.append(current)
    return names, envs


# The reduction entry points import this module for ``NbeSpec``, so they are
# bound here, after it is defined.
from repro.kernel import reduction as _reduction  # noqa: E402
