"""The shared term kernel: one engine under both calculi.

CC (:mod:`repro.cc`) and CC-CC (:mod:`repro.cccc`) are different *languages*
— different node types, different reduction axioms — but identical *term
machinery*: capture-avoiding parallel substitution, α-equivalence, free
variables, traversal, and normalization bookkeeping.  This package factors
that machinery out, parameterized by a :class:`~repro.kernel.nodespec.Language`
descriptor that records, for every AST node class, which fields are binders,
which are subterms, and which binders scope over which subterms.

On top of the generic engines, the kernel adds the sharing discipline that
makes the hot paths fast:

* **hash-consing** (:mod:`repro.kernel.intern`) — constructors that intern
  structurally equal nodes, so equal terms are pointer-comparable, plus an
  α-canonicalizing :func:`intern` whose representatives coincide exactly for
  α-equivalent terms;
* **stored free variables** (:mod:`repro.kernel.fv`) — per-node frozensets
  computed bottom-up once and kept in a slot on the node, turning the
  per-call ``free_vars`` scan inside ``subst`` into an attribute read;
* **memoized normalization** (:mod:`repro.kernel.memo`) — a WHNF/normalize
  cache keyed on term identity plus a context fingerprint, replaying the
  recorded fuel consumption on every hit so budget semantics are preserved;
* **incremental conversion** (:mod:`repro.kernel.convert`) — a whnf-driven
  equivalence engine with pointer/intern short-circuits and per-calculus η
  hooks, replacing normalize-then-compare on the [Conv] hot path;
* **judgment memoization** (:mod:`repro.kernel.judgment`) — a
  fuel-replaying cache for ``infer``/``check``/``infer_universe`` (keyed
  on the context's extension path) and ``equivalent`` (keyed on the
  definitions fingerprint);
* **one type checker** (:mod:`repro.kernel.typing`) — every typing rule
  the two calculi share, over type values that instantiate in O(1),
  driven by a per-calculus ``TypingSpec``.

Every piece of mutable kernel state — the caches above, the context-token
tables, and the fresh-name counter — is owned by a
:class:`~repro.kernel.state.KernelState` (:mod:`repro.kernel.state`), one
per session; :func:`current_state` resolves the one in force.  The helpers
:func:`cache_stats` and :func:`repro.common.names.reset_fresh_counter` act
on the active state, so plain module calls run against the process-default
session.
"""

from repro.kernel.alpha import alpha_equal
from repro.kernel.budget import DEFAULT_FUEL, Budget
from repro.kernel.cache import DictCache, TermCache, cache_stats
from repro.kernel.convert import ConversionRules, convert
from repro.kernel.fv import free_vars
from repro.kernel.intern import build, intern
from repro.kernel.judgment import JudgmentCache, judgment_cache
from repro.kernel.memo import NormalizationCache, context_token
from repro.kernel.nodespec import ChildSpec, Language, NodeSpec
from repro.kernel.state import KernelState, activate, current_state, default_state
from repro.kernel.substitution import subst
from repro.kernel.traverse import subterms, term_size

__all__ = [
    "DEFAULT_FUEL",
    "Budget",
    "ChildSpec",
    "ConversionRules",
    "DictCache",
    "JudgmentCache",
    "KernelState",
    "Language",
    "NodeSpec",
    "NormalizationCache",
    "TermCache",
    "activate",
    "alpha_equal",
    "build",
    "cache_stats",
    "context_token",
    "convert",
    "current_state",
    "default_state",
    "free_vars",
    "intern",
    "judgment_cache",
    "subst",
    "subterms",
    "term_size",
]
