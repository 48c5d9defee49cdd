"""Hash-consing constructors and α-canonical interning.

Two layers of sharing:

* :func:`build` is a *hash-consing constructor*: ``build(lang, App, f, a)``
  returns the unique node for that class and field tuple, keyed on the
  identities of its (already-built) children.  Structurally equal terms
  constructed through ``build`` are therefore pointer-equal, ``is`` works
  as structural equality, and each node's free-variable set is computed
  bottom-up exactly once, at construction time.

* :func:`intern` maps an arbitrary term (built with the plain dataclass
  constructors, parsed, substituted — anything) to a canonical
  representative such that ``intern(a) is intern(b)`` **iff** ``a`` and
  ``b`` are α-equivalent.  Canonicalization renames every binder to a
  reserved name determined by its binder *depth* (de Bruijn levels spelled
  as names), which is injective on α-classes, and then rebuilds through
  :func:`build`.  The ``id(term) -> representative`` memo is weak on the
  input, so re-interning the same object is O(1).

Canonical binder names start with ``"$"`` — the surface lexer rejects
``$`` in identifiers and the fresh-name supply only ever puts ``$`` after
a non-empty stem, so canonical names can never collide with a user or
machine variable.  A term can still contain *free* canonical-named
variables (destructure an interned representative and its bound names
fall out free); to keep ``intern`` injective on α-classes the prefix is
escalated (``$cv`` → ``$cvv`` → …) until it clashes with no free variable
of the input.  The free-variable set is α-invariant, so the chosen prefix
is a function of the α-class and the contract survives.

The hash-consing table holds its nodes strongly (that is what keeps child
ids stable); resetting the owning session empties it along with the intern
memo.  Both live on the active :class:`~repro.kernel.state.KernelState`
(via ``Language``'s store properties), so two sessions never share
representatives — re-interning a term inside another session simply
rebuilds its α-class there.
"""

from __future__ import annotations

from typing import Any

from repro.kernel import fv
from repro.kernel.nodespec import Language

__all__ = ["build", "intern"]

_CANON_PREFIX = "$cv"


def build(lang: Language, cls: type, *args: Any) -> Any:
    """Hash-consing constructor: ``cls(*args)``, interned.

    ``args`` are in dataclass field order.  Child terms are keyed by
    identity, so pass children that are themselves ``build``/``intern``
    results to get full structural sharing (unshared children merely
    reduce hits; they never produce wrong results, because the table pins
    every stored node and therefore every child id it keys on).
    """
    return _build(lang, lang.hashcons, cls, args)


def _build(lang: Language, table: dict, cls: type, args: tuple) -> Any:
    """:func:`build` against an already-resolved session table.

    ``_canonicalize`` resolves the active session's table once per walk
    (the property probes the contextvar — too hot for a per-node loop) and
    calls this directly.  The key is the class and the fields in order,
    each child by its identity.
    """
    key_parts = list(args)
    for slot in lang.specs[cls].child_slots:
        key_parts[slot] = id(key_parts[slot])
    key = (cls, *key_parts)
    node = table.get(key)
    if node is None:
        node = cls(*args)
        table[key] = node
        fv.free_vars(lang, node)  # bottom-up: children are already cached
    return node


def intern(lang: Language, term: Any) -> Any:
    """The canonical representative of ``term``'s α-equivalence class.

    ``intern(lang, a) is intern(lang, b)`` exactly when ``a`` and ``b``
    are α-equivalent.  The representative is α-equivalent to ``term`` (its
    binders carry canonical depth-indexed names) and is built through
    :func:`build`, so all representatives share structure maximally.
    """
    memo = lang.intern_cache
    cached = memo.get(term)
    if cached is not None:
        return cached
    rep = _canonicalize(lang, term)
    memo.put(term, rep)
    if rep is not term:
        memo.put(rep, rep)
    return rep


def _canonicalize(lang: Language, root: Any) -> Any:
    """Rebuild ``root`` with depth-canonical binder names, via ``build``.

    Iterative post-order (explicit stack) so arbitrarily deep terms do not
    hit the recursion limit.  A frame carries the renaming environment in
    force at that position and the binder depth, which names any binders
    the node introduces.

    Shared subterms are canonicalized once per (node, depth): a node whose
    free-variable set is disjoint from the renaming environment
    canonicalizes identically at every occurrence at the same binder depth,
    so the walk keeps a per-walk memo for exactly those nodes and interning
    a hash-consed DAG costs O(unique nodes × depths), not O(unfolded tree).
    The root's :func:`~repro.kernel.fv.free_vars` walk fills every
    subterm's set, so the guard only reads them.
    """
    var_cls = lang.var_cls
    table = lang.hashcons  # the active session's table, resolved once per walk
    known = fv.known_free_vars
    free = fv.free_vars(lang, root)
    prefix = _CANON_PREFIX
    while any(name.startswith(prefix) for name in free):
        prefix += "v"
    results: list[Any] = []
    walk_memo: dict[tuple[int, int], Any] = {}
    # Frame: (term, env, depth, expanded?, memo key); env maps original
    # binder names to canonical ones for the binders in scope.
    stack: list[tuple[Any, dict[str, str], int, bool, tuple[int, int] | None]] = [
        (root, {}, 0, False, None)
    ]
    while stack:
        term, env, depth, expanded, memo_key = stack.pop()
        if not expanded:
            if isinstance(term, var_cls):
                results.append(_build(lang, table, var_cls, (env.get(term.name, term.name),)))
                continue
            spec = lang.spec(term)
            if not spec.children:
                results.append(
                    _build(lang, table, type(term), tuple(getattr(term, f) for f in spec.field_order))
                )
                continue
            memo_key = None
            if not env or env.keys().isdisjoint(known(term)):
                memo_key = (id(term), depth)
                done = walk_memo.get(memo_key)
                if done is not None:
                    results.append(done)
                    continue
            stack.append((term, env, depth, True, memo_key))
            # Environments for each binder-prefix length.
            envs = [env]
            for offset, binder in enumerate(spec.binder_attrs):
                extended = dict(envs[-1])
                extended[getattr(term, binder)] = f"{prefix}{depth + offset}"
                envs.append(extended)
            for child in reversed(spec.children):
                scope = len(child.binders)
                stack.append((getattr(term, child.attr), envs[scope], depth + scope, False, None))
        else:
            spec = lang.specs[type(term)]
            count = len(spec.children)
            values = results[-count:]
            del results[-count:]
            child_iter = iter(values)
            args = []
            for offset_name in spec.field_order:
                if offset_name in spec.binder_attrs:
                    index = spec.binder_attrs.index(offset_name)
                    args.append(f"{prefix}{depth + index}")
                elif any(child.attr == offset_name for child in spec.children):
                    args.append(next(child_iter))
                else:
                    args.append(getattr(term, offset_name))
            node = _build(lang, table, type(term), tuple(args))
            if memo_key is not None:
                walk_memo[memo_key] = node
            results.append(node)
    return results[-1]
