"""Generic capture-avoiding parallel substitution, driven by node specs.

One engine serves both calculi.  The semantics match the original
per-calculus implementations: mappings apply simultaneously, shadowed names
are dropped at binders, and a binder is renamed (with the global fresh
supply) exactly when it would capture a free variable of some replacement.

Three sharing/efficiency improvements over the originals, the first two
enabled by the free-variable sets :mod:`repro.kernel.fv` stores on terms:

* the entry-point scan ``{k: v for k in mapping if k in free_vars(term)}``
  is now an O(1)-amortized attribute read instead of a full term walk;
* every interior node whose subtree contains no mapped name is returned
  *unchanged* (pointer-shared with the input), so a substitution touching
  one branch of a large term no longer rebuilds — or needlessly renames
  binders in — the untouched branches;
* a subterm object reached twice under the same mapping (hash-consed
  input, read-back of delayed substitutions, a replacement substituted
  for several occurrences and then substituted into again) is rebuilt
  once and the result shared, so the walk costs the input's DAG size
  rather than its tree size.

The walk is **iterative** — an explicit work stack driven by the node
specs, like the hoisting pass and the other kernel traversals — so
substitution into ~10k-node-deep programs (``machine/hoist.unhoist``
reconstituting a deep hoisted program, linking a deep component) never
approaches the Python recursion limit.  Binder renaming is folded into the
mapping itself: renaming ``b`` to the fresh ``b'`` pushes the children
under ``b`` with ``mapping ∪ {b ↦ b'}``.  Because the mapping is parallel
and ``b'`` is globally fresh, this is exactly the old rename-then-
substitute composition, in one pass.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.names import fresh
from repro.kernel import fv
from repro.kernel.nodespec import Language

__all__ = ["subst"]

Substitution = dict[str, Any]


def subst(lang: Language, term: Any, mapping: Substitution) -> Any:
    """Apply the parallel substitution ``mapping`` to ``term``.

    Names not in ``mapping`` are untouched.  The result shares unmodified
    subterms with the input wherever possible, and a subterm reached twice
    under the same mapping is rebuilt once and its result shared, so the
    walk costs the input's DAG size rather than its tree size.
    """
    if not mapping:
        return term
    fvs = fv.free_vars(lang, term)
    relevant = {k: v for k, v in mapping.items() if k in fvs}
    if not relevant:
        return term
    capturable: set[str] = set()
    for value in relevant.values():
        capturable |= fv.free_vars(lang, value)
    # The root's walk above filled every subterm's set, so the per-node
    # relevance scan below only reads them.
    known = fv.known_free_vars
    var_cls = lang.var_cls

    # Post-order over an explicit stack.  A *visit* frame carries the
    # mapping and capturable set in force at that position; a *build* frame
    # (``work`` is the ``(spec, binder_names)`` pair) pops its children's
    # results off the value stack and rebuilds.
    results: list[Any] = []
    stack: list[tuple[Any, Substitution, set[str], Any]] = [
        (term, relevant, capturable, None)
    ]
    # (id(node), id(mapping)) -> (mapping, result); the entry pins the
    # mapping so its id cannot be recycled mid-walk.
    done: dict[tuple[int, int], tuple[Substitution, Any]] = {}
    while stack:
        node, current, cap, work = stack.pop()
        if work is not None:
            spec, binder_names = work
            count = len(spec.children)
            values = results[-count:]
            del results[-count:]
            child_iter = iter(values)
            child_attrs = spec.child_attrs
            changed = False
            args: list[Any] = []
            for name in spec.field_order:
                if name in binder_names:
                    value = binder_names[name]
                    changed = changed or value != getattr(node, name)
                elif name in child_attrs:
                    value = next(child_iter)
                    changed = changed or value is not getattr(node, name)
                else:
                    value = getattr(node, name)
                args.append(value)
            result = type(node)(*args) if changed else node
            done[(id(node), id(current))] = (current, result)
            results.append(result)
            continue

        if not current:
            results.append(node)  # no substitution in force under this prefix
            continue
        if isinstance(node, var_cls):
            results.append(current.get(node.name, node))
            continue
        fvs = known(node)
        for key in current:
            if key in fvs:
                break
        else:
            results.append(node)  # no mapped name occurs free: share the subtree
            continue
        entry = done.get((id(node), id(current)))
        if entry is not None:
            results.append(entry[1])
            continue

        visit_mapping = current
        spec = lang.spec(node)
        # A non-variable node with a free mapped name necessarily has children.
        binder_names: dict[str, str] = {}
        # maps[k] / caps[k]: mapping and capturable set under the first k
        # binders — shadowed names dropped, renames added.
        maps: list[Substitution] = [current]
        caps: list[set[str]] = [cap]
        for binder in spec.binder_attrs:
            bound = getattr(node, binder)
            if bound in current:
                current = {k: v for k, v in current.items() if k != bound}
            if current and bound in cap:
                renamed = fresh(bound)
                current = dict(current)
                current[bound] = var_cls(renamed)
                cap = cap | {renamed}
                binder_names[binder] = renamed
            else:
                binder_names[binder] = bound
            maps.append(current)
            caps.append(cap)

        stack.append((node, visit_mapping, cap, (spec, binder_names)))
        for child in reversed(spec.children):
            depth = len(child.binders)
            stack.append((getattr(node, child.attr), maps[depth], caps[depth], None))
    return results[-1]
