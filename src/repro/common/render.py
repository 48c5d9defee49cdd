"""The one printer of CC, CC-CC and the surface syntax.

CC-CC is CC with λ replaced by code and closures (paper Figure 5), and the
two calculi share their node class names and field names, so one layout
table keyed on the class name prints both.  A layout lists a node's
fragments: literal strings, binder names, and subterms at the precedence
their position needs.  The paper's notation (``cc.pretty``,
``cccc.pretty``) and the parseable surface syntax (``to_surface``) differ
only in spellings (``⋆ □ Π Σ λ ⟨ ⟩`` vs ``Type Kind forall exists \\ < >``),
in what follows a Π or Σ binder (``). `` vs ``), ``) and in the precedence
of a ``let`` annotation, so each notation is the same table built with its
own spellings.

:func:`render` streams the fragments :func:`pieces` yields with an
explicit work stack, so ~10k-node-deep terms (which type errors
legitimately surface) print without approaching the Python recursion
limit.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["pieces", "render"]

# Precedence levels, loosest to tightest.
_BINDER = 0  # λ, Π, Σ, code, let, if
_ARROW = 1  # non-dependent ->
_APP = 2  # application, fst, snd, stuck succ
_ATOM = 3  # variables, constants, pairs, closures, natelim


def _notation(star, box, pi, sigma, lam, left, right, binder_end, let_annot):
    """Every node's ``(precedence, layout)`` in one notation, by class name.

    A layout item is a literal string, ``(field, None)`` for a binder name,
    or ``(field, precedence)`` for a subterm.
    """

    def binder(head, domain, body, end):
        layout = (f"{head} (", ("name", None), " : ", (domain, _BINDER), end, (body, _BINDER))
        return (_BINDER, layout)

    def code(head, body):
        telescope = (("env_name", None), " : ", ("env_type", _BINDER), ", ")
        telescope += (("arg_name", None), " : ", ("arg_type", _BINDER), "). ")
        return (_BINDER, (f"{head} (", *telescope, (body, _BINDER)))

    return {
        "Var": (_ATOM, (("name", None),)),
        "Star": (_ATOM, (star,)),
        "Box": (_ATOM, (box,)),
        "Unit": (_ATOM, ("1",)),
        "UnitVal": (_ATOM, ("⟨⟩",)),
        "Bool": (_ATOM, ("Bool",)),
        "Nat": (_ATOM, ("Nat",)),
        "Zero": (_ATOM, ("0",)),
        "Pi": binder(pi, "domain", "codomain", binder_end),
        "Sigma": binder(sigma, "first", "second", binder_end),
        "Lam": binder(lam, "domain", "body", "). "),
        "CodeType": code("Code", "result"),
        "CodeLam": code(lam, "body"),
        "Clo": (_ATOM, ("⟨⟨", ("code", _BINDER), ", ", ("env", _BINDER), "⟩⟩")),
        "App": (_APP, (("fn", _APP), " ", ("arg", _ATOM))),
        "Let": (_BINDER, ("let ", ("name", None), " = ", ("bound", _BINDER), " : ",
                          ("annot", let_annot), " in ", ("body", _BINDER))),
        "Pair": (_ATOM, (left, ("fst_val", _BINDER), ", ", ("snd_val", _BINDER),
                         f"{right} as ", ("annot", _ATOM))),
        "Fst": (_APP, ("fst ", ("pair", _ATOM))),
        "Snd": (_APP, ("snd ", ("pair", _ATOM))),
        "If": (_BINDER, ("if ", ("cond", _BINDER), " then ", ("then_branch", _BINDER),
                         " else ", ("else_branch", _BINDER))),
        "NatElim": (_ATOM, ("natelim(", ("motive", _BINDER), ", ", ("base", _BINDER), ", ",
                            ("step", _BINDER), ", ", ("target", _BINDER), ")")),
    }


_PAPER = _notation("⋆", "□", "Π", "Σ", "λ", "⟨", "⟩", "). ", _BINDER)
_SURFACE = _notation("Type", "Kind", "forall", "exists", "\\", "<", ">", "), ", _APP)
#: A Π whose binder its codomain never mentions, in either notation.
_NON_DEPENDENT = (_ARROW, (("domain", _APP), " -> ", ("codomain", _ARROW)))


def render(term: Any, notation: dict, free_vars: Callable[[Any], frozenset]) -> str:
    """Print ``term`` in ``notation`` (``_PAPER`` or ``_SURFACE``)."""
    out: list[str] = []
    stack: list = [(term, _BINDER)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        stack.extend(reversed(pieces(item[0], item[1], notation, free_vars)))
    return "".join(out)


def pieces(term: Any, prec: int, notation: dict, free_vars: Callable[[Any], frozenset]) -> list:
    """The fragments of ``term`` at ``prec``: strings and ``(subterm, prec)``.

    The node's row is looked up by class name, so a CC and a CC-CC node of
    the same name print alike.  ``free_vars`` is the calculus's cached
    free-variable function; it decides when a Π prints as an arrow.
    """
    kind = type(term).__name__
    if kind == "Succ":
        # One scan of the whole chain decides numeral-vs-stuck, keeping deep
        # chains linear to print.
        depth, core = 0, term
        while type(core) is type(term):
            depth, core = depth + 1, core.pred
        if type(core).__name__ == "Zero":
            return [str(depth)]
        need = _APP
        out = ["succ (" * (depth - 1), "succ ", (core, _ATOM), ")" * (depth - 1)]
    elif kind == "BoolLit":
        return ["true" if term.value else "false"]
    else:
        if kind == "Pi" and (term.name == "_" or term.name not in free_vars(term.codomain)):
            need, layout = _NON_DEPENDENT
        elif kind in notation:
            need, layout = notation[kind]
        else:
            raise TypeError(f"not a printable term: {term!r}")
        out = []
        for item in layout:
            if type(item) is str:
                out.append(item)
            elif item[1] is None:
                out.append(getattr(term, item[0]))
            else:
                out.append((getattr(term, item[0]), item[1]))
    return ["(", *out, ")"] if prec > need else out
