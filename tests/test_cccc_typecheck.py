"""Pins of the CC-CC checker's verify judgment (paper Figure 7, Theorem 5.6), its depth,
and the shape of the shared checker's type values under nested instantiation frames."""

import gc
import os
import sys

import pytest

from benchmarks.workloads import capture_all, nested_lambdas
from repro import api, cc, cccc
from repro.closconv import compile_term
from repro.common.errors import TypeCheckError
from repro.kernel.budget import Budget
from repro.kernel.nbe import glue, view
from repro.kernel import typing
from repro.kernel.traverse import subterms
from repro.kernel.typing import infer_value
from repro.surface import parse_term
from repro.wire.codec import term_from_b64, term_to_b64
from test_nbe_differential import _NEGATIVE, _assert_checkers_agree
from test_warm_jobs import INLINED
from tests.corpus import CORPUS


def _verify_record(ctx, term):
    """(accepted, error class, message, fuel, α-canonical type) of verify, cold.

    The corpus term is compiled with ``verify=False`` and then verified the
    way ``compile`` does it: ``cccc.infer`` on the target and the
    Theorem 5.6 ``cccc.equivalent`` against the translated type, on one
    budget.
    """
    with api.Session().activate():
        compiled = compile_term(ctx, term, verify=False)
        tctx, budget = compiled.target_context, Budget()
        type_ = cccc.infer(tctx, compiled.target, budget)
        accepted = cccc.equivalent(tctx, type_, compiled.target_type, budget)
        return (accepted, None, None, budget.spent, cccc.pretty(cccc.intern(type_)))


def _negative_record(ctx, term):
    """(accepted, error class, message, fuel, type) of ``cccc.infer``, cold."""
    with api.Session().activate():
        budget = Budget()
        try:
            type_ = cccc.infer(ctx, term, budget)
        except TypeCheckError as error:
            return (False, type(error).__name__, str(error), budget.spent, None)
        return (True, None, None, budget.spent, cccc.pretty(cccc.intern(type_)))


#: Verify on every compiled corpus entry: the verdict of Theorem 5.6's
#: check, the fuel verify spends and the α-canonical checked type.
_PINNED_VERIFY = {
    'poly-id': (True, None, None, 4, 'Π ($cv0 : ⋆). (let $cv1 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : ⋆). 1) : ⋆ in $cv1) -> (let $cv2 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1) : ⋆ in $cv2)'),
    'mono-id': (True, None, None, 0, 'Nat -> Nat'),
    'const': (True, None, None, 0, 'Nat -> Bool -> Nat'),
    'compose': (True, None, None, 0, '(Nat -> Bool) -> (Nat -> Nat) -> Nat -> Bool'),
    'twice': (True, None, None, 0, '(Nat -> Nat) -> Nat -> Nat'),
    'open-capture-term': (True, None, None, 7, '(let $cv0 = fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv0 : A -> A). 1)⟩ as (Σ ($cv0 : ⋆). Σ ($cv1 : $cv0 -> $cv0). 1) : ⋆ in $cv0) -> fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv1 : A -> A). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> $cv1). 1)'),
    'open-capture-type': (True, None, None, 4, '(let $cv0 = fst ⟨A, ⟨⟩⟩ as (Σ ($cv0 : ⋆). 1) : ⋆ in $cv0) -> (let $cv1 = fst ⟨A, ⟨⟩⟩ as (Σ ($cv1 : ⋆). 1) : ⋆ in $cv1)'),
    'nested-capture': (True, None, None, 20, 'Π ($cv0 : let $cv0 = fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv0 : A -> A). 1)⟩ as (Σ ($cv0 : ⋆). Σ ($cv1 : $cv0 -> $cv0). 1) : ⋆ in $cv0). (let $cv1 = fst ⟨fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv1 : A -> A). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> $cv1). 1), ⟨fst (snd ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv1 : A -> A). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> $cv1). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv1 : A -> A). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> $cv1). 1)). 1)⟩ as (Σ ($cv1 : fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv1 : A -> A). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> $cv1). 1) -> fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv2 : A -> A). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1)). Σ ($cv2 : fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv2 : A -> A). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1)). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> $cv1). Σ ($cv3 : $cv1). 1) : ⋆ in $cv1) -> fst ⟨fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv2 : A -> A). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1), ⟨fst (snd ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv2 : A -> A). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv2 : A -> A). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1)). 1)⟩ as (Σ ($cv2 : fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv2 : A -> A). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1) -> fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv3 : A -> A). 1)⟩ as (Σ ($cv3 : ⋆). Σ ($cv4 : $cv3 -> $cv3). 1)). Σ ($cv3 : fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv3 : A -> A). 1)⟩ as (Σ ($cv3 : ⋆). Σ ($cv4 : $cv3 -> $cv3). 1)). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). Σ ($cv4 : $cv2). 1)'),
    'triple-nest': (True, None, None, 0, 'Nat -> Nat -> Nat -> Nat'),
    'shadow': (True, None, None, 0, 'Nat -> Bool'),
    'shadow-let': (True, None, None, 4, 'Π ($cv0 : ⋆). (let $cv1 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : ⋆). 1) : ⋆ in $cv1) -> (let $cv2 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1) : ⋆ in $cv2)'),
    'shadow-capture': (True, None, None, 11, 'Π ($cv0 : ⋆). Π ($cv1 : let $cv1 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : ⋆). 1) : ⋆ in $cv1). ⋆ -> Nat -> fst ⟨fst ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv4 : fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)). 1)⟩ as (Σ ($cv4 : ⋆). Σ ($cv5 : $cv4). 1), ⟨fst (snd ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv4 : fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)). 1)⟩ as (Σ ($cv4 : ⋆). Σ ($cv5 : $cv4). 1)), ⟨⟩⟩ as (Σ ($cv4 : fst ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv4 : fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)). 1)⟩ as (Σ ($cv4 : ⋆). Σ ($cv5 : $cv4). 1)). 1)⟩ as (Σ ($cv4 : ⋆). Σ ($cv5 : $cv4). 1)'),
    'beta-redex': (True, None, None, 0, 'Nat'),
    'id-Nat-3': (True, None, None, 4, 'let $cv0 = fst ⟨Nat, ⟨⟩⟩ as (Σ ($cv0 : ⋆). 1) : ⋆ in $cv0'),
    'partial-app': (True, None, None, 5, 'Nat -> ⟨⟨λ ($cv1 : 1, $cv2 : Nat). Nat, ⟨⟩⟩⟩ (fst ⟨2, ⟨⟩⟩ as (Σ ($cv1 : Nat). 1))'),
    'higher-order': (True, None, None, 0, 'Nat'),
    'apply-open': (True, None, None, 7, 'fst ⟨A, ⟨f, ⟨⟩⟩ as (Σ ($cv0 : A -> A). 1)⟩ as (Σ ($cv0 : ⋆). Σ ($cv1 : $cv0 -> $cv0). 1)'),
    'let-zeta': (True, None, None, 0, 'Nat'),
    'let-under-lam': (True, None, None, 0, 'Nat -> Nat'),
    'let-type': (True, None, None, 3, '(let $cv0 = Nat : ⋆ in $cv0) -> (let $cv1 = Nat : ⋆ in $cv1)'),
    'delta-def': (True, None, None, 5, '⟨⟨λ ($cv0 : 1, $cv1 : Nat). Nat, ⟨⟩⟩⟩ m'),
    'pair-ground': (True, None, None, 0, 'Σ ($cv0 : Nat). Bool'),
    'pair-dependent': (True, None, None, 12, 'Σ ($cv0 : Nat). Π ($cv1 : Bool -> ⋆). $cv1 (⟨⟨λ ($cv2 : 1, $cv3 : Nat). natelim(⟨⟨λ ($cv4 : 1, $cv5 : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ ($cv4 : 1, $cv5 : Nat). ⟨⟨λ ($cv6 : 1, $cv7 : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, $cv3), ⟨⟩⟩⟩ $cv0) -> $cv1 false'),
    'fst-proj': (True, None, None, 0, 'Nat'),
    'snd-proj': (True, None, None, 0, 'Bool'),
    'sigma-in-lam': (True, None, None, 0, '(Σ ($cv0 : Nat). Bool) -> Nat'),
    'snd-dependent': (True, None, None, 22, 'Π ($cv0 : Bool -> ⋆). $cv0 (⟨⟨λ ($cv1 : 1, $cv2 : Nat). natelim(⟨⟨λ ($cv3 : 1, $cv4 : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ ($cv3 : 1, $cv4 : Nat). ⟨⟨λ ($cv5 : 1, $cv6 : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, $cv2), ⟨⟩⟩⟩ (fst ⟨3, ⟨⟨λ ($cv1 : 1, $cv2 : Bool -> ⋆). ⟨⟨λ ($cv3 : Σ ($cv3 : Bool -> ⋆). 1, $cv4 : let $cv4 = fst $cv3 : Bool -> ⋆ in $cv4 false). $cv4, ⟨$cv2, ⟨⟩⟩ as (Σ ($cv3 : Bool -> ⋆). 1)⟩⟩, ⟨⟩⟩⟩⟩ as (Σ ($cv1 : Nat). Π ($cv2 : Bool -> ⋆). $cv2 (⟨⟨λ ($cv3 : 1, $cv4 : Nat). natelim(⟨⟨λ ($cv5 : 1, $cv6 : Nat). Bool, ⟨⟩⟩⟩, true, ⟨⟨λ ($cv5 : 1, $cv6 : Nat). ⟨⟨λ ($cv7 : 1, $cv8 : Bool). false, ⟨⟩⟩⟩, ⟨⟩⟩⟩, $cv4), ⟨⟩⟩⟩ $cv1) -> $cv2 false))) -> $cv0 false'),
    'if-ground': (True, None, None, 0, 'Nat'),
    'if-neutral': (True, None, None, 0, 'Nat'),
    'natelim-add': (True, None, None, 5, '⟨⟨λ ($cv0 : 1, $cv1 : Nat). Nat, ⟨⟩⟩⟩ (fst ⟨3, ⟨⟩⟩ as (Σ ($cv0 : Nat). 1))'),
    'is-zero': (True, None, None, 5, '⟨⟨λ ($cv0 : 1, $cv1 : Nat). Bool, ⟨⟩⟩⟩ 0'),
    'pred': (True, None, None, 5, '⟨⟨λ ($cv0 : 1, $cv1 : Nat). Nat, ⟨⟩⟩⟩ 5'),
    'dependent-if-annot': (True, None, None, 4, '(let $cv0 = fst ⟨b, ⟨⟩⟩ as (Σ ($cv0 : Bool). 1) : Bool in if $cv0 then Nat else Bool) -> (let $cv1 = fst ⟨b, ⟨⟩⟩ as (Σ ($cv1 : Bool). 1) : Bool in if $cv1 then Nat else Bool)'),
    'leibniz-refl': (True, None, None, 4, 'Π ($cv0 : Nat -> ⋆). (let $cv1 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : Nat -> ⋆). 1) : Nat -> ⋆ in $cv1 1) -> (let $cv2 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : Nat -> ⋆). 1) : Nat -> ⋆ in $cv2 1)'),
    'type-operator': (True, None, None, 12, 'Π ($cv0 : ⋆ -> ⋆). Π ($cv1 : ⋆). (let $cv2 = fst ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆ -> ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1)⟩ as (Σ ($cv2 : ⋆ -> ⋆). Σ ($cv3 : ⋆). 1) : ⋆ -> ⋆ in let $cv3 = fst (snd ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆ -> ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : ⋆ -> ⋆). Σ ($cv4 : ⋆). 1)) : ⋆ in $cv2 $cv3) -> (let $cv3 = fst ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆ -> ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : ⋆ -> ⋆). Σ ($cv4 : ⋆). 1) : ⋆ -> ⋆ in let $cv4 = fst (snd ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆ -> ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv4 : ⋆ -> ⋆). Σ ($cv5 : ⋆). 1)) : ⋆ in $cv3 $cv4)'),
    'impredicative': (True, None, None, 0, '(Π ($cv0 : ⋆). $cv0 -> $cv0) -> (Π ($cv1 : ⋆). $cv1 -> $cv1)'),
    'type-only-capture': (True, None, None, 2, 'Nat -> fst ⟨C, ⟨f, ⟨⟩⟩ as (Σ ($cv1 : Nat -> C). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : Nat -> $cv1). 1)'),
    'sigma-dep-capture': (True, None, None, 2, 'Nat -> fst ⟨A, ⟨p, ⟨⟩⟩ as (Σ ($cv1 : Σ ($cv1 : A). Nat). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : Σ ($cv2 : $cv1). Nat). 1)'),
    'chain-capture': (True, None, None, 11, 'Nat -> fst (snd ⟨A, ⟨P, ⟨x, ⟨h, ⟨⟩⟩ as (Σ ($cv1 : P x). 1)⟩ as (Σ ($cv1 : A). Σ ($cv2 : P $cv1). 1)⟩ as (Σ ($cv1 : A -> ⋆). Σ ($cv2 : A). Σ ($cv3 : $cv1 $cv2). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> ⋆). Σ ($cv3 : $cv1). Σ ($cv4 : $cv2 $cv3). 1)) (fst (snd (snd ⟨A, ⟨P, ⟨x, ⟨h, ⟨⟩⟩ as (Σ ($cv1 : P x). 1)⟩ as (Σ ($cv1 : A). Σ ($cv2 : P $cv1). 1)⟩ as (Σ ($cv1 : A -> ⋆). Σ ($cv2 : A). Σ ($cv3 : $cv1 $cv2). 1)⟩ as (Σ ($cv1 : ⋆). Σ ($cv2 : $cv1 -> ⋆). Σ ($cv3 : $cv1). Σ ($cv4 : $cv2 $cv3). 1))))'),
    'add-zero-proof': (True, None, None, 153, 'Π ($cv0 : Nat). ⟨⟨λ ($cv1 : 1, $cv2 : Nat). Π ($cv3 : Nat -> ⋆). $cv3 (⟨⟨λ ($cv4 : 1, $cv5 : Nat). ⟨⟨λ ($cv6 : Σ ($cv6 : Nat). 1, $cv7 : Nat). let $cv8 = fst $cv6 : Nat in natelim(⟨⟨λ ($cv9 : 1, $cv10 : Nat). Nat, ⟨⟩⟩⟩, $cv7, ⟨⟨λ ($cv9 : 1, $cv10 : Nat). ⟨⟨λ ($cv11 : 1, $cv12 : Nat). succ $cv12, ⟨⟩⟩⟩, ⟨⟩⟩⟩, $cv8), ⟨$cv5, ⟨⟩⟩ as (Σ ($cv6 : Nat). 1)⟩⟩, ⟨⟩⟩⟩ $cv2 0) -> $cv3 $cv2, ⟨⟩⟩⟩ $cv0'),
    'church-2': (True, None, None, 17, 'Π ($cv0 : ⋆). Π ($cv1 : let $cv1 = fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : ⋆). 1) : ⋆ in $cv1 -> $cv1). (let $cv2 = fst ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv2 : fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1) -> fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1) : ⋆ in $cv2) -> fst ⟨fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv3 : fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1) -> fst ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)). 1)⟩ as (Σ ($cv3 : ⋆). Σ ($cv4 : $cv3 -> $cv3). 1)'),
    'church-add-2-3': (True, None, None, 73, 'Π ($cv0 : ⋆). Π ($cv1 : let $cv1 = fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv1 : 1, $cv2 : ⋆). ⟨⟨λ ($cv3 : Σ ($cv3 : ⋆). 1, $cv4 : let $cv4 = fst $cv3 : ⋆ in $cv4 -> $cv4). let $cv5 = fst $cv3 : ⋆ in ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7). let $cv8 = fst $cv6 : ⋆ in let $cv9 = fst (snd $cv6) : $cv8 -> $cv8 in $cv9 ($cv9 $cv7), ⟨$cv5, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv6 : $cv5 -> $cv5). 1)⟩ as (Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1)⟩⟩, ⟨$cv2, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). 1), ⟨⟨⟨λ ($cv1 : 1, $cv2 : ⋆). ⟨⟨λ ($cv3 : Σ ($cv3 : ⋆). 1, $cv4 : let $cv4 = fst $cv3 : ⋆ in $cv4 -> $cv4). let $cv5 = fst $cv3 : ⋆ in ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7). let $cv8 = fst $cv6 : ⋆ in let $cv9 = fst (snd $cv6) : $cv8 -> $cv8 in $cv9 ($cv9 ($cv9 $cv7)), ⟨$cv5, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv6 : $cv5 -> $cv5). 1)⟩ as (Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1)⟩⟩, ⟨$cv2, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). 1)⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv1 : 1, $cv2 : ⋆). ⟨⟨λ ($cv3 : Σ ($cv3 : ⋆). 1, $cv4 : let $cv4 = fst $cv3 : ⋆ in $cv4 -> $cv4). let $cv5 = fst $cv3 : ⋆ in ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7). let $cv8 = fst $cv6 : ⋆ in let $cv9 = fst (snd $cv6) : $cv8 -> $cv8 in $cv9 ($cv9 $cv7), ⟨$cv5, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv6 : $cv5 -> $cv5). 1)⟩ as (Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1)⟩⟩, ⟨$cv2, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). 1), ⟨⟨⟨λ ($cv1 : 1, $cv2 : ⋆). ⟨⟨λ ($cv3 : Σ ($cv3 : ⋆). 1, $cv4 : let $cv4 = fst $cv3 : ⋆ in $cv4 -> $cv4). let $cv5 = fst $cv3 : ⋆ in ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7). let $cv8 = fst $cv6 : ⋆ in let $cv9 = fst (snd $cv6) : $cv8 -> $cv8 in $cv9 ($cv9 ($cv9 $cv7)), ⟨$cv5, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv6 : $cv5 -> $cv5). 1)⟩ as (Σ ($cv6 : ⋆). Σ ($cv7 : $cv6 -> $cv6). 1)⟩⟩, ⟨$cv2, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). 1)⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv1 : ⋆). 1)⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). Σ ($cv2 : ⋆). 1)⟩ as (Σ ($cv1 : Π ($cv1 : ⋆). ($cv1 -> $cv1) -> $cv1 -> $cv1). Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : ⋆). 1))) : ⋆ in $cv1 -> $cv1). (let $cv2 = fst (snd (snd ⟨fst ⟨fst ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1), ⟨fst (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1)), ⟨fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1))), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv2 : fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 $cv8), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1), ⟨⟨⟨λ ($cv2 : 1, $cv3 : ⋆). ⟨⟨λ ($cv4 : Σ ($cv4 : ⋆). 1, $cv5 : let $cv5 = fst $cv4 : ⋆ in $cv5 -> $cv5). let $cv6 = fst $cv4 : ⋆ in ⟨⟨λ ($cv7 : Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1, $cv8 : let $cv8 = fst $cv7 : ⋆ in $cv8). let $cv9 = fst $cv7 : ⋆ in let $cv10 = fst (snd $cv7) : $cv9 -> $cv9 in $cv10 ($cv10 ($cv10 $cv8)), ⟨$cv6, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv7 : $cv6 -> $cv6). 1)⟩ as (Σ ($cv7 : ⋆). Σ ($cv8 : $cv7 -> $cv7). 1)⟩⟩, ⟨$cv3, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv2 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1))) -> fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). 1)))). 1)⟩ as (Σ ($cv2 : ⋆). Σ ($cv3 : $cv2 -> $cv2). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : ⋆). Σ ($cv4 : $cv3 -> $cv3). 1)⟩ as (Σ ($cv2 : Π ($cv2 : ⋆). ($cv2 -> $cv2) -> $cv2 -> $cv2). Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). Σ ($cv5 : $cv4 -> $cv4). 1))) : ⋆ in $cv2) -> fst (snd (snd ⟨fst ⟨fst ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). 1), ⟨fst (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). 1)), ⟨fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). 1))), ⟨$cv1, ⟨⟩⟩ as (Σ ($cv3 : fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 $cv9), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1), ⟨⟨⟨λ ($cv3 : 1, $cv4 : ⋆). ⟨⟨λ ($cv5 : Σ ($cv5 : ⋆). 1, $cv6 : let $cv6 = fst $cv5 : ⋆ in $cv6 -> $cv6). let $cv7 = fst $cv5 : ⋆ in ⟨⟨λ ($cv8 : Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1, $cv9 : let $cv9 = fst $cv8 : ⋆ in $cv9). let $cv10 = fst $cv8 : ⋆ in let $cv11 = fst (snd $cv8) : $cv10 -> $cv10 in $cv11 ($cv11 ($cv11 $cv9)), ⟨$cv7, ⟨$cv6, ⟨⟩⟩ as (Σ ($cv8 : $cv7 -> $cv7). 1)⟩ as (Σ ($cv8 : ⋆). Σ ($cv9 : $cv8 -> $cv8). 1)⟩⟩, ⟨$cv4, ⟨⟩⟩ as (Σ ($cv5 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv3 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). 1))) -> fst (snd (snd ⟨fst ⟨fst ⟨⟨⟨λ ($cv4 : 1, $cv5 : ⋆). ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7 -> $cv7). let $cv8 = fst $cv6 : ⋆ in ⟨⟨λ ($cv9 : Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1, $cv10 : let $cv10 = fst $cv9 : ⋆ in $cv10). let $cv11 = fst $cv9 : ⋆ in let $cv12 = fst (snd $cv9) : $cv11 -> $cv11 in $cv12 ($cv12 $cv10), ⟨$cv8, ⟨$cv7, ⟨⟩⟩ as (Σ ($cv9 : $cv8 -> $cv8). 1)⟩ as (Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1)⟩⟩, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv6 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨⟨⟨λ ($cv4 : 1, $cv5 : ⋆). ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7 -> $cv7). let $cv8 = fst $cv6 : ⋆ in ⟨⟨λ ($cv9 : Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1, $cv10 : let $cv10 = fst $cv9 : ⋆ in $cv10). let $cv11 = fst $cv9 : ⋆ in let $cv12 = fst (snd $cv9) : $cv11 -> $cv11 in $cv12 ($cv12 ($cv12 $cv10)), ⟨$cv8, ⟨$cv7, ⟨⟩⟩ as (Σ ($cv9 : $cv8 -> $cv8). 1)⟩ as (Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1)⟩⟩, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv6 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : Π ($cv5 : ⋆). ($cv5 -> $cv5) -> $cv5 -> $cv5). 1), ⟨fst (snd ⟨fst ⟨⟨⟨λ ($cv4 : 1, $cv5 : ⋆). ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7 -> $cv7). let $cv8 = fst $cv6 : ⋆ in ⟨⟨λ ($cv9 : Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1, $cv10 : let $cv10 = fst $cv9 : ⋆ in $cv10). let $cv11 = fst $cv9 : ⋆ in let $cv12 = fst (snd $cv9) : $cv11 -> $cv11 in $cv12 ($cv12 $cv10), ⟨$cv8, ⟨$cv7, ⟨⟩⟩ as (Σ ($cv9 : $cv8 -> $cv8). 1)⟩ as (Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1)⟩⟩, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv6 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1), ⟨⟨⟨λ ($cv4 : 1, $cv5 : ⋆). ⟨⟨λ ($cv6 : Σ ($cv6 : ⋆). 1, $cv7 : let $cv7 = fst $cv6 : ⋆ in $cv7 -> $cv7). let $cv8 = fst $cv6 : ⋆ in ⟨⟨λ ($cv9 : Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1, $cv10 : let $cv10 = fst $cv9 : ⋆ in $cv10). let $cv11 = fst $cv9 : ⋆ in let $cv12 = fst (snd $cv9) : $cv11 -> $cv11 in $cv12 ($cv12 ($cv12 $cv10)), ⟨$cv8, ⟨$cv7, ⟨⟩⟩ as (Σ ($cv9 : $cv8 -> $cv8). 1)⟩ as (Σ ($cv9 : ⋆). Σ ($cv10 : $cv9 -> $cv9). 1)⟩⟩, ⟨$cv5, ⟨⟩⟩ as (Σ ($cv6 : ⋆). 1)⟩⟩, ⟨⟩⟩⟩, ⟨⟩⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). 1)⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : Π ($cv5 : ⋆). ($cv5 -> $cv5) -> $cv5 -> $cv5). 1)), ⟨$cv0, ⟨⟩⟩ as (Σ ($cv4 : ⋆). 1)⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). 1)⟩ as (Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : Π ($cv5 : ⋆). ($cv5 -> $cv5) -> $cv5 -> $cv5). Σ ($cv6 : ⋆). 1)))). 1)⟩ as (Σ ($cv3 : ⋆). Σ ($cv4 : $cv3 -> $cv3). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : ⋆). Σ ($cv5 : $cv4 -> $cv4). 1)⟩ as (Σ ($cv3 : Π ($cv3 : ⋆). ($cv3 -> $cv3) -> $cv3 -> $cv3). Σ ($cv4 : Π ($cv4 : ⋆). ($cv4 -> $cv4) -> $cv4 -> $cv4). Σ ($cv5 : ⋆). Σ ($cv6 : $cv5 -> $cv5). 1)))'),
    'type-term': (True, None, None, 0, '⋆'),
    'pi-type-term': (True, None, None, 0, '⋆'),
    'sigma-type-term': (True, None, None, 4, '⋆'),
    'shared-dag-tower': (True, None, None, 0, 'Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Σ ($cv0 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv1 : Nat). Σ ($cv2 : Σ ($cv2 : Σ ($cv2 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Nat). Nat). Σ ($cv3 : Nat). Σ ($cv4 : Σ ($cv4 : Nat). Nat). Σ ($cv5 : Nat). Σ ($cv6 : Nat). Nat'),
}

#: Every case of the CC-CC negative battery, in harvest order: rejected,
#: with its error class, message and fuel.
_PINNED_NEGATIVE = [
    (False, 'TypeCheckError', 'expected a type but ⟨⟩ has type 1', 0, None),
    (False, 'TypeCheckError', 'application head has non-Π type Code (n : 1, x : Nat). Nat\n  while checking (λ (n : 1, x : Nat). x) 0', 0, None),
    (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    (False, 'TypeCheckError', 'application head has non-Π type Nat\n  while checking 0 0', 0, None),
    (False, 'TypeCheckError', "code is not closed: free variables ['T']\n  while checking λ (n : 1, x : T). 0", 0, None),
    (False, 'TypeCheckError', "code is not closed: free variables ['stray']\n  while checking λ (n : 1, x : Nat). stray", 0, None),
    (False, 'TypeCheckError', "code is not closed: free variables ['T']\n  while checking λ (n : T, x : Nat). 0", 0, None),
    (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    (False, 'TypeCheckError', 'closure over non-code of type Nat -> Nat\n  while checking ⟨⟨⟨⟨λ (n : 1, x : Nat). x, ⟨⟩⟩⟩, ⟨⟩⟩⟩', 0, None),
    (False, 'TypeCheckError', 'closure over non-code of type Nat\n  while checking ⟨⟨0, ⟨⟩⟩⟩', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term 0\n  has type      Nat\n  but expected  1', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    (False, 'TypeCheckError', '□ has no type (it is not a valid term)', 0, None),
    (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
    (False, 'TypeCheckError', 'fst of non-Σ type 1\n  while checking fst ⟨⟩', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term ⟨⟩\n  has type      1\n  but expected  Nat', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term true\n  has type      Bool\n  but expected  Nat', 0, None),
    (False, 'TypeCheckError', 'natelim motive has non-Π type Nat', 0, None),
    (False, 'TypeCheckError', 'pair annotation Nat is not a Σ type\n  while checking ⟨0, 0⟩ as Nat', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term false\n  has type      Bool\n  but expected  Nat', 0, None),
    (False, 'TypeCheckError', "unbound variable 'ghost'", 0, None),
    (False, 'TypeCheckError', 'type mismatch: term ⟨b, ⟨⟩⟩ as (Σ (b : Bool). 1)\n  has type      Σ (b : Bool). 1\n  but expected  Σ (y : Nat). 1', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term ⟨⟩\n  has type      1\n  but expected  Σ (A : ⋆). Σ (a : A). 1', 1, None),
    (False, 'TypeCheckError', 'type mismatch: term x\n  has type      A\n  but expected  Nat', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term x\n  has type      A\n  but expected  A$1', 0, None),
    (False, 'TypeCheckError', 'type mismatch: term x\n  has type      A\n  but expected  A$1', 0, None),
    (False, 'TypeCheckError', 'expected a type but ⟨0, ⟨⟩⟩ as (Σ (x : Nat). 1) has type Σ (x : Nat). 1', 0, None),
    (False, 'TypeCheckError', 'expected a type but 0 has type Nat', 0, None),
]

_CASES = [(name, ctx, term, _PINNED_VERIFY[name], _verify_record) for name, ctx, term in CORPUS]
_CASES += [
    (f"negative-{index}", ctx, term, pinned, _negative_record)
    for index, ((ctx, term), pinned) in enumerate(zip(_NEGATIVE, _PINNED_NEGATIVE, strict=True))
]


@pytest.mark.parametrize("name, ctx, term, pinned, record", _CASES, ids=[case[0] for case in _CASES])
def test_verify_is_pinned(name, ctx, term, pinned, record):
    assert record(ctx, term) == pinned


#: The shared checker's work to verify the compiled ``nested_lambdas(60)``
#: (E2's target), cold: the fuel on every interpreter version, and the
#: calls into ``repro`` functions per version they were measured on.
_VERIFY_WORK_DEPTH = 60
_VERIFY_FUEL = 0
_VERIFY_CALLS = {(3, 11): 8497}


def _cold_verify(count=None):
    """Verify the compiled ``nested_lambdas(60)`` in a cold session: (accepted, fuel)."""
    with api.Session().activate():
        compiled = compile_term(cc.Context.empty(), nested_lambdas(_VERIFY_WORK_DEPTH), verify=False)
        tctx, budget = compiled.target_context, Budget()
        sys.setprofile(count)
        try:
            type_ = cccc.infer(tctx, compiled.target, budget)
            accepted = cccc.equivalent(tctx, type_, compiled.target_type, budget)
        finally:
            sys.setprofile(None)
    return accepted, budget.spent


def test_verify_work_is_pinned():
    """An exact gate on verify's work, where a wall-time ratio is noise.

    It fails on any change in the fuel or, on a pinned interpreter, in the
    number of Python calls into ``repro`` that verify makes, so it catches
    any rise in the checker's work on the target without timing it.  A
    first verify in a throwaway session fills what the process computes
    once (lazy imports, the free variables stored on shared leaf objects),
    so the count does not depend on which tests ran before.
    """
    source = os.path.dirname(api.__file__) + os.sep
    calls = [0]

    def count(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(source) and code.co_name not in INLINED:
            calls[0] += 1

    _cold_verify()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()  # a collection's callbacks would land in the count
    try:
        accepted, fuel = _cold_verify(count)
    finally:
        if enabled:
            gc.enable()
    assert accepted
    assert fuel == _VERIFY_FUEL
    pinned = _VERIFY_CALLS.get(sys.version_info[:2])
    if pinned is not None:
        assert calls[0] == pinned


#: ``compile`` with verify of ``nested_lambdas(n)`` (``λ x0 … x_{n-1}. x0``)
#: reached n = 237 under pytest at the default recursion limit when this
#: test was written; the margin below that lets the suite's own frames
#: vary, while a checker that spends more Python frames per closure level
#: falls under it.  The test calls the pipeline below the deep-stack
#: runner, which would otherwise retry a deeper checker on a deep stack.
_COMPILE_DEPTH = 200


def test_compile_depth_ceiling():
    body = cc.Var("x0")
    for index in range(_COMPILE_DEPTH - 1, -1, -1):
        body = cc.Lam(f"x{index}", cc.Nat(), body)
    with api.Session().activate():
        result = compile_term(cc.Context.empty(), body, verify=True)
    assert result.checked_type is not None


# --------------------------------------------------------------------------
# Nested instantiation frames.
# --------------------------------------------------------------------------
#
# With ``f : Π (X : ⋆). X -> X``, the type value of ``f z`` is
# ``X -> X`` with the entry ``X ↦ z``.  Each enclosing [Let] composes the
# level it leaves into it; that must resolve the entry ``z`` to the
# definition ``Nat``, so the domain is ``Nat`` and never a variable that
# the value's own substitution binds.


def _poly_context(calculus):
    var = calculus.Var
    return calculus.Context.empty().extend(
        "f", calculus.Pi("X", calculus.Star(), calculus.arrow(var("X"), var("X")))
    )


def _nested_lets(calculus):
    var = calculus.Var
    inner = calculus.Let("z", calculus.Nat(), calculus.Star(), calculus.App(var("f"), var("z")))
    return calculus.Let("w", calculus.Zero(), calculus.Nat(), inner)


@pytest.mark.parametrize("calculus", [cc, cccc], ids=["cc", "cccc"])
def test_nested_frames_resolve_a_variable_entry(calculus):
    spec = calculus.typecheck._SPEC
    with api.Session().activate():
        value = infer_value(spec, _poly_context(calculus), _nested_lets(calculus), Budget())
        node, env = view(spec.nbe, value)
        assert isinstance(node, calculus.Pi)
        assert type(glue(spec.nbe, node.domain, env)) is calculus.Nat


def test_nested_frames_cccc_agrees_with_reference():
    term = cccc.App(_nested_lets(cccc), cccc.Zero())
    assert not isinstance(_assert_checkers_agree(_poly_context(cccc), term), type)


#: (program under ``f : Π (X : ⋆). X -> X``, check fuel, verify fuel),
#: recorded before type values had instantiation frames (the last verify
#: fuel since a code's pattern let binds only what its scope uses).  The
#: last check fuel is 0 since the parser hash-conses: both ``z`` are one
#: node, so conversion decides ``z ≡ z`` by identity, as it always did on
#: the wire.
_NESTED_LET_PROGRAMS = [
    (r"(let w = 0 : Nat in let z = Nat : Type in f z) 0", 0, 0),
    (r"(let w = 0 : Nat in let v = true : Bool in let z = Nat : Type in f z) 0", 0, 0),
    (r"let w = 0 : Nat in let z = Nat : Type in f z 0", 1, 1),
    (r"(let w = 0 : Nat in let z = Nat : Type in \ (y : z). f z y) 0", 0, 4),
]


@pytest.mark.parametrize("text, check_steps, verify_steps", _NESTED_LET_PROGRAMS)
def test_nested_let_frames_check_and_verify(text, check_steps, verify_steps):
    ctx = _poly_context(cc)
    checked = api.Session().check(text, ctx)
    assert cc.pretty(checked.type_) == "Nat"
    assert checked.steps == check_steps
    result = api.Session().compile(text, ctx)
    assert result.verified
    assert (result.check_steps, result.verify_steps) == (check_steps, verify_steps)


@pytest.mark.parametrize("text, check_steps, verify_steps", _NESTED_LET_PROGRAMS)
def test_nested_let_frames_text_and_binary_agree(text, check_steps, verify_steps):
    ctx = _poly_context(cc)
    session = api.Session()
    with session.activate():
        decoded = term_from_b64(cc.ast.LANGUAGE, term_to_b64(cc.ast.LANGUAGE, parse_term(text)))
    from_text = api.Session().compile(text, ctx)
    from_wire = session.compile(decoded, ctx)
    assert (from_text.check_steps, from_text.verify_steps) == (check_steps, verify_steps)
    assert (from_wire.check_steps, from_wire.verify_steps) == (check_steps, verify_steps)


# --------------------------------------------------------------------------
# A closure's environment type is built once and sorted once.
# --------------------------------------------------------------------------


def _closures(target):
    """Every closure of literal code in ``target`` (each DAG node once)."""
    seen, found = set(), []
    for node in subterms(cccc.ast.LANGUAGE, target):
        if id(node) not in seen and type(node) is cccc.Clo and type(node.code) is cccc.CodeLam:
            seen.add(id(node))
            found.append(node)
    return found


def _env_annotations(closure):
    """The annotations of a closure's environment pairs, outermost first."""
    annotations, env = [], closure.env
    while type(env) is cccc.Pair:
        annotations.append(env.annot)
        env = env.snd_val
    return annotations


def _keeps_an_equation(env_type):
    """Does the environment type bind a definition (a ``let`` in its spine)?"""
    while type(env_type) is cccc.Sigma:
        env_type = env_type.second
    return type(env_type) is cccc.Let


_SHARING_PROGRAMS = [("capture_all(8)", cc.Context.empty(), capture_all(8))] + CORPUS


def test_env_annotations_share_the_code_env_type(monkeypatch):
    """Pair k of an environment is annotated with the k-th tail of its code's
    Σ object, and verify's [Pair] never sorts one of those annotations: the
    code's [Code] premise sorts the Σ once."""
    annotations: set[int] = set()
    sorted_in_pair = []
    universe = typing.universe

    def counting_universe(spec, ctx, type_, budget, entry=False):
        # [Code]'s sort of the Σ sorts every tail in [Sig]; only [Pair]'s premise counts.
        if id(type_) in annotations and sys._getframe(1).f_code.co_name == "_pair":
            sorted_in_pair.append(type_)
        return universe(spec, ctx, type_, budget, entry)

    monkeypatch.setattr(typing, "universe", counting_universe)
    shared = 0
    for name, ctx, term in _SHARING_PROGRAMS:
        with api.Session().activate():
            compiled = compile_term(ctx, term, verify=False)
            for closure in _closures(compiled.target):
                found = _env_annotations(closure)
                annotations.update(map(id, found))
                if found and not _keeps_an_equation(closure.code.env_type):
                    assert found[0] is closure.code.env_type, name
                    for outer, inner in zip(found, found[1:]):
                        assert inner is outer.second, name
                    shared += len(found)
            cccc.infer(compiled.target_context, compiled.target)
            annotations.clear()
        assert sorted_in_pair == [], name
    assert shared >= 100
