"""Capture-avoiding substitution and α-equivalence for CC-CC terms.

Identical in spirit to :mod:`repro.cc.substitution`; the only new wrinkle
is the two-binder code forms (``CodeLam``/``CodeType``), whose environment
binder scopes over both the argument annotation and the body/result.  That
telescopic scoping is registered declaratively in :mod:`repro.cccc.ast`,
and the shared kernel engines (:mod:`repro.kernel.substitution`,
:mod:`repro.kernel.alpha`) handle it generically — with free-variable
scans served from the kernel's identity-keyed cache.  The entry points are
the methods of :class:`~repro.kernel.nodespec.Language` that
:mod:`repro.cc.substitution` binds too.
"""

from __future__ import annotations

from repro.cccc.ast import LANGUAGE

__all__ = ["alpha_equal", "rename", "subst", "subst1"]

subst1 = LANGUAGE.subst1
rename = LANGUAGE.rename
subst = LANGUAGE.subst
alpha_equal = LANGUAGE.alpha_equal
