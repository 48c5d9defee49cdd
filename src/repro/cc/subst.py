"""Capture-avoiding substitution and α-equivalence for CC terms.

Substitution is *parallel*: a mapping from names to replacement terms is
applied simultaneously.  Binders whose bound name would capture a free
variable of a replacement (or shadow a mapped name in a way that matters)
are renamed on the fly using the global fresh-name supply.

The actual engine lives in the shared kernel
(:mod:`repro.kernel.substitution`, :mod:`repro.kernel.alpha`), driven by
the node specs registered in :mod:`repro.cc.ast`; free-variable scans come
from the kernel's identity-keyed cache instead of a per-call traversal.
The entry points are methods of :class:`~repro.kernel.nodespec.Language`,
bound here for CC.
"""

from __future__ import annotations

from repro.cc.ast import LANGUAGE

__all__ = ["alpha_equal", "rename", "subst", "subst1"]

subst1 = LANGUAGE.subst1
rename = LANGUAGE.rename
subst = LANGUAGE.subst
alpha_equal = LANGUAGE.alpha_equal
