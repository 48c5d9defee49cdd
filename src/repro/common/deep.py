"""Deep inputs: one runner for every public boundary, and the ingest cap.

:func:`call` runs work on the caller's stack and, after a
``RecursionError``, once more on a 256 MB stack under a recursion limit
that comes from the input's size; :func:`check_size` rejects an input
above :data:`CAP` at ingest.  ARCHITECTURE.md ("Deep inputs") has the
boundaries and the rules.
"""

from __future__ import annotations

import contextvars
import sys
import threading
from typing import Any, Callable

from repro.common.errors import DepthLimit

__all__ = ["CAP", "call", "check_size", "limit"]

#: The largest input size accepted at ingest.
CAP = 1 << 18

_STACK_BYTES = 256 * 1024 * 1024

#: ``deep`` is set on the runner's threads.
_THREAD = threading.local()

#: Held for a whole deep run: the stack size and the recursion limit are
#: process-wide, so deep runs take turns.
_LOCK = threading.Lock()


def limit(size: int) -> int:
    """The recursion limit for an input of ``size``."""
    return 4 * size + 10_000


def check_size(size: int) -> None:
    """Reject an input above :data:`CAP` with a :class:`DepthLimit`."""
    if size > CAP:
        raise DepthLimit(f"input size {size} exceeds the cap of {CAP}")


def call(
    thunk: Callable[[], Any],
    size: Callable[[], int],
    rewind: Callable[[], None] | None = None,
) -> Any:
    """``thunk()``, run once more on the deep stack after a ``RecursionError``.

    ``size`` gives the input's size, and is called only off the caller's
    stack.  ``rewind`` undoes what a failed attempt recorded outside its
    own result, so a retried call reports one run.
    """
    if not getattr(_THREAD, "deep", False):
        try:
            return thunk()
        except RecursionError:
            pass
        if rewind is not None:
            rewind()
    return _on_deep_stack(thunk, limit(size()))


def _on_deep_stack(thunk: Callable[[], Any], needed: int) -> Any:
    """``thunk()`` on the deep stack, under a recursion limit of at least ``needed``.

    A boundary already on the deep stack only raises the limit; the run
    that started the thread restores it.
    """
    if getattr(_THREAD, "deep", False):
        sys.setrecursionlimit(max(sys.getrecursionlimit(), needed))
        return thunk()
    outcome: list = []
    context = contextvars.copy_context()  # the active session follows

    def work() -> None:
        _THREAD.deep = True
        try:
            outcome.append((True, context.run(thunk)))
        except RecursionError:
            reached = sys.getrecursionlimit()
            outcome.append((False, DepthLimit(f"nesting exceeds the recursion limit of {reached}")))
        except BaseException as error:  # noqa: BLE001 - re-raised in the caller
            outcome.append((False, error))

    with _LOCK:
        recursion = sys.getrecursionlimit()
        sys.setrecursionlimit(max(recursion, needed))
        try:
            thread = threading.Thread(target=work, name="repro-deep-stack")
            stack = threading.stack_size(_STACK_BYTES)
            try:
                thread.start()
            finally:
                threading.stack_size(stack)
            thread.join()
        finally:
            sys.setrecursionlimit(recursion)
    ok, value = outcome[0]
    if not ok:
        raise value
    return value
