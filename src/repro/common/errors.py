"""Error hierarchy for the whole reproduction.

Every failure mode a user can hit has a dedicated exception type so that
callers (and tests) can distinguish, e.g., a parse error from a genuine
type-preservation failure.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class ParseError(ReproError):
    """The surface-syntax lexer or parser rejected the input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        location = "" if line is None else f" at {line}:{column}"
        super().__init__(f"parse error{location}: {message}")


class TypeCheckError(ReproError):
    """A kernel (CC or CC-CC) rejected a term.

    Carries an optional trail of ``notes`` describing the rule under which
    checking failed; the kernels append to it as the error propagates so the
    final message reads like a derivation-shaped stack trace.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.notes: list[str] = []

    def with_note(self, note: str) -> "TypeCheckError":
        """Attach context and return self (for ``raise err.with_note(...)``)."""
        self.notes.append(note)
        return self

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if not self.notes:
            return base
        trail = "\n".join(f"  while {note}" for note in self.notes)
        return f"{base}\n{trail}"


class TranslationError(ReproError):
    """A compiler pass (closure conversion, model, baseline) failed."""


class LinkError(ReproError):
    """A closing substitution did not satisfy the component's interface."""


class NormalizationDepthExceeded(ReproError):
    """The normalizer exceeded its fuel.

    Both calculi are strongly normalizing, so in the absence of bugs this can
    only happen for terms whose normal forms are astronomically large; the
    fuel keeps benchmarks and property tests from hanging.
    """


class WireError(ReproError):
    """The binary term codec rejected a request (e.g. an unencodable term)."""


class StoreError(ReproError):
    """The persistent memo store could not be opened or maintained.

    Raised for failures the caller must act on — a missing parent
    directory, a corrupt database header, a read-only filesystem — with
    the store *path* in the message instead of a raw sqlite3 traceback.
    Runtime read/write errors on an already-open store are deliberately
    *not* raised: they are counted, the circuit breaker absorbs them, and
    the session degrades to in-memory memoization.
    """


class WireDecodeError(WireError):
    """A binary term buffer was malformed, truncated, or corrupt.

    The message is a pure function of the buffer (byte offsets and expected
    values, never object addresses), so a rejected buffer produces the same
    deterministic error document on every worker.
    """


class DepthLimit(ReproError):
    """An input above the ingest cap, or work nesting past the deep stack's
    recursion limit (:mod:`repro.common.deep`): a function of the input."""
