"""Observability: per-span cost profiling, job tracing, live telemetry.

This package is the unified observability layer the ROADMAP asks for:

- :mod:`repro.obs.profile` — a per-session :class:`Profile` collector that
  attributes fuel, machine/NbE steps, environment allocations, and cache
  hits to *pipeline phases* and *hoisted code labels*, emitting a
  deterministic speedscope-compatible flamegraph document.
- :mod:`repro.obs.trace` — the wire-job trace schema: structured events
  with monotonic ordering, split into a deterministic ``events`` section
  (byte-identical across same-seed chaos runs) and a wall-clock
  ``timeline`` section.
- :mod:`repro.obs.metrics` — one-line summaries of the endpoint's
  subscribable metrics snapshots.

Nothing in the default pipeline imports this package: the profile hook is
a single slot check (``repro.api._PROFILE``) owned by the API layer, and
trace/metrics construction is inline dict-building gated on per-job and
per-connection flags.  A process that never profiles never pays more than
those ``None`` checks — and never even imports ``repro.obs``.
"""

from repro.obs.metrics import summarize_snapshot
from repro.obs.profile import PHASES, Profile, activate, active
from repro.obs.trace import (
    DETERMINISTIC_EVENTS,
    TIMELINE_EVENTS,
    deterministic_section,
    validate_trace,
)

__all__ = [
    "DETERMINISTIC_EVENTS",
    "PHASES",
    "Profile",
    "TIMELINE_EVENTS",
    "activate",
    "active",
    "deterministic_section",
    "summarize_snapshot",
    "validate_trace",
]
