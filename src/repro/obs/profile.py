"""The per-session profiling collector and its flamegraph emitter.

A :class:`Profile` attributes cost to *source spans* at two granularities:

- **Pipeline phases** (``parse``, ``typecheck``, ``closconv``, ``verify``,
  ``hoist``, ``normalize``, ``execute``, ``link``): each entrypoint of
  :class:`repro.api.Session` records one phase per budget it spends, so
  the phase weights are the *same numbers* the result objects already
  carry (``check_steps``, ``verify_steps``, ``steps``, ``machine_steps``)
  and reconcile with them exactly — that equality is the acceptance gate.
- **Hoisted code labels**: when a profile is active, the machine counts
  β-entries per code label at its one β-entry, ``_enter``, and the
  compiled backend stages a freshly *instrumented* program whose block
  closures are wrapped with the same per-label counter.  The compiled
  backend's ``app_known`` fast path captures blocks at stage time, so
  wrapping a cached program's table after the fact would miss it — the
  profiled path therefore always stages fresh and never touches the
  artifact caches (in-memory or persistent).

Every weight is a deterministic counter (fuel, machine steps, term
nodes), never wall time, so two profiles of the same program are
byte-identical.  The emitted document is speedscope's ``evented`` format
(https://www.speedscope.app/file-format-schema.json) plus a ``totals``
extension key used by the reconciliation tests.

Activation follows :mod:`repro.service.faults`: one module-level slot,
``None`` outside profiling, checked (not imported) by the API layer::

    from repro import api, obs
    with obs.activate() as profile:
        api.default_session().run("(\\ (x : Nat). succ x) 41")
    document = profile.to_speedscope()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro import api as _api

__all__ = ["PHASES", "Profile", "activate", "active"]

#: The pipeline phases in their canonical (pipeline) order.
PHASES = (
    "parse",
    "typecheck",
    "closconv",
    "verify",
    "hoist",
    "normalize",
    "execute",
    "link",
)

#: Counter keys that aggregate by maximum, not by sum (high-water marks).
_MAX_KEYS = frozenset({"max_env_size", "max_frame_size"})

_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


class Profile:
    """One profiling run: an ordered list of phase records plus label counts.

    Phase records are appended in execution order; ``totals()`` aggregates
    them per phase.  All fields are deterministic — no timestamps.
    """

    def __init__(self, subject: str = "") -> None:
        self.subject = subject
        self.phases: list[dict[str, Any]] = []
        self.labels: dict[str, int] = {}

    # -- recording (called by the API layer through the hook slot) ----------

    def phase(
        self,
        name: str,
        weight: int = 0,
        counters: dict[str, int] | None = None,
        labels: dict[str, int] | None = None,
    ) -> None:
        """Record one phase: ``weight`` cost units plus named counters.

        ``labels`` (execute phases only) maps hoisted code labels to
        β-entry counts; they become child frames of the phase in the
        flamegraph and accumulate into :attr:`labels`.
        """
        record: dict[str, Any] = {
            "phase": name,
            "weight": int(weight),
            "counters": {k: int(v) for k, v in (counters or {}).items()},
        }
        if labels:
            record["labels"] = {k: int(v) for k, v in labels.items()}
            for label, count in labels.items():
                self.labels[label] = self.labels.get(label, 0) + int(count)
        self.phases.append(record)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, Any]:
        """Per-phase aggregate: summed weights and counters, merged labels.

        The reconciliation contract: ``totals()["typecheck"]["weight"]``
        equals the summed ``check_steps`` of the profiled entrypoints,
        ``execute`` equals the summed ``machine_steps``, and the label
        counts sum to the run's ``code_lookups`` — identical between the
        machine and compiled backends.
        """
        phases: dict[str, dict[str, Any]] = {}
        for record in self.phases:
            total = phases.setdefault(record["phase"], {"weight": 0, "counters": {}})
            total["weight"] += record["weight"]
            counters = total["counters"]
            for key, value in record["counters"].items():
                if key in _MAX_KEYS:
                    counters[key] = max(counters.get(key, 0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
        document: dict[str, Any] = {"phases": phases}
        if self.labels:
            document["labels"] = dict(sorted(self.labels.items()))
        return document

    # -- emission ------------------------------------------------------------

    def to_speedscope(self, name: str | None = None) -> dict[str, Any]:
        """Render the profile as a speedscope ``evented`` document.

        Frames are pipeline phases, with per-label child frames inside
        execute phases; event positions are running totals of the
        deterministic weights (``unit: "none"`` — cost units, not time).
        """
        frames: list[dict[str, str]] = []
        index: dict[str, int] = {}

        def frame(frame_name: str) -> int:
            slot = index.get(frame_name)
            if slot is None:
                slot = index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            return slot

        events: list[dict[str, int | str]] = []
        at = 0
        for record in self.phases:
            phase_frame = frame(record["phase"])
            events.append({"type": "O", "frame": phase_frame, "at": at})
            cursor = at
            for label in sorted(record.get("labels", ())):
                count = record["labels"][label]
                label_frame = frame(f"{record['phase']}:{label}")
                events.append({"type": "O", "frame": label_frame, "at": cursor})
                cursor += count
                events.append({"type": "C", "frame": label_frame, "at": cursor})
            at += record["weight"]
            events.append({"type": "C", "frame": phase_frame, "at": at})
        title = name if name is not None else (self.subject or "repro profile")
        return {
            "$schema": _SCHEMA,
            "exporter": "repro-obs",
            "name": title,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "evented",
                    "name": title,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": at,
                    "events": events,
                }
            ],
            "totals": self.totals(),
        }


def active() -> Profile | None:
    """The in-effect profile, or None — the same object the API layer sees."""
    return _api._PROFILE[0]


@contextmanager
def activate(profile: Profile | None = None) -> Iterator[Profile]:
    """Install ``profile`` (a fresh one by default) for the dynamic extent.

    The slot lives on :mod:`repro.api` so the default pipeline checks it
    without importing this package; activations nest, restoring the
    previous profile on exit.
    """
    installed = profile if profile is not None else Profile()
    slot = _api._PROFILE
    previous = slot[0]
    slot[0] = installed
    try:
        yield installed
    finally:
        slot[0] = previous
