"""One-line summaries of the endpoint's metrics snapshots.

:meth:`repro.service.endpoint.Endpoint.metrics_snapshot` builds the
snapshots of the subscribable telemetry stream.  A snapshot is one
NDJSON-able dict: the dispatcher's full
:class:`~repro.service.dispatcher.PoolStats` (including per-slot health
and persistent-store counters), an elastic pool's scaling signals under
``"supervisor"`` (:meth:`repro.service.dispatcher.ScalingRule.signals`:
queue depth, completion rate, memo hit rate, watermarks), and endpoint
telemetry with per-connection fair-share queue depths.  Snapshots are
telemetry, not results: they ride the wire
as ``{"op": "metrics", ...}`` documents, out-of-band of every job result,
so subscribing cannot perturb payload bytes or drain semantics.
"""

from __future__ import annotations

from typing import Any

__all__ = ["summarize_snapshot"]


def summarize_snapshot(snapshot: dict[str, Any]) -> str:
    """A one-line human summary of a snapshot (pool health at a glance)."""
    pool = snapshot.get("pool", {})
    slots = pool.get("slots", {})
    alive = sum(1 for health in slots.values() if health.get("alive"))
    broken = sum(1 for health in slots.values() if health.get("broken"))
    parts = [
        f"workers {pool.get('active', pool.get('workers', 0))}",
        f"alive {alive}/{len(slots)}" if slots else "alive ?",
        f"pending {pool.get('pending', 0)}",
        f"done {pool.get('completed', 0)}",
        f"failed {pool.get('failed', 0)}",
    ]
    if broken:
        parts.append(f"broken {broken}")
    supervisor = snapshot.get("supervisor")
    if supervisor:
        parts.append(f"rate {supervisor.get('completion_rate', 0.0):.1f}/s")
        memo_rate = supervisor.get("memo_hit_rate")
        if memo_rate is not None:
            parts.append(f"memo {memo_rate:.0%}")
    endpoint = snapshot.get("endpoint")
    if endpoint:
        parts.append(f"conns {endpoint.get('connections', 0)}")
    return " | ".join(parts)
