"""Consistency accounting for fault scenarios.

The nemesis makes dependability claims measurable; this module provides
the server-side half of the consistency/availability metric group:
comparing what clients were *acknowledged* against what the cluster
actually *retains*. The client-side half (stale reads, per-key
unavailability windows) is collected by the workload runner as requests
complete (:class:`~repro.sim.metrics.AvailabilityTracker`).

Definitions (``acked`` maps key -> highest version the writer got an
ack for):

* **lost update** — some version of the key survives on an alive server,
  but the highest surviving version is older than the acked one: an
  acknowledged write vanished while the object did not,
* **lost object** — no alive server holds any version of the key.

Both are computed over a sorted, capped key sample so the cost stays
bounded at paper scale and the result is deterministic.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

__all__ = ["count_write_losses"]


def count_write_losses(
    cluster, acked: Mapping[str, int], sample: Optional[int] = None
) -> Dict[str, float]:
    """``{"lost_updates", "lost_objects", "keys_checked"}`` for ``cluster``.

    ``cluster`` is any :class:`~repro.backends.base.StoreBackend` whose
    ``servers`` expose ``alive`` and a
    :class:`~repro.core.store.VersionedStore` ``store`` (every shipped
    stack does).
    """
    keys = sorted(acked)
    if sample is not None:
        keys = keys[:sample]
    alive = [server for server in cluster.servers if server.alive]
    lost_updates = 0
    lost_objects = 0
    for key in keys:
        newest = 0
        for server in alive:
            versions = server.store.versions(key)
            if versions and versions[-1] > newest:
                newest = versions[-1]
        if newest == 0:
            lost_objects += 1
        elif newest < acked[key]:
            lost_updates += 1
    return {
        "lost_updates": float(lost_updates),
        "lost_objects": float(lost_objects),
        "keys_checked": float(len(keys)),
    }
