"""RRAID-A: rotated replication + adaptive multi-round access (§6.2.1).

Reads start by requesting each block's first replica from its home disk.
Whenever a disk drains its queue, the client (one one-way latency later)
finds the disk with the most unserved blocks that the idle disk also holds
replicas of, cancels the second half of that victim's remaining work, and
re-requests it from the idle disk.  Every hand-off costs a round trip —
the scheme's sensitivity to network latency (Fig 6-12) — but almost no
block is ever fetched twice, so I/O overhead stays near zero (Fig 6-8).

Writes are uniform, identical to RRAID-S.

Composition: rotated-replica placement x adaptive dispatch x coverage
completion x emergent failover; the multi-round engine itself lives in
:class:`repro.core.policy.dispatch.AdaptiveDispatch`.
"""

from __future__ import annotations

from repro.core.pipeline import PolicyScheme
from repro.core.policy.compose import composition
from repro.core.rraid_s import RRaidSScheme


class RRaidAScheme(RRaidSScheme):
    """Replicated striping with adaptive (multi-RTT) reads.

    Placement and (uniform) writes are shared with RRAID-S; only the
    dispatch layer differs.
    """

    name = "rraid-a"
    spec = composition("rraid-a")
