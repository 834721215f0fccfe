"""Layout planning: mapping blocks onto disks (Fig 6-1).

* ``striped`` — RAID-0: block ``i`` on disk ``i mod H``, in-disk order by i.
* ``rotated_replicas`` — RRAID-S / RRAID-A: replica ``r`` of block ``i`` on
  disk ``(i + r) mod H``, stored grouped by replica then block.
* ``coded_balanced`` — RobuSTore balanced write: N coded blocks dealt
  round-robin across the disks.
* ``unbalanced`` — the per-disk counts a speculative write produced.

Placements are lists (one per disk, aligned with the access's disk list) of
block ids in the disk's stored order — the order a speculative read streams
them back in.
"""

from __future__ import annotations

import numpy as np

Placement = list[list[int]]


def striped(n_blocks: int, n_disks: int) -> Placement:
    """RAID-0 striping of ``n_blocks`` plain-text blocks."""
    if n_disks < 1:
        raise ValueError("need at least one disk")
    placement: Placement = [[] for _ in range(n_disks)]
    for i in range(n_blocks):
        placement[i % n_disks].append(i)
    return placement


def rotated_replicas(k: int, replicas: int, n_disks: int) -> Placement:
    """Replica ``r`` of block ``i`` on disk ``(i + r) mod H`` (§6.2.1).

    Coded-block ids: replica ``r`` of block ``i`` is id ``r * k + i``,
    so the original block an id carries is ``id % k``.
    """
    if n_disks < 1 or replicas < 1:
        raise ValueError("need at least one disk and one replica")
    placement: Placement = [[] for _ in range(n_disks)]
    for r in range(replicas):
        for i in range(k):
            placement[(i + r) % n_disks].append(r * k + i)
    return placement


def rotated_replicas_fractional(
    k: int, redundancy: float, n_disks: int
) -> Placement:
    """Rotated replication at *arbitrary* redundancy (§6.2.1).

    RRAID-S "allows arbitrary redundancy": D full replica rounds plus a
    partial round covering the first ``frac * k`` blocks, each round
    rotated one disk further.  ``redundancy`` is D = copies - 1, so 0.0
    means a single copy and 2.5 means three full copies plus half a round.
    """
    if redundancy < 0:
        raise ValueError("redundancy must be >= 0")
    full = int(redundancy) + 1
    partial_blocks = int(round((redundancy - int(redundancy)) * k))
    placement = rotated_replicas(k, full, n_disks)
    for i in range(partial_blocks):
        placement[(i + full) % n_disks].append(full * k + i)
    return placement


def coded_balanced(n_coded: int, n_disks: int) -> Placement:
    """Deal N erasure-coded blocks round-robin across the disks."""
    if n_disks < 1:
        raise ValueError("need at least one disk")
    placement: Placement = [[] for _ in range(n_disks)]
    for j in range(n_coded):
        placement[j % n_disks].append(j)
    return placement


def unbalanced(counts: list[int], n_coded: int | None = None) -> Placement:
    """Assign coded-block ids to disks given per-disk written counts.

    Used to replay a speculative write's (unbalanced) outcome for a later
    read: ids are dealt round-robin over disks that still have room, so
    each disk holds distinct ids and ids are globally unique.
    """
    total = sum(counts)
    if n_coded is not None and n_coded != total:
        raise ValueError(f"counts sum to {total}, expected {n_coded}")
    placement: Placement = [[] for _ in counts]
    remaining = list(counts)
    next_id = 0
    while any(remaining):
        for d, room in enumerate(remaining):
            if room > 0:
                placement[d].append(next_id)
                next_id += 1
                remaining[d] -= 1
    return placement


def placement_counts(placement: Placement) -> np.ndarray:
    """Blocks per disk."""
    return np.array([len(p) for p in placement], dtype=np.int64)


def imbalance(placement: Placement) -> float:
    """max/mean per-disk block count (1.0 = perfectly balanced)."""
    counts = placement_counts(placement)
    mean = counts.mean()
    return float(counts.max() / mean) if mean > 0 else 1.0
