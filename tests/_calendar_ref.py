"""Reference event calendar: the seed kernel's raw-heapq implementation.

This module preserves, verbatim in structure, the pending-event store the
simulator shipped with before :class:`repro.sim.calendar.EventCalendar`
replaced it: a ``heapq`` of ``(time, priority, eid, event)`` 4-tuples with
an :func:`itertools.count` event id.  It exists solely as the *oracle*
for the differential suite in ``tests/test_sim_calendar.py`` — hypothesis
drives identical schedule/cancel/pop interleavings through both
implementations and asserts the pop sequences match element-for-element.

Cancellation (which the seed heap had no operation for) is modelled the
only way a raw heap can: a set of cancelled eids checked on pop.  That is
the semantics ``EventCalendar`` must reproduce with its in-place
tombstones.

It is intentionally the slow, obviously-correct implementation, and it
lives with the tests because nothing in the simulator uses it.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable

__all__ = ["ReferenceCalendar"]


class ReferenceCalendar:
    """Seed-faithful pending-event store with the ``EventCalendar`` API.

    The heap entries and tie-breaking are exactly the seed kernel's:
    4-tuples ordered by ``(time, priority, eid)`` where ``eid`` is a
    monotonically increasing insertion counter.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, Any]] = []
        self._eid = count()
        self._cancelled: set[int] = set()

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue) - len(self._cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0

    def peek_time(self) -> float:
        queue = self._queue
        while queue and queue[0][2] in self._cancelled:
            self._cancelled.discard(heappop(queue)[2])
        return queue[0][0] if queue else math.inf

    # -- scheduling -----------------------------------------------------
    def push(self, time: float, priority: int, event: Any) -> tuple:
        entry = (time, priority, next(self._eid), event)
        heappush(self._queue, entry)
        return entry

    def push_batch(self, items: Iterable[tuple[float, int, Any]]) -> list[tuple]:
        return [self.push(time, priority, event) for time, priority, event in items]

    # -- consumption ----------------------------------------------------
    def pop(self) -> tuple[float, int, int, Any]:
        queue = self._queue
        while queue:
            entry = heappop(queue)
            if entry[2] in self._cancelled:
                self._cancelled.discard(entry[2])
                continue
            return entry
        raise IndexError("pop from an empty calendar")

    # -- cancellation ---------------------------------------------------
    def cancel(self, handle: tuple) -> bool:
        # O(n) scan — this is the slow oracle, not a production path.
        eid = handle[2]
        if eid in self._cancelled:
            return False
        for entry in self._queue:
            if entry[2] == eid:
                self._cancelled.add(eid)
                return True
        return False
