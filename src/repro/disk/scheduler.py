"""Disk request-queue scheduling disciplines with cancellation (§5.3.3).

The dissertation implements request cancellation "by removing the
corresponding requests from the [drive's] queue"; every discipline here
supports :meth:`~RequestQueue.cancel` with a predicate over queued requests.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class RequestQueue:
    """Base class: a mutable queue of pending disk requests."""

    def __init__(self) -> None:
        self._items: list[Any] = []
        #: Deepest the queue has ever been (observability: queue-depth
        #: accounting survives even without a live tracer attached).
        self.max_depth = 0
        #: Total requests removed by :meth:`cancel` over the queue's life.
        self.cancelled_total = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, request: Any) -> None:
        self._items.append(request)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def pop(self, head_cylinder: int = 0) -> Any:
        """Remove and return the next request to serve."""
        raise NotImplementedError

    def cancel(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove and return all queued requests matching ``predicate``."""
        hit: list[Any] = []
        keep: list[Any] = []
        for r in self._items:
            (hit if predicate(r) else keep).append(r)
        self._items = keep
        self.cancelled_total += len(hit)
        return hit

    def peek_all(self) -> list[Any]:
        return list(self._items)


class FCFSQueue(RequestQueue):
    """First-come first-served (arrival order)."""

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        return self._items.pop(0)


class SSTFQueue(RequestQueue):
    """Shortest-seek-time-first: serve the request nearest the head."""

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        best = min(
            range(len(self._items)),
            key=lambda i: abs(self._items[i].cylinder - head_cylinder),
        )
        return self._items.pop(best)


class ElevatorQueue(RequestQueue):
    """SCAN/elevator: sweep up, then down, serving requests along the way."""

    def __init__(self) -> None:
        super().__init__()
        self.direction = 1  # +1 sweeping toward higher cylinders

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        ahead: Optional[int] = None
        best_dist = None
        for i, r in enumerate(self._items):
            delta = (r.cylinder - head_cylinder) * self.direction
            if delta >= 0 and (best_dist is None or delta < best_dist):
                ahead, best_dist = i, delta
        if ahead is None:
            self.direction = -self.direction
            return self.pop(head_cylinder)
        return self._items.pop(ahead)


class FairShareQueue(RequestQueue):
    """Round-robin between foreground and background request classes.

    A client that queues a large burst of foreground block requests must
    not starve the competitive background stream (nor vice versa): the
    drive alternates service between the two classes whenever both have
    pending work, matching the interleaving the dissertation's experiments
    assume (§6.2.2, §6.3.2).

    Items without an ``is_background`` attribute are foreground, and an
    item must not change class while queued: the queue counts its
    background requests as they come and go, so when only one class is
    queued a pop serves the head without scanning for the other.
    """

    def __init__(self) -> None:
        super().__init__()
        self._turn_background = False
        self._n_background = 0

    def push(self, request: Any) -> None:
        # RequestQueue.push inlined: this is once per submitted request.
        items = self._items
        items.append(request)
        if len(items) > self.max_depth:
            self.max_depth = len(items)
        if getattr(request, "is_background", False):
            self._n_background += 1

    def pop(self, head_cylinder: int = 0) -> Any:
        items = self._items
        if not items:
            raise IndexError("pop from empty queue")
        n_bg = self._n_background
        if n_bg == 0 or n_bg == len(items):
            # One class queued: its head is next whichever turn it is.
            served_bg = n_bg > 0
            request = items.pop(0)
        else:
            served_bg = self._turn_background
            request = items.pop(
                next(i for i, r in enumerate(items) if _is_background(r) == served_bg)
            )
        self._n_background -= served_bg
        self._turn_background = not served_bg
        return request

    def cancel(self, predicate: Callable[[Any], bool]) -> list[Any]:
        hit = super().cancel(predicate)
        self._n_background -= sum(map(_is_background, hit))
        return hit


def _is_background(request: Any) -> bool:
    return bool(getattr(request, "is_background", False))


SCHEDULERS: dict[str, type[RequestQueue]] = {
    "fcfs": FCFSQueue,
    "sstf": SSTFQueue,
    "elevator": ElevatorQueue,
    "fair": FairShareQueue,
}


def make_queue(name: str) -> RequestQueue:
    """Instantiate a scheduling discipline by name."""
    try:
        return SCHEDULERS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
