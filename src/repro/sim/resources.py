"""The kernel's one shared-resource primitive: an unbounded FIFO store.

The event engine (:mod:`repro.accesscore.events`) gives each access an
inbox :class:`Store`; per-disk processes ``put`` block arrivals into it
and the access process ``yield``\\ s ``get()`` events to consume them in
arrival order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


class StoreGet(Event):
    __slots__ = ()


class Store:
    """An unbounded FIFO buffer of Python objects.

    ``put`` never blocks, so it returns nothing and schedules nothing of
    its own: the item goes straight to the oldest waiting getter (whose
    event is scheduled to fire with it) or joins the buffer.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Deposit ``item``, handing it to the oldest waiting getter if any."""
        # A getter only waits while the buffer is empty, so a waiting
        # getter is owed exactly this item.
        if self._getters:
            self._getters.pop(0).succeed(item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Take the oldest item; the event fires with the item as value."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev
