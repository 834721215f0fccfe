"""Tests for the unbounded FIFO store."""

import math

from repro.sim import Environment, Store


def test_store_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_len():
    env = Environment()
    store = Store(env)
    assert len(store) == 0
    store.put(1)
    assert len(store) == 1


def test_put_schedules_nothing_of_its_own():
    """A put costs no kernel step: only a waiting getter's event is queued."""
    env = Environment()
    store = Store(env)
    assert store.put("a") is None
    assert env.peek() == math.inf  # buffered; nothing on the calendar
    assert store.items == ["a"]

    waiting = Store(env)
    getter = waiting.get()
    assert env.peek() == math.inf  # the getter waits, unscheduled
    waiting.put("b")
    assert env.peek() < math.inf  # the getter's event, due now
    env.step()  # the getter's event fires with the item...
    assert getter.processed and getter.value == "b"
    assert env.peek() == math.inf  # ...and it was the only event queued
    assert waiting.items == []


def test_getters_are_served_in_arrival_order():
    env = Environment()
    store = Store(env)
    first, second = store.get(), store.get()
    store.put("x")
    store.put("y")
    store.put("z")
    env.run()
    assert (first.value, second.value) == ("x", "y")
    assert store.items == ["z"]
