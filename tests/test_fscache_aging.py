"""Differential test of filer-cache aging.

:meth:`repro.cluster.filer.Filer.age_cache` counts the competing filler
lines per cache set and applies each set's update at once
(:meth:`repro.cluster.fscache.SetAssociativeCache.insert_fillers`).
``reference_age_cache`` below is the per-line form it replaces: one
:meth:`insert_line` per filler key.  Interleaved with real traffic, both
must leave every real key equally resident, count the same hits and
misses, and keep the same per-set occupancy and LRU order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.filer import Filer
from repro.cluster.fscache import FILLER, SetAssociativeCache
from repro.net.link import Link

LINE = 64


def reference_age_cache(filer: Filer, nbytes: int) -> None:
    """Push ``nbytes`` of filler lines through the cache one at a time."""
    if filer.cache is None or nbytes <= 0:
        return
    for _ in range(nbytes // filer.cache.line_bytes):
        filer._age_counter += 1
        filer.cache.insert_line(("__aging__", filer._age_counter))


def _filer(ways: int, n_sets: int) -> Filer:
    cache = SetAssociativeCache(ways * n_sets * LINE, line_bytes=LINE, ways=ways)
    return Filer(0, list(range(8)), Link(rtt_s=0.001), cache)


def _view(cache: SetAssociativeCache) -> list:
    """Each set's LRU order with every filler line shown as ``None``."""
    return [[None if t is FILLER or t[0] == "__aging__" else t for t in s] for s in cache._sets]


@st.composite
def _scenario(draw):
    ways = draw(st.integers(min_value=1, max_value=8))
    n_sets = draw(st.sampled_from([1, 2, 3, 7, 16]))
    capacity = ways * n_sets
    key = st.tuples(st.sampled_from(["a", "b"]), st.integers(min_value=0, max_value=40))
    traffic = st.lists(st.tuples(st.sampled_from(["read", "write"]), key), max_size=30)
    volume = st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=max(1, ways - 1)),  # under one set
        st.integers(min_value=1, max_value=capacity),
        st.integers(min_value=capacity + 1, max_value=3 * capacity),  # flushes all
    )
    # Byte volumes, not always whole lines: the remainder is dropped.
    nbytes = st.builds(lambda lines, extra: lines * LINE + extra, volume,
                       st.integers(min_value=0, max_value=LINE - 1))
    steps = draw(st.lists(st.tuples(traffic, nbytes), min_size=1, max_size=6))
    return ways, n_sets, steps, draw(traffic)


@settings(max_examples=150, deadline=None)
@given(_scenario())
def test_batched_aging_matches_per_line(scenario):
    ways, n_sets, steps, tail = scenario
    new, ref = _filer(ways, n_sets), _filer(ways, n_sets)
    keys = set()

    def run_traffic(ops):
        for op, (name, block) in ops:
            keys.add((name, block))
            for filer in (new, ref):
                if op == "read":
                    filer.record_read(name, [block], LINE)
                else:
                    filer.record_write(name, [block], LINE)

    for traffic, nbytes in steps:
        run_traffic(traffic)
        new.age_cache(nbytes)
        reference_age_cache(ref, nbytes)
        assert new._age_counter == ref._age_counter
        assert _view(new.cache) == _view(ref.cache)
    run_traffic(tail)

    assert (new.cache.hits, new.cache.misses) == (ref.cache.hits, ref.cache.misses)
    assert new.disk_bytes_read == ref.disk_bytes_read
    for k in keys:
        assert new.cache.contains_line(k) == ref.cache.contains_line(k)
    assert _view(new.cache) == _view(ref.cache)
    for s in new.cache._sets:
        assert len(s) <= ways


def test_counter_advances_by_whole_lines():
    filer = _filer(4, 4)
    filer.age_cache(10 * LINE + 5)
    filer.age_cache(LINE - 1)
    filer.age_cache(0)
    assert filer._age_counter == 10


def test_large_volume_flushes_every_set():
    filer = _filer(2, 3)
    filer.record_write("f", range(6), LINE)
    filer.age_cache(100 * 6 * LINE)
    assert not any(filer.cache.contains_line(("f", b)) for b in range(6))
    assert all(len(s) == 2 for s in filer.cache._sets)


def test_disabled_cache_is_a_no_op():
    filer = Filer(0, [0], Link(rtt_s=0.001), None)
    filer.age_cache(1 << 20)
    assert filer._age_counter == 0
