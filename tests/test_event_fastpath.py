"""Differential tests for the event engine's scalar request path.

Each fast path is checked against the code it replaced, kept here
verbatim as the reference:

* :meth:`DiskGeometry.cylinder_of` (``bisect`` over plain lists) against
  the vectorised :meth:`DiskGeometry.cylinder_of_lba`;
* the single-block case of :meth:`BlockService.block_service_times` and
  :meth:`BackgroundLoad.sample_service` against the array paths — same
  values bit for bit, and the generator left in the same state;
* :class:`FairShareQueue` (which counts its queued background requests)
  against the old scanning queue, over random push/pop/cancel sequences.
"""

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.geometry import DiskGeometry, Zone, default_geometry
from repro.disk.mechanics import DiskMechanics
from repro.disk.scheduler import FairShareQueue, RequestQueue
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import InDiskLayout
from repro.sim import Environment

# -- geometry ------------------------------------------------------------------


@st.composite
def geometries(draw):
    heads = draw(st.integers(1, 6))
    shapes = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 300)),
                           min_size=1, max_size=8))
    zones, lo = [], 0
    for cylinders, spt in shapes:
        zones.append(Zone(lo, lo + cylinders - 1, spt))
        lo += cylinders
    return DiskGeometry(zones, heads=heads)


def _edge_lbas(g: DiskGeometry) -> list[int]:
    """0, every zone boundary +-1 and the last sector, all in range."""
    starts = [int(s) for s in g._zone_sector_starts]
    lbas = {0, g.total_sectors - 1}
    for s in starts:
        lbas.update((s - 1, s, s + 1))
    return sorted(lba for lba in lbas if 0 <= lba < g.total_sectors)


def _check_cylinder_of(g: DiskGeometry, extra=()) -> None:
    for lba in [*_edge_lbas(g), *extra]:
        assert g.cylinder_of(lba) == int(g.cylinder_of_lba(lba)), lba
    for bad in (-1, g.total_sectors, g.total_sectors + 7):
        with pytest.raises(ValueError, match="LBA out of range"):
            g.cylinder_of(bad)


@settings(max_examples=60, deadline=None)
@given(geometries(), st.data())
def test_cylinder_of_matches_vectorised(g, data):
    extra = data.draw(st.lists(st.integers(0, g.total_sectors - 1), max_size=20))
    _check_cylinder_of(g, extra)


def test_cylinder_of_default_geometry():
    _check_cylinder_of(default_geometry())


@settings(max_examples=30, deadline=None)
@given(geometries(), st.data())
def test_locate_and_track_crossings_unchanged(g, data):
    lba = data.draw(st.integers(0, g.total_sectors - 1))
    sectors = data.draw(st.integers(0, 400))
    zi = int(g.zone_index_of_lba(lba))
    z = g.zones[zi]
    off = lba - int(g._zone_sector_starts[zi])
    per_cyl = g.heads * z.sectors_per_track
    assert g.locate(lba) == (z.cyl_lo + off // per_cyl,
                             off % per_cyl // z.sectors_per_track,
                             off % per_cyl % z.sectors_per_track)
    expect = ((off + sectors - 1) // z.sectors_per_track
              - off // z.sectors_per_track) if sectors > 0 else 0
    assert g.track_crossings(lba, sectors) == expect


# -- single-block service draws ------------------------------------------------


def _array_block_service_times(svc: BlockService, n_blocks: int, block_bytes: int):
    """The array path of ``block_service_times``, for any ``n_blocks``."""
    mech = svc.mechanics
    sectors, n_req, xfer = svc._block_params(block_bytes)
    n_pos = svc.rng.binomial(n_req, 1.0 - svc.layout.p_sequential, size=n_blocks)
    n_pos[0] += 1
    total = int(n_pos.sum())
    if total:
        draws = mech.sample_local_seek(svc.rng, total)
        draws += mech.sample_rotational_latency(svc.rng, total)
        owner = np.repeat(np.arange(n_blocks), n_pos)
        total_pos = np.bincount(owner, weights=draws, minlength=n_blocks)
    else:
        total_pos = np.zeros(n_blocks, dtype=np.float64)
    total_pos += n_req * mech.spec.controller_overhead_s
    total_pos += xfer
    return total_pos


def _state(rng):
    return rng.bit_generator.state["state"]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p_seq=st.sampled_from([0.0, 0.5, 1.0]),
    bf=st.sampled_from([1, 8, 16, 64, 256, 1024]),
    block_bytes=st.sampled_from([512, 4096, 64 << 10, 1 << 20, (3 << 20) + 1536]),
    spt=st.sampled_from([1200, 870, 620]),
    calls=st.integers(1, 4),
)
def test_single_block_service_matches_array_path(seed, p_seq, bf, block_bytes, spt, calls):
    mech = DiskMechanics()
    layout = InDiskLayout(bf, p_seq)
    fast = BlockService(mech, layout, spt, np.random.default_rng(seed))
    ref = BlockService(mech, layout, spt, np.random.default_rng(seed))
    for _ in range(calls):
        got = fast.block_service_times(1, block_bytes)
        want = _array_block_service_times(ref, 1, block_bytes)
        assert got.dtype == want.dtype and got.shape == want.shape == (1,)
        assert got.tolist() == want.tolist()
        assert _state(fast.rng) == _state(ref.rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spt=st.sampled_from([1200, 870, 620]),
       sectors=st.sampled_from([8, 128, 1024]), calls=st.integers(1, 5))
def test_background_sample_service_matches_array_path(seed, spt, sectors, calls):
    mech = DiskMechanics()
    bg = BackgroundLoad(0.006, sectors)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        got = bg.sample_service(mech, spt, a)
        assert type(got) is float
        assert got == bg.sample_services(1, mech, spt, b)[0]
        assert _state(a) == _state(b)


def test_draw_local_seek_sequence_matches_batch():
    mech = DiskMechanics()
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    got = [mech.draw_local_seek(a) for _ in range(64)]
    assert got == mech.sample_local_seek(b, 64).tolist()
    assert _state(a) == _state(b)


# -- fair-share queue ----------------------------------------------------------


class _OldRequestQueue:
    """``RequestQueue`` as it was before the single-pass cancel."""

    def __init__(self) -> None:
        self._items: list[Any] = []
        self.max_depth = 0
        self.cancelled_total = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, request: Any) -> None:
        self._items.append(request)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def cancel(self, predicate: Callable[[Any], bool]) -> list[Any]:
        hit = [r for r in self._items if predicate(r)]
        self._items = [r for r in self._items if not predicate(r)]
        self.cancelled_total += len(hit)
        return hit


class _OldFairShareQueue(_OldRequestQueue):
    """``FairShareQueue`` as it was before it counted background requests."""

    def __init__(self) -> None:
        super().__init__()
        self._turn_background = False

    def pop(self, head_cylinder: int = 0) -> Any:
        if not self._items:
            raise IndexError("pop from empty queue")
        want_bg = self._turn_background
        for preferred in (want_bg, not want_bg):
            for i, r in enumerate(self._items):
                if bool(getattr(r, "is_background", False)) == preferred:
                    self._turn_background = not preferred
                    return self._items.pop(i)
        raise AssertionError("unreachable")


@dataclass(eq=False)
class _Req:
    key: int
    is_background: bool


class _Duck:
    """A queued item with no ``is_background`` attribute (foreground)."""

    def __init__(self, key: int) -> None:
        self.key = key


_OPS = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(["fg", "bg", "duck"])),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("cancel"), st.integers(1, 5)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_OPS, max_size=80))
def test_fair_queue_matches_old_scanning_queue(ops):
    new, old = FairShareQueue(), _OldFairShareQueue()
    for n, (op, arg) in enumerate(ops):
        if op == "push":
            item = _Duck(n) if arg == "duck" else _Req(n, arg == "bg")
            new.push(item)
            old.push(item)
        elif op == "pop":
            if not old:
                with pytest.raises(IndexError):
                    new.pop()
                continue
            assert new.pop() is old.pop()
        else:
            pred = (lambda r, m=arg: r.key % m == 0)
            got, want = new.cancel(pred), old.cancel(pred)
            assert [id(r) for r in got] == [id(r) for r in want]
        assert new.peek_all() == old._items
        assert new._turn_background == old._turn_background
        assert (len(new), new.max_depth, new.cancelled_total) == (
            len(old), old.max_depth, old.cancelled_total)
    while old:
        assert new.pop() is old.pop()
    assert not new


def test_cancel_evaluates_predicate_once_per_item():
    q = RequestQueue()
    for key in range(10):
        q.push(_Req(key, key % 3 == 0))
    seen = []

    def pred(r):
        seen.append(r.key)
        return r.key % 2 == 1

    hit = q.cancel(pred)
    assert seen == list(range(10))
    assert [r.key for r in hit] == [1, 3, 5, 7, 9]
    assert [r.key for r in q.peek_all()] == [0, 2, 4, 6, 8]
    assert q.cancelled_total == 5


# -- drives without a sector-level stream ----------------------------------------


def test_drive_needs_rng_without_service_time_fn():
    with pytest.raises(ValueError, match="needs an rng"):
        DiskDrive(Environment(), DiskMechanics(), None)


def test_drive_without_rng_never_reaches_sector_path():
    env = Environment()
    drive = DiskDrive(env, DiskMechanics(), None, service_time_fn=lambda r: 0.01)
    req = drive.submit(DiskRequest(lba=4096, sectors=8))
    env.run()
    assert req.done.value == pytest.approx(0.01)
    drive.service_time_fn = None  # the sector path now needs the missing rng
    drive.submit(DiskRequest(lba=4096, sectors=8))
    with pytest.raises(RuntimeError, match="needs an rng"):
        env.run()
