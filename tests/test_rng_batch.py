"""Batched-RNG equivalence: batch draws consume streams like scalar draws.

The hot-path vectorisation (``disk/mechanics.py``, ``disk/service.py``,
``cluster/server.py``) replaced per-request scalar draws with batched
ones.  That is only bit-identity-preserving because of a set of exact
PCG64 stream equivalences, each pinned here as *values and generator
state, element-for-element* — if a numpy upgrade ever changes one of
them, this file fails before any golden does, and names the primitive.

Also pins the SIM011 stream registry entries the refactor added, the
block stream derivation behind ``RngHub.prime`` against numpy's own
``SeedSequence``, the draw-free sequential service path against the array
path it bypasses, and on-demand disk states against eagerly built ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.server import Cluster, DiskState
from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService
from repro.disk.workload import BLOCKING_FACTORS, InDiskLayout, layout_at
from repro.sim.rng import (
    STREAMS,
    RngHub,
    _block_seeds,
    _int_words,
    _part_word,
    _SeedWords,
)


def _state(rng: np.random.Generator):
    return rng.bit_generator.state["state"]["state"]


def _pair(seed: int = 0):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_lockstep(a: np.random.Generator, b: np.random.Generator):
    """Same stream position now, and still producing the same draws."""
    assert _state(a) == _state(b)
    assert a.random() == b.random()


class TestPrimitiveEquivalences:
    """The numpy-level identities every batched call site rests on."""

    def test_scalar_random_equals_size_one(self):
        a, b = _pair(3)
        assert a.random() == b.random(1)[0]
        _assert_lockstep(a, b)

    def test_scalar_integers_equals_size_one(self):
        a, b = _pair(3)
        assert a.integers(1, 2001) == b.integers(1, 2001, size=1)[0]
        _assert_lockstep(a, b)

    def test_batch_random_equals_scalar_sequence(self):
        a, b = _pair(5)
        assert a.random(64).tolist() == [b.random() for _ in range(64)]
        _assert_lockstep(a, b)

    def test_batch_integers_equals_scalar_sequence(self):
        a, b = _pair(4)
        got = a.integers(1, 2001, size=64)
        ref = [int(b.integers(1, 2001)) for _ in range(64)]
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    def test_scalar_binomial_equals_size_one(self):
        # The single-block service path draws its binomial as a scalar.
        a, b = _pair(3)
        for n_req in (1, 16, 256):
            assert a.binomial(n_req, 0.5) == b.binomial(n_req, 0.5, size=1)[0]
        _assert_lockstep(a, b)

    def test_batch_binomial_equals_scalar_sequence(self):
        a, b = _pair(8)
        got = a.binomial(16, 0.3, size=32)
        ref = [int(b.binomial(16, 0.3)) for _ in range(32)]
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    def test_choice_equals_indexed_integers(self):
        # draw_layout replaced rng.choice(options) with options[integers].
        arr = np.arange(20, 60)
        a, b = _pair(6)
        for _ in range(16):
            assert a.choice(arr) == arr[b.integers(0, arr.size)]
        _assert_lockstep(a, b)

    def test_binomial_with_p_zero_draws_nothing(self):
        # The sequential service path skips binomial(n, 0.0) outright.
        a, b = _pair(9)
        for n_req in (1, 16, 256):
            assert not a.binomial(n_req, 0.0, size=24).any()
            assert a.binomial(n_req, 0.0) == 0
        _assert_lockstep(a, b)

    def test_tiled_bounds_equal_interleaved_scalars(self):
        # redraw_disk_states draws each disk's (bf, seq, zone) row in one
        # broadcast call: integers(0, tile(pattern, n)) must reject
        # per-element in order, i.e. exactly like the scalar interleave.
        pattern = np.array([8, 2, 5])
        a, b = _pair(7)
        rows = a.integers(0, np.tile(pattern, 16)).reshape(16, 3)
        ref = np.array([[int(b.integers(0, p)) for p in pattern] for _ in range(16)])
        assert np.array_equal(rows, ref)
        _assert_lockstep(a, b)


class TestMechanicsSampling:
    """The drive samplers: batch and n==1 scalar fast path vs reference."""

    def _ref_seek(self, rng, n, spec):
        import math

        out = []
        for _ in range(n):
            d = float(rng.integers(1, spec.locality_span_cylinders + 1))
            out.append(
                spec.seek_base_s + spec.seek_sqrt_s * math.sqrt(d) + spec.seek_linear_s * d
            )
        return out

    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_sample_local_seek(self, n):
        mech = DiskMechanics()
        a, b = _pair(10 + n)
        got = mech.sample_local_seek(a, n)
        assert got.tolist() == self._ref_seek(b, n, mech.spec)
        _assert_lockstep(a, b)

    @pytest.mark.parametrize("n", [1, 2, 17, 256])
    def test_sample_rotational_latency(self, n):
        mech = DiskMechanics()
        a, b = _pair(20 + n)
        got = mech.sample_rotational_latency(a, n)
        ref = [rng_val * mech.spec.rotation_period_s for rng_val in (b.random() for _ in range(n))]
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    def test_seek_values_match_seek_time_curve(self):
        # The inlined expression must equal the public curve (d >= 1).
        mech = DiskMechanics()
        d = np.arange(1, 50, dtype=np.float64)
        curve = mech.seek_time(d)
        a = np.random.default_rng(0)
        draws = mech.sample_local_seek(a, 2000)
        assert draws.min() >= curve.min()


class TestBlockServiceStream:
    """block_service_times: one named stream, consumed like scalar draws."""

    def _reference(self, rng, n_blocks, layout, mech, spt, block_bytes):
        """Transparent re-derivation with the same macro draw order:
        per-block binomials, then all seeks, then all rotations."""
        from repro.disk.geometry import SECTOR_BYTES

        sectors = max(1, block_bytes // SECTOR_BYTES)
        n_req = -(-sectors // layout.blocking_factor)
        n_pos = [int(rng.binomial(n_req, 1.0 - layout.p_sequential)) for _ in range(n_blocks)]
        n_pos[0] += 1
        total = sum(n_pos)
        seeks = [float(mech.sample_local_seek(rng, 1)[0]) for _ in range(total)]
        rots = [float(mech.sample_rotational_latency(rng, 1)[0]) for _ in range(total)]
        xfer = float(mech.transfer_time(sectors, spt))
        out, pos = [], 0
        for blk in range(n_blocks):
            acc = 0.0
            for _ in range(n_pos[blk]):
                acc += seeks[pos] + rots[pos]
                pos += 1
            out.append(acc + n_req * mech.spec.controller_overhead_s + xfer)
        return out

    @pytest.mark.parametrize("p_seq", [0.0, 0.5, 1.0])
    def test_matches_scalar_reference(self, p_seq):
        mech = DiskMechanics()
        layout = InDiskLayout(64, p_seq)
        a, b = _pair(31)
        svc = BlockService(mech, layout, spt=870, rng=a)
        got = svc.block_service_times(24, 1 << 20)
        ref = self._reference(b, 24, layout, mech, 870, 1 << 20)
        assert got.tolist() == ref
        _assert_lockstep(a, b)

    @staticmethod
    def _array_path(svc, n_blocks, block_bytes):
        """The binomial / repeat / bincount path for any ``p_seq``."""
        mech, rng = svc.mechanics, svc.rng
        _, n_req, xfer = svc._block_params(block_bytes)
        n_pos = rng.binomial(n_req, 1.0 - svc.layout.p_sequential, size=n_blocks)
        n_pos[0] += 1
        total = int(n_pos.sum())
        draws = mech.sample_local_seek(rng, total)
        draws += mech.sample_rotational_latency(rng, total)
        owner = np.repeat(np.arange(n_blocks), n_pos)
        out = np.bincount(owner, weights=draws, minlength=n_blocks)
        out += n_req * mech.spec.controller_overhead_s
        out += xfer
        return out

    @pytest.mark.parametrize("bf", BLOCKING_FACTORS)
    @pytest.mark.parametrize("n_blocks", [1, 2, 7, 64])
    def test_sequential_path_equals_array_path(self, bf, n_blocks):
        mech = DiskMechanics()
        layout = InDiskLayout(bf, 1.0)
        a, b = _pair(40 + n_blocks)
        got = BlockService(mech, layout, 870, a).block_service_times(n_blocks, 1 << 20)
        ref = self._array_path(BlockService(mech, layout, 870, b), n_blocks, 1 << 20)
        assert np.array_equal(got, ref)
        _assert_lockstep(a, b)

    def test_bit_identical_per_seed(self):
        mech = DiskMechanics()
        for seed in range(3):
            runs = [
                BlockService(
                    mech, InDiskLayout(256, 0.5), 870, np.random.default_rng(seed)
                ).block_service_times(16, 1 << 20)
                for _ in range(2)
            ]
            assert np.array_equal(runs[0], runs[1])


class TestStreamRegistry:
    """SIM011 stream-discipline entries for the refactor's streams."""

    def test_bgphase_registered(self):
        # (name, scheme, trial, phase, disk_id) — arity 5, core.base.
        assert STREAMS["bgphase"] == 5

    def test_registry_shape(self):
        for name, arity in STREAMS.items():
            assert isinstance(name, str) and name
            if isinstance(arity, tuple):
                assert all(isinstance(a, int) and a >= 1 for a in arity)
            else:
                assert isinstance(arity, int) and arity >= 1

    def test_bgphase_stream_is_stable_and_distinct(self):
        draws = {
            RngHub(7).fresh("bgphase", "raid0", 0, "read", d).random() for d in range(8)
        }
        assert len(draws) == 8  # per-disk streams are distinct
        again = RngHub(7).fresh("bgphase", "raid0", 0, "read", 3).random()
        assert again == RngHub(7).fresh("bgphase", "raid0", 0, "read", 3).random()
        # and independent of the service stream with the same key tail
        svc = RngHub(7).fresh("svc", "raid0", 0, "read", 3).random()
        assert again != svc


_PART = st.one_of(
    st.integers(0, 2**40),
    st.integers(0, 2**31).map(np.int64),
    st.text(min_size=1, max_size=8),
)


class TestBlockDerivation:
    """RngHub.prime's vectorised SeedSequence against numpy's own."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**80),
        parts=st.lists(_PART, max_size=5),
        tail=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9),
    )
    def test_block_seeds_equal_seed_sequence(self, seed, parts, tail):
        # Key arities 1-6: up to five shared parts, then the trailing one.
        prefix = _int_words(seed) + [_part_word(p) for p in parts]
        rows = _block_seeds(prefix, np.array(tail, dtype=np.uint32))
        for t, row in zip(tail, rows):
            seq = np.random.SeedSequence(prefix + [t])
            assert np.array_equal(row, seq.generate_state(4, np.uint64))
            assert (
                np.random.PCG64(_SeedWords(row)).state
                == np.random.PCG64(seq).state
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**70),
        name=st.sampled_from(["svc", "bgphase", "refsvc"]),
        parts=st.lists(_PART, max_size=4),
        tail=st.lists(
            st.one_of(st.integers(0, 2**33), st.integers(0, 2**31).map(np.int64)),
            min_size=1,
            max_size=9,
        ),
    )
    def test_primed_fresh_equals_numpy_derivation(self, seed, name, parts, tail):
        # Key arities 2-6: the name, up to four shared parts, the trailing one.
        hub = RngHub(seed)
        hub.prime(name, *parts, tail)
        for t in [*tail, 2**34 + 1]:  # the last key lies outside the block
            key = (name, *parts, t)
            oracle = np.random.PCG64(
                np.random.SeedSequence([seed, *map(_part_word, key)])
            )
            assert hub.fresh(*key).bit_generator.state == oracle.state
            assert RngHub(seed).fresh(*key).bit_generator.state == oracle.state

    def test_prime_replaces_the_names_block(self):
        hub = RngHub(4)
        hub.prime("svc", "raid0", 0, "read", [1, 2])
        hub.prime("svc", "raid0", 1, "read", [1, 3])
        # Disk 1 is in both blocks: trial 0's key must not take trial 1's seed.
        for trial, d in ((0, 1), (1, 1), (1, 3)):
            assert (
                hub.fresh("svc", "raid0", trial, "read", d).bit_generator.state
                == RngHub(4).fresh("svc", "raid0", trial, "read", d).bit_generator.state
            )

    def test_prime_needs_a_name_and_a_block(self):
        with pytest.raises(ValueError):
            RngHub(0).prime([1, 2, 3])


def _eager_redraw(cluster, rng, layout=None, background_intervals=None,
                  fixed_zone=None, failed_disks=None):
    """Every pool disk's DiskState, built up front (the pre-on-demand loop)."""
    zones = cluster.mechanics.geometry.zones
    bg = background_intervals or {}
    failed = failed_disks or set()
    n = cluster.n_disks
    pat = []
    if layout is None:
        pat += [len(BLOCKING_FACTORS), 2]
    if fixed_zone is None:
        pat.append(len(zones))
    rows = None
    if pat:
        rows = rng.integers(0, np.tile(np.array(pat), n)).reshape(n, len(pat)).tolist()
    states = {}
    for d in range(n):
        if layout is None:
            lay = layout_at(rows[d][0], rows[d][1])
            zi = fixed_zone if fixed_zone is not None else rows[d][-1]
        else:
            lay = layout
            zi = fixed_zone if fixed_zone is not None else rows[d][0]
        spt = int(zones[zi].sectors_per_track)
        load = BackgroundLoad(bg[d]) if d in bg else None
        states[d] = DiskState(d, lay, spt, load, failed=d in failed)
    return states


class TestOnDemandDiskStates:
    """redraw_disk_states builds a disk's state when first used, not eagerly."""

    @pytest.mark.parametrize("layout", [None, InDiskLayout(256, 1.0)])
    @pytest.mark.parametrize("background", [None, {1: 0.006, 5: 0.01}])
    @pytest.mark.parametrize("fixed_zone", [None, 3])
    @pytest.mark.parametrize("failed", [None, {0, 6}])
    def test_equal_to_eager_states(self, layout, background, fixed_zone, failed):
        cluster = Cluster(n_disks=12, disks_per_filer=4)
        kw = dict(
            layout=layout,
            background_intervals=background,
            fixed_zone=fixed_zone,
            failed_disks=failed,
        )
        a, b = _pair(11)
        cluster.redraw_disk_states(a, **kw)
        ref = _eager_redraw(cluster, b, **kw)
        _assert_lockstep(a, b)
        assert not cluster._disk_states  # nothing built until used
        for d in (7, 0, 11, 3, 1, 5, 2, 4, 6, 8, 9, 10):
            assert cluster.disk_state(d) == ref[d]
        with pytest.raises(KeyError):
            cluster.disk_state(12)

    def test_state_is_a_snapshot_of_the_draw(self):
        # Mutating the caller's set after the redraw changes nothing.
        cluster = Cluster(n_disks=4)
        failed = {2}
        cluster.redraw_disk_states(np.random.default_rng(0), failed_disks=failed)
        failed.add(3)
        assert not cluster.disk_state(3).failed
        assert cluster.disk_state(2).failed
