"""Batched-RNG equivalence: batch draws consume streams like scalar draws.

The hot-path vectorisation (``disk/mechanics.py``, ``disk/service.py``,
``cluster/server.py``) replaced per-request scalar draws with batched
ones.  That is only bit-identity-preserving because of a set of exact
PCG64 stream equivalences, each pinned here as *values and generator
state, element-for-element* — if a numpy upgrade ever changes one of
them, this file fails before any golden does, and names the primitive.

Also pins the SIM011 stream registry entries the refactor added.
"""

import numpy as np
import pytest

from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BlockService
from repro.disk.workload import InDiskLayout
from repro.sim.rng import STREAMS, RngHub


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
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)
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
