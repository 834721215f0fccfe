"""Differential test of the background-interleave fixed point.

:meth:`repro.disk.service.BlockService.completions` solves
``C = s_cum + b_cum[J] + J * pen`` (``J`` = background arrivals before
``C``) by monotone iteration over preallocated buffers, with a
max-|delta| convergence test.  ``reference_completions`` below is the
straightforward form of the same loop (fresh arrays every round,
``np.clip`` and ``np.allclose``).  Both must return bit-equal
completions and leave the random streams in the same state, so the
background stream is extended at the same rounds by the same draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.mechanics import DiskMechanics
from repro.disk.service import BackgroundLoad, BlockService, FixedPointError
from repro.disk.workload import BLOCKING_FACTORS, InDiskLayout

MB = 1 << 20


def reference_completions(svc: BlockService, services, start: float):
    """The plain-expression fixed point: ``(completions, rounds)``.

    After 500 rounds the unconverged vector is returned as it stands.
    """
    services = np.asarray(services, dtype=np.float64)
    s_cum = services.cumsum()
    s_cum += start
    bg = svc.background
    pen = svc.layout.p_sequential * svc.mechanics.mean_positioning_time()
    per_bg = bg.mean_service(svc.mechanics, svc.spt) + pen
    interval = max(bg.interval_s, per_bg / (1.0 - svc.MIN_FOREGROUND_SHARE))
    eff_util = per_bg / interval
    phase_rng = svc.phase_rng if svc.phase_rng is not None else svc.rng
    phase = start + phase_rng.random() * interval

    horizon = float(s_cum[-1] - start) / max(1e-3, 1.0 - eff_util)
    est = int((horizon / interval) * 1.5 + 16)
    bg_draws = bg.sample_services(est, svc.mechanics, svc.spt, svc.rng)
    b_cum = np.concatenate([[0.0], np.cumsum(bg_draws)])

    c = s_cum.copy()
    for rounds in range(1, 501):
        j = np.floor((c - phase) / interval).astype(np.int64) + 1
        np.clip(j, 0, None, out=j)
        if j[-1] >= b_cum.size - 1:
            more = bg.sample_services(
                int(j[-1] - b_cum.size + 2 + 64), svc.mechanics, svc.spt, svc.rng
            )
            b_cum = np.concatenate([b_cum, b_cum[-1] + np.cumsum(more)])
        c_new = s_cum + b_cum[j] + j * pen
        if np.allclose(c_new, c, rtol=0, atol=1e-12):
            c = c_new
            break
        c = c_new
    return svc._warp(c, start), rounds


def _pair(layout, interval, seed, split_phase):
    """Two identically seeded services: (under test, oracle)."""

    def one():
        return BlockService(
            DiskMechanics(),
            layout,
            870,
            np.random.default_rng(seed),
            BackgroundLoad(interval),
            phase_rng=np.random.default_rng(seed + 1) if split_phase else None,
        )

    return one(), one()


def _states(svc):
    phase = svc.phase_rng.bit_generator.state if svc.phase_rng is not None else None
    return svc.rng.bit_generator.state, phase


def _assert_same(got, ref, svc, oracle):
    assert got.dtype == ref.dtype == np.float64
    assert got.tobytes() == ref.tobytes()
    assert _states(svc) == _states(oracle)


@settings(max_examples=60, deadline=None)
@given(
    layout=st.builds(
        InDiskLayout,
        blocking_factor=st.sampled_from(BLOCKING_FACTORS),
        p_sequential=st.sampled_from([0.0, 0.5, 1.0]),
    ),
    # Down to 1 ms: well below the MIN_FOREGROUND_SHARE floor (~6 ms).
    interval=st.floats(min_value=0.001, max_value=0.5),
    n_blocks=st.integers(min_value=1, max_value=96),
    start=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    split_phase=st.booleans(),
)
def test_matches_reference(layout, interval, n_blocks, start, seed, split_phase):
    svc, oracle = _pair(layout, interval, seed, split_phase)
    services = svc.block_service_times(n_blocks, MB)
    oracle.block_service_times(n_blocks, MB)
    got = svc.completions(services, start)
    ref, _ = reference_completions(oracle, services, start)
    _assert_same(got, ref, svc, oracle)


@pytest.mark.parametrize("interval", [0.002, 0.004, 0.0059])
@pytest.mark.parametrize("n_blocks", [1, 7, 256])
def test_saturating_background_matches_reference(interval, n_blocks):
    """Below the foreground-share floor: long fixed points, stream extended."""
    layout = InDiskLayout(1024, 1.0)
    svc, oracle = _pair(layout, interval, 11, split_phase=True)
    services = svc.block_service_times(n_blocks, MB)
    oracle.block_service_times(n_blocks, MB)
    for start in (0.0, 3.25):  # a second call continues both streams
        got = svc.completions(services, start)
        ref, _ = reference_completions(oracle, services, start)
        _assert_same(got, ref, svc, oracle)


@pytest.mark.parametrize(
    "seed, layout, interval, n_blocks",
    [(284, InDiskLayout(16, 1.0), 0.004, 1), (452, InDiskLayout(128, 1.0), 0.004, 2)],
)
def test_stream_extended_when_the_last_draw_is_reached(seed, layout, interval, n_blocks):
    """Cases where a round's last arrival index lands exactly on the last
    drawn background service: that round extends the stream."""
    svc, oracle = _pair(layout, interval, seed, split_phase=True)
    services = svc.block_service_times(n_blocks, MB)
    oracle.block_service_times(n_blocks, MB)
    ref, _ = reference_completions(oracle, services, 0.0)
    _assert_same(svc.completions(services, 0.0), ref, svc, oracle)


def test_repeated_calls_keep_streams_in_step():
    """The adaptive engine calls ``completions`` per batch on one instance."""
    svc, oracle = _pair(InDiskLayout(64, 0.0), 0.008, 5, split_phase=False)
    for k in range(1, 12):
        services = svc.block_service_times(k, MB)
        assert services.tobytes() == oracle.block_service_times(k, MB).tobytes()
        _assert_same(
            svc.completions(services, 0.1 * k),
            reference_completions(oracle, services, 0.1 * k)[0],
            svc,
            oracle,
        )


def test_non_finite_services_are_rejected_alike():
    """The draw-ahead estimate needs a finite horizon, so every value the
    loop ever sees is finite; an infinite service fails before it."""
    svc, oracle = _pair(InDiskLayout(256, 1.0), 0.006, 3, split_phase=True)
    services = np.array([0.01, 0.02, np.inf])
    with pytest.raises(OverflowError):
        svc.completions(services, 0.0)
    with pytest.raises(OverflowError):
        reference_completions(oracle, services, 0.0)
    assert _states(svc) == _states(oracle)


class TestRoundCap:
    def test_deep_saturation_converges_under_the_cap(self):
        """1024 blocks at a 4 ms interval, random layout: ~380 rounds."""
        svc, oracle = _pair(InDiskLayout(8, 0.0), 0.004, 0, split_phase=True)
        services = svc.block_service_times(1024, MB)
        oracle.block_service_times(1024, MB)
        ref, rounds = reference_completions(oracle, services, 0.0)
        assert 350 < rounds < BlockService.MAX_FIXED_POINT_ROUNDS
        _assert_same(svc.completions(services, 0.0), ref, svc, oracle)

    def test_reaching_the_cap_raises(self):
        svc, oracle = _pair(InDiskLayout(1024, 1.0), 0.004, 2, split_phase=True)
        services = svc.block_service_times(64, MB)
        oracle.block_service_times(64, MB)
        _, needed = reference_completions(oracle, services, 0.0)
        assert needed > 10
        svc.MAX_FIXED_POINT_ROUNDS = needed - 1
        with pytest.raises(FixedPointError, match="did not converge"):
            svc.completions(services, 0.0)
        svc, _ = _pair(InDiskLayout(1024, 1.0), 0.004, 2, split_phase=True)
        svc.block_service_times(64, MB)
        svc.MAX_FIXED_POINT_ROUNDS = needed
        assert np.all(np.isfinite(svc.completions(services, 0.0)))
