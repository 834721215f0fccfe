"""Tests for the Appendix A closed-form reassembly analysis."""

import numpy as np
import pytest

from repro.coding.analysis import (
    erasure_coverage_curve,
    erasure_coverage_probability,
    expected_replicated_blocks,
    median_blocks_needed,
    replication_coverage_curve,
    replication_coverage_probability,
)


def test_replication_probability_bounds():
    assert replication_coverage_probability(8, 4, 7) == 0.0
    assert replication_coverage_probability(8, 4, 32) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        replication_coverage_probability(8, 4, 33)


def test_replication_probability_monotone():
    k, r = 16, 4
    probs = [replication_coverage_probability(k, r, m) for m in range(k, r * k + 1, 4)]
    assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_replication_exact_small_case():
    """K=1, R=2: any single draw covers the one block."""
    assert replication_coverage_probability(1, 2, 1) == pytest.approx(1.0)


def test_replication_exact_k2_r2():
    """K=2, R=2 (blocks AABB shuffled): P(first 2 cover both) = C(2,1)^2/C(4,2)=2/3."""
    assert replication_coverage_probability(2, 2, 2) == pytest.approx(2 / 3)


def test_replication_matches_monte_carlo():
    k, r, m = 8, 4, 20
    exact = replication_coverage_probability(k, r, m)
    rng = np.random.default_rng(0)
    hits = 0
    trials = 4000
    for _ in range(trials):
        # Replica ``j`` of original block ``i`` is coded block ``j * k + i``.
        order = rng.permutation(k * r)[:m]
        hits += len({int(c) % k for c in order}) == k
    assert hits / trials == pytest.approx(exact, abs=0.03)


def test_erasure_probability_bounds_and_monotonicity():
    k, d = 64, 5.0
    probs = [erasure_coverage_probability(k, d, m) for m in range(1, 200, 10)]
    assert probs[0] < 1e-6
    assert probs[-1] > 0.99
    assert all(b >= a - 1e-9 for a, b in zip(probs, probs[1:]))


def test_erasure_zero_m():
    assert erasure_coverage_probability(16, 5.0, 0) == 0.0


def test_figure_4_1_shape():
    """Fig 4-1 (K=1024, 4x): coded needs ~1.5K blocks, replicated ~3K."""
    k = 1024
    ms = np.arange(k, 4 * k + 1, 64)
    coded = erasure_coverage_curve(k, 5.0, ms)
    repl = replication_coverage_curve(k, 4, ms)
    m_coded = median_blocks_needed(ms, coded)
    m_repl = median_blocks_needed(ms, repl)
    assert m_coded < m_repl  # erasure coding dominates replication
    assert 1.2 * k < m_coded < 2.2 * k
    assert 2.4 * k < m_repl < 3.8 * k


def test_expected_replicated_blocks_harmonic():
    # K * H_K for K=4: 4 * (1 + 1/2 + 1/3 + 1/4) = 25/3
    assert expected_replicated_blocks(4) == pytest.approx(25 / 3)


def test_expected_replicated_blocks_grows_like_klogk():
    val = expected_replicated_blocks(1024)
    assert val == pytest.approx(1024 * np.log(1024), rel=0.1)


def test_median_blocks_needed_raises_when_unreached():
    with pytest.raises(ValueError):
        median_blocks_needed(np.array([1, 2]), np.array([0.1, 0.2]))
