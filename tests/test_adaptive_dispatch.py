"""Differential test of the adaptive (RRAID-A) work-stealing engine.

:meth:`repro.core.policy.dispatch.AdaptiveDispatch.read` finds each
hand-off's victim with one vector scan over a per-unit queue index and
keeps each run's arrivals as a segment it truncates on cancellation.
``reference_read`` below is the engine before that change, kept verbatim:
a per-candidate victim scan over prefix sums of the holder matrix, and one
shared arrival list filtered on every hand-off.  Both must return
bit-equal results (``served_by``, ``handoffs`` and ``arrival_order``
included), emit the same trace and leave every service stream in the same
state, for all four adaptive compositions.

Both rewrites rest on one invariant, asserted here on the live engine: a
unit sits in at most one live batch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import heapq
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.routing import MB, request_arrival_time, response_arrival_times
from repro.accesscore.timeline import consume_sorted_arrivals
from repro.accesscore.tracing import trace_read_summary
from repro.core.pipeline import PolicyScheme
from repro.core.policy import dispatch
from repro.core.policy.dispatch import AdaptiveDispatch
from repro.disk.service import BlockService
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults.plan import FaultPlan
from repro.obs import Tracer
from tests.test_faults_golden import STORM_SCENARIO

#: Every registered composition that reads through the adaptive engine.
ADAPTIVE = ("rraid-a", "mirror+adaptive", "rs+adaptive", "lt+adaptive")


# ---------------------------------------------------------------------------
# The reference: the engine as it was before the queue index, verbatim.


@dataclass(eq=False)
class _DiskRun:
    """Per-disk adaptive-read state.

    ``eq=False``: runs are identity-keyed (the generated field-wise
    ``__eq__`` made every ``runs.index(run)`` an O(fields) comparison per
    element — millions of calls on the hot path); ``idx`` carries the
    run's position outright.
    """

    disk_id: int
    idx: int
    svc: BlockService
    one_way: float
    batch_ids: list[int] = field(default_factory=list)
    #: ``batch_ids`` as an array, for vectorised eligibility counting.
    ids_arr: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: ``H[batch_ids].cumsum(axis=0)``: ``hold_cum[i, d]`` counts batch
    #: blocks among the first ``i+1`` that disk ``d`` holds replicas of,
    #: so the victim scan reads any thief's pending-eligible count with
    #: two scalar lookups instead of a fancy-index per candidate.
    hold_cum: np.ndarray | None = None
    completions: np.ndarray = field(default_factory=lambda: np.empty(0))
    ready: float = 0.0
    version: int = 0
    batch_start: float = 0.0
    avg_block_s: float = float("inf")  # client's observed per-block time

    def pending_at(self, t: float) -> tuple[int, list[int]]:
        """(#fully served, ids not fully received) at time ``t``.

        The block in flight at ``t`` counts as *unreceived*: cancellation
        works at physical-request granularity (§5.3.3), so a partially
        transferred block can be abandoned and re-requested elsewhere.
        """
        done = int(self.completions.searchsorted(t, side="right"))
        return done, self.batch_ids[done:]

    def inflight_at(self, t: float) -> int | None:
        """Id of the block being served at ``t``, if any."""
        done = int(self.completions.searchsorted(t, side="right"))
        if done < len(self.batch_ids):
            start = float(self.completions[done - 1]) if done > 0 else self.batch_start
            if start < t:  # its service actually began before t
                return self.batch_ids[done]
        return None



def reference_read(self, scheme, spec, record, plan, trial) -> AccessResult:
    cfg = scheme.config
    completion = spec.completion
    disks = plan.disk_ids
    file_name = record.name
    rng_for = scheme.service_rng_factory(trial, "read", disks)
    t0 = scheme.open_latency()

    # The placement's adaptive view: round-1 unit ids per disk index,
    # and which disks can serve each unit.  Unit ids are normalised to
    # native ints here, once — every downstream list (batches, steal
    # and keep sets, arrival records) inherits them unconverted.
    primaries, holder_map = spec.placement.adaptive_units(cfg, record)
    primaries = [[int(b) for b in ids] for ids in primaries]

    def holders(block: int) -> set[int]:
        """Disk indices holding a copy of ``block``."""
        return holder_map.get(block, set())

    # Dense holder matrix: H[unit, disk idx] — lets the victim scan
    # count a disk's eligible pending units in one vector op instead
    # of a per-unit set probe.
    if holder_map:
        n_units = 1 + max(
            max(holder_map),
            max((max(ids) for ids in primaries if ids), default=0),
        )
        H = np.zeros((n_units, len(disks)), dtype=bool)
        for unit, holder_set in holder_map.items():
            H[unit, list(holder_set)] = True
    else:
        H = None  # single-holder layout: nothing is ever eligible

    phase_rng_for = getattr(rng_for, "phase_rng_for", None)
    runs: list[_DiskRun] = []
    for idx, disk_id in enumerate(disks):
        filer = scheme.cluster.filer_of_disk(int(disk_id))
        runs.append(
            _DiskRun(
                disk_id=int(disk_id),
                idx=idx,
                svc=scheme.cluster.block_service(
                    int(disk_id),
                    rng_for(int(disk_id)),
                    phase_rng_for=phase_rng_for,
                ),
                one_way=filer.link.one_way_s,
                ready=request_arrival_time(
                    scheme.cluster, int(disk_id), t0, filer.link.one_way_s
                ),
            )
        )

    # Victim-scan index: ready_arr[i] mirrors runs[i].ready for runs
    # with a live batch and -inf for drained ones, so one vectorised
    # compare yields the runs worth scanning at a decision point.
    ready_arr = np.full(len(runs), -np.inf)
    arrivals: list[tuple[float, int]] = []
    events: list[tuple[float, int, int]] = []  # (finish, disk idx, version)
    rounds = 1
    blocks_fetched = 0
    served_by: dict[int, int] = {}
    partial_bytes = 0.0  # fractions delivered by victims before hand-off
    # Plain-text replicas let the client assemble a block from fractions
    # fetched off different disks (§6.3.1): frac[bid] is the portion
    # still to fetch after mid-transfer hand-offs.
    frac: dict[int, float] = {}

    tracer = scheme.tracer

    def serve_batch(run: _DiskRun, ids: list[int], t_start: float) -> None:
        nonlocal blocks_fetched, partial_bytes
        run.version += 1
        # Callers pass fresh lists of native ints (primaries are
        # normalised once, steal/keep are new listcomps), so the batch
        # adopts the list without a per-element conversion pass.
        run.batch_ids = ids
        run.ids_arr = np.asarray(ids, dtype=np.int64)
        if not ids:
            # Drained by theft: the disk is idle *now* and must still
            # get its hand-off decision, or it would never steal again.
            run.completions = np.empty(0)
            run.ready = t_start
            ready_arr[run.idx] = -np.inf
            heapq.heappush(events, (t_start, run.idx, run.version))
            return
        ids = run.batch_ids
        run.hold_cum = (
            H[run.ids_arr].cumsum(axis=0, dtype=np.int32) if H is not None else None
        )
        services = run.svc.block_service_times(len(ids), cfg.block_bytes)
        if frac:
            # x * 1.0 is exact, so skipping the multiply when no block
            # is fractional is bit-identical.
            services *= np.array([frac.get(b, 1.0) for b in ids])
            frac_total = max(1e-9, sum(frac.get(b, 1.0) for b in ids))
        else:
            frac_total = float(len(ids))
        # Callers pass the true start (request arrival / in-flight end);
        # the previous batch's `ready` is stale after a cancellation.
        run.batch_start = t_start
        run.completions = run.svc.completions(services, t_start)
        # What the client *observes*: wall time per block including
        # background dilation — the honest basis for steal decisions.
        run.avg_block_s = (float(run.completions[-1]) - t_start) / frac_total
        # One vectorised network hop for the whole batch; the link
        # timeline maps ready times elementwise, so this matches the
        # per-block calls exactly.
        t_clients = np.asarray(
            response_arrival_times(
                scheme.cluster, run.disk_id, run.completions, run.one_way
            ),
            dtype=np.float64,
        )
        # C-level bulk append/merge: zip builds the (t, bid) tuples and
        # fromkeys the served_by entries without a Python-level loop.
        arrivals.extend(zip(t_clients.tolist(), ids))
        served_by.update(dict.fromkeys(ids, run.idx))
        blocks_fetched += len(ids)
        run.ready = float(run.completions[-1])
        ready_arr[run.idx] = run.ready
        if tracer.enabled and np.isfinite(run.ready):
            tracer.span(
                "drive.batch",
                "drive",
                t_start,
                run.ready,
                track="drive",
                args={"disk": run.disk_id, "blocks": len(ids)},
            )
        heapq.heappush(events, (run.ready, run.idx, run.version))

    # Round 1: each unit's primary disk.  Filesystem-cache hits are
    # served by the filer at request time and never queue at disks.
    cache_hits = 0
    for idx, run in enumerate(runs):
        ids = primaries[idx]
        filer = scheme.cluster.filer_of_disk(run.disk_id)
        cached = filer.cached_blocks(file_name, ids)
        hit_ids = [b for b, c in zip(ids, cached) if c]
        for b in hit_ids:
            t_client = response_arrival_times(
                scheme.cluster, run.disk_id, run.ready, run.one_way
            )
            arrivals.append((float(t_client), int(b)))
            served_by[int(b)] = idx
        filer.record_read(file_name, hit_ids, cfg.block_bytes)
        cache_hits += len(hit_ids)
        blocks_fetched += len(hit_ids)
        serve_batch(run, [b for b, c in zip(ids, cached) if not c], run.ready)

    # Adaptive hand-offs.  The budget is a safety valve far above any
    # sane hand-off count: past it the client stops re-planning and
    # lets the outstanding queues drain.
    handoff_budget = 50 * len(disks)
    while events:
        finish, a_idx, version = heapq.heappop(events)
        a = runs[a_idx]
        if version != a.version:
            continue  # stale: this disk's plan was revised
        if rounds > handoff_budget:
            continue
        t_dec = finish + a.one_way  # client learns disk A drained

        # Victim: most unserved blocks that A holds replicas of.  The
        # strict ``>`` keeps the seed's first-wins tie-breaking; only
        # the count matters for selection, so the eligible *list* is
        # materialised for the winner alone (below, at t_cancel).
        best_b, best_cnt = None, 0
        if H is not None:
            # Drained runs are the common case late in the access: one
            # vectorised compare over the ready index yields only the
            # runs still serving past t_dec (side="right" below makes
            # ready <= t_dec exactly the all-served condition, and
            # drained/empty runs sit at -inf), in index order — the
            # same first-wins tie-breaking as the full scan.
            for b_idx in np.nonzero(ready_arr > t_dec)[0].tolist():
                if b_idx == a_idx:
                    continue
                b = runs[b_idx]
                done = int(b.completions.searchsorted(t_dec, side="right"))
                cum = b.hold_cum
                cnt = int(cum[-1, a_idx])
                if done:
                    cnt -= int(cum[done - 1, a_idx])
                if cnt > best_cnt:
                    best_b, best_cnt = b_idx, cnt
        if best_b is None:
            continue  # nothing worth stealing; A idles

        b = runs[best_b]
        rounds += 1
        t_cancel = t_dec + b.one_way
        if tracer.enabled:
            # Each hand-off opens a new request round (§6.2.1): the
            # idle thief re-requests part of the victim's queue.
            tracer.count("scheme.handoffs")
            tracer.instant(
                "scheme.round",
                "scheme",
                t_dec,
                track="scheme",
                args={
                    "round": rounds,
                    "thief": a.disk_id,
                    "victim": b.disk_id,
                    "eligible": best_cnt,
                },
            )
        done, remaining = b.pending_at(t_cancel)
        inflight = b.inflight_at(t_cancel)
        elig = [x for x in remaining if a_idx in holders(x)]
        steal_set = set(elig[len(elig) // 2 :])  # the second half
        if len(elig) == 1:
            # Hand-off of a victim's last block: only worthwhile when
            # the thief is clearly faster (the client compares observed
            # disk performance, §5.3.1) — otherwise two idle disks
            # would bounce the block forever.
            x = elig[0]
            f = frac.get(x, 1.0)
            if x == inflight:
                pos_x = b.batch_ids.index(x)
                victim_left = float(b.completions[pos_x]) - t_cancel
            else:
                victim_left = b.avg_block_s * f
            thief_time = a.avg_block_s * f + 3 * a.one_way
            if not thief_time < 0.5 * victim_left:
                continue
        if not steal_set:
            continue
        steal = [x for x in remaining if x in steal_set]
        keep = [x for x in remaining if x not in steal_set]

        # Remove the stale arrivals B would have produced for its
        # cancelled tail (and its kept blocks, which get re-timed).
        # One filtering pass drops every match — the same set the
        # seed's repeated ``list.remove`` deleted, without the O(n²).
        cancelled = set(remaining)
        n_before = len(arrivals)
        arrivals[:] = [item for item in arrivals if item[1] not in cancelled]
        blocks_fetched -= n_before - len(arrivals)

        # The block B is transferring when the cancel lands: if stolen,
        # only its unfetched fraction moves (plain-text replicas can be
        # assembled from fractions across disks, §6.3.1); if kept, B
        # finishes it undisturbed.
        b_start = t_cancel
        if inflight is not None:
            pos = b.batch_ids.index(inflight)
            c_if = float(b.completions[pos])
            if inflight in steal_set:
                # A failed victim (infinite completion) made no
                # progress: the whole block moves.
                if np.isfinite(c_if):
                    start_if = float(b.completions[pos - 1]) if pos > 0 else t_cancel
                    dur = max(c_if - start_if, 1e-12)
                    left = min(1.0, max(0.0, (c_if - t_cancel) / dur))
                    before = frac.get(inflight, 1.0)
                    partial_bytes += before * (1.0 - left) * cfg.block_bytes
                    frac[inflight] = before * left
            elif np.isfinite(c_if):
                t_client = response_arrival_times(
                    scheme.cluster, b.disk_id, c_if, b.one_way
                )
                arrivals.append((float(t_client), int(inflight)))
                blocks_fetched += 1
                keep = [x for x in keep if x != inflight]
                b_start = c_if
        serve_batch(b, keep, b_start)
        serve_batch(a, steal, t_dec + a.one_way)

    # Completion: feed arrivals to the composition's tracker in order,
    # through the access-core's one consumption loop.
    arrivals.sort()
    tracker = completion.tracker(scheme, record, plan)
    if arrivals:
        t_arr, b_arr = zip(*arrivals)
        times = np.array(t_arr, dtype=np.float64)
        ids = np.array(b_arr, dtype=np.int64)
    else:
        times = np.empty(0, dtype=np.float64)
        ids = np.empty(0, dtype=np.int64)
    t_fill, consumed = consume_sorted_arrivals(tracker, times, ids)
    t_done, _ = completion.finish(scheme, tracker, t_fill)

    # Fetched blocks cross the network once; block fractions delivered
    # by a victim before a hand-off add a whisker of extra bytes — the
    # scheme's "just a little more than zero" overhead (Fig 6-8).
    net_bytes = int(blocks_fetched * cfg.block_bytes + partial_bytes)
    for run in runs:
        scheme.cluster.filer_of_disk(run.disk_id).link.account(
            len(run.batch_ids) * cfg.block_bytes
        )
    trace_read_summary(
        tracer, scheme.name, trial, t0, t_done, consumed,
        cfg.block_bytes, cfg.data_bytes,
        network_bytes=net_bytes,
        span_args={"rounds": rounds},
        failed_instant=False,
    )
    completion.trace(tracer, tracker, t_fill, t_done, consumed)

    extra = dict(plan.extra)
    extra.update(completion.extras(scheme, tracker, t_fill, t_done))
    extra["handoffs"] = rounds - 1
    extra["served_by"] = served_by
    if completion.wants_order:
        extra["arrival_order"] = [int(b) for _, b in arrivals[:consumed]]
    spec.reaction.annotate(scheme, record, extra, t_done, t0)
    return AccessResult(
        latency_s=t_done,
        data_bytes=cfg.data_bytes,
        network_bytes=net_bytes,
        disk_blocks=blocks_fetched - cache_hits,
        blocks_received=consumed,
        cache_hits=cache_hits,
        rounds=rounds,
        extra=extra,
    )


# ---------------------------------------------------------------------------
# Harness: run one plan through either engine, recording what to compare.


def _checked(run_cls):
    """``run_cls`` with the one-live-batch-per-unit invariant asserted.

    Every assignment of a run's ``batch_ids`` retires its previous batch
    and claims the new ids; a unit already claimed by a live batch (its
    own or another run's) fails the assertion.  ``CheckedRun.live`` maps
    each claimed unit to its run; clear it between reads.
    """
    live: dict[int, object] = {}

    class CheckedRun(run_cls):
        def __setattr__(self, name, value):
            if name == "batch_ids":
                for unit in getattr(self, "batch_ids", ()):
                    if live.get(unit) is self:
                        del live[unit]
                for unit in value:
                    assert unit not in live, f"unit {unit} is in two live batches"
                    live[unit] = self
            super().__setattr__(name, value)

    CheckedRun.__name__ = run_cls.__name__
    CheckedRun.live = live
    return CheckedRun


@contextlib.contextmanager
def _engine(reference: bool):
    """Swap in the reference engine, or check the live one's invariant."""
    live_read, run_cls = AdaptiveDispatch.__dict__["read"], dispatch._DiskRun
    if reference:
        AdaptiveDispatch.read = reference_read
    else:
        checked = dispatch._DiskRun = _checked(run_cls)

        def checked_read(self, *args):
            checked.live.clear()  # every read starts with no live batch
            return live_read(self, *args)

        AdaptiveDispatch.read = checked_read
    try:
        yield
    finally:
        AdaptiveDispatch.read, dispatch._DiskRun = live_read, run_cls


@contextlib.contextmanager
def _recording_generators():
    """Collect every service and phase generator schemes hand out."""
    generators: list[np.random.Generator] = []
    original = PolicyScheme.service_rng_factory

    def recording(self, trial, phase, disk_ids):
        rng_for = original(self, trial, phase, disk_ids)

        def record(factory):
            def make(disk_id):
                gen = factory(disk_id)
                generators.append(gen)
                return gen

            return make

        wrapped = record(rng_for)
        wrapped.phase_rng_for = record(rng_for.phase_rng_for)
        return wrapped

    PolicyScheme.service_rng_factory = recording
    try:
        yield generators
    finally:
        PolicyScheme.service_rng_factory = original


def _run(plan: TrialPlan, name: str, reference: bool):
    tracer = Tracer()
    with _engine(reference), _recording_generators() as generators:
        results = run_scheme(plan, name, tracer=tracer, engine="closed")
    return (
        [r.to_jsonable() for r in results],
        [g.bit_generator.state for g in generators],
        tracer.to_chrome(),
    )


def assert_engines_agree(plan: TrialPlan, name: str):
    """Bit-equal results, generator states and traces; returns the results."""
    ref_results, ref_states, ref_trace = _run(plan, name, reference=True)
    new_results, new_states, new_trace = _run(plan, name, reference=False)
    assert new_results == ref_results
    assert new_states == ref_states
    assert new_trace == ref_trace
    return [AccessResult.from_jsonable(r) for r in new_results]


def _plan(n_disks, blocks, redundancy, **kw) -> TrialPlan:
    access = AccessConfig(
        data_bytes=blocks * MB, block_bytes=1 * MB, n_disks=n_disks,
        redundancy=redundancy,
    )
    kw.setdefault("pool", n_disks)
    kw.setdefault("trials", 2)
    return TrialPlan(access=access, **kw)


# ---------------------------------------------------------------------------
# The properties.


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(ADAPTIVE),
    n_disks=st.integers(2, 128),
    blocks=st.integers(4, 96),
    redundancy=st.sampled_from([1.5, 2.0, 3.0]),
    spare=st.integers(0, 4),
    mode=st.sampled_from(["read", "raw"]),
    background=st.sampled_from(["none", "homogeneous", "heterogeneous"]),
    cache_mb=st.sampled_from([0, 16, 64, 256]),
    aging_s=st.sampled_from([3.0, 30.0, 1000.0]),
    failed=st.integers(0, 1),
    rtt_s=st.sampled_from([0.0, 0.0002, 0.001, 0.01]),
    seed=st.integers(0, 2**16),
)
def test_engine_matches_reference(
    name, n_disks, blocks, redundancy, spare, mode, background, cache_mb,
    aging_s, failed, rtt_s, seed,
):
    plan = _plan(
        n_disks, blocks, redundancy, pool=n_disks + spare, mode=mode,
        background=background, fs_cache_bytes=cache_mb * MB,
        cache_aging_window_s=aging_s, failed_disks=failed, rtt_s=rtt_s, seed=seed,
    )
    assert_engines_agree(plan, name)


@pytest.mark.parametrize("name", ADAPTIVE)
def test_engine_matches_reference_under_storm(name):
    """Fail-stops, slow windows, link degradation and a filer crash."""
    plan = _plan(
        8, 32, 3.0, rtt_s=0.001, seed=7, trials=3,
        fault_plan=FaultPlan.from_scenario(STORM_SCENARIO),
    )
    assert_engines_agree(plan, name)


@pytest.mark.parametrize("name", ADAPTIVE)
def test_engine_matches_reference_at_fig6_06_scale(name):
    """The headline grid's geometry: 128 disks, 256 one-MB blocks."""
    plan = _plan(128, 256, 3.0, pool=128, trials=1, seed=3)
    assert_engines_agree(plan, name)


def test_fractional_handoffs_are_covered():
    """Single-block hand-offs that move a block's unfetched fraction.

    The victim's delivered fraction crosses the network too, so the
    network bytes stop being a whole number of blocks.
    """
    plan = _plan(16, 64, 3.0, background="heterogeneous", trials=4, seed=1)
    results = assert_engines_agree(plan, "rraid-a")
    assert any(r.network_bytes % MB for r in results)
    assert all(r.extra["handoffs"] > 0 for r in results)


def test_cache_hits_and_handoffs_are_covered():
    """A read-after-write whose filer caches serve part of the primaries.

    Which lines survive aging depends on ``PYTHONHASHSEED`` (the cache
    index hashes string-bearing keys); the bounds below hold for any.
    """
    plan = _plan(
        16, 48, 2.0, pool=20, mode="raw", background="heterogeneous",
        fs_cache_bytes=64 * MB, cache_aging_window_s=3.0, trials=4, seed=1,
    )
    results = assert_engines_agree(plan, "rraid-a")
    assert all(0 < r.cache_hits < 48 for r in results)
    assert all(r.extra["handoffs"] > 0 for r in results)


def test_invariant_check_catches_a_shared_unit():
    """The checked run class rejects a unit claimed by two live batches."""
    run_cls = _checked(dataclasses.make_dataclass(
        "Run", [("batch_ids", list, field(default_factory=list))], eq=False
    ))
    a, b = run_cls(), run_cls()
    a.batch_ids = [1, 2, 3]
    b.batch_ids = [4]
    a.batch_ids = [2]  # 1 and 3 retire with a's old batch
    b.batch_ids = [1, 3]
    with pytest.raises(AssertionError, match="two live batches"):
        b.batch_ids = [2]
