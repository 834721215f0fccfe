"""Event-driven wrapper of the access core: the §6.2.2 simulator, literally.

Every entity — client, filer link, drive, background generator, fault
pump — is a discrete-event process on the :mod:`repro.sim` kernel,
exactly as Figure 6-3 draws the simulator.  The *semantics* are not
re-implemented here: reads are planned by the composition's reaction
policy, consumed through the completion policy's tracker, retried through
``reaction.retry_targets``, and settled through the same
:func:`repro.accesscore.timeline.read_epilogue` the closed-form engine
uses; writes build their supply and stop rule from the write policy.
What this module adds is *time*: requests queue at
:class:`repro.disk.drive.DiskDrive` entities, contend with background
streams and other clients, and get flipped mid-service by the fault pump
(:func:`attach_faults` — the single DES fault wiring site).

Layering rule: this module never imports :mod:`repro.core`.  Policy
objects arrive duck-typed on the scheme (``scheme.spec``), so the core
stays importable from either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accesscore.result import AccessResult
from repro.accesscore.routing import request_arrival_time, response_arrival_times
from repro.accesscore.timeline import (
    DiskStream,
    failed_write_result,
    read_epilogue,
)
from repro.accesscore.tracing import trace_read_summary
from repro.disk.drive import DiskDrive, DiskRequest
from repro.disk.geometry import SECTOR_BYTES
from repro.disk.workload import BackgroundWorkload
from repro.sim import Environment, Store
from repro.sim.rng import stable_seed

#: Hand-off budget multiplier for the adaptive event loop — the same
#: safety valve as the closed form's (50 hand-offs per disk).
_HANDOFF_BUDGET_PER_DISK = 50


@dataclass
class EventAccess:
    """Outcome of one event-driven access (first client's view)."""

    latency_s: float
    blocks_received: int
    network_bytes: int
    per_client: dict = field(default_factory=dict)
    #: The first client's full metrics, settled through the shared
    #: access-core epilogue — same shape as a closed-form read.
    result: AccessResult | None = None


class EventDrive:
    """A drive entity whose per-block service times follow the same
    distribution as :class:`repro.disk.service.BlockService`.

    The drive serves whole data blocks: each is one queue entry whose
    service time is sampled from the disk's (blocking factor, p_seq, zone)
    state — identical inputs to the closed-form engine, so the two engines
    are statistically comparable.  Requests from different clients and the
    background stream share the queue under the ``fair`` discipline.
    Statically failed disks (the environment's fail-stop draw) start in
    the failed state, so submissions resolve to ``inf`` like the closed
    form's warped completions.
    """

    def __init__(
        self,
        env: Environment,
        cluster,
        disk_id: int,
        rng: np.random.Generator,
        block_bytes: int,
    ) -> None:
        self.env = env
        self.disk_id = disk_id
        self.block_bytes = block_bytes
        self.svc = cluster.block_service(disk_id, rng)
        # The block-service sampler substitutes for the drive's
        # sector-level timing so both engines draw from one distribution.
        self.drive = DiskDrive(
            env,
            cluster.mechanics,
            None,
            scheduler="fair",
            service_time_fn=self._service_time,
        )
        state = cluster.disk_state(disk_id)
        if state.failed:
            self.drive.failed = True
        if state.background is not None:
            self.drive.attach_background(
                BackgroundWorkload(
                    state.background.interval_s,
                    np.random.default_rng(stable_seed(disk_id, "bg")),
                )
            )

    def _service_time(self, req: DiskRequest) -> float:
        svc = self.svc
        if req.is_background:
            bg = svc.background
            if bg is not None:
                return bg.sample_service(svc.mechanics, svc.spt, svc.rng)
            return 0.005
        return float(svc.block_service_times(1, self.block_bytes)[0])

    def submit_block(self, tag) -> DiskRequest:
        sectors = max(1, self.block_bytes // SECTOR_BYTES)
        return self.drive.submit(DiskRequest(lba=0, sectors=sectors, tag=tag))

    def cancel_client(self, client_id) -> int:
        """Cancel every queued foreground request of one client."""
        return self.drive.cancel(
            lambda r: not r.is_background and r.tag[0] == client_id
        )

    def cancel_blocks(self, client_id, block_ids) -> int:
        """Cancel a client's queued requests for specific blocks."""
        ids = {int(b) for b in block_ids}
        return self.drive.cancel(
            lambda r: not r.is_background
            and r.tag[0] == client_id
            and int(r.tag[1]) in ids
        )


def attach_faults(env: Environment, cluster, drives: dict[int, EventDrive]):
    """Register the cluster's fault plan on a DES run — the single site.

    Maps every event drive to the injector's pump, so fail-stops flush
    and abort real queues, recoveries restart them, and slowdowns stretch
    in-progress service — the same plan the closed form reads as warped
    timelines.  No-op (and no process) without an installed plan.
    """
    injector = cluster.faults
    if injector is None or not injector.has_faults:
        return None
    return injector.schedule_on(
        env, {d: ed.drive for d, ed in drives.items()}
    )


def build_drives(
    env: Environment, scheme, disk_ids, trial: int
) -> dict[int, EventDrive]:
    """One :class:`EventDrive` per disk, on the scheme's ``refsvc`` streams."""
    rng_for = scheme.reference_rng_factory(trial, disk_ids)
    return {
        int(d): EventDrive(
            env, scheme.cluster, int(d), rng_for(int(d)), scheme.config.block_bytes
        )
        for d in disk_ids
    }


class _StreamState:
    """Per-(client, disk, round) recording of what the DES actually did.

    Accumulates disk-side completion times and client-side arrival times
    as the waiter processes observe them; :meth:`to_disk_stream` then
    yields the same :class:`~repro.accesscore.timeline.DiskStream` shape
    the closed form computes, so the shared epilogue (cancel accounting,
    tracing, repair annotation) applies verbatim.
    """

    __slots__ = ("disk_id", "block_ids", "cached", "one_way", "completions", "arrivals")

    def __init__(self, disk_id: int, block_ids, cached, one_way: float) -> None:
        self.disk_id = int(disk_id)
        self.block_ids = np.asarray(block_ids, dtype=np.int64)
        self.cached = np.asarray(cached, dtype=bool)
        self.one_way = float(one_way)
        #: uncached position -> finite disk completion time.
        self.completions: dict[int, float] = {}
        self.arrivals = np.full(self.block_ids.size, np.inf)

    def to_disk_stream(self) -> DiskStream:
        n_uncached = int(np.count_nonzero(~self.cached))
        comp = np.full(n_uncached, np.inf)
        for pos, t in self.completions.items():
            comp[pos] = t
        # served_before needs time order; only the multiset matters, so
        # sorting the recorded times is exact.
        comp.sort()
        return DiskStream(
            self.disk_id, self.block_ids, self.cached, comp, self.arrivals,
            self.one_way,
        )


class _Final:
    """What a finished client hands the post-run settle step."""

    __slots__ = (
        "tracker", "states", "t_fill", "t_done", "consumed", "order", "rounds",
        "cache_hits", "fetched", "handoffs",
    )

    def __init__(self) -> None:
        self.tracker = None
        self.states: list[_StreamState] = []
        self.t_fill = float("inf")
        self.t_done = float("inf")
        self.consumed = 0
        self.order: list[int] = []
        self.rounds = 1
        self.cache_hits = 0
        self.fetched: list[int] = []
        self.handoffs = 0


def _consume_one(tracker, observe, t: float, bid: int) -> None:
    """Feed one arrival to the tracker — same hook order as the core loop."""
    if observe is not None:
        observe(float(t), int(bid))
    else:
        tracker.add(int(bid))


def event_read(scheme, file_name: str, trial: int = 0, n_clients: int = 1) -> EventAccess:
    """Run one read fully event-driven, through the composition's policies.

    With ``n_clients > 1`` each client issues the same access shape over
    the *same* drives (distinct trackers); contention emerges naturally
    from the shared per-drive queues.  Returns the first client's metrics
    (settled through the shared access-core epilogue) plus every client's
    latency.
    """
    spec = scheme.spec
    cfg = scheme.config
    cluster = scheme.cluster
    record = scheme._record(file_name)
    plan = spec.reaction.plan_read(scheme, record)
    if isinstance(plan, AccessResult):
        # Fate sealed before any disk was touched (e.g. RAID-5's double
        # failure) — identical short-circuit to the closed-form pipeline.
        return EventAccess(
            latency_s=plan.latency_s,
            blocks_received=plan.blocks_received,
            network_bytes=plan.network_bytes,
            per_client={cid: plan.latency_s for cid in range(n_clients)},
            result=plan,
        )

    env = Environment()
    disk_ids = [int(d) for d in plan.disk_ids]
    drives = build_drives(env, scheme, disk_ids, trial)
    attach_faults(env, cluster, drives)
    one_way = {d: cluster.filer_of_disk(d).link.one_way_s for d in disk_ids}
    t0 = scheme.open_latency()
    adaptive = bool(getattr(spec.dispatch, "adaptive", False))
    finals: dict[int, _Final] = {}

    # -- shared fetch machinery -------------------------------------------

    def deliver(cid, inbox, state, pos, bid, arr):
        """A filesystem-cache hit travelling back to the client."""
        if np.isfinite(arr):
            yield env.timeout(float(arr) - env.now)
            state.arrivals[pos] = env.now
            inbox.put((env.now, bid, state, pos))
        else:
            inbox.put((float("inf"), bid, state, pos))

    def wait_block(cid, inbox, state, pos, upos, bid, req):
        """Wait for one queued block: serve, record, respond, arrive."""
        finished = yield req.done
        if finished is None or not np.isfinite(finished):
            # Cancelled in queue, flushed or aborted by a fail-stop:
            # the block never crosses the network.
            inbox.put((float("inf"), bid, state, pos))
            return
        state.completions[upos] = float(finished)
        arr = response_arrival_times(cluster, state.disk_id, finished, state.one_way)
        if not np.isfinite(arr):
            inbox.put((float("inf"), bid, state, pos))
            return
        yield env.timeout(float(arr) - env.now)
        state.arrivals[pos] = env.now
        inbox.put((env.now, bid, state, pos))

    def feed_disk(cid, inbox, state):
        """One disk's stream: request hop, cache split, queue the rest."""
        d = state.disk_id
        t_arrive = request_arrival_time(cluster, d, env.now, state.one_way)
        if not np.isfinite(t_arrive):
            for pos, bid in enumerate(state.block_ids.tolist()):
                inbox.put((float("inf"), bid, state, pos))
            return
        yield env.timeout(t_arrive - env.now)
        drive = drives[d]
        upos = 0
        for pos, bid in enumerate(state.block_ids.tolist()):
            if state.cached[pos]:
                arr = response_arrival_times(cluster, d, env.now, state.one_way)
                env.process(
                    deliver(cid, inbox, state, pos, bid, float(arr)),
                    name=f"hit-c{cid}",
                )
            else:
                req = drive.submit_block(tag=(cid, bid))
                env.process(
                    wait_block(cid, inbox, state, pos, upos, bid, req),
                    name=f"block-c{cid}",
                )
                upos += 1

    def launch_streams(cid, inbox, states, round_disks, round_placement):
        """Spawn the per-disk stream processes; return the block count."""
        total = 0
        for idx, d in enumerate(round_disks):
            blocks = [int(b) for b in round_placement[idx]]
            filer = cluster.filer_of_disk(int(d))
            cached = filer.cached_blocks(
                file_name, np.asarray(blocks, dtype=np.int64)
            )
            state = _StreamState(int(d), blocks, cached, one_way[int(d)])
            states.append(state)
            env.process(feed_disk(cid, inbox, state), name=f"stream-c{cid}-d{d}")
            total += len(blocks)
        return total

    # -- speculative client ------------------------------------------------

    def spec_client(cid):
        fin = _Final()
        finals[cid] = fin
        tracker = spec.completion.tracker(scheme, record, plan)
        observe = getattr(tracker, "observe", None)
        fin.tracker = tracker
        inbox = Store(env)
        yield env.timeout(t0)
        total = launch_streams(cid, inbox, fin.states, disk_ids, plan.placement)
        outcomes = 0
        deferred = []  # blocks whose arrival never materialised
        last_finite = t0

        def consume():
            """Drain arrivals into the tracker until it completes."""
            nonlocal outcomes, last_finite
            while outcomes < total and not tracker.complete:
                t, bid, state, pos = yield inbox.get()
                outcomes += 1
                if np.isfinite(t):
                    last_finite = t
                    fin.consumed += 1
                    _consume_one(tracker, observe, t, bid)
                    fin.order.append(int(bid))
                    if tracker.complete:
                        fin.t_fill = float(t)
                else:
                    deferred.append((int(bid), state, pos))

        yield env.process(consume(), name=f"consume-c{cid}")

        injector = cluster.faults
        if (
            not tracker.complete
            and injector is not None
            and getattr(spec.reaction, "respeculates", False)
        ):
            # Mid-read faults stalled the access: the reaction decides
            # which disks can serve a second round, and when.
            pending: dict[int, list[int]] = {}
            for bid, state, _pos in deferred:
                if not injector.permanently_failed(state.disk_id):
                    pending.setdefault(state.disk_id, []).append(bid)
            resolved = spec.reaction.retry_targets(scheme, pending, last_finite, t0)
            if resolved is not None:
                retry_disks, t_retry = resolved
                fin.rounds = 2
                if scheme.tracer.enabled:
                    scheme.tracer.count("scheme.respeculations")
                if t_retry > env.now:
                    yield env.timeout(t_retry - env.now)
                total += launch_streams(
                    cid, inbox, fin.states, retry_disks,
                    [pending[d] for d in retry_disks],
                )
                yield env.process(consume(), name=f"consume2-c{cid}")

        if not tracker.complete:
            # The closed form consumes never-arriving blocks too (their
            # arrival time is inf): a tracker may complete on them, which
            # keeps block accounting honest while the latency stays inf.
            for bid, _state, _pos in deferred:
                fin.consumed += 1
                _consume_one(tracker, observe, float("inf"), bid)
                fin.order.append(int(bid))
                if tracker.complete:
                    break

        t_done, t_cancel = spec.completion.finish(scheme, tracker, fin.t_fill)
        fin.t_done = t_done

        def cancel_one(d, at):
            delay = at + one_way[d] - env.now
            if delay > 0:
                yield env.timeout(delay)
            drives[d].cancel_client(cid)

        if np.isfinite(t_cancel):
            for d in dict.fromkeys(s.disk_id for s in fin.states):
                env.process(cancel_one(d, t_cancel), name=f"cancel-c{cid}-d{d}")

        # Drain every remaining outcome (served, in flight, cancelled or
        # flushed) so the stream records are complete for the epilogue.
        while outcomes < total:
            yield inbox.get()
            outcomes += 1

    # -- adaptive client ---------------------------------------------------

    def adaptive_client(cid):
        fin = _Final()
        finals[cid] = fin
        tracker = spec.completion.tracker(scheme, record, plan)
        observe = getattr(tracker, "observe", None)
        fin.tracker = tracker
        inbox = Store(env)
        yield env.timeout(t0)
        primaries, holder_map = spec.placement.adaptive_units(cfg, record)
        primaries = [[int(b) for b in ids] for ids in primaries]
        n = len(disk_ids)
        fin.fetched = [0] * n
        budget = _HANDOFF_BUDGET_PER_DISK * n
        # unit -> True per disk, insertion-ordered: the steal scan must be
        # deterministic, so sets are out.
        outstanding: list[dict[int, bool]] = [dict() for _ in range(n)]
        reassigned: dict[int, int] = {}
        #: Units whose data already reached the client — no longer worth
        #: stealing even while a stale copy sits in some queue.
        resolved: set[int] = set()
        #: Units already fetched speculatively a second time; one
        #: duplicate per unit keeps the race bounded.
        duplicated: set[int] = set()
        total = sum(len(p) for p in primaries)
        tracer = scheme.tracer
        # Per-disk observed pace, the client's basis for single-block
        # steal decisions (§5.3.1): request arrival, last foreground
        # completion, foreground blocks served.
        t_arrived = [float("inf")] * n
        last_comp = [0.0] * n
        n_served = [0] * n

        def observed_avg(idx):
            """Wall time per block the client has seen from one disk."""
            if not n_served[idx] or not np.isfinite(t_arrived[idx]):
                return float("inf")
            return (last_comp[idx] - t_arrived[idx]) / n_served[idx]

        def steal_decision(thief_idx):
            """The client reacts to a drained disk: find a victim, steal."""
            nonlocal total
            yield env.timeout(one_way[disk_ids[thief_idx]])
            if fin.handoffs >= budget or tracker.complete:
                return
            best, best_cnt = None, 0
            for b_idx in range(n):
                if b_idx == thief_idx:
                    continue
                cnt = sum(
                    1
                    for u in outstanding[b_idx]
                    if u not in resolved and thief_idx in holder_map.get(u, ())
                )
                if cnt > best_cnt:
                    best, best_cnt = b_idx, cnt
            if best is None:
                return
            elig = [
                u
                for u in outstanding[best]
                if u not in resolved and thief_idx in holder_map.get(u, ())
            ]
            if not elig:
                return
            if len(elig) == 1:
                # Hand-off of a victim's last block: only worthwhile when
                # the thief is clearly faster by the client's observed
                # per-disk pace — otherwise two idle disks would bounce
                # the block forever (same rule as the closed form).
                thief_time = observed_avg(thief_idx) + 3 * one_way[
                    disk_ids[thief_idx]
                ]
                if not thief_time < 0.5 * observed_avg(best):
                    return
            steal = elig[len(elig) // 2 :]  # the second half
            fin.handoffs += 1
            if tracer.enabled:
                tracer.count("scheme.handoffs")
                tracer.instant(
                    "scheme.round",
                    "scheme",
                    env.now,
                    track="scheme",
                    args={
                        "round": fin.handoffs + 1,
                        "thief": disk_ids[thief_idx],
                        "victim": disk_ids[best],
                        "eligible": best_cnt,
                    },
                )
            victim_d = disk_ids[best]
            # The cancel message crosses to the victim's filer first.
            yield env.timeout(one_way[victim_d])
            for u in steal:
                reassigned[u] = thief_idx
            removed = drives[victim_d].cancel_blocks(cid, steal)
            if removed == 0 and len(steal) == 1:
                # The block is already in service: the drive model serves
                # whole blocks, so instead of the closed form's fractional
                # mid-transfer hand-off the thief fetches a speculative
                # duplicate and the first arrival wins (once per unit).
                u = steal[0]
                reassigned.pop(u, None)
                if u not in duplicated:
                    duplicated.add(u)
                    total += 1
                    env.process(unit_fetch(u, thief_idx), name=f"dup-c{cid}")

        def unit_fetch(unit, idx):
            """One unit's life: queue at its disk, follow hand-offs, arrive.

            A unit flushed or aborted by a fault fails over to the next
            holder of a replica (each holder tried at most once) — the
            event-engine analogue of stealing from a failed victim.
            """
            visited = {idx}
            while True:
                d = disk_ids[idx]
                outstanding[idx][unit] = True
                req = drives[d].submit_block(tag=(cid, unit))
                finished = yield req.done
                outstanding[idx].pop(unit, None)
                if finished is None:
                    # Stolen while queued: re-request from the thief.
                    idx = reassigned.pop(unit, idx)
                    visited.add(idx)
                    continue
                if not np.isfinite(finished):
                    holders = sorted(holder_map.get(unit, ()))
                    nxt = next((h for h in holders if h not in visited), None)
                    if nxt is not None:
                        idx = nxt
                        visited.add(idx)
                        continue
                    inbox.put((float("inf"), unit, idx, None))
                    return
                fin.fetched[idx] += 1
                last_comp[idx] = float(finished)
                n_served[idx] += 1
                if not outstanding[idx]:
                    # The disk drained at this completion; the client
                    # notices one one-way later (inside steal_decision).
                    env.process(steal_decision(idx), name=f"steal-c{cid}")
                arr = response_arrival_times(cluster, d, finished, one_way[d])
                if not np.isfinite(arr):
                    inbox.put((float("inf"), unit, idx, None))
                    return
                yield env.timeout(float(arr) - env.now)
                resolved.add(unit)
                inbox.put((env.now, unit, idx, None))
                return

        def disk_round1(idx):
            d = disk_ids[idx]
            t_arrive = request_arrival_time(cluster, d, env.now, one_way[d])
            if not np.isfinite(t_arrive):
                for b in primaries[idx]:
                    inbox.put((float("inf"), b, idx, None))
                return
            yield env.timeout(t_arrive - env.now)
            t_arrived[idx] = env.now
            ids = primaries[idx]
            filer = cluster.filer_of_disk(d)
            cached = filer.cached_blocks(
                file_name, np.asarray(ids, dtype=np.int64)
            )
            hit_ids = [b for b, c in zip(ids, cached) if c]
            for b in hit_ids:
                arr = response_arrival_times(cluster, d, env.now, one_way[d])
                env.process(
                    deliver(cid, inbox, _hit_state(d, b), 0, b, float(arr)),
                    name=f"hit-c{cid}",
                )
            filer.record_read(file_name, hit_ids, cfg.block_bytes)
            fin.cache_hits += len(hit_ids)
            queued = [b for b, c in zip(ids, cached) if not c]
            for b in queued:
                env.process(unit_fetch(int(b), idx), name=f"unit-c{cid}")
            if not queued:
                # Nothing to serve: the disk is idle from the request's
                # arrival and immediately looks for work to steal (this is
                # what lets mirror+adaptive's idle half participate).
                env.process(steal_decision(idx), name=f"steal-c{cid}")

        def _hit_state(d, b):
            # Cache hits need no completion/arrival record keeping for the
            # adaptive settle; a tiny throwaway state satisfies deliver().
            return _StreamState(d, [b], [True], one_way[d])

        for idx in range(n):
            env.process(disk_round1(idx), name=f"round1-c{cid}-d{disk_ids[idx]}")

        outcomes = 0
        deferred: list[int] = []
        while outcomes < total and not tracker.complete:
            t, unit, _idx, _ = yield inbox.get()
            outcomes += 1
            if np.isfinite(t):
                fin.consumed += 1
                _consume_one(tracker, observe, t, unit)
                fin.order.append(int(unit))
                if tracker.complete:
                    fin.t_fill = float(t)
            else:
                deferred.append(int(unit))
        if not tracker.complete:
            for unit in deferred:
                fin.consumed += 1
                _consume_one(tracker, observe, float("inf"), unit)
                fin.order.append(int(unit))
                if tracker.complete:
                    break
        fin.t_done, _ = spec.completion.finish(scheme, tracker, fin.t_fill)
        # No cancel: the adaptive engine lets outstanding queues drain
        # (same as the closed form's event loop running dry).
        while outcomes < total:
            yield inbox.get()
            outcomes += 1

    # -- run ---------------------------------------------------------------

    make = adaptive_client if adaptive else spec_client
    clients = [
        env.process(make(cid), name=f"client-{cid}") for cid in range(n_clients)
    ]
    # Background generators run forever; stop once every client finished.
    env.run(until=env.all_of(clients))

    fin = finals[0]
    if adaptive:
        net_bytes = (sum(fin.fetched) + fin.cache_hits) * cfg.block_bytes
        for idx, d in enumerate(disk_ids):
            cluster.filer_of_disk(d).link.account(
                fin.fetched[idx] * cfg.block_bytes
            )
        trace_read_summary(
            scheme.tracer, scheme.name, trial, t0, fin.t_done, fin.consumed,
            cfg.block_bytes, cfg.data_bytes,
            network_bytes=net_bytes,
            span_args={"rounds": fin.handoffs + 1},
            failed_instant=False,
        )
        spec.completion.trace(
            scheme.tracer, fin.tracker, fin.t_fill, fin.t_done, fin.consumed
        )
        extra = dict(plan.extra)
        extra.update(
            spec.completion.extras(scheme, fin.tracker, fin.t_fill, fin.t_done)
        )
        extra["handoffs"] = fin.handoffs
        if spec.completion.wants_order:
            extra["arrival_order"] = fin.order[: fin.consumed]
        spec.reaction.annotate(scheme, record, extra, fin.t_done, t0)
        result = AccessResult(
            latency_s=fin.t_done,
            data_bytes=cfg.data_bytes,
            network_bytes=net_bytes,
            disk_blocks=sum(fin.fetched),
            blocks_received=fin.consumed,
            cache_hits=fin.cache_hits,
            rounds=fin.handoffs + 1,
            extra=extra,
        )
    else:
        streams = [s.to_disk_stream() for s in fin.states]
        result = read_epilogue(
            scheme, spec, record, plan, trial,
            streams, fin.tracker, fin.t_fill, fin.consumed, fin.order,
            fin.rounds, t0,
        )
    return EventAccess(
        latency_s=result.latency_s,
        blocks_received=result.blocks_received,
        network_bytes=result.network_bytes,
        per_client={cid: finals[cid].t_done for cid in range(n_clients)},
        result=result,
    )


def event_write(scheme, file_name: str, trial: int = 0) -> AccessResult:
    """Run one write fully event-driven, through the composition's policies.

    Uniform-family writes (the write policy exposes ``encode_tail_s``)
    push every stored queue and wait for the slowest commit ack; the
    speculative rateless write (the policy exposes ``supply_plan``) feeds
    merged commit acks to the shared
    :class:`~repro.accesscore.trackers.DecodableCommit` gate and settles
    through the policy's ``commit``.
    """
    write = scheme.spec.write
    if hasattr(write, "supply_plan"):
        return _event_speculative_write(scheme, write, file_name, trial)
    return _event_uniform_write(scheme, write, file_name, trial)


def _event_uniform_write(scheme, write, file_name: str, trial: int) -> AccessResult:
    spec = scheme.spec
    cfg = scheme.config
    cluster = scheme.cluster
    disks = scheme.select_disks(trial)
    pspec = spec.placement.plan(cfg, len(disks), trial)
    env = Environment()
    drives = build_drives(env, scheme, disks, trial)
    attach_faults(env, cluster, drives)
    t0 = scheme.open_latency()
    acks: list[float] = []
    net = 0

    def waiter(d, one_way, req, inbox):
        finished = yield req.done
        if finished is None or not np.isfinite(finished):
            inbox.put(float("inf"))
            return
        ack = response_arrival_times(cluster, d, finished, one_way)
        inbox.put(float(ack))

    def disk_write(d, blocks, inbox):
        filer = cluster.filer_of_disk(int(d))
        one_way = filer.link.one_way_s
        t_arrive = request_arrival_time(cluster, int(d), env.now, one_way)
        if not np.isfinite(t_arrive):
            for _ in blocks:
                inbox.put(float("inf"))
            return
        yield env.timeout(t_arrive - env.now)
        for b in blocks:
            req = drives[int(d)].submit_block(tag=(0, int(b)))
            env.process(waiter(int(d), one_way, req, inbox), name="write-ack")

    def client():
        nonlocal net
        yield env.timeout(t0)
        inbox = Store(env)
        total = 0
        for idx, d in enumerate(disks):
            blocks = pspec.placement[idx]
            env.process(disk_write(d, blocks, inbox), name=f"write-d{d}")
            total += len(blocks)
            nbytes = len(blocks) * cfg.block_bytes
            net += nbytes
            if scheme.tracer.enabled:
                scheme.tracer.account_bytes("network", nbytes)
            filer = cluster.filer_of_disk(int(d))
            filer.link.account(nbytes)
            filer.record_write(file_name, blocks, cfg.block_bytes)
        for _ in range(total):
            acks.append((yield inbox.get()))

    proc = env.process(client(), name="write-client")
    env.run(until=proc)
    t_done = max([t0] + acks) if acks else t0
    return write.settle(scheme, file_name, disks, pspec, t_done, net, t0)


def _event_speculative_write(scheme, write, file_name: str, trial: int) -> AccessResult:
    cfg = scheme.config
    cluster = scheme.cluster
    disks, per_disk_cap, target, graph = write.supply_plan(scheme, trial)
    h = len(disks)
    env = Environment()
    drives = build_drives(env, scheme, disks, trial)
    attach_faults(env, cluster, drives)
    t0 = scheme.open_latency()
    one_ways = [cluster.filer_of_disk(int(d)).link.one_way_s for d in disks]
    completions: list[list[float]] = [[] for _ in disks]
    outcome: dict = {"t_enough": None, "saw_inf": False}

    def waiter(idx, bid, req, inbox):
        finished = yield req.done
        if finished is None or not np.isfinite(finished):
            inbox.put((float("inf"), bid))
            return
        completions[idx].append(float(finished))
        ack = response_arrival_times(
            cluster, int(disks[idx]), finished, one_ways[idx]
        )
        if not np.isfinite(ack):
            inbox.put((float("inf"), bid))
            return
        yield env.timeout(float(ack) - env.now)
        inbox.put((env.now, bid))

    def disk_stream(idx, inbox):
        d = int(disks[idx])
        t_arrive = request_arrival_time(cluster, d, env.now, one_ways[idx])
        if not np.isfinite(t_arrive):
            for j in range(per_disk_cap):
                inbox.put((float("inf"), idx + h * j))
            return
        yield env.timeout(t_arrive - env.now)
        for j in range(per_disk_cap):
            bid = idx + h * j
            req = drives[d].submit_block(tag=(0, bid))
            env.process(waiter(idx, bid, req, inbox), name="commit-ack")

    def cancel_one(idx, at):
        delay = at + one_ways[idx] - env.now
        if delay > 0:
            yield env.timeout(delay)
        drives[int(disks[idx])].cancel_client(0)

    def client():
        yield env.timeout(t0)
        inbox = Store(env)
        for idx in range(h):
            env.process(disk_stream(idx, inbox), name=f"supply-d{disks[idx]}")
        total = h * per_disk_cap
        gate = write.commit_gate(graph, target)
        got = 0
        # Phase 1: feed finite commit acks to the decodability gate.
        while got < total and outcome["t_enough"] is None:
            t, bid = yield inbox.get()
            got += 1
            if np.isfinite(t):
                outcome["t_enough"] = gate.add(float(t), int(bid))
            else:
                outcome["saw_inf"] = True
        t_enough = outcome["t_enough"]
        if t_enough is not None:
            # Phase 2: cancel every still-queued commit, one hop out.
            for idx in range(h):
                env.process(cancel_one(idx, t_enough), name=f"wcancel-d{disks[idx]}")
        # Phase 3: drain so the committed multiset is fully recorded.
        while got < total:
            yield inbox.get()
            got += 1

    proc = env.process(client(), name="write-client")
    env.run(until=proc)

    t_enough = outcome["t_enough"]
    if t_enough is None or not np.isfinite(t_enough):
        if outcome["saw_inf"]:
            # Fault injection killed disks mid-write: the committed set
            # never reaches a decodable target.
            return failed_write_result(
                scheme, {"target_blocks": target, "write_failed": True}
            )
        raise RuntimeError(
            "speculative write exhausted its rateless supply; "
            "increase WRITE_SUPPLY_FACTOR"
        )
    comp_arrays = [np.sort(np.asarray(c, dtype=np.float64)) for c in completions]
    return write.commit(
        scheme,
        file_name,
        disks,
        one_ways,
        comp_arrays,
        per_disk_cap,
        float(t_enough),
        graph,
        target,
        trial,
    )
