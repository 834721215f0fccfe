"""The engine-agnostic access pipeline: one scheme class for any composition.

A :class:`PolicyScheme` wires a cluster, a metadata server and an access
config to a :class:`~repro.core.policy.compose.SchemeSpec`, and delegates
every access to the composition's layers:

* ``prepare`` — placement policy provisions the balanced layout;
* ``write`` — write policy commits it (uniform / encode-overlap /
  speculative rateless);
* ``read`` — fault reaction plans the read (or short-circuits it), then
  the dispatch policy runs it against the completion policy's tracker.

Schemes need no hand-written class: :func:`scheme_class` builds one per
:data:`~repro.core.policy.compose.COMPOSITIONS` entry.
"""

from __future__ import annotations

import functools
from typing import Callable, ClassVar, Optional

import numpy as np

from repro.accesscore.repair import DEFAULT_REPAIR_FLOOR
from repro.accesscore.result import AccessConfig, AccessResult
from repro.accesscore.routing import open_latency_s
from repro.cluster.metadata import FileRecord, MetadataServer
from repro.cluster.server import Cluster
from repro.core.policy.compose import SchemeSpec, composition
from repro.core.scheduler import AccessScheduler
from repro.sim.rng import RngHub

__all__ = ["PolicyScheme", "scheme_class"]


class PolicyScheme:
    """A storage scheme assembled from the policy layers.

    Parameters
    ----------
    cluster:
        The storage cluster (servers, disks, caches, links).
    config:
        Access parameters (data size, block size, #disks, redundancy).
    hub:
        Deterministic RNG hub; every stochastic choice derives from it.
    metadata:
        Metadata server; a private one is created if omitted.
    """

    name = "base"
    spec: ClassVar[SchemeSpec]

    #: When permanent fail-stops push a file's surviving redundancy below
    #: this fraction of the configured degree, reads flag the file for a
    #: background rebuild (``extra["repair_triggered"]``;
    #: :func:`repro.core.repair.maybe_repair` acts on it).  Settable per
    #: instance.
    REPAIR_REDUNDANCY_FLOOR = DEFAULT_REPAIR_FLOOR

    def __init__(
        self,
        cluster: Cluster,
        config: AccessConfig,
        hub: RngHub | None = None,
        metadata: MetadataServer | None = None,
        selector: AccessScheduler | None = None,
    ) -> None:
        if config.n_disks > cluster.n_disks:
            raise ValueError(
                f"access wants {config.n_disks} disks, pool has {cluster.n_disks}"
            )
        self.cluster = cluster
        self.config = config
        self.hub = hub or RngHub(0)
        self.metadata = metadata or MetadataServer(tracer=cluster.tracer)
        self.selector = selector or AccessScheduler(cluster.n_disks)

    @property
    def tracer(self):
        """The cluster's tracer (the no-op tracer unless one is installed)."""
        return self.cluster.tracer

    # -- deterministic random streams ------------------------------------------
    def select_disks(self, trial: int) -> np.ndarray:
        """Pick this access's disks (random subset, random order)."""
        rng = self.hub.fresh("select", self.name, trial)
        return self.selector.select(self.config.n_disks, rng)

    def service_rng_factory(self, trial: int, phase: str) -> Callable[[int], np.random.Generator]:
        """Per-disk service random streams for one access phase.

        The returned factory also carries a ``phase_rng_for`` attribute: a
        sibling factory for the disk's background-phase draw (its own
        ``"bgphase"`` stream, so the phase draw no longer perturbs the
        service stream).  Callers probe it with ``getattr`` so hand-rolled
        factories in tests keep the legacy draw-from-service-stream path.
        """

        def rng_for(disk_id: int) -> np.random.Generator:
            return self.hub.fresh("svc", self.name, trial, phase, disk_id)

        def phase_rng_for(disk_id: int) -> np.random.Generator:
            return self.hub.fresh("bgphase", self.name, trial, phase, disk_id)

        rng_for.phase_rng_for = phase_rng_for
        return rng_for

    def reference_rng_factory(self, trial: int) -> Callable[[int], np.random.Generator]:
        """Per-disk service streams for the event-driven engine.

        A separate stream family (``"refsvc"``) from the closed form's
        ``"svc"``: the DES interleaves foreground and background draws per
        request, so sharing a stream would make the two engines perturb
        each other's draw order.  Keyed by (scheme, trial, disk) — the two
        engines stay independently reproducible.
        """

        def rng_for(disk_id: int) -> np.random.Generator:
            return self.hub.fresh("refsvc", self.name, trial, disk_id)

        return rng_for

    def open_latency(self) -> float:
        return open_latency_s(self.metadata)

    # -- the access pipeline -----------------------------------------------------
    def prepare(self, file_name: str, trial: int) -> FileRecord:
        """Provision a file (balanced layout) without simulating the write.

        Used by the read-only experiments, which study fresh reads of data
        assumed already stored.
        """
        disks = self.select_disks(trial)
        pspec = self.spec.placement.plan(self.config, len(disks), trial)
        return self._register(
            file_name, disks, pspec.placement, coding=pspec.coding, extra=pspec.extra
        )

    def write(self, file_name: str, trial: int) -> AccessResult:
        """Simulate a write access; registers the resulting file record."""
        return self.spec.write.write(self, self.spec, file_name, trial)

    def read(self, file_name: str, trial: int) -> AccessResult:
        """Simulate a read access of a prepared/written file."""
        record = self._record(file_name)
        plan = self.spec.reaction.plan_read(self, record)
        if isinstance(plan, AccessResult):
            return plan  # fate sealed before any disk was touched
        return self.spec.dispatch.read(self, self.spec, record, plan, trial)

    # -- shared helpers ----------------------------------------------------------
    def _register(
        self,
        file_name: str,
        disk_ids: np.ndarray,
        placement: list[list[int]],
        coding: Optional[dict] = None,
        extra: Optional[dict] = None,
    ) -> FileRecord:
        record = FileRecord(
            name=file_name,
            size_bytes=self.config.data_bytes,
            scheme=self.name,
            coding=coding or {},
            disk_ids=[int(d) for d in disk_ids],
            placement=[list(map(int, p)) for p in placement],
            extra=extra or {},
        )
        self.metadata.commit(record)
        return record

    def _record(self, file_name: str) -> FileRecord:
        return self.metadata.lookup(file_name)


@functools.cache
def scheme_class(name: str) -> type[PolicyScheme]:
    """The :class:`PolicyScheme` subclass bound to ``composition(name)``.

    Built once per name and cached, so repeated lookups return the same
    class.  Raises ``ValueError`` for names not in
    :data:`~repro.core.policy.compose.COMPOSITIONS`.
    """
    return type(
        f"Composed[{name}]",
        (PolicyScheme,),
        {
            "name": name,
            "spec": composition(name),
            "__doc__": f"Composition {name!r} (see COMPOSITIONS).",
        },
    )
