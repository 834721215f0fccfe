"""The benchmark's four workloads, each a fixed input run as one *pass*.

A pass is a sequence of *units* (one scheme's trials at one configuration
point, one part of the fleet), and yields :class:`Cell` outputs: one cell
per unit of work, checked and digested on its own.  The simulator only
ever receives the ``TrialPlan`` / ``ServePlan`` values built here from the
seed.

Why these four (each stresses different layers; see ``run.py``):

* ``read-sweep`` — the paper's headline figure (fig6_06), closed form.
  Sized like ``benchmarks/bench_sim.py`` so its results digest is the
  committed ``BENCH_sim.json`` one at seed 0.
* ``write-contended`` — writes and read-after-write under heterogeneous
  background load with the filer cache on (figs 6-29/6-32/6-35): peeling
  as the write commit gate, uniform-write timelines, the filesystem cache.
* ``event-engine`` — the same schemes on the event-driven engine: the DES
  kernel, drives, queues and geometry instead of closed-form dispatch.
* ``fleet`` — fault-storm reads through a worker pool, the repair economy
  grid, a byte-exact regenerating-code repair and one serving cell:
  faults, repair, rebuild, regenerating codes, serve and exec, which the
  other three never touch.  The repair grid only books bytes, so the
  regenerating-code kernels get their own part: coding CPU is measured
  apart from the rest of the repair cost.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.coding import regenerating
from repro.core.access import MB, AccessConfig
from repro.exec import Executor, Job, canonical_json
from repro.experiments import config as C
from repro.experiments.faultstorm import HORIZON_S as STORM_HORIZON_S
from repro.experiments.faultstorm import STORM
from repro.experiments.harness import TrialPlan, run_scheme
from repro.experiments.repair_experiment import POLICIES, REPAIR_SCHEMES, ext_repair
from repro.experiments.serve_experiment import base_plan
from repro.serve import StorageService
from repro.sim.rng import stable_digest, stable_seed
from speed import scale

SCHEMES = C.ALL_SCHEMES


@dataclass
class Cell:
    """One unit of work's output, checked and digested on its own."""

    name: str
    payload: object = None  # canonical JSON-able output
    results: list = field(default_factory=list)  # AccessResults, if any
    error: str | None = None
    reads: bool = False  # the results are reads (``raw`` ends with one)

    @property
    def digest(self) -> str:
        return stable_digest(canonical_json(self.payload))[:16]


def _failed(name: str, exc: Exception) -> Cell:
    """A cell whose unit raised: counted as failed, the pass goes on."""
    return Cell(name, error=f"{type(exc).__name__}: {exc}")


@dataclass
class PassOutput:
    cells: list
    #: Host wall time of each unit, and of the reference probe before the
    #: first unit and after each one (empty when no probe ran).
    unit_walls: list
    probe_walls: list
    #: Groups of units whose block arrivals ``events_per_s`` counts; each
    #: group runs the same accesses, so each is one timing sample.
    event_groups: list
    #: Pool wall and summed per-job walls of the pooled part (fleet only).
    pool: tuple | None = None

    @property
    def results(self) -> list:
        return [r for cell in self.cells for r in cell.results]

    @property
    def wall_s(self) -> float:
        return sum(self.unit_walls)

    def scaled_s(self, units=None) -> float:
        """Wall time at the reference host speed (see :mod:`speed`)."""
        units = range(len(self.unit_walls)) if units is None else units
        return sum(scale(self.unit_walls[i], self.probe_walls[i:i + 2]) for i in units)


def _access(**overrides) -> AccessConfig:
    base = dict(data_bytes=256 * MB, block_bytes=1 * MB, n_disks=64,
                redundancy=3.0, lt_c=1.0, lt_delta=0.5)
    base.update(overrides)
    return AccessConfig(**base)


def _trial_unit(name: str, plan: TrialPlan, scheme: str):
    def unit():
        try:
            results = run_scheme(plan, scheme)
        except Exception as exc:
            return [_failed(name, exc)]
        return [Cell(name, [r.to_jsonable() for r in results], results,
                     reads=plan.mode != "write")]

    return unit


def _check_trials(cell: Cell, trials: int, data_bytes: int, faults: bool) -> list[str]:
    """Problems with a cell of AccessResults (empty when it is sound)."""
    bad = []
    if len(cell.results) != trials:
        bad.append(f"{len(cell.results)} results for {trials} trials")
    for r in cell.results:
        if math.isnan(r.latency_s) or r.latency_s <= 0:
            bad.append(f"latency {r.latency_s}")
        elif not faults and not math.isfinite(r.latency_s):
            bad.append("access failed without faults")
        if r.data_bytes != data_bytes or r.blocks_received < 0 or r.disk_blocks < 0:
            bad.append("inconsistent byte or block counts")
    return bad


class Workload:
    name = ""
    #: Parameters recorded with every result row.
    params: dict = {}

    def __init__(self, seed: int, pool_jobs: int = 1) -> None:
        self.seed = seed
        self.pool_jobs = pool_jobs
        self.pool = None

    def units(self) -> list:
        """The pass's units: callables returning their cells."""
        raise NotImplementedError

    def event_groups(self, n_units: int) -> list:
        return [range(n_units)]

    def run_pass(self, probe=None) -> PassOutput:
        """Run every unit once; ``probe()`` runs before and after each."""
        units = self.units()
        cells, walls = [], []
        probes = [probe()] if probe else []
        for unit in units:
            t0 = perf_counter()
            cells += unit()
            walls.append(perf_counter() - t0)
            if probe:
                probes.append(probe())
        return PassOutput(cells, walls, probes, self.event_groups(len(units)), self.pool)

    def check(self, cell: Cell) -> list[str]:
        raise NotImplementedError


class ReadSweep(Workload):
    name = "read-sweep"
    params = {"disk_counts": [2, 8, 16, 64, 128], "schemes": list(SCHEMES),
              "trials": 16, "data_mb": 256, "engine": "closed", "mode": "read"}

    def plans(self):
        for h in self.params["disk_counts"]:
            plan = TrialPlan(access=_access(n_disks=h), mode="read", seed=self.seed,
                             trials=self.params["trials"], engine="closed")
            for scheme in SCHEMES:
                yield h, scheme, plan

    def units(self):
        return [_trial_unit(f"h{h}/{s}", p, s) for h, s, p in self.plans()]

    def check(self, cell: Cell) -> list[str]:
        return _check_trials(cell, self.params["trials"], 256 * MB, faults=False)

    def bench_sim_digest(self, cells) -> str:
        """The digest ``benchmarks/bench_sim.py`` computes for this grid."""
        keyed = [(h, s, c.payload) for (h, s, _), c in zip(self.plans(), cells)]
        return stable_digest(json.dumps(keyed, sort_keys=True))


class WriteContended(Workload):
    name = "write-contended"
    params = {"n_disks": 64, "redundancies": [2.0, 4.0], "schemes": list(SCHEMES),
              "trials": 2, "data_mb": 256, "background": "heterogeneous",
              "legs": {"write": "no cache", "raw": "filer cache on"}}

    def units(self):
        p = self.params
        units = []
        for d in p["redundancies"]:
            for mode, cache in (("write", 0), ("raw", C.FS_CACHE_BYTES)):
                plan = TrialPlan(access=_access(redundancy=d), mode=mode,
                                 background="heterogeneous", fs_cache_bytes=cache,
                                 seed=self.seed, trials=p["trials"], engine="closed")
                units += [_trial_unit(f"{mode}/D{d}/{s}", plan, s) for s in SCHEMES]
        return units

    def check(self, cell: Cell) -> list[str]:
        return _check_trials(cell, self.params["trials"], 256 * MB, faults=False)


class EventEngine(Workload):
    name = "event-engine"
    params = {"disk_counts": [16, 64], "modes": ["read", "write"],
              "schemes": list(SCHEMES), "trials": 4, "data_mb": 64, "engine": "event"}

    def units(self):
        p = self.params
        units = []
        for h in p["disk_counts"]:
            for mode in p["modes"]:
                plan = TrialPlan(access=_access(n_disks=h, data_bytes=64 * MB),
                                 mode=mode, seed=self.seed, trials=p["trials"],
                                 engine="event")
                units += [_trial_unit(f"{mode}/h{h}/{s}", plan, s) for s in SCHEMES]
        return units

    def check(self, cell: Cell) -> list[str]:
        return _check_trials(cell, self.params["trials"], 64 * MB, faults=False)


class Fleet(Workload):
    name = "fleet"
    params = {"storm": {"schemes": list(SCHEMES), "trials": 20, "data_mb": 128,
                        "n_disks": 32, "horizon_s": STORM_HORIZON_S, "batches": 2},
              "repair": {"schemes": list(REPAIR_SCHEMES),
                         "policies": [p for p, _ in POLICIES],
                         "data_mb": 64, "n_disks": 32, "files": 4},
              "regen": {"codes": [["msr", 3, 4, 12], ["mbr", 3, 4, 10]],
                        "symbol_bytes": 32 << 10},
              "serve": {"scheme": "robustore", "clients": 100_000}}

    def units(self):
        regen = self.params["regen"]
        return ([lambda b=b: self.storm_reads(b) for b in range(self.params["storm"]["batches"])]
                + [self.repair_grid]
                + [lambda c=code: [self.regen_repair(*c, regen["symbol_bytes"])]
                   for code in regen["codes"]]
                + [self.serve_cell])

    def event_groups(self, n_units: int) -> list:
        # Each storm batch is one sample: a pooled part on two cores is
        # noisier than the probe can correct, so it is timed more often.
        return [range(b, b + 1) for b in range(self.params["storm"]["batches"])]

    def storm_reads(self, batch: int) -> list:
        """Fault-storm reads (``ext_faultstorm``'s shape) as pooled jobs."""
        storm = self.params["storm"]
        plan = TrialPlan(
            access=AccessConfig(data_bytes=storm["data_mb"] * MB, n_disks=storm["n_disks"]),
            seed=self.seed, fault_model=STORM, fault_horizon_s=STORM_HORIZON_S,
            trials=storm["trials"], engine="closed",
        )
        executor = Executor(jobs=self.pool_jobs, store=None)
        names = [f"storm{batch}/{s}" for s in SCHEMES]
        t0 = perf_counter()
        try:
            batches = executor.run_jobs([Job(plan, s) for s in SCHEMES])
        except Exception as exc:
            return [_failed(n, exc) for n in names]
        finally:
            self.pool = (perf_counter() - t0,
                         sum(w for _, w, _ in executor.stats.job_walls))
        return [Cell(n, [r.to_jsonable() for r in rs], rs, reads=True)
                for n, rs in zip(names, batches)]

    def repair_grid(self) -> list:
        """``ext_repair``: coding family x rebuild scheduler under one storm."""
        rep = self.params["repair"]
        names = [f"repair/{s}/{pol}" for s in REPAIR_SCHEMES for pol, _ in POLICIES]
        try:
            economy = ext_repair(data_mb=rep["data_mb"], n_disks=rep["n_disks"],
                                 seed=self.seed, trials=rep["files"])
        except Exception as exc:
            return [_failed(n, exc) for n in names]
        return [Cell(name, {"row": row,
                            "ledger": economy.summaries[f"{row['scheme']}/{row['policy']}"]})
                for name, row in zip(names, economy.rows)]

    def regen_repair(self, mode, k, d, n, symbol_bytes) -> Cell:
        """Encode a seeded message, lose a node, repair it from ``d`` helpers."""
        name = f"regen/{mode}"
        try:
            # Resolved at call time, so the traced run's wrapper applies.
            code = regenerating.product_matrix_code(mode, k, d, n)
            rng = np.random.default_rng(stable_seed("perfbench-regen", self.seed, mode))
            message = rng.integers(0, 256, size=(code.B, symbol_bytes), dtype=np.uint8)
            nodes = code.encode(message)
            order = [int(x) for x in rng.permutation(n)]
            lost, helpers = order[0], order[1:d + 1]
            symbols = np.stack([code.helper_symbol(nodes[h], lost) for h in helpers])
            repaired = code.repair(lost, helpers, symbols)
            decoded = code.decode(order[1:k + 1], nodes[order[1:k + 1]])
        except Exception as exc:
            return _failed(name, exc)
        return Cell(name, {
            "lost": lost, "helpers": helpers,
            "repaired": stable_digest(repaired.tobytes()),
            "exact_repair": bool(np.array_equal(repaired, nodes[lost])),
            "exact_decode": bool(np.array_equal(decoded, message)),
        })

    def serve_cell(self) -> list:
        srv = self.params["serve"]
        name = f"serve/{srv['scheme']}/{srv['clients']}"
        try:
            report = StorageService(base_plan(srv["clients"], seed=self.seed),
                                    srv["scheme"]).run()
        except Exception as exc:
            return [_failed(name, exc)]
        return [Cell(name, report.to_jsonable())]

    def check(self, cell: Cell) -> list[str]:
        if cell.name.startswith("regen/"):
            ok = cell.payload["exact_repair"] and cell.payload["exact_decode"]
            return [] if ok else ["regenerating repair or decode is not byte-exact"]
        if cell.name.startswith("storm"):
            return _check_trials(cell, self.params["storm"]["trials"],
                                 self.params["storm"]["data_mb"] * MB, faults=True)
        if cell.name.startswith("repair/"):
            row, ledger = cell.payload["row"], cell.payload["ledger"]
            bad = []
            if not 1 <= row["kills"] <= 2:
                bad.append(f"{row['kills']} kills outside the sampled window")
            if ledger["bytes_read_helpers"] <= 0 or row["inline"] + row["drained"] < 1:
                bad.append("storm triggered no metered repair")
            return bad
        report = cell.payload
        if report["admitted"] + report["rejected"] != report["offered"] or report["offered"] < 1:
            return ["serve report does not add up"]
        return []


WORKLOADS = {w.name: w for w in (ReadSweep, WriteContended, EventEngine, Fleet)}


def pool_jobs() -> int:
    """Worker processes for the fleet's pooled part: ``min(2, nproc)``."""
    return min(2, os.cpu_count() or 1)
