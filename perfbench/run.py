"""The simulator's benchmark: one workload, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-sweep --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload fleet --seed 3 --seconds 12 --trace 1
    python3 perfbench/run.py --record-digests 0-31 [--workload fleet]  # after a
                                         # deliberate change of simulated results

Every time is **host** time unless its name starts with ``sim_``, which
is simulated time.  A run of ``--trace 0`` does, in order:

1. set-up: import ``repro`` and run one full warm pass of the workload
   (this fills the process-global memos: the LT graph pool, the
   regenerating-code memo, lazy imports).  The same set-up is repeated in
   fresh interpreters; ``setup_s`` is the median of all of them.
2. steady state: repeat the pass for ``--seconds`` (at least three
   times); ``pass_s`` is the median pass.

``--trace 1`` instead wraps each layer's public callables (``layers.py``),
runs two traced passes and reports per-layer self time and work counts;
the counts must repeat exactly between the two.  Spans are written to
``perfbench/out/`` as a Chrome trace plus a per-layer table.

Host times are scaled to a reference host speed, measured by a fixed
probe loop run between the units of each pass (``speed.py``); the raw
wall times are kept in the result row.

The filer-cache model places lines by Python's ``hash()`` of tuples that
hold strings, so cached results depend on ``PYTHONHASHSEED``.  The
benchmark pins it to 0 (re-executing itself if needed), so that digests
compare across processes and runs.

Correctness: every cell (one unit of work) is checked for sound outputs,
for equality with the warm pass and with the fresh interpreters, and,
for the seeds recorded in ``digests.json``, against the recorded digest.
A cell that raises or fails a check counts in ``ops_failed_frac`` and
fails the run.  The last line of standard output is the result JSON.
"""

import os
import sys
from time import perf_counter

T_BOOT = perf_counter()

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import probe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: Fresh interpreters that repeat the set-up, besides this process.
SETUP_CHILDREN = 2
#: Steady passes measured even when ``--seconds`` is shorter.
MIN_PASSES = 3

#: Layers each workload must exercise (coverage check of the traced run).
#: ``coding.lt`` builds graphs only while the pool fills, so it is checked
#: on the traced set-up pass.
EXPECTED = {
    "read-sweep": ("sim.rng", "disk.service", "core.policy.dispatch",
                   "accesscore.timeline", "coding.peeling", "core.policy.placement",
                   "cluster.server"),
    "write-contended": ("sim.rng", "disk.service", "core.policy.dispatch",
                        "core.policy.write", "accesscore.timeline", "coding.peeling",
                        "core.policy.placement", "cluster.server", "cluster.fscache"),
    "event-engine": ("sim.rng", "disk.service", "core.policy.write",
                     "accesscore.timeline", "coding.peeling", "cluster.server",
                     "sim.core", "disk.drive", "disk.scheduler", "disk.geometry",
                     "accesscore.events"),
    "fleet": ("sim.rng", "disk.service", "core.policy.dispatch", "cluster.server",
              "faults", "core.repair", "rebuild", "coding.regenerating", "serve", "exec"),
}
EXPECTED_AT_SETUP = ("coding.lt",)
FLEET_ONLY = ("faults", "core.repair", "rebuild", "coding.regenerating", "serve", "exec")

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "events_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", metavar="A-B",
                    help="record per-cell digests for seeds A..B (of --workload, or all)")
    args = ap.parse_args(argv)
    if not args.record_digests and not args.workload:
        ap.error("--workload is required")
    return args


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Counts cells and checks each against its references.

    ``failed`` counts cells; ``problems`` also holds the run-level checks
    (coverage, repeatable counts, the bench_sim digest), and any problem
    makes the run incorrect.
    """

    def __init__(self, wl, recorded):
        self.wl = wl
        self.recorded = recorded  # list of digests for this seed, or None
        self.reference = None  # warm-pass digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail_cells(self, n: int, text: str) -> None:
        self.failed += n
        self.problems.append(text)

    def check(self, out, label: str) -> list[str]:
        digests = []
        for i, cell in enumerate(out.cells):
            self.attempted += 1
            why = cell.error or "; ".join(self.wl.check(cell))
            digest = None if cell.error else cell.digest
            if not why and self.reference is not None and digest != self.reference[i]:
                why = "differs from the warm pass"
            if not why and self.recorded is not None and (
                    i >= len(self.recorded) or digest != self.recorded[i]):
                why = "differs from the recorded digest"
            if why:
                self.fail_cells(1, f"{label} {cell.name}: {why}")
            digests.append(digest)
        if self.recorded is not None and len(out.cells) != len(self.recorded):
            self.problems.append(f"{label}: {len(out.cells)} cells, "
                                 f"{len(self.recorded)} recorded")
        if self.reference is None:
            self.reference = digests
        return digests

    def count_child(self, digests, label):
        """Cells of a fresh interpreter's set-up pass."""
        for i, digest in enumerate(digests):
            if digest != self.reference[i]:
                self.fail_cells(1, f"{label} cell {i}: differs across processes")


def sim_metrics(cells) -> tuple[float, float]:
    """Mean delivered bandwidth (MB/s, failed = 0) and median per-cell latency CV.

    The CV is taken per cell (one configuration's trials), as the paper
    does; failed accesses are left out of it.
    """
    import numpy as np
    from repro.core.access import MB

    results = [r for c in cells for r in c.results]
    bw = [r.bandwidth_bps / MB if math.isfinite(r.latency_s) else 0.0 for r in results]
    cvs = []
    for cell in cells:
        lat = np.array([r.latency_s for r in cell.results if math.isfinite(r.latency_s)])
        if lat.size >= 2:
            cvs.append(float(lat.std() / lat.mean()))
    return float(np.mean(bw)), float(np.median(cvs))


def provenance(args, wl) -> dict:
    import numpy as np
    from repro.sim.rng import stable_digest

    files = sorted(SRC.rglob("*.py"))
    src_digest = stable_digest(*(f"{p.relative_to(SRC)}\0{p.read_text()}" for p in files))
    return {"workload": wl.name, "seed": args.seed, "params": wl.params,
            "trace": bool(args.trace), "seconds": args.seconds, "commit": git_commit(),
            "src_digest": src_digest, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def git_commit() -> str | None:
    """HEAD's commit, read from the checkout's own ``.git`` (None without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_recorded(name: str, seed: int):
    if not DIGESTS.exists():
        return None, None
    data = json.loads(DIGESTS.read_text())
    recorded = data["cells"].get(name, {}).get(str(seed))
    return (recorded.split() if recorded else None), data.get("bench_sim_seed0")


def finish(args, wl, checker, metrics, lines, extra_row) -> int:
    """Print the report, the provenance row and the result line."""
    failed = checker.failed
    correct = not checker.problems
    for line in lines:
        print(line)
    for problem in checker.problems[:50]:
        print(f"FAILED {problem}")
    row = provenance(args, wl)
    row.update(extra_row)
    row.update({"correct": correct, "attempted": checker.attempted, "failed": failed,
                "ops_failed_frac": failed / max(1, checker.attempted),
                "metrics": metrics})
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    print("row: " + json.dumps(row, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- end-to-end run -------------------------------------------------------------

def run_end_to_end(args, wl, checker) -> int:
    from workloads import Fleet

    warm, setup_s = warm_pass(wl)
    checker.check(warm, "warm pass")
    check_bench_sim(args, wl, warm, checker)
    setups = [setup_s]
    for i in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        checker.attempted += len(warm.cells)
        if child.returncode != 0:
            checker.fail_cells(len(warm.cells), f"set-up process {i} exited "
                               f"{child.returncode}: {child.stderr.strip()[-400:]}")
            continue
        reply = json.loads(child.stdout.strip().splitlines()[-1])
        setups.append(reply["setup_s"])
        checker.count_child(reply["digests"], f"set-up process {i}")

    walls, scaled, event_scaled = [], [], []
    t_start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - t_start < args.seconds:
        out = wl.run_pass(probe)
        checker.check(out, f"pass {len(walls)}")
        walls.append(out.wall_s)
        scaled.append(out.scaled_s())
        event_scaled += [out.scaled_s(group) for group in out.event_groups]

    events = sum(r.blocks_received for r in warm.results) // len(warm.event_groups)
    bw_mean, lat_cv = sim_metrics(warm.cells)
    values = {"setup_s": median(setups), "pass_s": median(scaled),
              "events_per_s": events / median(event_scaled),
              "peak_rss_mb": peak_rss_mb()}
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    # Reported, not bounded: a fraction that is 0 when all is well, and
    # simulated statistics that are exact for a seed (the digests pin
    # them) but differ from seed to seed by more than any time bound.
    failed_frac = checker.failed / max(1, checker.attempted)
    printed = dict(values, ops_failed_frac=failed_frac, sim_bw_mbps_mean=bw_mean,
                   sim_latency_cv=lat_cv)
    units = dict(END_TO_END_UNITS, ops_failed_frac="ratio", sim_bw_mbps_mean="MB/s",
                 sim_latency_cv="ratio")
    lines = [f"workload {wl.name}  seed {args.seed}  "
             f"({'storm reads' if isinstance(wl, Fleet) else 'all cells'} "
             f"give {events} block arrivals per timed sample)"]
    lines += [f"  {k:<18}{v:>16.6g} {units[k]}" for k, v in printed.items()]
    lines.append(f"  ({checker.failed} of {checker.attempted} cells failed)")
    lines.append(f"  set-up samples {[round(s, 4) for s in setups]}, "
                 f"{len(walls)} steady passes {[round(w, 4) for w in scaled]} "
                 f"(raw wall {[round(w, 4) for w in walls]}, median {median(walls):.4f} s)")
    return finish(args, wl, checker, metrics, lines,
                  {"setup_samples": setups, "pass_scaled": scaled, "pass_walls": walls,
                   "sim_bw_mbps_mean": bw_mean, "sim_latency_cv": lat_cv})


def warm_pass(wl):
    """The set-up's warm pass; return it and the set-up time so far.

    Set-up time is the time since the interpreter reached this script's
    first line, with the warm pass scaled to the reference host speed.
    """
    t_ready = perf_counter()
    warm = wl.run_pass(probe)
    return warm, (t_ready - T_BOOT) + warm.scaled_s()


def check_bench_sim(args, wl, out, checker):
    """At seed 0 the read sweep must reproduce ``BENCH_sim.json``'s digest."""
    _, expected = load_recorded(wl.name, args.seed)
    if wl.name != "read-sweep" or args.seed != 0 or expected is None:
        return
    got = wl.bench_sim_digest(out.cells)
    if got != expected:
        checker.problems.append(f"read-sweep grid digest {got} != bench_sim {expected}")


# -- traced run -------------------------------------------------------------------

def traced_pass(wl, label, checker):
    import layers

    rec = layers.Recorder()
    installation = layers.install(rec)
    rec.t0 = perf_counter()
    try:
        out = wl.run_pass(probe)
    finally:
        installation.uninstall()
    checker.check(out, label)
    return rec, out


def run_traced(args, wl, checker) -> int:
    import layers
    from repro.core.access import MB

    cold_rec, cold = traced_pass(wl, "traced set-up pass", checker)
    check_bench_sim(args, wl, cold, checker)

    # Untraced base for the tracing overhead.  The traced fleet pass runs
    # its jobs in-process (spans in pool workers would be lost), so the
    # base does too; one pooled pass measures the pool's own overhead.
    base = []
    t_start = perf_counter()
    while len(base) < 2 or perf_counter() - t_start < args.seconds / 2:
        out = wl.run_pass(probe)
        checker.check(out, f"untraced pass {len(base)}")
        base.append(out.scaled_s())
    pool_overhead = 0.0
    if wl.name == "fleet":
        from workloads import pool_jobs

        wl.pool_jobs = pool_jobs()
        out = wl.run_pass(probe)
        checker.check(out, "pooled pass")
        pool_wall, job_wall = out.pool
        pool_overhead = pool_wall - job_wall / wl.pool_jobs
        wl.pool_jobs = 1

    rec_a, out_a = traced_pass(wl, "traced pass A", checker)
    rec_b, out_b = traced_pass(wl, "traced pass B", checker)
    counts_a, counts_b = rec_a.work_counts(), rec_b.work_counts()
    if counts_a != counts_b:
        diff = {k: (counts_a.get(k), counts_b.get(k))
                for k in set(counts_a) | set(counts_b) if counts_a.get(k) != counts_b.get(k)}
        checker.problems.append(f"work counts differ between traced passes: {diff}")

    spans = rec_a.layer_spans()
    for layer in EXPECTED[wl.name]:
        if spans[layer] == 0:
            checker.problems.append(f"coverage: layer {layer} recorded no span")
    for layer in EXPECTED_AT_SETUP:
        if cold_rec.layer_spans()[layer] == 0:
            checker.problems.append(f"coverage: layer {layer} recorded no span at set-up")

    self_a, self_b = rec_a.layer_self_s(), rec_b.layer_self_s()
    self_s = {k: (self_a[k] + self_b[k]) / 2 for k in self_a}
    traced_wall = (out_a.wall_s + out_b.wall_s) / 2
    traced_scaled = (out_a.scaled_s() + out_b.scaled_s()) / 2
    counts = rec_a.counts
    reads = [r for c in out_a.cells if c.reads for r in c.results]
    sent = sum(r.disk_blocks + r.cache_hits for r in reads)
    hits, misses = counts["fscache.hits"], counts["fscache.misses"]
    helper_bytes = sum(c.payload["ledger"]["bytes_read_helpers"]
                       for c in out_a.cells if c.name.startswith("repair/") and c.payload)
    calib = (rec_a.target_incl_s("StorageService.calibrate")
             + rec_b.target_incl_s("StorageService.calibrate")) / 2
    serve_run = (rec_a.target_incl_s("StorageService.run")
                 + rec_b.target_incl_s("StorageService.run")) / 2
    per_layer = {
        "sim.rng.streams": (counts["rng.streams"], "count"),
        "sim.rng.self_s": (self_s["sim.rng"], "s"),
        "disk.service.calls": (rec_a.target_calls("BlockService.block_service_times"), "count"),
        "disk.service.blocks": (counts["service.blocks"], "count"),
        "disk.service.self_s": (self_s["disk.service"], "s"),
        "core.policy.dispatch.calls": (rec_a.target_calls("SpeculativeDispatch.read")
                                       + rec_a.target_calls("AdaptiveDispatch.read"), "count"),
        "core.policy.dispatch.self_s": (self_s["core.policy.dispatch"], "s"),
        "core.policy.write.self_s": (self_s["core.policy.write"], "s"),
        "accesscore.timeline.self_s": (self_s["accesscore.timeline"], "s"),
        "coding.peeling.adds": (rec_a.target_calls("PeelingDecoder.add"), "count"),
        "coding.peeling.self_s": (self_s["coding.peeling"], "s"),
        "core.policy.placement.graphs_built": (cold_rec.counts["graphs_built"], "count"),
        "coding.lt.self_s": (cold_rec.layer_self_s()["coding.lt"], "s"),
        "cluster.server.self_s": (self_s["cluster.server"], "s"),
        "cluster.fscache.self_s": (self_s["cluster.fscache"], "s"),
        "cluster.fscache.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sim.core.steps": (rec_a.target_calls("Environment.step"), "count"),
        "sim.core.self_s": (self_s["sim.core"], "s"),
        "disk.drive.requests": (rec_a.target_calls("DiskDrive.submit"), "count"),
        "disk.drive.self_s": (self_s["disk.drive"], "s"),
        "disk.scheduler.self_s": (self_s["disk.scheduler"], "s"),
        "disk.geometry.self_s": (self_s["disk.geometry"], "s"),
        "accesscore.events.self_s": (self_s["accesscore.events"], "s"),
        "faults.self_s": (self_s["faults"], "s"),
        "core.repair.self_s": (self_s["core.repair"], "s"),
        "rebuild.self_s": (self_s["rebuild"], "s"),
        "rebuild.helper_mb": (helper_bytes / MB, "MB"),
        "coding.regenerating.self_s": (self_s["coding.regenerating"], "s"),
        "serve.calibrate_s": (calib, "s"),
        "serve.replay_s": (serve_run - calib, "s"),
        "serve.requests": (counts["serve.requests"], "count"),
        "exec.self_s": (self_s["exec"], "s"),
        "exec.jobs": (counts["exec.jobs"], "count"),
        "exec.payload_kb": (counts["exec.payload_bytes"] / 1024, "KiB"),
        "exec.result_kb": (counts["exec.result_bytes"] / 1024, "KiB"),
        "exec.pool_overhead_s": (pool_overhead, "s"),
        "access.read_efficiency": (
            sum(r.blocks_received for r in reads) / sent if sent else 0.0, "ratio"),
        "other.self_s": (traced_wall - sum(self_s.values()), "s"),
        "trace.pass_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_scaled / median(base) - 1, "ratio"),
    }
    metrics = {k: metric(v, u) for k, (v, u) in per_layer.items()}

    table = layers.layer_table(self_s, spans, traced_wall)
    lines = [f"workload {wl.name}  seed {args.seed}  traced", table, ""]
    lines += predictions(wl.name, self_s, spans, traced_wall)
    lines += [f"  {k:<36}{v['value']:>16.6g} {v['unit']}" for k, v in metrics.items()]
    stem = f"{wl.name}-s{args.seed}"
    layers.write_outputs(rec_a, OUT / f"trace-{stem}.json", OUT / f"layers-{stem}.txt",
                         table, {"metrics": metrics, "work_counts": counts_a})
    lines.append(f"spans written to {OUT.relative_to(ROOT)}/trace-{stem}.json")
    return finish(args, wl, checker, metrics, lines,
                  {"work_counts": counts_a, "untraced_walls": base})


def predictions(name, self_s, spans, base_s) -> list[str]:
    """The stated layer predictions for this workload, each with its base."""
    def share(layer):
        return self_s[layer] / base_s

    checks = []
    if name == "read-sweep":
        checks.append(("core.policy.dispatch is a large share",
                       share("core.policy.dispatch"), share("core.policy.dispatch") >= 0.15))
        checks.append(("sim.core is near zero", share("sim.core"), share("sim.core") < 0.02))
    if name == "event-engine":
        checks.append(("core.policy.dispatch is near zero",
                       share("core.policy.dispatch"), share("core.policy.dispatch") < 0.02))
        checks.append(("sim.core is a large share", share("sim.core"),
                       share("sim.core") >= 0.15))
    if name != "fleet":
        for layer in FLEET_ONLY:
            checks.append((f"{layer} records no span", spans[layer], spans[layer] == 0))
    return [f"  prediction: {what:<40} observed {obs:.4g} "
            f"(base {base_s:.4f} s) -> {'holds' if ok else 'MISSED'}"
            for what, obs, ok in checks]


# -- digest recording -------------------------------------------------------------

def record_digests(spec: str, only: str | None) -> int:
    """Record every cell's digest for seeds ``A-B`` (of ``only``, or of all)."""
    from workloads import WORKLOADS

    lo, hi = (int(x) for x in spec.split("-"))
    committed = json.loads((ROOT / "BENCH_sim.json").read_text())
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"cells": {}}
    data["bench_sim_seed0"] = committed["trajectory"][-1]["results_digest"]
    for name, cls in WORKLOADS.items():
        if only not in (None, name):
            continue
        data["cells"][name] = {}
        for seed in range(lo, hi + 1):
            wl = cls(seed)
            out = wl.run_pass()
            checker = Checker(wl, None)
            digests = checker.check(out, f"{name} seed {seed}")
            if name == "read-sweep" and seed == 0 and \
                    wl.bench_sim_digest(out.cells) != data["bench_sim_seed0"]:
                checker.problems.append("read-sweep does not reproduce BENCH_sim.json")
            if checker.problems:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            data["cells"][name][str(seed)] = " ".join(digests)
            print(f"{name} seed {seed}: {len(digests)} cells", file=sys.stderr)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests(args.record_digests, args.workload)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    recorded, _ = load_recorded(args.workload, args.seed)
    from workloads import pool_jobs

    jobs = 1 if args.trace else pool_jobs()
    wl = WORKLOADS[args.workload](args.seed, pool_jobs=jobs)
    checker = Checker(wl, recorded)
    if args.setup_only:
        out, setup_s = warm_pass(wl)
        digests = [None if c.error else c.digest for c in out.cells]
        print(json.dumps({"setup_s": setup_s, "digests": digests}))
        return 0
    if args.trace:
        return run_traced(args, wl, checker)
    return run_end_to_end(args, wl, checker)


if __name__ == "__main__":
    sys.exit(main())
