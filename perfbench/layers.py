"""Host-time tracing of the simulator's layers, from outside the program.

The traced run wraps the public callables of each layer (the table
``LAYERS`` below) with a span recorder.  A span has a name, a start, an
end and the span that was open when it began; a layer's *self time* is
the sum of its spans' durations minus the time covered by their child
spans.  Counts (calls, blocks, streams, bytes) are recorded at the same
boundaries.

Callers often bind a callable by name (``from repro.accesscore.timeline
import serve_read_queues``), so patching the defining module alone would
miss them.  :func:`install` therefore replaces *every* binding of a
module-level function in every loaded ``repro`` module, and patches
methods on their defining class, where every instance resolves them.
Generator functions (the event kernel's process bodies) are wrapped so
that each resumption is one span.

No file of the program is changed; the wrappers exist only between
:func:`install` and :meth:`Installation.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (layer, modules, target patterns).  ``"Cls.name"`` names one method,
#: ``"Cls.*"`` every public method of a class, ``"name"`` one module-level
#: function and ``"*"`` every public function and public method defined in
#: the modules.  A few private methods are named because they are the
#: layer's process body or hot path.
LAYERS = (
    ("sim.rng", ("repro.sim.rng",), ("RngHub.fresh", "RngHub.stream", "RngHub.spawn")),
    ("disk.service", ("repro.disk.service",), ("BlockService.*", "BackgroundLoad.*")),
    ("core.policy.dispatch", ("repro.core.policy.dispatch",),
     ("SpeculativeDispatch.read", "AdaptiveDispatch.read")),
    ("core.policy.write", ("repro.core.policy.write",), ("*",)),
    ("accesscore.timeline", ("repro.accesscore.timeline",), ("*",)),
    ("coding.peeling", ("repro.coding.peeling",),
     ("PeelingDecoder.add", "blocks_needed", "decodable")),
    ("core.policy.placement", ("repro.core.policy.placement",), ("pooled_graph",)),
    ("coding.lt", ("repro.coding.lt",),
     ("LTCode.build_graph", "LTCode.extend_graph", "LTCode.encode",
      "ImprovedLTCode.build_graph", "ImprovedLTCode.extend_graph")),
    ("cluster.server", ("repro.cluster.server",),
     ("Cluster.redraw_disk_states", "Cluster.install_faults", "Cluster.block_service")),
    ("cluster.fscache", ("repro.cluster.filer", "repro.cluster.server"),
     ("Filer.cached_blocks", "Filer.record_read", "Filer.record_write",
      "Filer.age_cache", "Cluster.age_caches")),
    ("sim.core", ("repro.sim.core",), ("Environment.step",)),
    ("disk.drive", ("repro.disk.drive",),
     ("DiskDrive.*", "DiskDrive._run", "DiskDrive._service_time",
      "DiskDrive._background_loop")),
    ("disk.scheduler", ("repro.disk.scheduler",), ("*",)),
    ("disk.geometry", ("repro.disk.geometry",), ("DiskGeometry.*",)),
    ("accesscore.events", ("repro.accesscore.events",), ("*", "EventDrive._service_time")),
    ("faults", ("repro.faults.inject", "repro.faults.model", "repro.faults.plan",
                "repro.faults.timeline"), ("*",)),
    ("core.repair", ("repro.core.repair",), ("maybe_repair", "drain_repairs", "repair_file")),
    ("rebuild", ("repro.rebuild.ledger", "repro.rebuild.scheduler"), ("*",)),
    ("coding.regenerating", ("repro.coding.regenerating",), ("*",)),
    ("serve", ("repro.serve.service",), ("StorageService.run", "StorageService.calibrate")),
    ("exec", ("repro.exec.engine", "repro.exec.job"),
     ("Executor.run_jobs", "execute_payload")),
)

LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


# -- counters recorded at call boundaries --------------------------------------
# Each hook is ``(pre, post)``: ``pre(args, kwargs)`` captures state before the
# call, ``post(counts, args, kwargs, out, before)`` adds to the counters.

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _graph_pool_size(args, kwargs):
    from repro.core.policy import placement

    return sum(len(graphs) for graphs in placement._GRAPH_POOL.values())


def _cache_counters(args, kwargs):
    cache = args[0].cache
    return None if cache is None else (cache.hits, cache.misses)


def _add_cache_delta(counts, args, kwargs, out, before):
    if before is not None:
        cache = args[0].cache
        counts["fscache.hits"] += cache.hits - before[0]
        counts["fscache.misses"] += cache.misses - before[1]


HOOKS = {
    "RngHub.fresh": (None, lambda c, a, k, o, b: c.update({"rng.streams": 1})),
    "RngHub.spawn": (None, lambda c, a, k, o, b: c.update({"rng.streams": 1})),
    "RngHub.stream": (
        lambda a, k: len(a[0]._cache),
        lambda c, a, k, o, b: c.update({"rng.streams": len(a[0]._cache) - b}),
    ),
    "BlockService.block_service_times": (
        None, lambda c, a, k, o, b: c.update({"service.blocks": _arg(a, k, 1, "n_blocks")}),
    ),
    "pooled_graph": (
        _graph_pool_size,
        lambda c, a, k, o, b: c.update({"graphs_built": _graph_pool_size(a, k) - b}),
    ),
    "Filer.record_read": (_cache_counters, _add_cache_delta),
    "StorageService.run": (None, lambda c, a, k, o, b: c.update({"serve.requests": o.offered})),
    "Executor.run_jobs": (None, lambda c, a, k, o, b: c.update({"exec.jobs": len(o)})),
    "execute_payload": (
        None,
        lambda c, a, k, o, b: c.update(
            {"exec.payload_bytes": len(_arg(a, k, 0, "payload_json")),
             "exec.result_bytes": len(o)}
        ),
    ),
}


class Recorder:
    """In-memory span and counter store for one traced pass."""

    def __init__(self, span_cap: int = 50_000) -> None:
        self.span_cap = span_cap
        self.targets: list[tuple[str, str]] = []  # index -> (layer, qualname)
        self._stack: list[list] = []
        self._next_id = 0
        self.spans: list[tuple] = []  # (target, start, end, id, parent)
        self.dropped = 0
        self.calls: Counter = Counter()  # target index -> calls
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.t0 = perf_counter()

    def enter(self, target: int) -> list:
        stack = self._stack
        self._next_id += 1
        frame = [target, 0.0, 0.0, self._next_id, stack[-1][3] if stack else 0]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        target, start, child, sid, parent = frame
        dur = end - start
        self.calls[target] += 1
        self.self_s[target] += dur - child
        self.incl_s[target] += dur
        if stack:
            stack[-1][2] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((target, start, end, sid, parent))
        else:
            self.dropped += 1

    # -- aggregates ----------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for target, secs in self.self_s.items():
            out[self.targets[target][0]] += secs
        return out

    def layer_spans(self) -> dict[str, int]:
        out = dict.fromkeys(LAYER_NAMES, 0)
        for target, n in self.calls.items():
            out[self.targets[target][0]] += n
        return out

    def target_calls(self, qualname: str) -> int:
        return sum(n for t, n in self.calls.items() if self.targets[t][1] == qualname)

    def target_incl_s(self, qualname: str) -> float:
        return sum(s for t, s in self.incl_s.items() if self.targets[t][1] == qualname)

    def work_counts(self) -> dict:
        """Every host-independent count of the pass (for repeatability)."""
        out = {f"spans.{layer}": n for layer, n in self.layer_spans().items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def chrome_trace(self) -> dict:
        """The recorded spans as a Chrome trace (``chrome://tracing``)."""
        events = []
        for target, start, end, sid, parent in self.spans:
            layer, qualname = self.targets[target]
            events.append({
                "name": qualname, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent},
            })
        return {"traceEvents": events, "otherData": {"dropped_spans": self.dropped}}


def _wrap(fn, rec: Recorder, target: int, hook):
    pre, post = hook if hook is not None else (None, None)
    enter, exit_ = rec.enter, rec.exit
    counts = rec.counts

    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                frame = enter(target)
                try:
                    item = inner.send(value) if exc is None else inner.throw(exc)
                except StopIteration as stop:
                    exit_(frame)
                    return stop.value
                except BaseException:
                    exit_(frame)
                    raise
                exit_(frame)
                try:
                    value, exc = (yield item), None
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as thrown:
                    value, exc = None, thrown

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = pre(args, kwargs) if pre is not None else None
        frame = enter(target)
        try:
            out = fn(*args, **kwargs)
        finally:
            exit_(frame)
        if post is not None:
            post(counts, args, kwargs, out, before)
        return out

    return traced


def _resolve(module, pattern: str):
    """Yield ``(owner, attr, function, qualname)`` for one target pattern."""
    if pattern == "*":
        for name, value in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                yield module, name, value, name
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                yield from _resolve(module, f"{name}.*")
        return
    if "." not in pattern:
        fn = vars(module).get(pattern)
        if inspect.isfunction(fn):
            yield module, pattern, fn, pattern
        return
    cls_name, meth = pattern.split(".")
    cls = vars(module).get(cls_name)
    if cls is None:
        return
    names = [n for n in vars(cls) if not n.startswith("_")] if meth == "*" else [meth]
    for name in names:
        fn = vars(cls).get(name)
        if inspect.isfunction(fn):
            yield cls, name, fn, f"{cls_name}.{name}"


class Installation:
    """The patches :func:`install` applied, so they can be undone."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every target of ``LAYERS``; return the installation to undo."""
    inst = Installation()
    repro_modules = [m for n, m in list(sys.modules.items())
                     if (n == "repro" or n.startswith("repro.")) and m is not None]
    seen: set[int] = set()
    for layer, module_names, patterns in LAYERS:
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for pattern in patterns:
                for owner, attr, fn, qualname in _resolve(module, pattern):
                    if id(fn) in seen:
                        continue
                    seen.add(id(fn))
                    target = len(rec.targets)
                    rec.targets.append((layer, qualname))
                    wrapper = _wrap(fn, rec, target, HOOKS.get(qualname))
                    if inspect.isclass(owner):
                        inst.patches.append((owner, attr, fn))
                        setattr(owner, attr, wrapper)
                        continue
                    # A module-level function: rebind it wherever it is bound.
                    for mod in repro_modules:
                        for name, value in list(vars(mod).items()):
                            if value is fn:
                                inst.patches.append((mod, name, fn))
                                setattr(mod, name, wrapper)
    return inst


def layer_table(self_s: dict[str, float], spans: dict[str, int], base_s: float) -> str:
    """Per-layer self time, share of ``base_s`` and span count, as text."""
    rows = sorted(self_s.items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':<24}{'self_s':>10}{'share':>9}{'spans':>11}"]
    for layer, secs in rows:
        share = secs / base_s if base_s > 0 else 0.0
        lines.append(f"{layer:<24}{secs:>10.4f}{share:>8.1%}{spans.get(layer, 0):>11}")
    lines.append(f"(shares are of the traced pass wall time, {base_s:.4f} s)")
    return "\n".join(lines)


def write_outputs(rec: Recorder, trace_path, table_path, table: str, extra: dict) -> None:
    """Write the Chrome trace and the per-layer table (text plus JSON)."""
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(rec.chrome_trace()))
    table_path.write_text(table + "\n\n" + json.dumps(extra, indent=2, sort_keys=True) + "\n")
