"""Whole-program rules (SIM010-SIM013).

These are the interprocedural complement to SIM001-SIM009: they run once
per lint run over a :class:`repro.lint.project.ProjectContext` instead
of per file, so they see through module boundaries.

* **SIM010** — transitive nondeterminism taint.  A function in a
  sim-critical package (``core``/``disk``/``cluster``/``sim``/``exec``/
  ``serve``) that reaches a wall-clock, entropy or global-RNG source
  through *any* call chain is flagged with the full chain printed, even
  when every individual file passes SIM001/SIM002/SIM008/SIM009.  The
  exec/serve payload-hash caches are only sound under exactly this
  property.  Direct in-body sinks (chain length zero) are left to the
  per-file rules, which already point at the offending line — SIM010
  reports only taint that crosses at least one call edge.
* **SIM011** — RngHub stream discipline.  Every ``hub.stream(...)`` /
  ``hub.fresh(...)`` call site in the ``repro`` package must use a
  string-literal stream name declared in the ``STREAMS`` registry
  (``repro/sim/rng.py``) with a declared key arity, so a typo'd name or
  a drifted key shape cannot silently fork the RNG universe.
* **SIM012** *(warning)* — dead/drifted exports.  An ``__all__`` entry
  that names a symbol the module does not define, or that no other
  module, test, benchmark or example ever imports, marks a back-compat
  shim that has drifted to garbage.
* **SIM013** *(warning)* — unreachable modules.  A ``repro`` module that
  no experiment (``repro.experiments.*``), ``__main__``/``cli`` entry
  point or ``benchmarks/`` file imports, directly or transitively, backs
  no figure, table or benchmark: only tests and examples keep it alive.
  Package re-exports resolve to the defining module, so a facade's
  import does not reach everything it re-exports.  ``SIM013_ALLOWLIST``
  names the exceptions, each with the reason it stays.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import Severity, rule
from repro.lint.project import (
    SIM_CRITICAL_PACKAGES,
    ProjectContext,
    _attr_chain,
    module_name_for,
)
from repro.lint.taint import short_name

# ---------------------------------------------------------------------------
# SIM010 — transitive nondeterminism taint


@rule(
    "SIM010",
    Severity.ERROR,
    "sim-critical code must not reach wall-clock/entropy/global-RNG "
    "through any call chain",
    packages=SIM_CRITICAL_PACKAGES,
    project=True,
)
def check_transitive_nondeterminism(project: ProjectContext) -> Iterator:
    taint = project.taint()
    for fn, kind in sorted(taint.taints):
        info = project.functions.get(fn)
        if info is None:
            continue
        mod = project.modules.get(info.module)
        if mod is None or mod.top_package not in SIM_CRITICAL_PACKAGES:
            continue
        t = taint.taints[(fn, kind)]
        if t.depth == 0:
            # A sink inside the function's own body is the per-file
            # rules' jurisdiction (SIM001/SIM002/SIM008/SIM009 point at
            # the offending line); SIM010 owns taint that crosses a call
            # edge, which is exactly what per-file rules cannot see.
            continue
        chain = " -> ".join(short_name(q) for q in taint.chain(fn, kind))
        sink = t.sink
        where = "" if sink.path == info.path else f" [{sink.path}:{sink.line}]"
        yield (
            info.path,
            t.via,
            f"{short_name(fn)} reaches {kind} source {sink.desc} via "
            f"{chain} -> {sink.desc}{where}; every transitive callee of "
            "sim-critical code must be deterministic — thread "
            "Environment.now / an RngHub stream through instead",
        )


# ---------------------------------------------------------------------------
# SIM011 — RngHub stream discipline


def _is_hub_ref(node: ast.AST) -> bool:
    """True for ``hub`` / ``self.hub`` / ``cell_hub`` receivers."""
    names = _attr_chain(node)
    if not names:
        return False
    return names[-1] == "hub" or names[-1].endswith("_hub")


def _arity_text(allowed: tuple[int, ...]) -> str:
    return " or ".join(str(a) for a in allowed)


@rule(
    "SIM011",
    Severity.ERROR,
    "hub.stream()/hub.fresh() names must be string literals from the "
    "STREAMS registry with the declared key arity",
    repro_only=True,
    project=True,
)
def check_stream_discipline(project: ProjectContext) -> Iterator:
    streams = project.stream_registry()
    if streams is None:
        return  # no registry in this corpus; nothing to check against
    for name in sorted(project.modules):
        mod = project.modules[name]
        path = str(mod.ctx.path)
        for call in mod.ctx.walk((ast.Call,)):
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("stream", "fresh")
                and _is_hub_ref(func.value)
            ):
                continue
            hint = (
                "declare the stream in repro.sim.rng.STREAMS so a typo "
                "cannot silently fork the RNG universe"
            )
            if any(isinstance(a, ast.Starred) for a in call.args) or call.keywords:
                yield (
                    path,
                    call,
                    f"hub.{func.attr}(...) key is not statically checkable "
                    f"(starred/keyword arguments); use explicit positional "
                    f"key parts starting with a literal stream name; {hint}",
                )
                continue
            if not call.args:
                yield (
                    path,
                    call,
                    f"hub.{func.attr}() with an empty key; every stream "
                    f"needs a literal name from STREAMS; {hint}",
                )
                continue
            first = call.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                yield (
                    path,
                    call,
                    f"hub.{func.attr}(...) stream name must be a string "
                    f"literal, not a computed value; {hint}",
                )
                continue
            stream = first.value
            allowed = streams.get(stream)
            if allowed is None:
                known = ", ".join(sorted(streams))
                yield (
                    path,
                    call,
                    f"unknown stream name {stream!r} (registered: {known}); "
                    f"{hint}",
                )
            elif len(call.args) not in allowed:
                yield (
                    path,
                    call,
                    f"stream {stream!r} key has {len(call.args)} part(s) but "
                    f"STREAMS declares {_arity_text(allowed)}; inconsistent "
                    "key arity silently forks the stream tree — match the "
                    "declared shape or declare the new one",
                )


# ---------------------------------------------------------------------------
# SIM012 — dead/drifted exports


def _export_uses(project: ProjectContext) -> set[tuple[str, str]]:
    """Every ``(module, symbol)`` imported or attribute-accessed anywhere.

    Scans the *whole* corpus — repro modules, tests, benchmarks,
    examples — through :meth:`ProjectContext.imports_of`.
    """
    uses: set[tuple[str, str]] = set()
    for resolved in sorted(project.files, key=str):
        uses |= project.imports_of(project.files[resolved])[1]
    return uses


def _origin_chain(
    project: ProjectContext, module: str, symbol: str
) -> list[tuple[str, str]]:
    """``(module, symbol)`` pairs along a re-export chain, facade first.

    A package ``__init__`` typically re-exports via ``from .sub import
    X``; consumers are free to import the symbol at *any* level of that
    chain (the facade or the defining submodule), so a use at any link
    keeps the export alive.
    """
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    cur = (module, symbol)
    while cur not in seen:
        seen.add(cur)
        pairs.append(cur)
        mod = project.modules.get(cur[0])
        if mod is None:
            break
        origin = mod.from_imports.get(cur[1])
        if origin is None:
            break
        cur = origin
    return pairs


@rule(
    "SIM012",
    Severity.WARNING,
    "__all__ entries nobody imports (dead or drifted exports)",
    repro_only=True,
    project=True,
)
def check_dead_exports(project: ProjectContext) -> Iterator:
    uses = _export_uses(project)
    for name in sorted(project.modules):
        mod = project.modules[name]
        path = str(mod.ctx.path)
        # A module-level __getattr__ (PEP 562) can provide any attribute
        # dynamically, so "not statically defined" proves nothing there.
        dynamic = "__getattr__" in mod.symbols
        for symbol, line in mod.dunder_all:
            if symbol not in mod.symbols and not mod.star_imports and not dynamic:
                yield (
                    path,
                    line,
                    f"__all__ names {symbol!r} which {name} does not define "
                    "or re-export — the export has drifted; remove it or "
                    "restore the symbol",
                )
                continue
            if not any(p in uses for p in _origin_chain(project, name, symbol)):
                yield (
                    path,
                    line,
                    f"__all__ entry {symbol!r} of {name} is imported by no "
                    "module, test, benchmark or example — dead export "
                    "(back-compat shim drift?); drop it or add coverage "
                    "that imports it",
                )


# ---------------------------------------------------------------------------
# SIM013 — unreachable modules

#: Modules that no experiment, ``__main__``/``cli`` module or benchmark
#: reaches but that stay, each with the reason it stays.  A stale entry
#: (the module is reached after all) is reported too, so the list only
#: ever names real exceptions.
SIM013_ALLOWLIST = {
    "repro.core.access": (
        "the MB/AccessConfig import path of perfbench/, which is not "
        "linted; it goes with the next change to the benchmark"
    ),
    "repro.coding.regenerating": (
        "the byte-level product-matrix codes that perfbench's fleet "
        "workload times (perfbench/ is not linted) and repro.core.codecs "
        "decodes with"
    ),
    "repro.core.api": (
        "the real-bytes file API, kept as the decode oracle the trackers "
        "are to be checked against"
    ),
    "repro.core.codecs": (
        "the real-bytes codecs behind repro.core.api, kept for the same "
        "tracker oracle"
    ),
}


def _is_entry_point(mod) -> bool:
    """A ``__main__``/``cli`` module or one with a ``__main__`` guard."""
    if mod.name.rpartition(".")[2] in ("__main__", "cli"):
        return True
    for node in mod.ctx.tree.body:
        test = node.test if isinstance(node, ast.If) else None
        if (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and any(
                isinstance(c, ast.Constant) and c.value == "__main__"
                for c in test.comparators
            )
        ):
            return True
    return False


def _import_edges(project: ProjectContext, ctx, facade: bool) -> set[str]:
    """Corpus modules that importing ``ctx`` runs.

    A symbol import runs every module along its re-export chain down to
    the one that defines it.  A package ``__init__`` (``facade``) only
    re-exports: its symbol imports count when a consumer uses the
    symbol, so only its submodule imports (registration side effects)
    are edges of its own.
    """
    modules, uses = project.imports_of(ctx)
    edges = set(modules)
    for src, sym in uses:
        if f"{src}.{sym}" in project.modules:
            edges.add(f"{src}.{sym}")
        elif not facade:
            chain = _origin_chain(project, src, sym)
            edges.update(m for m, _ in chain if m in project.modules)
    return edges


def _reached_modules(project: ProjectContext) -> Optional[set[str]]:
    """Modules imported, transitively, from an experiment, CLI or benchmark.

    ``None`` when the corpus has no such root to measure against.
    """
    stack = [
        name
        for name, mod in project.modules.items()
        if mod.top_package == "experiments" or _is_entry_point(mod)
    ]
    for path in sorted(project.files, key=str):
        ctx = project.files[path]
        if "benchmarks" in ctx.path.parts and module_name_for(ctx.path) is None:
            stack.extend(_import_edges(project, ctx, False))
    if not stack:
        return None
    reached: set[str] = set()
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.add(name)
        mod = project.modules[name]
        # Importing a submodule runs every enclosing package first.
        parent = name.rpartition(".")[0]
        if parent in project.modules:
            stack.append(parent)
        stack.extend(_import_edges(project, mod.ctx, mod.is_package))
    return reached


@rule(
    "SIM013",
    Severity.WARNING,
    "modules no experiment, __main__/cli module or benchmark reaches",
    repro_only=True,
    project=True,
)
def check_unreachable_modules(project: ProjectContext) -> Iterator:
    reached = _reached_modules(project)
    if reached is None:
        return  # no experiment, CLI or benchmark in this corpus
    unreached = {
        name
        for name, mod in project.modules.items()
        if name not in reached and not mod.is_package
    }
    importers: dict[str, set[str]] = {name: set() for name in unreached}
    for path in sorted(project.files, key=str):
        ctx = project.files[path]
        facade = ctx.path.name == "__init__.py"
        label = module_name_for(ctx.path) or f"{ctx.path.parent.name}/{ctx.path.name}"
        for name in _import_edges(project, ctx, facade) & unreached:
            importers[name].add(label)
    for name in sorted(project.modules):
        path = str(project.modules[name].ctx.path)
        reason = SIM013_ALLOWLIST.get(name)
        if name in unreached and reason is None:
            seen = sorted(importers[name])
            via = (
                f"only {', '.join(seen[:3])}{', ...' if len(seen) > 3 else ''} "
                "import it"
                if seen
                else "nothing imports it"
            )
            yield (
                path,
                1,
                f"{name} is reached by no experiment, __main__/cli module or "
                f"benchmark ({via}); delete it with the tests and examples "
                "that exist only for it, wire it into an experiment, or add "
                "it to SIM013_ALLOWLIST with the reason it stays",
            )
        elif name in reached and reason is not None:
            yield (
                path,
                1,
                f"{name} is in SIM013_ALLOWLIST but an experiment, CLI or "
                "benchmark now reaches it; drop the stale entry",
            )
