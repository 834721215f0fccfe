"""Tests for the whole-program lint layer (SIM010-SIM013) and the cache.

Fixture trees are built under ``tmp_path`` with a real ``repro`` package
root, so module naming, corpus expansion and cross-module resolution run
exactly as they do on the shipped tree.  Ends with self-checks that the
shipped tree passes the interprocedural rules and that the findings
cache replays byte-identically.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.lint import Severity, lint_paths, run_lint
from repro.lint.engine import iter_py_files
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise ``files`` (relative path -> source) under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


#: Minimal sim-critical package with wall-clock laundered through a
#: two-hop call chain in a *different* (non-critical) package.
LAUNDERED = {
    "src/repro/__init__.py": "",
    "src/repro/core/__init__.py": "",
    "src/repro/util/__init__.py": "",
    "src/repro/util/helpers.py": (
        "import time\n"
        "\n"
        "\n"
        "def _now():\n"
        "    return time.time()\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return _now()\n"
    ),
    "src/repro/core/mod.py": (
        "from repro.util.helpers import stamp\n"
        "\n"
        "\n"
        "def record_event():\n"
        "    return stamp()\n"
    ),
}


# ---------------------------------------------------------------------------
# SIM010 — transitive nondeterminism taint


def test_sim010_flags_two_hop_laundering_with_full_chain(tmp_path):
    _write_tree(tmp_path, LAUNDERED)
    # Lint only core/ — corpus expansion must pull util/ in by itself.
    findings = lint_paths([tmp_path / "src" / "repro" / "core"], ["SIM010"])
    (finding,) = findings
    assert finding.rule == "SIM010"
    assert finding.severity is Severity.ERROR
    assert finding.path.endswith("core/mod.py")
    assert "mod.record_event -> helpers.stamp -> helpers._now" in finding.message
    assert "time.time()" in finding.message
    # The sink lives in another file: its location is printed too.
    assert "helpers.py:5" in finding.message


def test_sim010_findings_stay_inside_the_linted_set(tmp_path):
    _write_tree(tmp_path, LAUNDERED)
    # util/ is pulled into the corpus but was not asked about: no findings
    # may be reported against it, and none for its own functions (they are
    # not in a sim-critical package anyway).
    findings = lint_paths([tmp_path / "src" / "repro" / "core"], ["SIM010"])
    assert all("util" not in f.path for f in findings)


def test_sim010_clean_when_helper_uses_perf_counter(tmp_path):
    files = dict(LAUNDERED)
    files["src/repro/util/helpers.py"] = (
        "import time\n"
        "\n"
        "\n"
        "def _now():\n"
        "    return time.perf_counter()\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return _now()\n"
    )
    _write_tree(tmp_path, files)
    assert lint_paths([tmp_path / "src" / "repro" / "core"], ["SIM010"]) == []


def test_sim010_pragma_at_sink_stops_the_taint(tmp_path):
    files = dict(LAUNDERED)
    files["src/repro/util/helpers.py"] = (
        "import time\n"
        "\n"
        "\n"
        "def _now():\n"
        "    return time.time()  # lint: disable=SIM001 -- boot banner only\n"
        "\n"
        "\n"
        "def stamp():\n"
        "    return _now()\n"
    )
    _write_tree(tmp_path, files)
    assert lint_paths([tmp_path / "src" / "repro" / "core"], ["SIM010"]) == []


def test_sim010_leaves_direct_sinks_to_the_per_file_rules(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/core/__init__.py": "",
            "src/repro/core/mod.py": (
                "import time\n\n\ndef f():\n    return time.time()\n"
            ),
        },
    )
    target = [tmp_path / "src" / "repro" / "core"]
    assert lint_paths(target, ["SIM010"]) == []
    assert [f.rule for f in lint_paths(target, ["SIM001", "SIM010"])] == ["SIM001"]


def test_sim010_entropy_kind_and_method_chains(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/serve/__init__.py": "",
            "src/repro/serve/cell.py": (
                "import uuid\n"
                "\n"
                "\n"
                "class Cell:\n"
                "    def _tag(self):\n"
                "        return uuid.uuid4()\n"
                "\n"
                "    def run(self):\n"
                "        return self._tag()\n"
            ),
        },
    )
    findings = lint_paths([tmp_path / "src" / "repro" / "serve"], ["SIM010"])
    (finding,) = findings
    assert "cell.Cell.run" in finding.message
    assert "entropy" in finding.message
    assert "uuid.uuid4()" in finding.message


def test_sim010_covers_accesscore(tmp_path):
    """The shared access core is sim-critical: laundered wall clock trips."""
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/accesscore/__init__.py": "",
            "src/repro/util/__init__.py": "",
            "src/repro/util/helpers.py": (
                "import time\n"
                "\n"
                "\n"
                "def _now():\n"
                "    return time.time()\n"
                "\n"
                "\n"
                "def stamp():\n"
                "    return _now()\n"
            ),
            "src/repro/accesscore/events.py": (
                "from repro.util.helpers import stamp\n"
                "\n"
                "\n"
                "def event_read():\n"
                "    return stamp()\n"
            ),
        },
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "accesscore"], ["SIM010"]
    )
    (finding,) = findings
    assert finding.path.endswith("accesscore/events.py")
    assert "events.event_read -> helpers.stamp -> helpers._now" in finding.message


# ---------------------------------------------------------------------------
# SIM011 — RngHub stream discipline

RNG_FIXTURE = (
    "STREAMS = {\n"
    "    'disk': 2,\n"
    "    'bg': (3, 4),\n"
    "}\n"
    "\n"
    "\n"
    "class RngHub:\n"
    "    def stream(self, *key):\n"
    "        return key\n"
    "\n"
    "    def fresh(self, *key):\n"
    "        return key\n"
)


def _sim011_tree(tmp_path, caller_source):
    return _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/rng.py": RNG_FIXTURE,
            "src/repro/core/__init__.py": "",
            "src/repro/core/streams.py": caller_source,
        },
    )


def test_sim011_flags_typo_arity_and_computed_names(tmp_path):
    _sim011_tree(
        tmp_path,
        "def draw(hub, disk_id, name):\n"
        "    bad_name = hub.stream('dsik', disk_id)\n"
        "    bad_arity = hub.stream('bg', disk_id)\n"
        "    computed = hub.fresh(name, disk_id)\n"
        "    return bad_name, bad_arity, computed\n",
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "core" / "streams.py"], ["SIM011"]
    )
    messages = [f.message for f in findings]
    assert len(findings) == 3
    assert any("unknown stream name 'dsik'" in m for m in messages)
    assert any("has 2 part(s)" in m and "3 or 4" in m for m in messages)
    assert any("must be a string literal" in m for m in messages)


def test_sim011_accepts_declared_names_and_arities(tmp_path):
    _sim011_tree(
        tmp_path,
        "def draw(hub, disk_id, trial):\n"
        "    a = hub.stream('disk', disk_id)\n"
        "    b = hub.stream('bg', disk_id, trial)\n"
        "    c = hub.fresh('bg', disk_id, trial, 99)\n"
        "    return a, b, c\n",
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "core" / "streams.py"], ["SIM011"]
    )
    assert findings == []


def test_sim011_checks_prime_blocks(tmp_path):
    """``hub.prime`` keys obey the registry; the trailing block is one part."""
    _sim011_tree(
        tmp_path,
        "def prime(hub, trial, disk_ids):\n"
        "    hub.prime('bg', trial, disk_ids)\n"
        "    hub.prime('dsik', disk_ids)\n"
        "    hub.prime('bg', disk_ids)\n",
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "core" / "streams.py"], ["SIM011"]
    )
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("unknown stream name 'dsik'" in m for m in messages)
    assert any("'bg' key has 2 part(s)" in m and "3 or 4" in m for m in messages)


def test_sim011_covers_accesscore_refsvc_stream(tmp_path):
    """The event engine's ``refsvc`` stream obeys the declared arity."""
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/rng.py": (
                "STREAMS = {\n"
                "    'refsvc': 4,\n"
                "}\n"
                "\n"
                "\n"
                "class RngHub:\n"
                "    def fresh(self, *key):\n"
                "        return key\n"
            ),
            "src/repro/accesscore/__init__.py": "",
            "src/repro/accesscore/events.py": (
                "def rngs(hub, name, trial, disk_id):\n"
                "    ok = hub.fresh('refsvc', name, trial, disk_id)\n"
                "    short = hub.fresh('refsvc', disk_id)\n"
                "    typo = hub.fresh('refsrv', name, trial, disk_id)\n"
                "    return ok, short, typo\n"
            ),
        },
    )
    findings = lint_paths(
        [tmp_path / "src" / "repro" / "accesscore" / "events.py"], ["SIM011"]
    )
    messages = [f.message for f in findings]
    assert len(findings) == 2
    assert any("has 2 part(s)" in m for m in messages)
    assert any("unknown stream name 'refsrv'" in m for m in messages)


def test_sim011_silent_without_a_streams_registry(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/core/__init__.py": "",
            "src/repro/core/streams.py": (
                "def draw(hub):\n    return hub.stream('anything', 1, 2, 3)\n"
            ),
        },
    )
    findings = lint_paths([tmp_path / "src" / "repro" / "core"], ["SIM011"])
    assert findings == []


# ---------------------------------------------------------------------------
# SIM012 — dead/drifted exports


def test_sim012_flags_dead_and_drifted_exports(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/metricsish/__init__.py": (
                "def used():\n    return 1\n"
                "\n"
                "\n"
                "def dead():\n    return 2\n"
                "\n"
                "\n"
                "__all__ = ['used', 'dead', 'ghost']\n"
            ),
            "tests/test_consumer.py": (
                "from repro.metricsish import used\n\nassert used() == 1\n"
            ),
        },
    )
    findings = lint_paths([tmp_path / "src", tmp_path / "tests"], ["SIM012"])
    assert all(f.severity is Severity.WARNING for f in findings)
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("'dead'" in m and "dead export" in m for m in messages)
    assert any("'ghost'" in m and "drifted" in m for m in messages)
    assert not any("'used'" in m for m in messages)


def test_sim012_credits_use_through_reexport_facade(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": (
                "from repro.pkg.impl import thing\n\n__all__ = ['thing']\n"
            ),
            "src/repro/pkg/impl.py": "def thing():\n    return 1\n",
            # Consumer imports from the *defining* submodule, not the facade.
            "tests/test_consumer.py": "from repro.pkg.impl import thing\n",
        },
    )
    findings = lint_paths([tmp_path / "src", tmp_path / "tests"], ["SIM012"])
    assert findings == []


def test_sim012_module_getattr_is_not_drift(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/lazy/__init__.py": (
                "def __getattr__(name):\n"
                "    if name == 'late':\n"
                "        return 42\n"
                "    raise AttributeError(name)\n"
                "\n"
                "\n"
                "__all__ = ['late']\n"
            ),
            "tests/test_consumer.py": "from repro.lazy import late\n",
        },
    )
    findings = lint_paths([tmp_path / "src", tmp_path / "tests"], ["SIM012"])
    assert findings == []


# ---------------------------------------------------------------------------
# SIM013 — unreachable modules

#: An experiment reaches ``used`` through the package facade; ``orphan``
#: is imported only by a test and an example (and re-exported by the
#: facade, which must not count); ``plugins`` is reached only as a
#: package side-effect import; ``api`` is on the allowlist.
UNREACHABLE = {
    "src/repro/__init__.py": "",
    "src/repro/codes/__init__.py": (
        "from repro.codes.used import keep\n"
        "from repro.codes.orphan import drop\n"
        "from repro.codes import plugins\n"
    ),
    "src/repro/codes/used.py": "def keep():\n    return 1\n",
    "src/repro/codes/orphan.py": "def drop():\n    return 2\n",
    "src/repro/codes/plugins.py": "REGISTERED = True\n",
    "src/repro/core/__init__.py": "",
    "src/repro/core/api.py": "def read():\n    return 3\n",
    "src/repro/experiments/__init__.py": "",
    "src/repro/experiments/fig.py": "from repro.codes import keep\n",
    "tests/test_orphan.py": "from repro.codes.orphan import drop\n",
    "examples/demo.py": "from repro.codes import drop\n",
}


def _sim013(tmp_path, files):
    _write_tree(tmp_path, files)
    dirs = [tmp_path / d for d in ("src", "tests", "examples", "benchmarks")]
    return lint_paths([d for d in dirs if d.exists()], ["SIM013"])


def test_sim013_flags_a_module_only_tests_and_examples_reach(tmp_path):
    (finding,) = _sim013(tmp_path, UNREACHABLE)
    assert finding.severity is Severity.WARNING
    assert finding.path.endswith("codes/orphan.py")
    assert "repro.codes.orphan is reached by no experiment" in finding.message
    assert "only examples/demo.py, tests/test_orphan.py import it" in finding.message


def test_sim013_benchmark_and_entry_point_imports_are_roots(tmp_path):
    files = dict(UNREACHABLE)
    files["benchmarks/bench_codes.py"] = "from repro.codes import drop\n"
    assert _sim013(tmp_path, files) == []
    files = dict(UNREACHABLE)
    files["src/repro/tool/__init__.py"] = ""
    files["src/repro/tool/report.py"] = (
        "from repro.codes.orphan import drop\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    drop()\n"
    )
    assert _sim013(tmp_path / "guarded", files) == []


def test_sim013_silent_without_any_root(tmp_path):
    files = {k: v for k, v in UNREACHABLE.items() if "experiments" not in k}
    assert _sim013(tmp_path, files) == []


def test_sim013_reports_a_stale_allowlist_entry(tmp_path):
    files = dict(UNREACHABLE)
    files["src/repro/experiments/fig.py"] = (
        "from repro.codes import keep\nfrom repro.core.api import read\n"
    )
    messages = [f.message for f in _sim013(tmp_path, files)]
    assert any("repro.core.api is in SIM013_ALLOWLIST" in m for m in messages)


# ---------------------------------------------------------------------------
# engine plumbing: dedupe, scoping metadata, JSON v2


def test_iter_py_files_dedupes_overlapping_path_arguments(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    target = pkg / "mod.py"
    target.write_text("x = 1\n")
    # Directory + a file inside it + the file again: one result.
    files = list(iter_py_files([tmp_path, target, str(target)]))
    assert files == [target]


def test_overlapping_paths_lint_each_finding_once(tmp_path):
    _write_tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/core/__init__.py": "",
            "src/repro/core/mod.py": "import time\nt = time.time()\n",
        },
    )
    mod = tmp_path / "src" / "repro" / "core" / "mod.py"
    findings = lint_paths([tmp_path / "src", mod], ["SIM001"])
    assert len(findings) == 1


def test_list_rules_shows_scope_and_whole_program(tmp_path):
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    listing = out.getvalue()
    assert "SIM007" in listing and "repro/core/policy" in listing
    assert "SIM010" in listing and "whole-program" in listing


def test_cli_json_v2_envelope_and_rule_timings(tmp_path):
    target = tmp_path / "src" / "repro" / "core"
    target.mkdir(parents=True)
    (target / "mod.py").write_text("import time\nt = time.time()\n")
    out = io.StringIO()
    code = main([str(tmp_path), "--format", "json", "--no-cache"], out=out)
    assert code == 1
    report = json.loads(out.getvalue())
    assert report["version"] == 2
    assert report["counts"]["error"] >= 1
    assert report["files_checked"] == 1
    assert "SIM001" in report["rules"]
    for timing in report["rules"].values():
        assert isinstance(timing["seconds"], float) and timing["seconds"] >= 0.0


# ---------------------------------------------------------------------------
# findings cache


def test_cache_warm_run_hits_and_replays_identically(tmp_path):
    _write_tree(tmp_path, LAUNDERED)
    cache_dir = tmp_path / "cache"
    target = [tmp_path / "src" / "repro" / "core"]
    cold = run_lint(target, cache_dir=cache_dir)
    warm = run_lint(target, cache_dir=cache_dir)
    assert cold.cache_hit is False
    assert warm.cache_hit is True
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]
    assert warm.rule_seconds == cold.rule_seconds
    assert warm.files_checked == cold.files_checked


def test_cache_invalidated_by_unlinted_corpus_file_change(tmp_path):
    _write_tree(tmp_path, LAUNDERED)
    cache_dir = tmp_path / "cache"
    target = [tmp_path / "src" / "repro" / "core"]
    cold = run_lint(target, cache_dir=cache_dir)
    assert [f.rule for f in cold.findings if f.rule == "SIM010"]
    # Fix the helper (a file we never linted directly): the cached
    # interprocedural findings must be invalidated, not replayed.
    helper = tmp_path / "src" / "repro" / "util" / "helpers.py"
    helper.write_text(
        "import time\n\n\ndef _now():\n    return time.perf_counter()\n"
        "\n\ndef stamp():\n    return _now()\n"
    )
    fixed = run_lint(target, cache_dir=cache_dir)
    assert fixed.cache_hit is False
    assert [f for f in fixed.findings if f.rule == "SIM010"] == []


def test_cache_keyed_by_rule_selection(tmp_path):
    _write_tree(tmp_path, LAUNDERED)
    cache_dir = tmp_path / "cache"
    target = [tmp_path / "src" / "repro" / "core"]
    run_lint(target, ["SIM010"], cache_dir=cache_dir)
    other = run_lint(target, ["SIM005"], cache_dir=cache_dir)
    assert other.cache_hit is False
    assert other.findings == []


# ---------------------------------------------------------------------------
# the shipped tree passes the interprocedural rules


def test_repo_self_check_sim010_sim011_clean():
    findings = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], ["SIM010", "SIM011"]
    )
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.fixture(scope="module")
def repo_whole_program_findings():
    """One SIM012+SIM013 run over everything CI lints."""
    return lint_paths(
        [
            REPO_ROOT / "src",
            REPO_ROOT / "tests",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
        ["SIM012", "SIM013"],
    )


def test_repo_self_check_sim012_no_dead_exports(repo_whole_program_findings):
    findings = [f for f in repo_whole_program_findings if f.rule == "SIM012"]
    assert findings == [], "\n".join(f.render() for f in findings)


def test_repo_self_check_sim013_every_module_reached(repo_whole_program_findings):
    findings = [f for f in repo_whole_program_findings if f.rule == "SIM013"]
    assert findings == [], "\n".join(f.render() for f in findings)
