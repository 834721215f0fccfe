"""Differential golden for the event-driven engine.

The golden file pins every composition's complete ``AccessResult`` (its
``to_jsonable()`` form) for reads and writes on the event engine, with no
background load, under heterogeneous background load and under the
reference fault storm of :mod:`tests.test_faults_golden`.  Any change to
the engine's request path — drive submit, geometry lookup, service draws,
queue order, the DES event sequence — that moves a single bit shows up as
a diff here.  Regenerate deliberately with
``PYTHONPATH=src python -m tests.make_golden``.
"""

import json
import pathlib

from repro.accesscore.result import AccessConfig
from repro.accesscore.routing import MB
from repro.core.policy.compose import COMPOSITIONS
from repro.experiments.harness import TrialPlan, run_scheme
from repro.faults import FaultPlan
from tests.test_faults_golden import STORM_SCENARIO

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_event.json"

CFG = AccessConfig(data_bytes=16 * MB, block_bytes=1 * MB, n_disks=8, redundancy=3.0)
MODES = ("read", "write")
CONDITIONS = ("none", "heterogeneous", "storm")


def _plan(mode: str, condition: str) -> TrialPlan:
    return TrialPlan(
        access=CFG,
        mode=mode,
        pool=8,
        rtt_s=0.001,
        seed=11,
        trials=2,
        background="heterogeneous" if condition == "heterogeneous" else "none",
        fault_plan=(FaultPlan.from_scenario(STORM_SCENARIO)
                    if condition == "storm" else None),
        engine="event",
    )


def build_event_reference() -> dict:
    """Exactly the runs the golden file was generated from.

    Accesses that raise are pinned by exception type, so the engine must
    fail the same way, not just succeed the same way.
    """
    out: dict = {}
    for name in COMPOSITIONS:
        per_scheme: dict = {}
        for mode in MODES:
            for condition in CONDITIONS:
                key = f"{mode}/{condition}"
                try:
                    results = run_scheme(_plan(mode, condition), name)
                except Exception as exc:  # pinned, not ignored
                    per_scheme[key] = {"error": type(exc).__name__}
                else:
                    per_scheme[key] = [r.to_jsonable() for r in results]
        out[name] = per_scheme
    return out


def test_event_golden_matches():
    assert GOLDEN.exists(), (
        "golden file missing; run PYTHONPATH=src python -m tests.make_golden"
    )
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(json.dumps(build_event_reference())) == golden


def test_event_golden_covers_every_composition():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(COMPOSITIONS)
    for per_scheme in golden.values():
        assert set(per_scheme) == {f"{m}/{c}" for m in MODES for c in CONDITIONS}
