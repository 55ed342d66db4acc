"""Golden determinism gate for the structure-of-arrays engine.

The engine's correctness story rests on reproducibility: a same-seed run
must produce bit-identical results and an identical event trace, run to
run and commit to commit.  This module pins that down against *checked-in*
goldens (``tests/golden/``): a canonical fingerprint of each policy's
``RunResult`` plus the full JSONL event trace, for CFS, DIO and Dike on a
tiny two-app workload, and for Dike under the occupancy LLC model (the
only case that pins the LLC path of the physics byte for byte).

If a PR intentionally changes simulation behaviour (new model, different
float-op ordering), regenerate the goldens and review the diff:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/sim/test_golden_determinism.py -q

An *unintentional* golden diff is a determinism regression — fix the code,
not the golden.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments.serialization import (
    run_result_from_dict,
    run_result_to_full_dict,
)
from repro.policies import REGISTRY
from repro.obs.diff import diff_traces, load_events
from repro.obs.events import EventBus
from repro.obs.sinks import JsonlSink
from repro.sim.engine import SimulationEngine
from repro.sim.results import RunResult
from repro.sim.topology import SocketSpec, Topology
from repro.workloads.suite import WorkloadSpec

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
POLICIES = ("cfs", "dio", "dike", "dike-af", "dike-ap")
#: golden case id -> (policy, LLC backend); the id names the golden files
CASES = {policy: (policy, None) for policy in POLICIES}
CASES["dike-llc"] = ("dike", "occupancy")
SEED = 7
WORK_SCALE = 0.02


def _topology() -> Topology:
    return Topology(
        (
            SocketSpec(2.0, 2, 2, interconnect_gbps=8.0),
            SocketSpec(1.0, 2, 2, interconnect_gbps=3.0),
        ),
        memory_controller_gbps=10.0,
    )


def _workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="golden-tiny",
        apps=("jacobi", "srad"),
        include_kmeans=False,
        threads_per_app=2,
    )


def golden_run(case: str, trace_path: Path | None = None) -> RunResult:
    """One deterministic run of the golden scenario for ``case``."""
    policy, llc = CASES[case]
    bus = EventBus()
    if trace_path is not None:
        bus.attach(JsonlSink(trace_path))
    groups = _workload().build(seed=SEED, work_scale=WORK_SCALE)
    engine = SimulationEngine(
        topology=_topology(),
        groups=groups,
        scheduler=REGISTRY.build(policy),
        seed=SEED,
        workload_name="golden-tiny",
        llc=llc,
        bus=bus,
    )
    result = engine.run()
    bus.close()
    return result


def fingerprint(result: RunResult) -> dict:
    """Canonical, bit-exact summary of a ``RunResult``.

    ``repr`` round-trips float64 exactly, so two fingerprints are equal
    iff every number in them is bit-identical.
    """
    return {
        "policy": result.policy_name,
        "seed": result.seed,
        "makespan_s": repr(result.makespan_s),
        "n_quanta": result.n_quanta,
        "swap_count": result.swap_count,
        "migration_count": result.migration_count,
        "benchmarks": [
            {
                "benchmark": b.benchmark,
                "group_id": b.group_id,
                "thread_finish_times": [repr(t) for t in b.thread_finish_times],
                "n_migrations": b.n_migrations,
            }
            for b in result.benchmarks
        ],
    }


def _regen() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    fingerprints = {}
    for case in CASES:
        result = golden_run(case, GOLDEN_DIR / f"tiny_{case}.jsonl")
        fingerprints[case] = fingerprint(result)
    (GOLDEN_DIR / "results.json").write_text(
        json.dumps(fingerprints, indent=1, sort_keys=True) + "\n"
    )


if os.environ.get("REPRO_REGEN_GOLDEN"):

    def test_regenerate_goldens():
        _regen()
        pytest.skip(f"goldens regenerated under {GOLDEN_DIR}")

else:

    @pytest.mark.parametrize("case", CASES)
    def test_same_seed_run_is_bit_identical(case):
        a = fingerprint(golden_run(case))
        b = fingerprint(golden_run(case))
        assert a == b

    @pytest.mark.parametrize("case", CASES)
    def test_result_matches_checked_in_golden(case):
        golden = json.loads((GOLDEN_DIR / "results.json").read_text())
        assert fingerprint(golden_run(case)) == golden[case]

    @pytest.mark.parametrize("case", CASES)
    def test_trace_diff_against_golden_is_clean(case, tmp_path, capsys):
        trace = tmp_path / f"{case}.jsonl"
        golden_run(case, trace)
        golden = GOLDEN_DIR / f"tiny_{case}.jsonl"
        diff = diff_traces(load_events(golden), load_events(trace))
        assert diff.identical, f"trace diverged from golden: {diff}"
        # The user-facing gate: ``repro trace-diff`` exits 0.
        assert cli_main(["trace-diff", str(golden), str(trace)]) == 0
        capsys.readouterr()


# The stored-result payload of each golden case, pinned by digest.  This
# table is never regenerated (REPRO_REGEN_GOLDEN leaves it alone): the
# payload is what the campaign result store writes, so a changed digest
# means existing object stores would hold results in a form the current
# code no longer writes.
PAYLOADS = json.loads((GOLDEN_DIR / "payloads.json").read_text())


def _payload(result: RunResult) -> str:
    return json.dumps(
        run_result_to_full_dict(result), sort_keys=True, allow_nan=False
    )


def test_payload_table_covers_every_case():
    assert set(PAYLOADS) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_payload_matches_checked_in_digest(case):
    text = _payload(golden_run(case))
    assert hashlib.sha256(text.encode()).hexdigest() == PAYLOADS[case]


@pytest.mark.parametrize("case", CASES)
def test_payload_survives_decode_encode(case):
    text = _payload(golden_run(case))
    assert _payload(run_result_from_dict(json.loads(text))) == text
