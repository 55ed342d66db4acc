"""One repetition of one benchmark workload, in a fresh process.

Usage (normally started by ``run.py``, once per repetition)::

    python3 perfbench/worker.py --workload paper-grid --seed 1 \
        --spawn-t <time.monotonic() of the parent at spawn> [--traced]

Phases: *setup* (interpreter start, imports, specs and inputs built from
the seed), *cold* (every run simulated once and persisted to a fresh
on-disk store), *warm* (the same runs served again from that store
through a new ``Campaign``, several times).  Every output is checked; the
last line of standard output is one JSON object describing the
repetition.
"""

import time

T_ENTRY = time.monotonic()  # before anything of the program is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))


def digests_of(results: list) -> list:
    """``[label, digest]`` per run, or the reason the run is not valid."""
    from plans import label, run_digest, run_problem

    out = []
    for result in results:
        if not hasattr(result, "n_quanta"):
            out.append(f"raised: {result}")
        else:
            out.append(run_problem(result) or [label(result), run_digest(result)])
    return out


def run_rep(plan, spawn_t: float, check_expected: bool = True) -> dict:
    """Set up, run and check one repetition of ``plan``; its JSON record.

    A traced repetition is one whose plan carries a `tracing.Recorder`.
    Results are reduced to digests as soon as a pass ends, so the
    benchmark holds no results of its own in memory.  Times are corrected
    for host interference by ``plan.host`` (`hostspeed`); the uncorrected
    ones are kept under ``*_raw_s``.
    """
    from repro.campaign.store import ResultStore

    from plans import CampaignPlan, DEFAULT_SEED
    from tracing import Patches, install_engine_hooks, install_program_spans, layer_metrics

    rec, host = plan.rec, plan.host
    patches = Patches()
    if rec is None:
        get = ResultStore.get

        def ticking_get(store, key):
            host.tick()
            return get(store, key)

        patches.set(ResultStore, "get", ticking_get)
    else:
        install_program_spans(patches, rec)
    if isinstance(plan, CampaignPlan) or rec is not None:
        steps = plan.steps if isinstance(plan, CampaignPlan) else None
        install_engine_hooks(patches, steps, host, rec)
    errors: list[str] = []
    try:
        plan.setup()
        setup_raw_s = time.monotonic() - spawn_t
        host.close("cold")
        setup_s = setup_raw_s * host.factor(len(host.chunks) - 1)
        if rec is not None:
            rec.phase = "cold"
        cold = plan.cold()
        host.close("check")
        quanta = sum(r.n_quanta for r in cold if hasattr(r, "n_quanta"))
        digests = digests_of(cold)
        del cold
        if rec is not None:
            rec.phase = "warm"
        for k in range(plan.warm_passes):
            host.close(f"warm{k}")
            warm = plan.warm()
            host.close("check")
            if plan.telemetries[-1].done:
                errors.append(f"warm pass {k} simulated instead of reading the store")
            for i, got in enumerate(digests_of(warm)):
                if isinstance(digests[i], list) and got != digests[i]:
                    errors.append(f"warm pass {k}: run {i} differs from its cold run")
            del warm
    finally:
        patches.undo()
        shutil.rmtree(plan.store_dir, ignore_errors=True)
    cold_s, cold_raw_s = host.seconds("cold")
    warm = [host.seconds(f"warm{k}") for k in range(plan.warm_passes)]

    failed = {i for i, d in enumerate(digests) if not isinstance(d, list)}
    errors += [f"run {i}: {digests[i]}" for i in sorted(failed)]
    if check_expected and plan.seed == DEFAULT_SEED:
        committed = json.loads((HERE / "expected_digests.json").read_text())
        want = committed["workloads"][plan.name]
        for i, d in enumerate(digests):
            if isinstance(d, list) and want.get(d[0]) != d[1]:
                failed.add(i)
                errors.append(f"{d[0]}: digest {d[1]} != committed {want.get(d[0])}")
    if errors and not failed:  # a warm-pass fault taints every run it served
        failed = set(range(len(digests)))
    out = {
        "workload": plan.name,
        "seed": plan.seed,
        "traced": rec is not None,
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": [c for c, _ in warm],
        "setup_raw_s": setup_raw_s,
        "cold_raw_s": cold_raw_s,
        "warm_raw_s": [r for _, r in warm],
        "probes": len(host.chunks),
        "quanta": quanta,
        "steps_ms": [round(s * host.factor(i) * 1e3, 4) for s, i in plan.steps],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(digests),
        "failed": len(failed),
        "errors": errors[:10],
        "digests": digests,
    }
    if rec is not None:
        for tel in plan.telemetries:
            rec.counts["campaign.executor.retries"] += tel.retries
            rec.counts["campaign.executor.failed"] += tel.failed
        out["layers"] = layer_metrics(rec)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-t", type=float, default=T_ENTRY)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--no-expected", action="store_true",
                    help="skip the comparison with the committed digests")
    args = ap.parse_args()

    import repro  # noqa: F401  (fails outside a checkout of the program)
    from plans import PLANS
    from tracing import Recorder

    rec = Recorder() if args.traced else None
    store_dir = OUT / f"store-{args.workload}-{args.seed}-{time.time_ns()}"
    plan = PLANS[args.workload](args.seed, store_dir, rec)
    out = run_rep(plan, args.spawn_t, check_expected=not args.no_expected)
    if rec is not None:
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
