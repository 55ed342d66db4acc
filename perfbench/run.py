"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout of the program::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs repetitions of the
workload, each in a fresh process (``worker.py``), until the next one would
end past ``--seconds``, and reports medians over them.  ``--trace 1`` runs
one untraced and one traced repetition and reports the per-layer metrics
of the traced one, plus the tracing overhead.  Either way every simulated
output is checked, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.

``--record-digests`` rewrites ``expected_digests.json`` from one run of
every workload at the default seed (only after a deliberate change to the
simulated model).

The load is a closed loop: one process runs one simulation at a time with
the serial campaign executor, so a run uses at most one core.  All times
are host times, corrected for interference from other tenants of the host
by ``hostspeed.py`` (uncorrected ones are printed on standard error).  The simulator is calibrated only to the paper's
qualitative shapes and is unvalidated against hardware; its outputs are
checked for reproducibility here, never scored for accuracy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("paper-grid", "seed-batch", "scale512", "openloop-llc")
DEFAULT_SEED = 1

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "quanta_per_s": "quanta/s",
    "quantum_ms_p50": "ms",
    "quantum_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "warm_gather_s": "s",
}

#: A run must end within this many seconds, building included.
HARD_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith("ms_") or last.endswith("_ms_per_quantum"):
        return "ms"
    if last == "bytes":
        return "bytes"
    if last.endswith("ratio"):
        return "ratio"
    return "count"


def spawn(workload: str, seed: int, traced: bool, deadline: float,
          check_expected: bool = True) -> dict:
    """One repetition in a fresh process; its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another repetition")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if not check_expected:
        cmd.append("--no-expected")
    cmd += ["--spawn-t", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"{workload}: repetition exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"{workload}: worker exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    steps = [s for r in reps for s in r["steps_ms"]]
    return {
        "quanta_per_s": statistics.median(r["quanta"] / r["cold_s"] for r in reps),
        "quantum_ms_p50": quantile(steps, 0.5),
        "quantum_ms_p90": quantile(steps, 0.9),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "warm_gather_s": statistics.median(w for r in reps for w in r["warm_s"]),
    }


def wall(rep: dict) -> float:
    """Uncorrected host seconds of the timed phases (probes left out)."""
    return rep["cold_raw_s"] + sum(rep["warm_raw_s"])


def report(workload: str, reps: list[dict]) -> None:
    """Human-readable lines on standard error."""
    for r in reps:
        kind = "traced" if r["traced"] else "untraced"
        print(f"[{workload}] {kind}: setup {r['setup_s']:.3f} s (raw {r['setup_raw_s']:.3f}), "
              f"cold {r['cold_s']:.3f} s (raw {r['cold_raw_s']:.3f}, {r['quanta']} quanta), "
              f"warm {statistics.median(r['warm_s']):.4f} s "
              f"(raw {statistics.median(r['warm_raw_s']):.4f}), "
              f"{r['failed']}/{r['attempted']} runs failed", file=sys.stderr)
        for err in r["errors"]:
            print(f"[{workload}]   {err}", file=sys.stderr)


def record_digests() -> int:
    deadline = time.monotonic() + 900.0
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        rep = spawn(workload, DEFAULT_SEED, False, deadline, check_expected=False)
        if rep["failed"]:
            report(workload, [rep])
            return 1
        doc["workloads"][workload] = dict(rep["digests"])
    (HERE / "expected_digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        ap.error("--workload is required")

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    try:
        if args.trace:
            reps = [spawn(args.workload, args.seed, False, deadline),
                    spawn(args.workload, args.seed, True, deadline)]
        else:
            reps = []
            while True:
                t0 = time.monotonic()
                reps.append(spawn(args.workload, args.seed, False, deadline))
                took = time.monotonic() - t0
                if time.monotonic() - start + took > args.seconds:
                    break
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    report(args.workload, reps)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        untraced, traced = reps
        mismatched = sum(a != b for a, b in zip(untraced["digests"], traced["digests"]))
        if mismatched:
            print(f"[{args.workload}] {mismatched} traced digests differ from untraced",
                  file=sys.stderr)
        failed += mismatched
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = wall(traced) / wall(untraced)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        print(f"[{args.workload}] per quantum: counter samples "
              f"{values['share.counters_ms_per_quantum']:.3f} ms, observer "
              f"{values['share.observer_ms_per_quantum']:.3f} ms, physics "
              f"{values['share.physics_ms_per_quantum']:.3f} ms; tracing overhead "
              f"x{values['trace.overhead_ratio']:.3f}", file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(reps).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
