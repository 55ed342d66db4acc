"""Batched multi-run engine: N independent runs stepped in lockstep.

Campaign grids (seed sweeps, figure grids, policy matrices) execute many
*independent* simulations whose dominant cost — after the SoA ``SimState``
rework — is per-run Python stepping: every run pays the same ~30 NumPy
dispatch overheads per quantum regardless of thread count.  This module
amortises that overhead across runs: a :class:`BatchEngine` holds N
complete :class:`~repro.sim.engine.SimulationEngine` instances ("lanes")
and advances them **one quantum per iteration through one call of the
physics kernel**, :func:`repro.sim.engine.step_lanes` — the same function
the scalar engine calls with a single lane — so the per-quantum physics
(SMT sharing, warm-up, the LLC, the memory fixed point, progress) is paid
once per batch instead of once per run.  This module holds the lane
bookkeeping only.

Design
------
* **Lanes stay real engines.**  Setup (scheduler prepare + initial
  placement), the quantum head and tail (events, trace, clock,
  retirements), arrivals, barrier release, action application and result
  building all run through each lane's own ``SimulationEngine`` code.
* **Flat-ragged state.**  :class:`BatchSimState` concatenates the per-tid
  columns of every lane's :class:`~repro.sim.state.SimState` into shared
  flat arrays and *rebinds* each lane's columns to contiguous views of
  them.  ``SimState`` only ever mutates its arrays in place, so lane
  methods (``advance``, ``place``, ``migrate``, ``release_ready_barriers``)
  keep working unchanged while the kernel reads and writes the shared
  backing directly.  Lanes may have different thread counts.
* **Bit-equality by construction.**  The kernel keys every reduction by
  lane and runs every sum and allocation over the lane's own contiguous
  slice, with the length and element order a lone run would see; the
  elementwise steps are batching-invariant.  Per-lane RNG streams,
  quantum ordering and event emission are preserved exactly; batched and
  scalar execution produce byte-identical traces and bit-equal
  :class:`~repro.sim.results.RunResult` metrics (this is tested, and gated
  in CI).
* **Early finishers.**  A per-lane active flag (mirrored in a flat
  per-element mask) lets short runs finish — or hit their time horizon —
  while the batch continues; finished lanes cost nothing.
* **Scheduler tiers.**  ``static`` never migrates and ``cfs`` only acts
  when some physical core idles while another is SMT-crowded, so for
  non-observed lanes under those policies the batch skips building
  counter samples and the ``decide`` call entirely and evaluates a
  vectorised gate instead.  Every other policy gets exact per-lane
  counters — built by the scalar engine's own
  ``SimulationEngine._sample_counters`` from the lane's slices of the
  kernel's output — and a real ``decide``/``apply`` call,
  scalar-identical by construction.

Lanes must share the machine model (topology, memory constants, SMT
efficiency, warm-up miss scale); see :func:`batch_compatible`.  Anything
else — policy, seed, workload, work scale, arrival process, max time,
counter noise, LLC model — may differ per lane.  The campaign layer
(`repro.campaign.batching`) groups eligible tasks into batches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.schedulers.cfs import CFSScheduler
from repro.schedulers.static import StaticScheduler
from repro.sim.counters import QuantumCounters
from repro.sim.engine import SimulationEngine, step_lanes
from repro.sim.results import RunResult
from repro.sim.state import SimState
from repro.util.validation import require

__all__ = ["BatchSimState", "BatchEngine", "batch_compatible"]

#: SimState columns concatenated into shared flat arrays, indexed by
#: (lane offset + tid).  Everything the physics kernel touches.
STACKED_COLUMNS = (
    "vcore",
    "work_done",
    "warmup_left",
    "pending_penalty",
    "total_work",
    "next_barrier",
    "seg_end",
    "cpi",
    "api",
    "miss_ratio",
    "arrived",
    "finished",
    "waiting",
    "suspend_left",
)


class BatchSimState:
    """Flat-ragged stacking of N lanes' :class:`SimState` columns.

    Concatenates each column in ``STACKED_COLUMNS`` (plus per-vcore
    ``occupancy``) across lanes and rebinds every lane's attribute to its
    contiguous view, so lane-local methods and the physics kernel mutate
    the same memory.
    """

    def __init__(self, states: Sequence) -> None:
        self.states = list(states)
        counts = np.array([s.n for s in self.states], dtype=np.int64)
        self.counts = counts
        #: element offsets: lane ``r`` owns flat range ``[offsets[r], offsets[r+1])``
        self.offsets = np.zeros(len(self.states) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.n_flat = int(self.offsets[-1])
        for col in STACKED_COLUMNS:
            flat = np.concatenate([getattr(s, col) for s in self.states])
            setattr(self, col, flat)
            for s, lo, hi in zip(
                self.states, self.offsets[:-1], self.offsets[1:]
            ):
                setattr(s, col, flat[int(lo) : int(hi)])
        # Per-vcore occupancy, stacked with a uniform stride (all lanes
        # share one topology) — feeds the vectorised CFS gate.
        n_vcores = int(self.states[0].occupancy.size)
        self.n_vcores = n_vcores
        occ = np.concatenate([s.occupancy for s in self.states])
        self.occupancy = occ
        for r, s in enumerate(self.states):
            s.occupancy = occ[r * n_vcores : (r + 1) * n_vcores]

    #: the kernel drains warm-up and penalties over the flat columns
    consume_quantum = SimState.consume_quantum


def batch_compatible(engines: Sequence[SimulationEngine]) -> str | None:
    """``None`` when the engines can share one batch, else the reason.

    Lanes must agree on everything the physics kernel shares between
    them: the machine (vcore->physical/socket maps, frequencies, bandwidth
    capacities), the memory-model constants, SMT efficiency and the
    migration warm-up miss scale.  The LLC model is per lane.
    """
    if not engines:
        return "empty batch"
    first = engines[0]
    t0 = first.topology
    for eng in engines:
        t = eng.topology
        if not (
            t.n_vcores == t0.n_vcores
            and t.n_physical_cores == t0.n_physical_cores
            and np.array_equal(t.vcore_physical, t0.vcore_physical)
            and np.array_equal(t.vcore_freq_hz, t0.vcore_freq_hz)
            and np.array_equal(t.vcore_socket, t0.vcore_socket)
            and np.array_equal(
                t.socket_interconnect_rate, t0.socket_interconnect_rate
            )
            and t.memory_controller_rate == t0.memory_controller_rate
        ):
            return "topology mismatch"
        if eng.memory.config != first.memory.config:
            return "memory config mismatch"
        if eng.smt_efficiency != first.smt_efficiency:
            return "smt_efficiency mismatch"
        if eng.migration.warmup_miss_scale != first.migration.warmup_miss_scale:
            return "warmup_miss_scale mismatch"
    return None


class BatchEngine:
    """Advance N compatible engines in lockstep through one physics kernel.

    ``run()`` returns one :class:`RunResult` per engine, in input order,
    bit-equal to what each engine's own ``run()`` would have produced.
    """

    def __init__(self, engines: Sequence[SimulationEngine]) -> None:
        require(len(engines) >= 1, "batch needs at least one engine")
        reason = batch_compatible(engines)
        require(reason is None, f"engines cannot share a batch: {reason}")
        self.engines = list(engines)

    # ----------------------------------------------------------- main loop

    def run(self) -> list[RunResult]:
        """Run every lane to completion; results in input order."""
        lanes = self.engines
        n_lanes = len(lanes)
        for eng in lanes:
            eng._start()
        st = BatchSimState([eng.state for eng in lanes])
        offs = st.offsets
        topo = lanes[0].topology
        n_vcores = topo.n_vcores
        n_phys = topo.n_physical_cores
        vcore_physical = topo.vcore_physical

        observing = [
            eng.trace.record_timeseries or eng.bus.enabled for eng in lanes
        ]
        static_lane = [
            isinstance(eng.scheduler, StaticScheduler) for eng in lanes
        ]
        cfs_lane = [isinstance(eng.scheduler, CFSScheduler) for eng in lanes]
        # Counter samples are only built where something consumes them:
        # a policy that reads them, a trace recorder, or an event sink.
        needs_counters = [
            obs or not (stat or cfs)
            for obs, stat, cfs in zip(observing, static_lane, cfs_lane)
        ]

        active = [True] * n_lanes
        enabled = np.ones(st.n_flat, dtype=bool)
        qlen_lane = [0.0] * n_lanes

        while True:
            # -- lifecycle: retire finished / truncated lanes (loop head,
            #    mirroring the scalar while-condition order exactly)
            for r, eng in enumerate(lanes):
                if not active[r]:
                    continue
                if eng.state.all_finished():
                    active[r] = False
                    enabled[int(offs[r]) : int(offs[r + 1])] = False
                elif eng.time_s >= eng.max_time_s:
                    eng.truncated = True
                    active[r] = False
                    enabled[int(offs[r]) : int(offs[r + 1])] = False
            act = [r for r in range(n_lanes) if active[r]]
            if not act:
                break

            live_snapshots: dict[int, np.ndarray | None] = {}
            for r in act:
                q = float(lanes[r].scheduler.quantum_length_s())
                require(
                    q > 0.0, f"scheduler returned non-positive quantum {q}"
                )
                qlen_lane[r] = q
                live_snapshots[r] = lanes[r]._open_quantum(q)

            # -- flat runnable set across all active lanes, then one
            #    kernel call over the lanes that have runnable threads
            mask = st.arrived & ~st.finished & ~st.waiting
            mask &= enabled
            if any(eng.state.n_suspended for eng in lanes):
                mask &= st.suspend_left == 0
            fl = np.flatnonzero(mask)
            bounds = np.searchsorted(fl, offs).tolist()
            physics = (None,) * 5
            if fl.size:
                rows = [r for r in act if bounds[r + 1] > bounds[r]]
                segments = [
                    (lanes[r], bounds[r], bounds[r + 1], int(offs[r]))
                    for r in rows
                ]
                if len(rows) == 1:
                    lane = None
                    qlen = qlen_lane[rows[0]]
                    time = lanes[rows[0]].time_s
                else:
                    lane = np.repeat(
                        np.arange(len(rows)),
                        [bounds[r + 1] - bounds[r] for r in rows],
                    )
                    qlen = np.array([qlen_lane[r] for r in rows])[lane]
                    time = np.array([lanes[r].time_s for r in rows])[lane]
                physics = step_lanes(segments, st, fl, lane, qlen, time)

            # -- per-lane quantum tail: counters, lifecycle, events,
            #    barriers and arrivals (matches the scalar loop order)
            counters_by_lane: dict[int, QuantumCounters] = {}
            for r in act:
                eng = lanes[r]
                q = qlen_lane[r]
                counters = None
                if needs_counters[r]:
                    # The lane's slices of the kernel output (None when no
                    # lane ran anything this step).
                    l, h = bounds[r], bounds[r + 1]
                    counters = counters_by_lane[r] = eng._sample_counters(
                        q,
                        fl[l:h] - int(offs[r]),
                        *(a if a is None else a[l:h] for a in physics),
                    )
                eng._close_quantum(q, counters, live_snapshots[r])
                eng.state.release_ready_barriers()
                eng._place_arrivals()

            # -- scheduler pass.  CFS lanes act only when their vectorised
            #    gate fires: some physical core idle while another hosts
            #    >= 2 busy vcores (exactly when CFSScheduler.decide would
            #    return a non-empty move list).  static never acts.
            gate = None
            if any(cfs_lane[r] for r in act):
                busy_idx = np.flatnonzero(st.occupancy > 0)
                phys_load = np.bincount(
                    vcore_physical[busy_idx % n_vcores]
                    + (busy_idx // n_vcores) * n_phys,
                    minlength=n_lanes * n_phys,
                ).reshape(n_lanes, n_phys)
                gate = ((phys_load == 0).any(axis=1)) & (
                    (phys_load >= 2).any(axis=1)
                )
            for r in act:
                eng = lanes[r]
                if static_lane[r]:
                    continue  # decide() is a stateless no-op
                if cfs_lane[r] and not gate[r]:
                    continue
                placement = eng.state.live_placement()
                if placement:
                    actions = eng.scheduler.decide(
                        counters_by_lane.get(r), placement
                    )
                    eng._apply_actions(actions, placement)

        return [eng._finish() for eng in lanes]
