"""Simultaneous-multithreading (hyperthreading) cycle-sharing model.

The paper's testbed runs with hyperthreading enabled: contention "can occur
from threads sharing a single virtual core".  A physical core's issue
capacity is split among its *busy* hardware threads, with a twist that
matters for fairness studies: **a sibling that stalls on memory frees
issue slots**.  A thread co-resident with a memory-bound sibling therefore
retains more of the core than one co-resident with a compute-bound
sibling:

* alone on the physical core: full clock rate;
* sharing: base share ``smt_efficiency`` (0.70 — two hyperthreads together
  yield ~1.40x of one), plus a bonus proportional to the sibling's
  memory-stall fraction, up to ``smt_stall_bonus``.

This asymmetry is a real dispersion source on SMT machines (sibling luck
varies across a benchmark's threads under a contention-blind scheduler) and
is neutral under Dike's converged mapping (like threads share cores with
like siblings).

The model stays deliberately coarse — schedulers only ever observe
per-thread rates — but preserves the two properties that shape the
experiments: packing is worse than spreading, and sibling identity matters.

:func:`smt_cycle_rates` is the only implementation of the rule.  Given
optional per-thread ``lane`` keys it evaluates several independent
machines (the lanes of `repro.sim.batch`) in one pass: every per-core
count and sum is keyed by ``(lane, core)``, so each lane gets exactly the
bits it would get alone.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_in_range

__all__ = ["smt_cycle_rates"]


def smt_cycle_rates(
    vcore_of: np.ndarray,
    vcore_physical: np.ndarray,
    vcore_freq_hz: np.ndarray,
    smt_efficiency: float = 0.70,
    stall_fraction: np.ndarray | None = None,
    smt_stall_bonus: float = 0.25,
    n_physical: int | None = None,
    lane: np.ndarray | None = None,
) -> np.ndarray:
    """Cycles/second each runnable thread receives after SMT sharing.

    Parameters
    ----------
    vcore_of:
        Virtual core hosting each runnable thread, shape ``(n,)``.  Multiple
        threads on the *same virtual core* time-share it equally (the OS
        level of sharing) before SMT sharing applies at the physical level.
    vcore_physical:
        Map from virtual core id to physical core id.
    vcore_freq_hz:
        Map from virtual core id to clock rate.
    smt_efficiency:
        Per-thread base throughput fraction when a physical core hosts more
        than one busy hardware thread.
    stall_fraction:
        Optional per-thread fraction of time stalled on memory (0..1,
        shape ``(n,)``).  When given, each thread's share gains
        ``smt_stall_bonus * mean(stall of co-resident siblings)``.
    smt_stall_bonus:
        Maximum share recovered from a fully memory-stalled sibling.
    n_physical:
        Number of physical cores, when the caller already knows it (the
        engine passes the topology's count so the per-quantum hot path
        skips the ``vcore_physical.max()`` scan).
    lane:
        Optional lane id of each thread, shape ``(n,)``.  Threads of
        different lanes run on separate copies of the machine: they share
        no virtual or physical core.

    Returns
    -------
    Cycles/second per thread, shape ``(n,)``.
    """
    check_in_range(smt_efficiency, 0.1, 1.0, "smt_efficiency")
    check_in_range(smt_stall_bonus, 0.0, 1.0 - smt_efficiency + 1e-9, "smt_stall_bonus")
    vcore_of = np.asarray(vcore_of, dtype=np.int64)
    n = vcore_of.size
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    if vcore_of.min() < 0 or vcore_of.max() >= vcore_physical.size:
        raise ValueError("vcore_of contains an invalid virtual core id")

    n_phys = (
        int(vcore_physical.max()) + 1 if n_physical is None else int(n_physical)
    )
    # Core keys: one machine copy per lane, so no count or sum below ever
    # mixes two lanes.
    n_vcores = vcore_physical.size
    if lane is None:
        n_lanes, vkey, phys_map = 1, vcore_of, vcore_physical
    else:
        if lane.shape != (n,):
            raise ValueError("lane must match vcore_of's shape")
        n_lanes = int(lane.max()) + 1
        vkey = vcore_of + lane * n_vcores
        phys_map = np.tile(vcore_physical, n_lanes) + np.repeat(
            np.arange(n_lanes) * n_phys, n_vcores
        )
    n_keys = n_lanes * n_phys
    # Threads per virtual core (OS time sharing when oversubscribed).
    vcore_load = np.bincount(vkey, minlength=n_lanes * n_vcores)
    # Busy virtual cores per physical core (SMT sharing).
    phys_busy = np.bincount(phys_map[vcore_load > 0], minlength=n_keys)

    freq = vcore_freq_hz[vcore_of]
    share_vcore = 1.0 / vcore_load[vkey]
    phys_of_thread = phys_map[vkey]
    shared = phys_busy[phys_of_thread] > 1

    smt_factor = np.where(shared, smt_efficiency, 1.0)
    if stall_fraction is not None and shared.any():
        stall = np.clip(np.asarray(stall_fraction, dtype=np.float64), 0.0, 1.0)
        if stall.shape != (n,):
            raise ValueError("stall_fraction must match vcore_of's shape")
        # Mean stall of *other* threads on my physical core:
        # (sum over core - mine) / (count over core - 1).
        stall_sum = np.bincount(phys_of_thread, weights=stall, minlength=n_keys)
        count = np.bincount(phys_of_thread, minlength=n_keys)[phys_of_thread]
        sibling_stall = (stall_sum[phys_of_thread] - stall) / np.maximum(
            count - 1, 1
        )
        bonus = np.where(count > 1, smt_stall_bonus * sibling_stall, 0.0)
        smt_factor = np.where(shared, smt_factor + bonus, smt_factor)
    return freq * share_vcore * np.minimum(smt_factor, 1.0)
