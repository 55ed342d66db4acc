"""Shared-memory contention model: max-min fair bandwidth + queueing delay.

The paper identifies main-memory bandwidth (memory controller plus on-chip
interconnect) as the dominant contention resource.  This module models both
stages:

1. **Per-socket interconnect** — threads on one socket share that socket's
   link to the memory controller.
2. **Global memory controller** — all sockets share the controller.

Allocation is **max-min fair** ("water-filling"): every thread receives its
demand if total demand fits, otherwise bandwidth-hungry threads are capped
at a common fair level while modest threads keep their full demand.  This
matches measured DRAM-scheduler behaviour closely enough for the
scheduler-visible signal (achieved accesses/second per thread) and produces
the paper's headline phenomenon: memory-intensive threads collapse under
contention while compute-intensive threads barely notice.

On top of the rate allocation, a **queueing-latency inflation** term raises
the per-miss stall cost as the controller approaches saturation
(an M/M/1-flavoured ``1/(1-rho)`` shape, clamped).  The engine solves the
resulting fixed point (stall cost depends on utilisation, utilisation
depends on achieved rates, achieved rates depend on stall cost) with a few
damped iterations per quantum; convergence is monotone in practice.

The solver is **adaptive**: each quantum warm-starts from the previous
quantum's utilisation and accelerates with secant steps on the scalar
utilisation residual, so in steady state the loop exits after one or two
evaluations — and after two or three on load shifts — instead of always
burning the full ``fixed_point_iterations`` budget (which remains the
backstop).  Iterations-to-converge are surfaced through the optional
``metrics`` registry (histogram ``memory.solve_iterations``).

:func:`solve_lanes` is the only implementation of the fixed point.  It
solves several independent machines (the lanes of `repro.sim.batch`) in
one pass, each exactly as if alone; :meth:`MemorySystem.solve` is its
one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_in_range, check_non_negative, check_positive

__all__ = [
    "MemoryModelConfig",
    "waterfill",
    "allocate_bandwidth",
    "MemorySystem",
    "solve_lanes",
]


@dataclass(frozen=True)
class MemoryModelConfig:
    """Tunable physical constants of the memory model.

    Parameters
    ----------
    base_miss_stall_cycles:
        Effective (MLP-overlapped) stall cycles per LLC miss at an idle
        memory system, measured in cycles of the *requesting* core.
    contention_stall_scale:
        Strength of the queueing inflation; stall cycles become
        ``base * (1 + scale * rho**contention_exponent)`` where ``rho`` is
        memory-controller utilisation.
    contention_exponent:
        Shape of the inflation curve (2 = quadratic ramp near saturation).
    max_utilization:
        Cap on ``rho`` used inside the inflation term (numerical guard).
    fixed_point_iterations:
        Maximum damped iterations used to solve the rate/latency fixed
        point (the backstop of the adaptive early exit).
    fixed_point_tolerance:
        Relative residual on controller utilisation below which the solver
        stops early: once ``|rho_new - rho| <= tol * max(rho_new, rho)``
        the iterate has converged to working precision and further rounds
        cannot change scheduler-visible rates meaningfully.  ``0`` disables
        early exit (always run the full budget) except at exact fixed
        points, where further iterations are provably identical.
    """

    base_miss_stall_cycles: float = 60.0
    contention_stall_scale: float = 3.0
    contention_exponent: float = 2.0
    max_utilization: float = 0.98
    fixed_point_iterations: int = 6
    fixed_point_tolerance: float = 1e-4

    def __post_init__(self) -> None:
        check_positive(self.base_miss_stall_cycles, "base_miss_stall_cycles")
        check_non_negative(self.contention_stall_scale, "contention_stall_scale")
        check_positive(self.contention_exponent, "contention_exponent")
        check_in_range(self.max_utilization, 0.1, 1.0, "max_utilization")
        if self.fixed_point_iterations < 1:
            raise ValueError("fixed_point_iterations must be >= 1")
        check_non_negative(self.fixed_point_tolerance, "fixed_point_tolerance")

    def stall_cycles(self, rho: float) -> float:
        """Stall cycles per miss at memory-controller utilisation ``rho``."""
        rho = min(max(float(rho), 0.0), self.max_utilization)
        return self.base_miss_stall_cycles * (
            1.0 + self.contention_stall_scale * rho**self.contention_exponent
        )


def waterfill(demands: np.ndarray, capacity: float) -> np.ndarray:
    """Max-min fair allocation of ``capacity`` among ``demands``.

    Returns an array ``alloc`` with ``alloc <= demands`` elementwise,
    ``alloc.sum() <= capacity`` (tight when total demand exceeds capacity),
    and the max-min property: any thread not receiving its full demand
    receives the common water level, which no fully-served thread exceeds.

    Runs in O(n log n) via the classic sorted-prefix formulation.
    """
    demands = np.asarray(demands, dtype=np.float64)
    if demands.ndim != 1:
        raise ValueError(f"demands must be 1-D, got shape {demands.shape}")
    if np.any(demands < 0):
        raise ValueError("demands must be non-negative")
    capacity = float(capacity)
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    n = demands.size
    if n == 0:
        return demands.copy()
    total = demands.sum()
    if total <= capacity:
        return demands.copy()
    order = np.argsort(demands, kind="stable")
    sorted_d = demands[order]
    # prefix[i] = sum of the i smallest demands
    prefix = np.concatenate(([0.0], np.cumsum(sorted_d)))
    remaining = n - np.arange(n)
    # If every demand above index i were capped at level L, usage would be
    # prefix[i] + remaining[i] * L.  Find the first i where the level needed
    # to exhaust capacity is below sorted_d[i] (those threads get capped).
    levels = (capacity - prefix[:-1]) / remaining
    capped = levels < sorted_d
    if not capped.any():
        # Degenerate float case: capacity effectively covers everything.
        return demands * (capacity / total)
    i = int(np.argmax(capped))
    level = max(levels[i], 0.0)
    alloc_sorted = np.minimum(sorted_d, level)
    alloc = np.empty_like(demands)
    alloc[order] = alloc_sorted
    return alloc


def allocate_bandwidth(
    demands: np.ndarray,
    socket_of: np.ndarray,
    socket_capacity: np.ndarray,
    controller_capacity: float,
) -> np.ndarray:
    """Two-stage max-min fair allocation: per-socket link, then controller.

    Stage 1 caps each thread at its socket's max-min fair share of the
    socket interconnect.  Stage 2 water-fills the controller capacity over
    the stage-1 caps.  The result respects both constraint families and is
    max-min fair with per-thread caps.

    Parameters
    ----------
    demands:
        Per-thread demanded access rate (accesses/second), shape ``(n,)``.
    socket_of:
        Socket id of each thread's current core, shape ``(n,)``.
    socket_capacity:
        Interconnect capacity per socket (accesses/second), shape ``(s,)``.
    controller_capacity:
        Memory-controller capacity (accesses/second).
    """
    demands = np.asarray(demands, dtype=np.float64)
    socket_of = np.asarray(socket_of, dtype=np.int64)
    socket_capacity = np.asarray(socket_capacity, dtype=np.float64)
    if demands.shape != socket_of.shape:
        raise ValueError("demands and socket_of must have the same shape")
    if demands.size and (
        socket_of.min() < 0 or socket_of.max() >= socket_capacity.size
    ):
        raise ValueError("socket_of contains an unknown socket id")
    # Fast path: when no socket link is oversubscribed, stage 1 is the
    # identity (waterfill returns the demands unchanged under capacity),
    # so skip the per-socket Python loop entirely — the common case for
    # lightly loaded quanta and compute-heavy workloads.
    socket_demand = np.bincount(
        socket_of, weights=demands, minlength=socket_capacity.size
    )
    congested = np.flatnonzero(socket_demand > socket_capacity)
    if congested.size == 0:
        return waterfill(demands, controller_capacity)
    capped = demands.copy()
    for sid in congested:
        mask = socket_of == sid
        capped[mask] = waterfill(demands[mask], float(socket_capacity[sid]))
    return waterfill(capped, controller_capacity)


class MemorySystem:
    """Stateful wrapper binding the model config to a topology's capacities.

    The engine calls :meth:`solve` once per quantum with the per-thread
    demand *functions* expressed as arrays; the method returns achieved
    access rates and effective instruction rates after solving the
    latency/utilisation fixed point.
    """

    def __init__(
        self,
        socket_capacity: np.ndarray,
        controller_capacity: float,
        config: MemoryModelConfig | None = None,
    ) -> None:
        self.socket_capacity = np.asarray(socket_capacity, dtype=np.float64)
        self.controller_capacity = check_positive(
            controller_capacity, "controller_capacity"
        )
        self.config = config or MemoryModelConfig()
        #: utilisation of the controller in the most recent solve (diagnostics)
        self.last_utilization = 0.0
        #: iterations the most recent solve needed to converge (diagnostics)
        self.last_iterations = 0
        #: optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        #: each solve records its iteration count (``memory.solve_iterations``)
        self.metrics = None

    def solve(
        self,
        cycle_rate: np.ndarray,
        cpi: np.ndarray,
        mpi: np.ndarray,
        socket_of: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve one quantum's rates for ``n`` runnable threads.

        Parameters
        ----------
        cycle_rate:
            Cycles/second available to each thread (frequency x SMT share).
        cpi:
            Compute cycles per instruction of the thread's current phase.
        mpi:
            Misses per instruction of the current phase.
        socket_of:
            Socket hosting each thread.

        Returns
        -------
        (access_rate, ips):
            Achieved memory access rate (misses/second) and instruction
            rate (instructions/second) per thread.

        Notes
        -----
        For a stall cost ``L`` the *demanded* instruction rate is
        ``ips0 = cycle_rate / (cpi + mpi * L)`` and demanded access rate is
        ``d = ips0 * mpi``.  The allocator returns achieved rates
        ``a <= d``; a memory-limited thread's instruction rate follows its
        achieved access rate (``ips = a / mpi``), a compute-limited thread
        keeps ``ips0``.  ``L`` itself depends on controller utilisation, so
        we solve the one-dimensional fixed point in ``rho``: warm-started
        from the previous quantum's utilisation, accelerated with secant
        steps once two evaluations are in hand (damped Picard as the
        fallback), and exiting as soon as the utilisation residual drops
        below ``config.fixed_point_tolerance`` (the iteration budget is
        the backstop for cold starts and load shifts).
        """
        cycle_rate = np.asarray(cycle_rate, dtype=np.float64)
        cpi = np.asarray(cpi, dtype=np.float64)
        mpi = np.asarray(mpi, dtype=np.float64)
        socket_of = np.asarray(socket_of, dtype=np.int64)
        n = cycle_rate.size
        if not (cpi.size == mpi.size == socket_of.size == n):
            raise ValueError("all per-thread arrays must have equal length")
        if n == 0:
            self.last_utilization = 0.0
            self.last_iterations = 0
            empty = np.zeros(0, dtype=np.float64)
            return empty, empty

        if socket_of.min() < 0 or socket_of.max() >= self.socket_capacity.size:
            raise ValueError("socket_of contains an unknown socket id")
        return solve_lanes([self], [(0, n)], None, cycle_rate, cpi, mpi, socket_of)


def solve_lanes(
    systems: list[MemorySystem],
    segments: list[tuple[int, int]],
    lane: np.ndarray | None,
    cycle_rate: np.ndarray,
    cpi: np.ndarray,
    mpi: np.ndarray,
    socket_of: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The memory fixed point of one quantum, for one or more lanes.

    This is the only implementation of the fixed point;
    :meth:`MemorySystem.solve` is its one-lane case, and the batched
    engine (`repro.sim.batch`) passes one system per lane.  Lane ``k``
    owns the non-empty slice ``segments[k]`` of the flat per-thread
    arrays; ``lane`` gives each thread's lane ordinal (``None`` for a
    single lane).  The systems must share ``config`` and capacities, and
    the inputs are not validated here.

    Each lane iterates its own utilisation: warm start, secant step and
    early exit exactly as the :meth:`MemorySystem.solve` notes describe,
    on its own ``last_utilization``.  The elementwise work runs once over
    the flat arrays; per-socket demand is keyed by ``(lane, socket)``, and
    every sum and allocation sees one lane's contiguous slice, so each
    lane gets the bits it would get alone.  A lane that has converged
    keeps its stall cost, so its rates are recomputed unchanged while the
    other lanes iterate.
    """
    first = systems[0]
    cfg = first.config
    tol = cfg.fixed_point_tolerance
    controller_capacity = first.controller_capacity
    socket_capacity = first.socket_capacity
    n_lanes = len(systems)
    n_sockets = socket_capacity.size
    if lane is None:
        sock_key, key_capacity = socket_of, socket_capacity
    else:
        sock_key = socket_of + lane * n_sockets
        key_capacity = np.tile(socket_capacity, n_lanes)
    # Loop invariants, hoisted: per lane, the only scalar that changes
    # between iterations is the utilisation estimate.
    mpi_pos = mpi > 0.0
    ips_mem = np.full(cycle_rate.size, np.inf)

    rho = [m.last_utilization for m in systems]  # warm start
    stall = [cfg.stall_cycles(r) for r in rho]
    new_rho = list(rho)
    rho_prev = [0.0] * n_lanes
    h_prev = [0.0] * n_lanes
    iterations = [0] * n_lanes
    #: each lane's capped access rates, or None where it got its demand
    alloc: list[np.ndarray | None] = [None] * n_lanes
    live = list(range(n_lanes))
    for _ in range(cfg.fixed_point_iterations):
        stall_of = stall[0] if lane is None else np.array(stall)[lane]
        ips0 = cycle_rate / (cpi + mpi * stall_of)
        demand = ips0 * mpi
        over = np.bincount(
            sock_key, weights=demand, minlength=key_capacity.size
        ) > key_capacity
        congested = (
            [over.any()]
            if lane is None
            else over.reshape(n_lanes, n_sockets).any(axis=1).tolist()
        )
        still = []
        for k in live:
            iterations[k] += 1
            # Two-stage allocation: a lane with a congested socket link
            # defers to allocate_bandwidth; the common branches cost a sum
            # plus at most one waterfill.
            lo, hi = segments[k]
            d = demand[lo:hi]
            if congested[k]:
                a = allocate_bandwidth(
                    d, socket_of[lo:hi], socket_capacity, controller_capacity
                )
                nr = float(a.sum() / controller_capacity)
            else:
                total = float(d.sum())
                if total <= controller_capacity:
                    a = None
                    nr = total / controller_capacity
                else:
                    a = waterfill(d, controller_capacity)
                    nr = float(a.sum() / controller_capacity)
            alloc[k] = a
            new_rho[k] = nr
            r = rho[k]
            # Residual of the un-damped update; at an exact fixed point
            # (``nr == r``) every further iteration would be bit-identical,
            # so stopping is safe even with ``tol == 0``.
            h = nr - r
            if abs(h) <= tol * max(abs(nr), abs(r)):
                continue
            # Secant step on g(rho) = f(rho) - rho: with two evaluations in
            # hand, jump to the root estimate instead of creeping there with
            # damped Picard steps — steady-state load shifts converge in two
            # or three evaluations instead of five or six.  Fall back to the
            # damped step on the first iteration or a degenerate/overshooting
            # secant (the backstop budget still bounds the loop).
            if iterations[k] > 1 and h != h_prev[k]:
                candidate = r - h * (r - rho_prev[k]) / (h - h_prev[k])
            else:
                candidate = 0.5 * r + 0.5 * nr
            if not 0.0 <= candidate <= 2.0:
                candidate = 0.5 * r + 0.5 * nr
            rho_prev[k], h_prev[k] = r, h
            rho[k] = candidate
            stall[k] = cfg.stall_cycles(candidate)
            still.append(k)
        if n_lanes == 1:
            access = demand if alloc[0] is None else alloc[0]
        else:
            access = _lane_access(demand, alloc, segments)
        np.divide(access, mpi, out=ips_mem, where=mpi_pos)
        ips = np.minimum(ips0, ips_mem)
        live = still
        if not live:
            break
    for m, nr, it in zip(systems, new_rho, iterations):
        m.last_utilization = nr
        m.last_iterations = it
        if m.metrics is not None:
            m.metrics.histogram("memory.solve_iterations").observe(it)
    return access, ips


def _lane_access(
    demand: np.ndarray,
    alloc: list[np.ndarray | None],
    segments: list[tuple[int, int]],
) -> np.ndarray:
    """Flat access rates: each lane's capped allocation, else its demand."""
    access = demand
    for a, (lo, hi) in zip(alloc, segments):
        if a is not None:
            if access is demand:
                access = demand.copy()
            access[lo:hi] = a
    return access
