"""Composable arrival-process generators for open-loop load.

Each generator is a frozen description of a stochastic arrival process;
:meth:`ArrivalProcess.generate` samples it into a schema-versioned
:class:`~repro.traffic.trace.JobTrace` using the repo's deterministic
seed-derivation (`repro.util.rng.make_rng`), so the same process at the
same seed yields a byte-identical trace.

Processes
---------
``poisson``
    Memoryless arrivals at a constant mean rate — the open-system
    baseline every queueing result is stated against.
``bursty``
    A two-state Markov-modulated Poisson process (MMPP-2): calm stretches
    at the base rate punctuated by bursts at ``burst_factor`` times the
    rate, the "thundering herd" shape that stresses wake-time placement.
``diurnal``
    A non-homogeneous Poisson process whose rate follows a sinusoidal
    day/night ramp (sampled by thinning), the load-follows-the-sun shape
    long-horizon capacity studies assume.
``fixed``
    Deterministic arrivals at exactly the mean interarrival — the
    zero-variance control that isolates queueing noise from placement
    behaviour.

All processes draw the application of each job uniformly from ``apps``
(default: the whole Table II registry) *before* drawing the gap to the
next arrival.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar, Iterator

import numpy as np

from repro.traffic.trace import Job, JobTrace
from repro.util.rng import make_rng
from repro.util.validation import check_positive, require
from repro.workloads.rodinia import APP_REGISTRY

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "BurstyProcess",
    "DiurnalProcess",
    "FixedRateProcess",
    "GENERATORS",
    "make_process",
]

#: Default application pool: the full registry, in sorted order (the
#: order matters — it is part of the deterministic sampling contract).
DEFAULT_APPS: tuple[str, ...] = tuple(sorted(APP_REGISTRY))


@dataclass(frozen=True)
class ArrivalProcess:
    """Base class: application mix + an interarrival-gap process.

    Subclasses set ``kind`` and implement :meth:`_gaps`, a generator of
    consecutive interarrival gaps (seconds, at ``work_scale=1``).  The
    first job always arrives at t=0.
    """

    kind: ClassVar[str] = "arrival"

    mean_interarrival_s: float = 15.0
    apps: tuple[str, ...] = DEFAULT_APPS

    def __post_init__(self) -> None:
        check_positive(self.mean_interarrival_s, "mean_interarrival_s")
        require(len(self.apps) >= 1, "an arrival process needs >= 1 app")
        for name in self.apps:
            require(name in APP_REGISTRY, f"unknown application {name!r}")

    # ------------------------------------------------------------ sampling

    @classmethod
    def at_rate(cls, rate_per_s: float, **kwargs: Any) -> "ArrivalProcess":
        """Construct from an arrival *rate* (jobs per second)."""
        check_positive(rate_per_s, "rate_per_s")
        return cls(mean_interarrival_s=1.0 / rate_per_s, **kwargs)

    @property
    def rate_per_s(self) -> float:
        return 1.0 / self.mean_interarrival_s

    def _gaps(self, rng: np.random.Generator) -> Iterator[float]:
        raise NotImplementedError

    def entries(
        self, rng: np.random.Generator, n_jobs: int
    ) -> Iterator[tuple[str, float]]:
        """Sample ``(app, arrival_s)`` pairs, arrivals non-decreasing.

        Draw order per job — application first, then the gap to the next
        arrival — is fixed: it is part of the deterministic sampling
        contract.
        """
        require(n_jobs >= 1, "n_jobs must be >= 1")
        gaps = self._gaps(rng)
        t = 0.0
        for _ in range(n_jobs):
            app = self.apps[int(rng.integers(len(self.apps)))]
            yield app, t
            t += float(next(gaps))

    def generate(
        self,
        n_jobs: int,
        seed: int,
        n_threads: int = 8,
        size: float = 1.0,
        name: str | None = None,
    ) -> JobTrace:
        """Sample a full :class:`JobTrace` (deterministic per seed)."""
        rng = make_rng(seed, "traffic", self.kind)
        jobs = tuple(
            Job(i, app, arrival, n_threads=n_threads, size=size)
            for i, (app, arrival) in enumerate(self.entries(rng, n_jobs))
        )
        return JobTrace(
            name=name or f"{self.kind}-n{n_jobs}-s{seed}",
            process=self.kind,
            seed=seed,
            jobs=jobs,
            params=tuple(sorted(self.params().items())),
        )

    def params(self) -> dict[str, Any]:
        """Generator parameters recorded in the trace header."""
        return {
            "mean_interarrival_s": self.mean_interarrival_s,
            "apps": list(self.apps),
        }


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: i.i.d. exponential interarrival gaps."""

    kind: ClassVar[str] = "poisson"

    def _gaps(self, rng: np.random.Generator) -> Iterator[float]:
        while True:
            yield float(rng.exponential(self.mean_interarrival_s))


@dataclass(frozen=True)
class BurstyProcess(ArrivalProcess):
    """MMPP-2: calm stretches broken by ``burst_factor``-times-faster bursts.

    State dwell is geometric in *jobs* (``mean_calm_jobs`` /
    ``mean_burst_jobs`` arrivals on average before switching), so burst
    intensity is independent of the base rate.  The long-run mean rate is
    higher than ``1 / mean_interarrival_s`` — bursts compress gaps — which
    is the point: same nominal load, heavier tail.
    """

    kind: ClassVar[str] = "bursty"

    burst_factor: float = 8.0
    mean_calm_jobs: float = 24.0
    mean_burst_jobs: float = 8.0

    def __post_init__(self) -> None:
        super().__post_init__()
        require(self.burst_factor > 1.0, "burst_factor must be > 1")
        check_positive(self.mean_calm_jobs, "mean_calm_jobs")
        check_positive(self.mean_burst_jobs, "mean_burst_jobs")

    def _gaps(self, rng: np.random.Generator) -> Iterator[float]:
        burst = False
        while True:
            mean = (
                self.mean_interarrival_s / self.burst_factor
                if burst
                else self.mean_interarrival_s
            )
            yield float(rng.exponential(mean))
            p_switch = 1.0 / (
                self.mean_burst_jobs if burst else self.mean_calm_jobs
            )
            if float(rng.random()) < p_switch:
                burst = not burst

    def params(self) -> dict[str, Any]:
        out = super().params()
        out.update(
            burst_factor=self.burst_factor,
            mean_calm_jobs=self.mean_calm_jobs,
            mean_burst_jobs=self.mean_burst_jobs,
        )
        return out


@dataclass(frozen=True)
class DiurnalProcess(ArrivalProcess):
    """Sinusoidal day/night ramp: a non-homogeneous Poisson process.

    The instantaneous rate is ``base * (1 + amplitude * sin(2πt /
    period_s))`` with ``base = 1 / mean_interarrival_s``; gaps are drawn
    by thinning against the peak rate, which preserves exact per-seed
    determinism (every candidate draw consumes the same RNG stream).
    """

    kind: ClassVar[str] = "diurnal"

    amplitude: float = 0.8
    period_s: float = 240.0

    def __post_init__(self) -> None:
        super().__post_init__()
        require(0.0 < self.amplitude < 1.0, "amplitude must be in (0, 1)")
        check_positive(self.period_s, "period_s")

    def _gaps(self, rng: np.random.Generator) -> Iterator[float]:
        base = 1.0 / self.mean_interarrival_s
        peak = base * (1.0 + self.amplitude)
        t = 0.0
        while True:
            start = t
            while True:
                t += float(rng.exponential(1.0 / peak))
                rate = base * (
                    1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period_s)
                )
                if float(rng.random()) * peak <= rate:
                    break
            yield t - start

    def params(self) -> dict[str, Any]:
        out = super().params()
        out.update(amplitude=self.amplitude, period_s=self.period_s)
        return out


@dataclass(frozen=True)
class FixedRateProcess(ArrivalProcess):
    """Deterministic arrivals exactly ``mean_interarrival_s`` apart."""

    kind: ClassVar[str] = "fixed"

    def _gaps(self, rng: np.random.Generator) -> Iterator[float]:
        while True:
            yield self.mean_interarrival_s


#: kind string -> generator class, for CLI / campaign resolution.
GENERATORS: dict[str, type[ArrivalProcess]] = {
    cls.kind: cls
    for cls in (PoissonProcess, BurstyProcess, DiurnalProcess, FixedRateProcess)
}


def make_process(
    kind: str, mean_interarrival_s: float, **params: Any
) -> ArrivalProcess:
    """Build a generator by kind name (``GENERATORS`` lookup).

    Extra keyword parameters go to the generator's constructor; unknown
    kinds and unknown parameters raise ``ValueError`` with the known
    choices in the message.
    """
    cls = GENERATORS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown arrival process {kind!r}; known: {sorted(GENERATORS)}"
        )
    try:
        return cls(mean_interarrival_s=mean_interarrival_s, **params)
    except TypeError as exc:
        raise ValueError(f"{kind}: {exc}") from None
