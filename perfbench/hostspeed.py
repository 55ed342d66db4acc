"""Correction of host timings for interference from other tenants.

The benchmark runs on a shared virtual machine whose speed is not its own:
a fixed probe of interpreter and small-array NumPy work (:func:`probe`)
takes either about 0.3 ms or about 0.55 ms, flipping within a second and
independently on each vCPU, and the share of slow periods drifts over
minutes.  Process CPU time equals wall time and steal time stays at a few
percent, so the guest is not descheduled; it runs slower.  Plain wall-clock
medians of identical runs therefore moved by a third between two ten-run
sets half an hour apart.

:class:`HostSpeed` cuts a timed phase into chunks of about 20 ms of work,
runs the probe at the end of each chunk, and scales the chunk by
``REFERENCE_PROBE_S / probe time``: a chunk that ran while the host was
slow is scaled down by as much as the probe was slowed.  The probe's own
time is excluded.  Corrected times are host seconds at the host speed on
which the probe takes ``REFERENCE_PROBE_S`` (the uncontended speed of the
machine the benchmark was tuned on); uncorrected times are reported next
to them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe time of the uncontended machine the benchmark was tuned on: the
#: 10th percentile of the probe over three untraced `scale512` repetitions.
REFERENCE_PROBE_S = 0.00033

#: Work between two probes on the hot path.
CHUNK_S = 0.02

_A = np.random.default_rng(0).random((32, 32))


def probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array NumPy work."""
    t = perf_counter()
    acc = 0.0
    for _ in range(40):
        d = {j: j * 0.5 for j in range(40)}
        acc += sum(d.values()) + float((_A @ _A[:, :1]).sum())
    return perf_counter() - t


class HostSpeed:
    """Chunks of a repetition's work, each with the probe time that closed it."""

    def __init__(self, chunk_s: float = CHUNK_S) -> None:
        self.chunk_s = chunk_s
        #: ``(label, work seconds, probe seconds)`` per closed chunk
        self.chunks: list[tuple[str, float, float]] = []
        #: seconds spent probing so far (excluded from every timing)
        self.probe_s = 0.0
        self.label = "setup"
        self._mark = perf_counter()

    def tick(self) -> None:
        """Close the current chunk once it holds ``chunk_s`` of work."""
        if perf_counter() - self._mark >= self.chunk_s:
            self._close(1)

    def close(self, label: str) -> None:
        """Close the current chunk at a phase boundary; the next is ``label``."""
        self._close(5)
        self.label = label

    def _close(self, n: int) -> None:
        t = perf_counter()
        probes = sorted(probe() for _ in range(n))
        self.chunks.append((self.label, t - self._mark, probes[n // 2]))
        self._mark = perf_counter()
        self.probe_s += self._mark - t

    def factor(self, i: int) -> float:
        """Correction factor of chunk ``i``."""
        return REFERENCE_PROBE_S / self.chunks[i][2]

    def seconds(self, label: str) -> tuple[float, float]:
        """``(corrected, uncorrected)`` seconds of work in chunks ``label``."""
        corrected = raw = 0.0
        for i, (lab, work, _) in enumerate(self.chunks):
            if lab == label:
                corrected += work * self.factor(i)
                raw += work
        return corrected, raw
