"""Tests for the hardware-counter emulation objects."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.schedulers.static import StaticScheduler
from repro.sim.counters import QuantumCounters, SampleColumns, ThreadSample
from repro.sim.engine import SimulationEngine
from repro.sim.phases import steady_trace
from repro.sim.process import ProcessGroup
from repro.sim.thread import SimThread

finite = st.floats(min_value=1e-3, max_value=1e12)
signed = st.floats(min_value=-1e12, max_value=1e12)


def sample(tid=0, vcore=0, instr=1e8, acc=5e6, miss=2e6, rt=0.5) -> ThreadSample:
    return ThreadSample(
        tid=tid, vcore=vcore, instructions=instr,
        llc_accesses=acc, llc_misses=miss, runtime_s=rt,
    )


class TestThreadSample:
    def test_access_rate(self):
        assert sample(miss=2e6, rt=0.5).access_rate == pytest.approx(4e6)

    def test_miss_rate(self):
        assert sample(acc=5e6, miss=2e6).miss_rate == pytest.approx(0.4)

    def test_ips(self):
        assert sample(instr=1e8, rt=0.5).ips == pytest.approx(2e8)

    def test_zero_runtime_rates(self):
        s = sample(rt=0.0)
        assert s.access_rate == 0.0
        assert s.ips == 0.0

    def test_zero_accesses_miss_rate(self):
        assert sample(acc=0.0, miss=0.0).miss_rate == 0.0

    def test_miss_rate_clamped_to_one(self):
        # Multiplicative counter noise can push misses above accesses;
        # the ratio must stay a ratio.
        assert sample(acc=1e6, miss=1.2e6).miss_rate == 1.0

    def test_negative_misses_clamped_to_zero(self):
        s = sample(acc=1e6, miss=-5.0)
        assert s.miss_rate == 0.0
        assert s.access_rate == 0.0


class TestQuantumCounters:
    def _counters(self) -> QuantumCounters:
        return QuantumCounters(
            quantum_index=3,
            time_s=2.0,
            quantum_length_s=0.5,
            samples=(sample(tid=1), sample(tid=2, miss=1e6)),
            core_bandwidth=np.zeros(4),
        )

    def test_sample_for(self):
        c = self._counters()
        assert c.sample_for(1).tid == 1
        assert c.sample_for(99) is None

    def test_tids(self):
        assert self._counters().tids == (1, 2)

    def test_access_rates_map(self):
        rates = self._counters().access_rates()
        assert set(rates) == {1, 2}
        assert rates[1] == pytest.approx(4e6)

    def test_miss_rates_map(self):
        rates = self._counters().miss_rates()
        assert rates[2] == pytest.approx(0.2)


class TestSampleColumns:
    def _rows(self):
        return (
            sample(tid=4, vcore=1),
            ThreadSample(7, 2, 0.0, 0.0, 0.0, 0.5),
            ThreadSample(4, 1, 0.0, 0.0, 0.0, 0.5, cache_mb=1.5),
        )

    def test_row_built_counters_become_columns(self):
        c = QuantumCounters(0, 0.5, 0.5, self._rows(), np.zeros(4))
        assert isinstance(c.samples, SampleColumns)
        assert c.samples.tid.dtype == np.int64
        assert c.samples.runtime_s.dtype == np.float64

    def test_lazy_view_round_trips_rows(self):
        rows = self._rows()
        cols = SampleColumns.from_rows(rows)
        assert len(cols) == 3
        assert tuple(cols) == rows
        assert cols[2] == rows[2]
        assert cols[-1] == rows[-1]
        assert tuple(cols[1:]) == rows[1:]
        assert type(cols[0].tid) is int and type(cols[0].runtime_s) is float

    def test_len_never_builds_rows(self, monkeypatch):
        cols = SampleColumns.from_rows(self._rows())

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was built")

        monkeypatch.setattr(SampleColumns, "__getitem__", no_rows)
        monkeypatch.setattr(SampleColumns, "__iter__", no_rows)
        assert len(cols) == 3

    def test_empty(self):
        c = QuantumCounters(0, 0.5, 0.5, (), np.zeros(2))
        assert len(c.samples) == 0
        assert c.tids == ()
        assert c.access_rates() == {}
        assert c.sample_for(0) is None

    def test_maps_are_last_row_wins(self):
        c = QuantumCounters(0, 0.5, 0.5, self._rows(), np.zeros(4))
        rates = c.access_rates()
        assert list(rates) == [4, 7]  # first position of tid 4 ...
        assert rates[4] == 0.0  # ... value of its last (idle) row
        assert c.cache_occupancy()[4] == 1.5
        assert c.sample_for(4) == self._rows()[0]  # first row

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(-1, 3),
                st.sampled_from([0.0, 1.0]) | finite,
                st.sampled_from([0.0, -1.0]) | finite,
                st.sampled_from([0.0, -3.0]) | signed,
                st.sampled_from([0.0]) | finite,
                st.sampled_from([0.0]) | finite,
            ),
            max_size=12,
        )
    )
    def test_rate_columns_bit_equal_row_properties(self, raw):
        rows = [ThreadSample(*r) for r in raw]
        cols = SampleColumns.from_rows(rows)
        for name in ("access_rate", "miss_rate", "ips"):
            got = getattr(cols, name)().tolist()
            want = [getattr(r, name) for r in rows]
            assert [repr(x) for x in got] == [repr(x) for x in want], name


class TestBarrierDuplicateRow:
    """A thread that reaches a barrier inside a quantum is sampled twice."""

    def test_active_row_then_idle_row(self, small_topology):
        threads = [
            SimThread(
                tid=i, benchmark="bench", group=0, member=i,
                trace=steady_trace(2e8, 1.0, 0.05, 0.3),
                barrier_fractions=(0.5,),
            )
            for i in range(2)
        ]
        seen: list[QuantumCounters] = []

        class Recorder(StaticScheduler):
            def decide(self, counters, placement):
                seen.append(counters)
                return []

        # tid 0 on the 2 GHz socket reaches the barrier long before tid 1
        # on the 1 GHz socket.
        engine = SimulationEngine(
            topology=small_topology,
            groups=[ProcessGroup(group_id=0, benchmark="bench", threads=threads)],
            scheduler=Recorder(quantum_s=0.02, placement={0: 0, 1: 4}),
            counter_noise=0.0,
        )
        engine.run()
        doubled = [c for c in seen if c.samples.tid.tolist().count(0) == 2]
        assert doubled, "tid 0 never reached its barrier inside a quantum"
        c = doubled[0]
        rows = [s for s in c.samples if s.tid == 0]
        active, idle = rows
        assert active.instructions > 0.0 and active.llc_misses > 0.0
        assert idle == ThreadSample(0, 0, 0.0, 0.0, 0.0, c.quantum_length_s)
        # active rows (ascending tid) come first, idle rows after them
        assert c.samples.tid.tolist() == [0, 1, 0]
        # the per-tid maps report the idle row
        assert c.access_rates()[0] == 0.0
        # the quantum after, tid 0 is only idle until tid 1 arrives
        nxt = seen[seen.index(c) + 1]
        assert [s for s in nxt.samples if s.tid == 0] == [
            ThreadSample(0, 0, 0.0, 0.0, 0.0, nxt.quantum_length_s)
        ]
