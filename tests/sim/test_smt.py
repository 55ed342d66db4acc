"""Tests for the SMT cycle-sharing model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.smt import smt_cycle_rates

# 2 physical cores x 2 SMT: vcores 0,1 -> phys 0; vcores 2,3 -> phys 1
PHYS = np.array([0, 0, 1, 1])
FREQ = np.array([2e9, 2e9, 1e9, 1e9])


class TestSmtCycleRates:
    def test_alone_gets_full_clock(self):
        rates = smt_cycle_rates(np.array([0]), PHYS, FREQ)
        assert rates[0] == pytest.approx(2e9)

    def test_sharing_splits_capacity(self):
        rates = smt_cycle_rates(np.array([0, 1]), PHYS, FREQ, smt_efficiency=0.7)
        assert np.allclose(rates, 0.7 * 2e9)

    def test_different_physical_cores_independent(self):
        rates = smt_cycle_rates(np.array([0, 2]), PHYS, FREQ)
        assert rates[0] == pytest.approx(2e9)
        assert rates[1] == pytest.approx(1e9)

    def test_oversubscribed_vcore_time_shares(self):
        rates = smt_cycle_rates(np.array([0, 0]), PHYS, FREQ, smt_efficiency=0.7)
        # two threads on ONE vcore: each gets half, no SMT sharing applies
        # (the physical core has one busy hardware thread)
        assert np.allclose(rates, 0.5 * 2e9)

    def test_stalled_sibling_grants_bonus(self):
        stall = np.array([0.0, 1.0])  # thread 1 fully memory-stalled
        rates = smt_cycle_rates(
            np.array([0, 1]), PHYS, FREQ,
            smt_efficiency=0.7, stall_fraction=stall, smt_stall_bonus=0.2,
        )
        # thread 0's sibling stalls -> bonus; thread 1's sibling doesn't
        assert rates[0] == pytest.approx((0.7 + 0.2) * 2e9)
        assert rates[1] == pytest.approx(0.7 * 2e9)

    def test_share_never_exceeds_full_clock(self):
        stall = np.array([1.0, 1.0])
        rates = smt_cycle_rates(
            np.array([0, 1]), PHYS, FREQ,
            smt_efficiency=0.9, stall_fraction=stall, smt_stall_bonus=0.1,
        )
        assert np.all(rates <= 2e9 + 1e-6)

    def test_empty(self):
        assert smt_cycle_rates(np.zeros(0, dtype=np.int64), PHYS, FREQ).size == 0

    def test_invalid_vcore_rejected(self):
        with pytest.raises(ValueError):
            smt_cycle_rates(np.array([9]), PHYS, FREQ)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            smt_cycle_rates(np.array([0]), PHYS, FREQ, smt_efficiency=0.0)

    def test_stall_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            smt_cycle_rates(
                np.array([0, 1]), PHYS, FREQ, stall_fraction=np.array([0.5])
            )

    def test_aggregate_throughput_gain_from_smt(self):
        """Two sharing threads together must beat one thread alone."""
        alone = smt_cycle_rates(np.array([0]), PHYS, FREQ)[0]
        shared = smt_cycle_rates(np.array([0, 1]), PHYS, FREQ, smt_efficiency=0.7)
        assert shared.sum() > alone

    def test_lanes_are_separate_machines(self):
        """With lane keys each lane gets exactly its lone-call bits."""
        vcores = [np.array([0, 1, 2]), np.array([1, 0, 0, 3]), np.array([2])]
        stalls = [np.array([0.1, 0.9, 0.4]), np.array([0.3, 0.0, 1.0, 0.2]),
                  np.array([0.5])]
        alone = [
            smt_cycle_rates(v, PHYS, FREQ, stall_fraction=s)
            for v, s in zip(vcores, stalls)
        ]
        lanes = smt_cycle_rates(
            np.concatenate(vcores), PHYS, FREQ,
            stall_fraction=np.concatenate(stalls),
            lane=np.repeat(np.arange(3), [v.size for v in vcores]),
        )
        assert lanes.tobytes() == np.concatenate(alone).tobytes()

    def test_lane_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            smt_cycle_rates(np.array([0, 1]), PHYS, FREQ, lane=np.array([0]))
