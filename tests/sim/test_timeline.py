"""Unit tests for FifoTimeline, the DES's finite-capacity FIFO server.

Every expected instant below is computed by hand from
``start = max(now, earliest free unit)`` and ``end = start + hold``.
"""

import pytest

from repro.errors import ResourceError
from repro.sim import Environment
from repro.sim.timeline import FifoTimeline


def test_back_to_back_charges_queue_fifo():
    env = Environment()
    server = FifoTimeline(env)
    assert server.charge(2.0) == (0.0, 2.0)
    assert server.charge(3.0) == (2.0, 5.0)   # waits for the first
    assert server.charge(1.0) == (5.0, 6.0)
    assert server.busy_until == 6.0


def test_charge_after_idle_starts_now():
    env = Environment()
    server = FifoTimeline(env)
    server.charge(1.0)                        # busy over [0, 1]
    env.run(until=4.0)
    assert server.charge(2.0) == (4.0, 6.0)   # free since 1: starts at now
    env.run(until=5.0)
    assert server.charge(1.0) == (6.0, 7.0)   # still busy: queues


def test_capacity_two_picks_earliest_free_unit():
    env = Environment()
    server = FifoTimeline(env, capacity=2)
    assert server.charge(4.0) == (0.0, 4.0)   # unit 0
    assert server.charge(1.0) == (0.0, 1.0)   # unit 1, in parallel
    assert server.charge(2.0) == (1.0, 3.0)   # unit 1 frees first
    assert server.charge(2.0) == (3.0, 5.0)   # unit 1 again (3 < 4)
    assert server.charge(1.0) == (4.0, 5.0)   # unit 0
    assert server.busy_until == 5.0


def test_charge_count():
    env = Environment()
    server = FifoTimeline(env, capacity=3)
    assert server.charge_count == 0
    for hold in (0.5, 1.0, 0.0, 2.0):
        server.charge(hold)
    assert server.charge_count == 4


def test_busy_elapsed_and_utilization_mid_hold_and_after_drain():
    env = Environment()
    server = FifoTimeline(env, capacity=2)
    server.charge(4.0)                        # unit 0: [0, 4]
    server.charge(2.0)                        # unit 1: [0, 2]
    env.run(until=1.0)
    # mid-hold: both units busy over [0, 1]
    assert server.busy_elapsed() == pytest.approx(2.0)
    assert server.utilization() == pytest.approx(2.0 / (1.0 * 2))
    env.run(until=3.0)
    # unit 1 drained at 2, unit 0 still busy: 3 + 2 holder-seconds
    assert server.busy_elapsed() == pytest.approx(5.0)
    assert server.utilization() == pytest.approx(5.0 / (3.0 * 2))
    env.run(until=8.0)
    # drained: busy time is the sum of the holds
    assert server.busy_elapsed() == pytest.approx(6.0)
    assert server.utilization() == pytest.approx(6.0 / (8.0 * 2))
    assert server.utilization(elapsed=4.0) == pytest.approx(6.0 / 8.0)


def test_utilization_at_time_zero_is_zero():
    env = Environment()
    server = FifoTimeline(env)
    server.charge(1.0)
    assert server.utilization() == 0.0


def test_capacity_below_one_rejected():
    for capacity in (0, -1):
        with pytest.raises(ResourceError):
            FifoTimeline(Environment(), capacity=capacity)
