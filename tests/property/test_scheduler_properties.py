"""Determinism contracts for the event queue and the segment-train data
path.

1. Same-time FIFO: events scheduled for the same instant fire in
   insertion order (randomized delays on a coarse grid, so collisions
   are common).
2. Pinned transfers: a fixed grid of back-to-back TCP transfers (MTU x
   write count) reproduces its committed golden digest — byte counts,
   elapsed time, goodput, CPU loads, retransmissions, TCP state and the
   final simulation clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from tests.golden_cases import case_digest, case_names, golden

# Delays quantized to a coarse grid so same-time collisions are common
# (the interesting case for FIFO ordering).
delay_grid = st.integers(min_value=0, max_value=40).map(lambda n: n * 2.5e-6)
delay_lists = st.lists(delay_grid, min_size=1, max_size=80)


class TestSameTimeFifo:
    @given(ds=delay_lists)
    @settings(max_examples=50, deadline=None)
    def test_equal_times_fire_in_insertion_order(self, ds):
        env = Environment()
        fired = []
        for i, d in enumerate(ds):
            env.schedule_call(d, fired.append, (d, i))
        env.run()
        assert [d for d, _ in fired] == sorted(ds)
        for t in {d for d, _ in fired}:
            indices = [i for d, i in fired if d == t]
            assert indices == sorted(indices)


@pytest.mark.parametrize("name", case_names("nttcp/"))
def test_transfer_matches_golden(name):
    expected = golden("cases", name)
    assert case_digest(name) == expected
