"""Determinism contracts for the chaos engine.

Two guarantees, the load-bearing ones from docs/RESILIENCE.md:

1. A seeded ``(plan, seed)`` pair produces the same outcome every run:
   a fixed set of plans reproduces its committed golden digests, and
   randomized seeds give identical outcomes on a second run.
2. The empty plan is a true no-op: a run under it is byte-identical to
   a run with chaos off entirely, down to the engine's event sequence
   counter — which is itself pinned in the golden corpus.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, FaultSpec
from tests.golden_cases import (case_digest, case_names, chaos_transfer,
                                golden)
from tests.support import golden_digest


@pytest.mark.parametrize("name", case_names("chaos/seed"))
def test_plan_outcome_matches_golden(name):
    expected = golden("cases", name)
    assert case_digest(name) == expected


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=4, deadline=None)
def test_seed_changes_draws_but_not_determinism(seed):
    plan = FaultPlan(name="prop", seed=seed, faults=(
        FaultSpec(kind="loss_burst", target="link:xover.fwd",
                  start_s=0.0, duration_s=1e-3, probability=0.5),))
    first = chaos_transfer(plan)
    second = chaos_transfer(plan)
    assert golden_digest(first) == golden_digest(second)


def test_empty_plan_byte_identical_to_chaos_off():
    clean, clean_events = chaos_transfer(None)
    (outcome, rows), events = chaos_transfer(FaultPlan())
    # Identical down to the engine's event sequence counter: the empty
    # plan scheduled nothing and wrapped nothing.
    assert rows == ()
    assert golden_digest(outcome) == golden_digest(clean)
    assert events == clean_events
    assert events == golden("events_scheduled", "chaos/empty_plan")
    assert golden_digest((outcome, rows)) == golden("cases", "chaos/empty_plan")
