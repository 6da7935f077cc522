"""Integration tests: parallel/serial parity and the on-disk result cache.

Parity is the load-bearing guarantee of the sweep runner: every
experiment must produce *bit-identical* output whether its points run
in-process or fan out over worker processes, and that output must match
its committed golden digest (``tests/golden.json``).  The expensive
experiment ids are skipped unless ``REPRO_PARITY_FULL=1`` so the default
suite stays fast; CI's ``golden`` job opts into the exhaustive sweep.
"""

import os

import pytest

from repro.analysis.experiments import experiment_ids, run_experiment
from repro.cache import ResultCache, cache_context
from repro.config import TuningConfig
from repro.core.casestudy import CaseStudy
from tests.golden_cases import HEAVY, golden
from tests.support import assert_bit_identical, golden_digest

_FULL = os.environ.get("REPRO_PARITY_FULL", "").strip() == "1"

PAYLOADS = [1024, 8192]  # two cheap points for sweep-level cache tests


@pytest.mark.parametrize("name", experiment_ids())
def test_experiment_parity_serial_vs_parallel(name):
    """jobs=1 and jobs=4 must agree bit-for-bit, data and text, and
    match the golden digest."""
    if name in HEAVY and not _FULL:
        pytest.skip("heavy experiment; set REPRO_PARITY_FULL=1 to run")
    with cache_context(False):
        serial = run_experiment(name, quick=True, jobs=1)
        parallel = run_experiment(name, quick=True, jobs=4)
    assert serial.text == parallel.text
    assert_bit_identical(serial.data, parallel.data, path=name)
    assert golden_digest(serial.text, serial.data) == \
        golden("experiments", name)


def test_cache_hit_equals_cold_run(tmp_path):
    cache = ResultCache(tmp_path / "c")
    with cache_context(cache):
        cold = run_experiment("mtu_scan", quick=True)
        assert cache.stores > 0 and cache.hits == 0
        warm = run_experiment("mtu_scan", quick=True)
    assert cache.hits > 0
    assert warm.text == cold.text
    assert_bit_identical(warm.data, cold.data, path="mtu_scan")


def test_cached_sweep_matches_uncached(tmp_path):
    study = CaseStudy(points=2)
    config = TuningConfig.fully_tuned(9000)
    with cache_context(False):
        plain = study.sweep(config, payloads=PAYLOADS)
    cache = ResultCache(tmp_path / "c")
    with cache_context(cache):
        cold = study.sweep(config, payloads=PAYLOADS)
        warm = study.sweep(config, payloads=PAYLOADS)
    assert cache.stores == len(PAYLOADS)
    assert cache.hits == len(PAYLOADS)
    assert_bit_identical(cold.points, plain.points, path="cold")
    assert_bit_identical(warm.points, plain.points, path="warm")


def test_cache_invalidated_by_config_change(tmp_path):
    """Changing any tuning field must miss; repeating the old one hits."""
    study = CaseStudy(points=2)
    cache = ResultCache(tmp_path / "c")
    with cache_context(cache):
        study.sweep(TuningConfig.fully_tuned(9000), payloads=PAYLOADS)
        assert (cache.hits, cache.stores) == (0, 2)
        study.sweep(TuningConfig.fully_tuned(9000).replace(mmrbc=512),
                    payloads=PAYLOADS)
        assert (cache.hits, cache.stores) == (0, 4)  # all fresh misses
        study.sweep(TuningConfig.fully_tuned(9000), payloads=PAYLOADS)
        assert (cache.hits, cache.stores) == (2, 4)  # original still hits


def test_cache_invalidated_by_topology_change(tmp_path):
    from repro.hw.presets import INTEL_E7505

    config = TuningConfig.fully_tuned(9000)
    cache = ResultCache(tmp_path / "c")
    with cache_context(cache):
        CaseStudy(points=2).sweep(config, payloads=PAYLOADS)
        CaseStudy(points=2, spec=INTEL_E7505).sweep(config,
                                                    payloads=PAYLOADS)
    assert cache.hits == 0
    assert cache.stores == 2 * len(PAYLOADS)


def test_cache_invalidated_by_code_fingerprint(tmp_path, monkeypatch):
    config = TuningConfig.fully_tuned(9000)
    cache = ResultCache(tmp_path / "c")
    study = CaseStudy(points=2)
    with cache_context(cache):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-a")
        study.sweep(config, payloads=PAYLOADS)
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-b")
        study.sweep(config, payloads=PAYLOADS)
        assert cache.hits == 0  # source changed: everything recomputed
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-a")
        study.sweep(config, payloads=PAYLOADS)
        assert cache.hits == len(PAYLOADS)


def test_corrupt_cache_entry_recomputed_to_identical_result(tmp_path):
    config = TuningConfig.fully_tuned(9000)
    cache = ResultCache(tmp_path / "c")
    study = CaseStudy(points=2)
    with cache_context(cache):
        cold = study.sweep(config, payloads=PAYLOADS)
        for entry in cache.path.rglob("*.pkl"):
            entry.write_bytes(b"RPROCACHE1\ngarbage")
        recomputed = study.sweep(config, payloads=PAYLOADS)
    assert cache.errors == len(PAYLOADS)
    assert cache.hits == 0
    assert_bit_identical(recomputed.points, cold.points, path="recomputed")
