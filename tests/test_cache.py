"""Unit tests for the on-disk result cache."""

import pytest

from repro.cache import (
    ResultCache,
    active_cache,
    cache_context,
    code_fingerprint,
    default_cache_dir,
    stable_key,
)
from repro.config import TuningConfig
from repro.hw.presets import INTEL_E7505, PE2650


class TestStableKey:
    def test_deterministic(self):
        cfg = TuningConfig.stock(9000)
        assert stable_key("ns", cfg, 42) == stable_key("ns", cfg, 42)

    def test_any_config_field_changes_key(self):
        base = TuningConfig.fully_tuned(8160)
        seen = {stable_key(base)}
        for change in ({"mtu": 9000}, {"mmrbc": 512},
                       {"smp_kernel": True}, {"tcp_rmem": 65536},
                       {"interrupt_coalescing_us": 0.0},
                       {"tcp_timestamps": False}, {"tso": True},
                       {"txqueuelen": 5000}, {"sack": True}):
            key = stable_key(base.replace(**change))
            assert key not in seen, change
            seen.add(key)

    def test_topology_inputs_change_key(self):
        cfg = TuningConfig.stock()
        assert stable_key(cfg, PE2650) != stable_key(cfg, INTEL_E7505)
        assert stable_key("a", cfg) != stable_key("b", cfg)

    def test_float_bits_matter_but_int_is_not_float(self):
        assert stable_key(1) != stable_key(1.0)
        assert stable_key(0.1) == stable_key(0.1)

    def test_nested_structures(self):
        assert stable_key({"a": [1, (2, 3)]}) == stable_key({"a": [1, [2, 3]]})
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x", 1)
        assert cache.get(key) == (False, None)
        assert cache.put(key, {"v": [1.5, "two"]})
        assert cache.get(key) == (True, {"v": [1.5, "two"]})

    def test_corrupted_entry_recomputed_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, "payload")
        victim = cache._file(key)
        victim.write_bytes(b"not a cache entry at all")
        hit, value = cache.get(key)
        assert (hit, value) == (False, None)
        assert not victim.exists()  # bad entry dropped
        assert cache.errors == 1
        cache.put(key, "payload")  # recompute path works again
        assert cache.get(key) == (True, "payload")

    def test_truncated_entry_detected(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.put(key, list(range(1000)))
        blob = cache._file(key).read_bytes()
        cache._file(key).write_bytes(blob[:len(blob) // 2])
        assert cache.get(key) == (False, None)
        assert cache.errors == 1

    def test_unpicklable_value_is_skipped_silently(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        assert not cache.put(key, lambda: None)
        assert cache.errors == 1
        assert cache.get(key) == (False, None)

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = [cache.key(i) for i in range(3)]
        for k in keys:
            cache.put(k, k)
        assert cache.invalidate(keys[0])
        assert not cache.invalidate(keys[0])
        assert cache.clear() == 2
        assert cache.stats().entries == 0

    def test_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache.key("x")
        cache.get(key)
        cache.put(key, "v")
        cache.get(key)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.size_bytes > 0
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.hit_rate == 0.5


class TestActivation:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert active_cache() is None

    def test_env_enables_default_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache = active_cache()
        assert cache is not None
        assert cache.path == tmp_path / "c"

    def test_context_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        with cache_context(False):
            assert active_cache() is None
        mine = ResultCache(tmp_path / "mine")
        with cache_context(mine):
            assert active_cache() is mine

    def test_none_context_inherits(self, tmp_path):
        mine = ResultCache(tmp_path / "mine")
        with cache_context(mine):
            with cache_context(None):
                assert active_cache() is mine

    def test_bad_argument_rejected(self):
        with pytest.raises(TypeError):
            with cache_context("yes please"):
                pass

    def test_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == ".repro-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestCodeFingerprint:
    def test_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "deadbeef")
        assert code_fingerprint() == "deadbeef"


class TestShardedLayout:
    def test_entries_land_in_key_prefix_shards(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = [cache.key(i) for i in range(8)]
        for k in keys:
            cache.put(k, k)
        for k in keys:
            assert cache._file(k) == tmp_path / "c" / k[:2] / f"{k}.pkl"
            assert cache._file(k).is_file()
        # nothing at the flat v1 location
        assert not list((tmp_path / "c").glob("*.pkl"))

    def test_format_marker_written(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key("x"), 1)
        assert (tmp_path / "c" / "CACHE_FORMAT").read_text().strip() == "2"

    def test_keys_enumeration(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        keys = sorted(cache.key(i) for i in range(5))
        for k in keys:
            cache.put(k, k)
        assert cache.keys() == keys

    def test_second_handle_sees_stored_entries(self, tmp_path):
        a = ResultCache(tmp_path / "c")
        key = a.key("x")
        a.put(key, "value")
        b = ResultCache(tmp_path / "c")
        assert b.get(key) == (True, "value")
        assert b.stats().entries == 1

    def test_entry_files_are_the_only_state(self, tmp_path):
        a = ResultCache(tmp_path / "c")
        b = ResultCache(tmp_path / "c")
        keys = [a.key(i) for i in range(5)]
        for k in keys:
            a.put(k, "v" * (100 * len(keys)))
        # leftovers that are not entries: a crashed writer's temp file
        # and an index file written by an older version of the store
        shard = a._file(keys[0]).parent
        (shard / "tmpabc123.tmp").write_bytes(b"partial")
        (shard / "index.jsonl").write_text('{"k":"stale","n":1,"t":0}\n')
        files = list((tmp_path / "c").glob("*/*.pkl"))
        stats = b.stats()
        assert stats.entries == len(files) == len(keys)
        assert stats.size_bytes == sum(f.stat().st_size for f in files)
        assert b.keys() == sorted(keys)
        # b sees a's later writes and removals with no reload step
        extra = a.key("extra")
        assert b.get(extra) == (False, None)
        a.put(extra, "w")
        assert b.get(extra) == (True, "w")
        assert a.invalidate(keys[0])
        assert b.get(keys[0]) == (False, None)
        assert b.stats().entries == len(keys)
        assert keys[0] not in b.keys()
