"""Cache correctness: content addressing, option sensitivity, atomic writes.

The two properties the batch subsystem lives or dies by:

* the key is a pure function of (canonical spec text, canonical
  options, algorithm version) — cosmetic whitespace cannot change it,
  while *any* option flip or version bump must;
* what comes out of the cache is byte-identical to a fresh derivation.
"""

import json
import os

import pytest

from repro.batch.cache import (
    EntityCache,
    cache_key,
    canonicalize_spec_text,
)
from repro.core.generator import OPTION_DEFAULTS
from repro.obs.metrics import MetricsRegistry, use_registry

SERVICE = "SPEC a1; exit >> b2; exit ENDSPEC"


class TestCanonicalization:
    def test_line_endings_and_trailing_whitespace_normalize(self):
        messy = "SPEC a1; exit >> b2; exit ENDSPEC   \r\n\r\n"
        assert canonicalize_spec_text(messy) == (
            "SPEC a1; exit >> b2; exit ENDSPEC\n"
        )

    def test_indentation_is_preserved(self):
        text = "SPEC\n  a1; exit\nENDSPEC"
        assert canonicalize_spec_text(text) == "SPEC\n  a1; exit\nENDSPEC\n"

    def test_cosmetic_edits_share_a_key(self):
        assert cache_key(SERVICE) == cache_key(SERVICE + "  \n\n")
        assert cache_key(SERVICE) == cache_key(
            SERVICE.replace("\n", "\r\n") + "\r\n"
        )

    def test_semantic_edits_change_the_key(self):
        assert cache_key(SERVICE) != cache_key(
            SERVICE.replace("a1", "a2")
        )


class TestKeyOptionSensitivity:
    def test_every_option_flip_changes_the_key(self):
        # The full option surface, not a hand-picked subset: a new
        # ProtocolGenerator flag that misses OPTION_DEFAULTS will fail
        # normalize_options, and one that joins it is covered here
        # automatically.
        base = cache_key(SERVICE, {})
        for name, default in OPTION_DEFAULTS.items():
            flipped = cache_key(SERVICE, {name: not default})
            assert flipped != base, f"flipping {name} must change the key"

    def test_defaulted_and_spelled_out_options_share_a_key(self):
        assert cache_key(SERVICE) == cache_key(SERVICE, dict(OPTION_DEFAULTS))
        assert cache_key(SERVICE, {"mixed_choice": False}) == cache_key(SERVICE)

    def test_unknown_options_are_rejected(self):
        with pytest.raises(ValueError, match="unknown derivation option"):
            cache_key(SERVICE, {"turbo": True})

    def test_algorithm_version_participates(self, monkeypatch):
        import repro.batch.cache as cache_module

        before = cache_key(SERVICE)
        monkeypatch.setattr(cache_module, "ALGORITHM_VERSION", "999-test")
        assert cache_key(SERVICE) != before


class TestEntityCacheStore:
    def test_round_trip(self, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)
        assert cache.get(key) is None
        cache.put(key, "seq", {}, {"1": "text one", "2": "text two"})
        entry = cache.get(key)
        assert entry["entities"] == {"1": "text one", "2": "text two"}
        assert entry["places"] == [1, 2]
        assert entry["name"] == "seq"

    def test_hit_and_miss_counters(self, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)
        registry = MetricsRegistry()
        with use_registry(registry):
            cache.get(key)
            cache.put(key, "seq", {}, {"1": "t"})
            cache.get(key)
            cache.get(key)
        assert registry.counter("batch.cache.misses").value() == 1
        assert registry.counter("batch.cache.hits").value() == 2

    def test_corrupt_entry_reads_as_miss_and_heals(self, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)
        path = cache.put(key, "seq", {}, {"1": "t"})
        path.write_text("{ truncated", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    def test_entry_under_wrong_address_reads_as_miss(self, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)
        other = cache.key(SERVICE.replace("a1", "z9"))
        path = cache.put(key, "seq", {}, {"1": "t"})
        target = cache._path(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())  # body still says `key`
        assert cache.get(other) is None

    def test_two_writers_of_one_key_both_land(self, tmp_path, monkeypatch):
        # A second writer of the same key runs between the first
        # writer's write and its rename: each has its own temp file, so
        # both renames succeed and the entry reads back whole.
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)
        real_replace = os.replace
        interleaved = []

        def replace(src, dst):
            if not interleaved:
                interleaved.append(src)
                cache.put(key, "second", {}, {"1": "t"})
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        path = cache.put(key, "first", {}, {"1": "t"})
        monkeypatch.setattr(os, "replace", real_replace)
        assert interleaved
        entry = cache.get(key)
        assert entry is not None and entry["name"] == "first"
        assert entry["entities"] == {"1": "t"}
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_a_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)

        def replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            cache.put(key, "seq", {}, {"1": "t"})
        assert list(cache._path(key).parent.iterdir()) == []

    def test_entry_file_is_valid_json_document(self, tmp_path):
        cache = EntityCache(tmp_path / "cache")
        key = cache.key(SERVICE)
        path = cache.put(key, "seq", {"mixed_choice": True}, {"1": "t"})
        entry = json.loads(path.read_text())
        assert entry["schema"] == "repro.batch.entry/v2"
        assert "stats" not in entry
        assert entry["options"]["mixed_choice"] is True
        assert entry["options"]["strict"] is True  # defaults spelled out
