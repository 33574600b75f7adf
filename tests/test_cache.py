"""Tests for the cache tag stores and MSHRs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cmp.cache import (
    EXCLUSIVE,
    MODIFIED,
    SHARED,
    CacheConfig,
    MSHRFile,
    SetAssociativeCache,
)


class TestCacheConfig:
    def test_table2_l1_geometry(self):
        config = CacheConfig()
        assert config.num_sets == 64  # 32 KB / (4 * 128 B)

    def test_set_index_wraps(self):
        config = CacheConfig()
        assert config.set_index(0) == 0
        assert config.set_index(128 * 64) == 0
        assert config.set_index(128 * 65) == 1

    def test_interleave_shift_skips_bank_bits(self):
        config = CacheConfig(interleave_shift=6)
        # Blocks 64 apart (same bank in a 64-way interleave) land in
        # different sets.
        assert config.set_index(0) != config.set_index(64 * 128) or config.num_sets == 1
        assert config.set_index(64 * 128) == 1

    def test_block_address(self):
        config = CacheConfig()
        assert config.block_address(0x1234) == 0x1200

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000)
        with pytest.raises(ValueError):
            CacheConfig(latency=-1)
        with pytest.raises(ValueError):
            CacheConfig(interleave_shift=-1)


class TestSetAssociativeCache:
    def _cache(self, assoc=2, sets=2):
        config = CacheConfig(
            size_bytes=assoc * sets * 128, associativity=assoc, block_bytes=128
        )
        return SetAssociativeCache(config)

    def test_insert_and_lookup(self):
        cache = self._cache()
        assert cache.lookup(0x100) is None
        cache.insert(0x100, SHARED)
        line = cache.lookup(0x100)
        assert line is not None and line.state == SHARED

    def test_lru_eviction(self):
        cache = self._cache(assoc=2, sets=1)
        cache.insert(0x000, SHARED)
        cache.insert(0x080, SHARED)
        cache.lookup(0x000)  # touch: 0x080 becomes LRU
        victim = cache.insert(0x100, SHARED)
        assert victim.block == 0x080

    def test_victim_for_predicts_eviction(self):
        cache = self._cache(assoc=2, sets=1)
        cache.insert(0x000, SHARED)
        assert cache.victim_for(0x080) is None  # still a free way
        cache.insert(0x080, SHARED)
        assert cache.victim_for(0x100).block == 0x000
        assert cache.victim_for(0x000) is None  # already resident

    def test_reinsert_updates_state(self):
        cache = self._cache()
        cache.insert(0x100, SHARED)
        assert cache.insert(0x100, MODIFIED) is None
        assert cache.lookup(0x100).state == MODIFIED

    def test_invalidate(self):
        cache = self._cache()
        cache.insert(0x100, EXCLUSIVE)
        removed = cache.invalidate(0x100)
        assert removed.state == EXCLUSIVE
        assert cache.lookup(0x100) is None
        assert cache.invalidate(0x100) is None

    def test_hit_miss_counters(self):
        cache = self._cache()
        cache.access(0x100)
        cache.insert(0x100, SHARED)
        cache.access(0x100)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_probe_preserves_lru(self):
        cache = self._cache(assoc=2, sets=1)
        cache.insert(0x000, SHARED)
        cache.insert(0x080, SHARED)
        cache.probe(0x000)  # does NOT touch
        victim = cache.insert(0x100, SHARED)
        assert victim.block == 0x000

    def test_occupancy_and_lines(self):
        cache = self._cache()
        cache.insert(0x000, SHARED)
        cache.insert(0x080, MODIFIED)
        assert cache.occupancy == 2
        assert {l.block for l in cache.lines()} == {0x000, 0x080}

    @given(addresses=st.lists(st.integers(min_value=0, max_value=2**20), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = self._cache(assoc=2, sets=4)
        for address in addresses:
            cache.insert(address, SHARED)
        assert cache.occupancy <= 8
        # Each set respects its associativity.
        for cache_set in cache._sets.values():
            assert len(cache_set) <= 2

    @given(
        address=st.integers(min_value=0, max_value=2**40),
        shift=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_lines_land_where_the_config_says(self, address, shift):
        """The tag store reads its geometry once at construction; it must
        stay the geometry ``CacheConfig`` defines."""
        config = CacheConfig(
            size_bytes=8 * 2 * 128, associativity=2, block_bytes=128,
            interleave_shift=shift,
        )
        cache = SetAssociativeCache(config)
        cache.insert(address, SHARED)
        ((index, cache_set),) = cache._sets.items()
        assert index == config.set_index(address)
        assert list(cache_set) == [config.block_address(address)]
        assert cache.probe(address).block == config.block_address(address)


class TestMSHRFile:
    def test_allocate_and_release(self):
        mshrs = MSHRFile(capacity=2)
        entry = mshrs.allocate(0x100, is_write=False, cycle=5)
        assert entry.issued_at == 5
        assert mshrs.outstanding == 1
        assert mshrs.lookup(0x100) is entry
        released = mshrs.release(0x100)
        assert released is entry
        assert mshrs.outstanding == 0

    def test_capacity_enforced(self):
        mshrs = MSHRFile(capacity=1)
        mshrs.allocate(0x100, False, 0)
        assert mshrs.full
        with pytest.raises(RuntimeError):
            mshrs.allocate(0x200, False, 0)

    def test_duplicate_block_rejected(self):
        mshrs = MSHRFile(capacity=4)
        mshrs.allocate(0x100, False, 0)
        with pytest.raises(ValueError):
            mshrs.allocate(0x100, True, 1)

    def test_release_unknown(self):
        with pytest.raises(KeyError):
            MSHRFile().release(0x100)

    def test_waiter_merging(self):
        mshrs = MSHRFile()
        entry = mshrs.allocate(0x100, False, 0)
        entry.waiters.append("a")
        entry.waiters.append("b")
        assert mshrs.lookup(0x100).waiters == ["a", "b"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(capacity=0)
