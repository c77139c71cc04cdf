"""Sets created on first touch: the invariant behind it and its equivalence.

Caches and TLBs create a set's replacement state the first time an
access touches it, and WBINVD drops every created set.  That is exact
only if, for every policy, a fresh set equals a set after
``invalidate_all`` and creating a set draws nothing from the RNG.  These
tests pin that invariant for every policy of Table I and check the lazy
hierarchy against an eagerly built reference.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheGeometry
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import (
    AdaptivePolicy,
    PermutationPolicy,
    lru_spec,
    make_policy,
)
from repro.memory.slices import intel_slice_hash
from repro.memory.tlb import Tlb, TlbGeometry
from repro.uarch.core import SimulatedCore
from repro.uarch.specs import TABLE1_CPUS, get_spec

_LEVELS = ("l1", "l2", "l3")


def _observable(state):
    """Contents plus every piece of metadata a set exposes."""
    inner = getattr(state, "_inner", state)  # a dueling set's own policy
    snapshot = {"contents": state.contents()}
    for name in ("ages", "status_bits", "tree_bits"):
        expose = getattr(inner, name, None)
        if expose is not None:
            snapshot[name] = expose()
    return snapshot


def _table1_positions():
    """(uarch, level, slice, set) covering every Table I policy.

    Set-dueling levels contribute the first set of every dedicated-A and
    dedicated-B range (in the range's first slice) and one follower set.
    """
    cases = []
    for uarch in TABLE1_CPUS:
        spec = get_spec(uarch)
        for level in _LEVELS:
            level_spec = getattr(spec, level)
            if level_spec.dueling is None:
                cases.append((uarch, level, 0, 5))
                continue
            config = level_spec.dueling
            for ranges in (config.dedicated_a, config.dedicated_b):
                for dedicated in ranges:
                    slice_id = (dedicated.slices or (0,))[0]
                    cases.append((uarch, level, slice_id, dedicated.first_set))
            cases.append((uarch, level, 0, 100))
    return cases


def _policy(level_spec, rng):
    """The level's Table I policy, built as ``SimulatedCore`` builds it."""
    if level_spec.dueling is not None:
        return AdaptivePolicy(level_spec.associativity, level_spec.dueling,
                              rng=rng)
    return make_policy(level_spec.policy, level_spec.associativity, rng=rng)


def _assert_reset_equals_fresh(policy, slice_id, set_index, ops, follow):
    rng_before = policy.rng.getstate()
    driven = policy.create_set_at(slice_id, set_index)
    assert policy.rng.getstate() == rng_before, "creating a set drew RNG"
    fresh_view = _observable(driven)
    for flush, tag in ops:
        if flush:
            driven.invalidate(tag)
        else:
            driven.access(tag)
    driven.invalidate_all()
    fresh = policy.create_set_at(slice_id, set_index)
    assert _observable(driven) == _observable(fresh) == fresh_view

    # The two sets also behave alike from identical RNG and PSEL state.
    psel = getattr(policy, "psel", None)
    rng_state = policy.rng.getstate()
    psel_value = psel.value if psel is not None else None
    traces = []
    for state in (driven, fresh):
        policy.rng.setstate(rng_state)
        if psel is not None:
            psel.value = psel_value
        traces.append([state.access(tag) for tag in follow])
    assert traces[0] == traces[1]


_ops = st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=60)
_follow = st.lists(st.integers(0, 40), max_size=40)


class TestFreshEqualsInvalidated:
    @pytest.mark.parametrize("uarch,level,slice_id,set_index",
                             _table1_positions())
    @given(ops=_ops, follow=_follow, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_table1_policies(self, uarch, level, slice_id, set_index,
                             ops, follow, seed):
        policy = _policy(getattr(get_spec(uarch), level), random.Random(seed))
        _assert_reset_equals_fresh(policy, slice_id, set_index, ops, follow)

    @pytest.mark.parametrize("name", ["LRU", "FIFO", "MRU", "MRU_SB",
                                      "PLRU", "RANDOM",
                                      "QLRU_H00_MR162_R0_U0_UMO",
                                      "PERMUTATION"])
    @given(ops=_ops, follow=_follow, seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_other_policies(self, name, ops, follow, seed):
        if name == "PERMUTATION":
            policy = PermutationPolicy(lru_spec(8))
            policy.rng.seed(seed)
        else:
            policy = make_policy(name, 8, rng=random.Random(seed))
        _assert_reset_equals_fresh(policy, 0, 0, ops, follow)


class _EagerCache(Cache):
    """Reference: every set created up front, WBINVD resets each one."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        geo = self.geometry
        self._sets = [
            [self.policy.create_set_at(slice_id, index)
             for index in range(geo.n_sets)]
            for slice_id in range(geo.n_slices)
        ]

    def probe(self, physical_address):
        slice_id, set_index, tag = self.locate(physical_address)
        return self._sets[slice_id][set_index].lookup(tag) is not None

    def invalidate_line(self, physical_address):
        slice_id, set_index, tag = self.locate(physical_address)
        return self._sets[slice_id][set_index].invalidate(tag)

    def invalidate_all(self):
        for slice_sets in self._sets:
            for cache_set in slice_sets:
                cache_set.invalidate_all()


def _hierarchy(uarch, seed, cache_cls):
    spec = get_spec(uarch)
    rng = random.Random(seed)
    caches = []
    for level in _LEVELS:
        level_spec = getattr(spec, level)
        policy = _policy(level_spec, rng)
        geometry = CacheGeometry(level_spec.size_bytes,
                                 level_spec.associativity,
                                 n_slices=level_spec.n_slices)
        slice_hash = (intel_slice_hash(level_spec.n_slices)
                      if level_spec.n_slices > 1 else None)
        caches.append(cache_cls(level, geometry, policy, slice_hash))
    return MemoryHierarchy(*caches)


def _run_mix(hierarchy, seed):
    """A seeded mix of demand accesses, probes, CLFLUSH and WBINVD.

    Addresses share L3 set indices (a follower set and the dueling
    ranges' first sets), so every level sees conflicts and evictions.
    """
    rng = random.Random(seed)
    stride = hierarchy.l3.geometry.n_sets * 64
    pool = [set_index * 64 + k * stride
            for set_index in (100, 512, 768) for k in range(48)]
    trace = []
    for _ in range(600):
        roll = rng.random()
        address = rng.choice(pool)
        if roll < 0.02:
            hierarchy.wbinvd()
            trace.append("wbinvd")
        elif roll < 0.10:
            hierarchy.clflush(address)
            trace.append(("clflush", address))
        elif roll < 0.20:
            trace.append(("probe", hierarchy.probe_level(address)))
        else:
            trace.append(hierarchy.access(address))
    stats = [
        [(s.hits, s.misses, s.evictions, s.lookups) for s in cache.slice_stats]
        for cache in hierarchy.levels
    ]
    return trace, stats, hierarchy.demand.snapshot()


class TestLazyHierarchyMatchesEager:
    @pytest.mark.parametrize("uarch", ["Skylake", "IvyBridge", "Haswell",
                                       "Nehalem"])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_same_trace_and_evictions(self, uarch, seed):
        lazy = _run_mix(_hierarchy(uarch, seed, Cache), seed)
        eager = _run_mix(_hierarchy(uarch, seed, _EagerCache), seed)
        assert lazy == eager
        assert sum(evictions for level in lazy[1]
                   for _, _, evictions, _ in level) > 0


class TestSetsCreatedOnFirstTouch:
    @pytest.mark.parametrize("uarch", TABLE1_CPUS)
    def test_fresh_core_creates_no_sets(self, uarch):
        core = SimulatedCore(uarch)
        assert [cache.live_sets for cache in core.hierarchy.levels] == [0, 0, 0]
        assert (core.tlb.dtlb.live_sets, core.tlb.stlb.live_sets) == (0, 0)

    def test_reads_create_no_sets(self):
        hierarchy = SimulatedCore("Haswell").hierarchy
        for address in range(0, 1 << 22, 4096 + 64):
            assert hierarchy.probe_level(address) == 0
            assert all(cache.invalidate_line(address) is False
                       for cache in hierarchy.levels)
            hierarchy.clflush(address)
        assert [cache.live_sets for cache in hierarchy.levels] == [0, 0, 0]

    def test_access_creates_one_set_per_level_and_wbinvd_drops_them(self):
        hierarchy = SimulatedCore("Skylake").hierarchy
        hierarchy.prefetcher_enabled = False
        hierarchy.access(0x12340)
        assert [cache.live_sets for cache in hierarchy.levels] == [1, 1, 1]
        assert hierarchy.probe_level(0x12340) == 1
        hierarchy.wbinvd()
        assert [cache.live_sets for cache in hierarchy.levels] == [0, 0, 0]
        assert hierarchy.probe_level(0x12340) == 0

    def test_tlb_probe_and_flush(self):
        tlb = Tlb(TlbGeometry(64, 4))
        assert not tlb.probe(0x5000)
        assert tlb.live_sets == 0
        assert not tlb.access(0x5000)
        assert tlb.probe(0x5000)
        assert tlb.live_sets == 1
        tlb.flush()
        assert tlb.live_sets == 0
        assert not tlb.probe(0x5000)
