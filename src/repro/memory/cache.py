"""Set-associative cache with pluggable replacement and optional slicing.

One :class:`Cache` models one level of the hierarchy.  L3 caches are
built with ``n_slices > 1`` and a :class:`~repro.memory.slices.SliceHash`;
each slice has its own set array and its own C-Box statistics, matching
the uncore performance-counter granularity of Section VI-A.

A set's replacement state is created the first time an access touches
it, and WBINVD drops every created set, so building a cache and flushing
it cost O(touched sets) rather than O(all sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .replacement import LazySets, ReplacementPolicy, SetState
from .slices import SliceHash


@dataclass
class CacheStats:
    """Per-slice access statistics (the C-Box counter substrate)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    lookups: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.lookups = 0


@dataclass(frozen=True)
class CacheGeometry:
    """Size parameters of one cache level."""

    size_bytes: int
    associativity: int
    line_size: int = 64
    n_slices: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_size * self.n_slices):
            raise ValueError("cache size must divide evenly into sets")

    @property
    def n_sets(self) -> int:
        """Sets per slice."""
        return self.size_bytes // (
            self.associativity * self.line_size * self.n_slices
        )

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def index_bits(self) -> int:
        return self.n_sets.bit_length() - 1


class Cache:
    """One cache level (optionally sliced)."""

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        slice_hash: Optional[SliceHash] = None,
    ) -> None:
        if geometry.n_sets & (geometry.n_sets - 1):
            raise ValueError("set count must be a power of two")
        if slice_hash is None and geometry.n_slices != 1:
            raise ValueError("sliced cache needs a slice hash")
        if slice_hash is not None and slice_hash.n_slices != geometry.n_slices:
            raise ValueError("slice hash does not match slice count")
        self.name = name
        self.geometry = geometry
        self.policy = policy
        self.slice_hash = slice_hash
        self._sets: List[LazySets] = [
            LazySets(policy, slice_id) for slice_id in range(geometry.n_slices)
        ]
        self.slice_stats: List[CacheStats] = [
            CacheStats() for _ in range(geometry.n_slices)
        ]

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def locate(self, physical_address: int) -> Tuple[int, int, int]:
        """Return ``(slice_id, set_index, tag)`` for an address."""
        geo = self.geometry
        block = physical_address >> geo.offset_bits
        set_index = block & (geo.n_sets - 1)
        tag = block >> geo.index_bits
        if self.slice_hash is not None:
            slice_id = self.slice_hash.slice_of(physical_address)
        else:
            slice_id = 0
        return slice_id, set_index, tag

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def access(self, physical_address: int) -> bool:
        """Demand access; updates replacement state.  Returns hit."""
        slice_id, set_index, tag = self.locate(physical_address)
        stats = self.slice_stats[slice_id]
        stats.lookups += 1
        hit, evicted = self._sets[slice_id][set_index].access(tag)
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
            if evicted is not None:
                stats.evictions += 1
        return hit

    def probe(self, physical_address: int) -> bool:
        """Check presence without touching replacement state or stats."""
        slice_id, set_index, tag = self.locate(physical_address)
        cache_set = self._sets[slice_id].get(set_index)
        return cache_set is not None and cache_set.lookup(tag) is not None

    def invalidate_line(self, physical_address: int) -> bool:
        """CLFLUSH one line; returns whether it was present."""
        slice_id, set_index, tag = self.locate(physical_address)
        cache_set = self._sets[slice_id].get(set_index)
        return cache_set is not None and cache_set.invalidate(tag)

    def invalidate_all(self) -> None:
        """WBINVD: empty every set by dropping all created sets."""
        for slice_sets in self._sets:
            slice_sets.clear()

    # ------------------------------------------------------------------
    # Introspection (tests / tools)
    # ------------------------------------------------------------------
    def set_state(self, slice_id: int, set_index: int) -> SetState:
        """The set's state, created on first touch."""
        return self._sets[slice_id][set_index]

    @property
    def live_sets(self) -> int:
        """Sets created since construction or the last WBINVD."""
        return sum(len(slice_sets) for slice_sets in self._sets)

    @property
    def total_stats(self) -> CacheStats:
        total = CacheStats()
        for stats in self.slice_stats:
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
            total.lookups += stats.lookups
        return total

    def reset_stats(self) -> None:
        for stats in self.slice_stats:
            stats.reset()

    def __repr__(self) -> str:
        geo = self.geometry
        return "Cache(%s, %dkB, %d-way, %d sets x %d slices, %s)" % (
            self.name, geo.size_bytes // 1024, geo.associativity,
            geo.n_sets, geo.n_slices, self.policy.name,
        )
