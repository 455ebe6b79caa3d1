"""Set-associative cache with pluggable (and buggable) LRU replacement.

Unlike the lightweight tag store in :mod:`repro.coresim.caches`, this cache
exposes the replacement-policy decision points the memory-system bugs target:
age updates on access and victim selection.  It also tracks prefetched lines
so that prefetch usefulness can be reported.
"""

from __future__ import annotations

from ..uarch.config import CacheConfig
from .hooks import MemoryBugModel

#: Shared read-only stand-in for a set that holds no line yet.
_EMPTY: "dict[int, int]" = {}


class ReplacementCache:
    """One cache level with true-LRU replacement and prefetch support."""

    def __init__(self, name: str, config: CacheConfig, bug: MemoryBugModel) -> None:
        self.name = name
        self.config = config
        self.bug = bug
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self.line_shift = config.line_size.bit_length() - 1
        # set index -> {tag: age timestamp} and -> prefetched-but-unused tags.
        # Both are created on a set's first insert: one probe touches a few
        # hundred lines of an LLC with thousands of sets.
        self._sets: dict[int, dict[int, int]] = {}
        self._prefetched: dict[int, set[int]] = {}
        self._tick = 0

        self.accesses = 0
        self.misses = 0
        self.load_misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0

    # -- internals -----------------------------------------------------------

    def _locate(self, address: int) -> tuple[int, int]:
        line = address >> self.line_shift
        return line % self.num_sets, line // self.num_sets

    def _insert(self, set_index: int, tag: int, prefetch: bool) -> None:
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = {}
            self._prefetched[set_index] = set()
        prefetched = self._prefetched[set_index]
        if tag in cache_set:
            cache_set[tag] = self._tick
            return
        if len(cache_set) >= self.associativity:
            if self.bug.evict_most_recently_used(self.name):
                victim = max(cache_set, key=cache_set.get)
            else:
                victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
            prefetched.discard(victim)
            self.evictions += 1
        cache_set[tag] = self._tick
        if prefetch:
            prefetched.add(tag)
        else:
            prefetched.discard(tag)

    # -- public API ------------------------------------------------------------

    def access(self, address: int, is_load: bool = True) -> bool:
        """Demand access; returns True on hit and allocates the line on miss."""
        self._tick += 1
        set_index, tag = self._locate(address)
        cache_set = self._sets.get(set_index, _EMPTY)
        self.accesses += 1
        if tag in cache_set:
            if self.bug.update_replacement_on_access(self.name):
                cache_set[tag] = self._tick
            prefetched = self._prefetched[set_index]
            if tag in prefetched:
                self.useful_prefetches += 1
                prefetched.discard(tag)
            return True
        self.misses += 1
        if is_load:
            self.load_misses += 1
        self._insert(set_index, tag, prefetch=False)
        return False

    def prefetch_fill(self, address: int) -> None:
        """Install a prefetched line (no demand-access statistics)."""
        self._tick += 1
        set_index, tag = self._locate(address)
        if tag in self._sets.get(set_index, _EMPTY):
            return
        self.prefetch_fills += 1
        self._insert(set_index, tag, prefetch=True)

    def contains(self, address: int) -> bool:
        """Tag-store probe with no side effects."""
        set_index, tag = self._locate(address)
        return tag in self._sets.get(set_index, _EMPTY)

    def reset_stats(self) -> None:
        self.accesses = 0
        self.misses = 0
        self.load_misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0

    def stats(self) -> dict[str, float]:
        prefix = f"mem.{self.name}"
        return {
            f"{prefix}.accesses": float(self.accesses),
            f"{prefix}.misses": float(self.misses),
            f"{prefix}.load_misses": float(self.load_misses),
            f"{prefix}.evictions": float(self.evictions),
            f"{prefix}.prefetch_fills": float(self.prefetch_fills),
            f"{prefix}.useful_prefetches": float(self.useful_prefetches),
        }
