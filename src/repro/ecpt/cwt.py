"""Cuckoo Walk Tables (CWTs) and Cuckoo Walk Caches (CWCs).

With one HPT per page size, a TLB miss could require probing every way of
every page size (9 locations with 3 ways x 3 sizes).  ECPT avoids this
with CWTs: software tables recording, per VA region, which page sizes map
pages there.  Small MMU caches over them — the CWCs of Table III
(PMD-CWC: 16 entries, PUD-CWC: 2 entries, 4-cycle round trip) — make the
common case a single parallel probe of the right table(s).

We model the CWTs functionally (region -> page-size set, with per-size
refcounts for correct unmapping) but give each region entry a synthetic
cache-line address so CWC misses cost a real memory reference, as in the
original design.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional

from repro.common.errors import ConfigurationError

#: VPN shift defining each CWT's region granularity.
REGION_SHIFT = {"pmd": 9, "pud": 18}

#: CWT entries clustered per cache line (they are small bitmasks).
_ENTRIES_PER_LINE = 8

_cwt_bases = itertools.count(1)


class CuckooWalkTable:
    """A software CWT at PMD (2MB) or PUD (1GB) region granularity."""

    def __init__(self, granularity: str) -> None:
        if granularity not in REGION_SHIFT:
            raise ConfigurationError(f"unknown CWT granularity {granularity!r}")
        self.granularity = granularity
        self.region_shift = REGION_SHIFT[granularity]
        self._counts: Dict[int, Dict[str, int]] = {}
        self._line_base = next(_cwt_bases) << 34

    def _region(self, vpn: int) -> int:
        return vpn >> self.region_shift

    def add(self, vpn: int, page_size: str, pages: int = 1) -> bool:
        """Record ``pages`` new ``page_size`` mappings in ``vpn``'s region.

        Returns True when the region's page-size *set* changed (so MMU
        caches of this entry must be invalidated).
        """
        key = vpn >> self.region_shift
        region = self._counts.get(key)
        if region is None:
            self._counts[key] = {page_size: pages}
            return True
        count = region.get(page_size)
        if count is None:
            region[page_size] = pages
            return True
        region[page_size] = count + pages
        return False

    def remove(self, vpn: int, page_size: str, pages: int = 1) -> bool:
        """Forget ``pages`` ``page_size`` mappings in ``vpn``'s region.

        Returns True when the region's page-size set changed.
        """
        key = self._region(vpn)
        region = self._counts.get(key)
        if region is None or region.get(page_size, 0) < pages:
            raise ConfigurationError(
                f"CWT underflow for region {key:#x} size {page_size}"
            )
        region[page_size] -= pages
        changed = region[page_size] == 0
        if changed:
            del region[page_size]
        if not region:
            del self._counts[key]
        return changed

    def sizes_for(self, vpn: int) -> FrozenSet[str]:
        """Page sizes with at least one mapping in ``vpn``'s region."""
        region = self._counts.get(self._region(vpn))
        if not region:
            return frozenset()
        return frozenset(region)

    def line_addr(self, vpn: int) -> int:
        """Synthetic cache-line address of the region's CWT entry."""
        return self._line_base + (self._region(vpn) // _ENTRIES_PER_LINE)

    def __len__(self) -> int:
        return len(self._counts)


class CuckooWalkCache:
    """A fully-associative LRU MMU cache over one CWT."""

    def __init__(self, cwt: CuckooWalkTable, entries: int, hit_cycles: int = 4) -> None:
        self.cwt = cwt
        self.capacity = entries
        self.hit_cycles = hit_cycles
        self._tags: List[int] = []
        self._values: Dict[int, FrozenSet[str]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> Optional[FrozenSet[str]]:
        """Return the cached page-size set for the region, or None on miss."""
        tag = vpn >> self.cwt.region_shift
        if tag in self._values:
            if self._tags[0] != tag:
                self._tags.remove(tag)
                self._tags.insert(0, tag)
            self.hits += 1
            return self._values[tag]
        self.misses += 1
        return None

    def fill(self, vpn: int, sizes: FrozenSet[str]) -> None:
        tag = vpn >> self.cwt.region_shift
        if tag in self._values:
            self._values[tag] = sizes
            return
        self._tags.insert(0, tag)
        self._values[tag] = sizes
        if len(self._tags) > self.capacity:
            evicted = self._tags.pop()
            del self._values[evicted]

    def invalidate(self, vpn: int) -> None:
        """Drop the region's entry (the OS updated the CWT)."""
        tag = vpn >> self.cwt.region_shift
        if tag in self._values:
            self._tags.remove(tag)
            del self._values[tag]

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
