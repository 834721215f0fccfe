"""Set-associative LRU filesystem cache (§6.2.5).

Each filer keeps a 2 GB filesystem cache shared by its eight disks,
modelled as a 4-way set-associative LRU over fixed-size lines.  The paper
uses 4 KB lines; the cache is parametric, and the storage experiments run
it at data-block granularity for speed (the hit/miss behaviour at whole-
block accesses is identical because blocks are loaded and evicted as
aligned groups of lines).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

#: The one tag every filler line carries (see
#: :meth:`SetAssociativeCache.insert_fillers`); it equals no real key.
FILLER = object()


class SetAssociativeCache:
    """A W-way set-associative LRU cache over (stream, line) keys.

    Parameters
    ----------
    capacity_bytes:
        Total cache capacity.
    line_bytes:
        Line size.
    ways:
        Associativity (lines per set).
    """

    def __init__(
        self,
        capacity_bytes: int = 2 << 30,
        line_bytes: int = 4 << 10,
        ways: int = 4,
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or ways <= 0:
            raise ValueError("capacity, line size and ways must be positive")
        lines = capacity_bytes // line_bytes
        if lines < ways:
            raise ValueError("capacity must hold at least one full set")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = max(1, lines // ways)
        # Each set is an LRU-ordered list of tags (most recent last).
        self._sets: list[list] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def _index(self, key) -> tuple[int, tuple]:
        tag = key if isinstance(key, tuple) else (key,)
        return hash(tag) % self.n_sets, tag

    # -- line operations -----------------------------------------------------
    def lookup_line(self, key) -> bool:
        """Probe one line; updates LRU order and hit/miss counters."""
        idx, tag = self._index(key)
        s = self._sets[idx]
        if tag in s:
            s.remove(tag)
            s.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert_line(self, key) -> None:
        """Install a line, evicting the set's LRU entry if full."""
        idx, tag = self._index(key)
        s = self._sets[idx]
        if tag in s:
            s.remove(tag)
        elif len(s) >= self.ways:
            s.pop(0)
        s.append(tag)

    def contains_line(self, key) -> bool:
        """Probe without touching LRU order or counters."""
        idx, tag = self._index(key)
        return tag in self._sets[idx]

    def insert_fillers(self, keys: Iterable[tuple]) -> None:
        """Install one line per key, none of which is ever probed again.

        Equals :meth:`insert_line` on each key in turn, provided every key
        is new to the cache: a set that receives ``m`` of them becomes
        ``(s + fillers)[-ways:]``, so ``m >= ways`` flushes it and a smaller
        ``m`` evicts its ``m`` least recent lines.  The keys only choose
        their sets; one shared :data:`FILLER` tag stands in for them all.
        """
        idx = np.fromiter(map(hash, keys), dtype=np.int64)
        idx %= self.n_sets
        ways = self.ways
        counts = np.bincount(idx, minlength=self.n_sets)
        # More than ``ways`` fillers leave the same set as ``ways`` do.
        fills = [[FILLER] * m for m in range(ways + 1)]
        for s, m in zip(self._sets, np.minimum(counts, ways).tolist()):
            s += fills[m]
            del s[:-ways]

    # -- whole-range helpers -----------------------------------------------------
    def lookup_range(self, stream, offset: int, nbytes: int) -> float:
        """Fraction of the byte range present (counts one probe per line)."""
        lines = self._lines_of(offset, nbytes)
        if not lines:
            return 0.0
        hit = sum(self.lookup_line((stream, ln)) for ln in lines)
        return hit / len(lines)

    def insert_range(self, stream, offset: int, nbytes: int) -> None:
        for ln in self._lines_of(offset, nbytes):
            self.insert_line((stream, ln))

    def _lines_of(self, offset: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(0)
        first = offset // self.line_bytes
        last = (offset + nbytes - 1) // self.line_bytes
        return range(first, last + 1)

    # -- stats -----------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def clear(self) -> None:
        for s in self._sets:
            s.clear()
        self.reset_counters()
