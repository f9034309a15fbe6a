"""One bounded LRU map for every kept derived form: an endpoint's parsed
queries and epoch response lines, a binding's decoded tables and tokens and
its request lines (`mmw.runtime.protocol`), the file readers' images of
settled texts (`mmw.formats`) and a mediator's slots (`mmw.mediator`). Each
entry is put with a size in its use's unit: a text's characters, a line's
bytes, a table's cells."""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict


class Kept:
    """At most `entries` entries whose sizes sum to at most `budget`, none
    larger than `largest`, least recently used first out. A lookup takes no
    lock and every change holds it. A value is shared by every reader, so it
    must never change; None is never kept.

    `hits`, `misses` and `evictions` count, since the store was made, the
    `get`s that found a value, those that found none and the entries put
    out for the bounds. They are plain ints. A hit and an eviction are
    counted under the lock their change already holds, so neither count is
    lost; a miss changes nothing and takes no lock, so two misses counted
    at once may count as one."""

    def __init__(
        self, entries: int = sys.maxsize, budget: int = sys.maxsize, largest: int = sys.maxsize
    ):
        self._most = entries
        self._budget = budget
        self._largest = largest
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # key -> (value, size)
        self.size = 0  # the sum of the kept entries' sizes
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def get(self, key):
        """The value kept under key, now the most recent; None when there is none."""
        kept = self._entries.get(key)
        if kept is None:
            self.misses += 1
            return None
        with self._lock:
            self.hits += 1
            if key in self._entries:  # not evicted since the read
                self._entries.move_to_end(key)
        return kept[0]

    def put(self, key, value, size: int = 0) -> None:
        """Keep value under key as the most recent, replacing what key held,
        and evict the least recent beyond the bounds. A value larger than
        `largest` is not kept, and key then holds nothing."""
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self.size -= replaced[1]
            if size > self._largest:
                return
            self._entries[key] = (value, size)
            self.size += size
            while len(self._entries) > self._most or self.size > self._budget:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.size -= evicted
                self.evictions += 1

    def keys(self) -> list:
        """The kept keys, least recent first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.size = 0
