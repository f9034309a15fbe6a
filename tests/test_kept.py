"""The one bounded LRU store behind every kept form (`mmw.kept.Kept`),
checked against a plain-list model on seeded random operations, its hit,
miss and eviction counts included."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from mmw.kept import Kept


class ListModel:
    """The store's rules over a list of [key, value, size], least recent first."""

    def __init__(self, entries: int, budget: int, largest: int):
        self.entries, self.budget, self.largest = entries, budget, largest
        self.items: list[list] = []
        self.hits = self.misses = self.evictions = 0

    def _find(self, key):
        return next((item for item in self.items if item[0] == key), None)

    def get(self, key):
        item = self._find(key)
        if item is None:
            self.misses += 1
            return None
        self.hits += 1
        self.items.remove(item)
        self.items.append(item)
        return item[1]

    def put(self, key, value, size: int) -> None:
        item = self._find(key)
        if item is not None:
            self.items.remove(item)
        if size > self.largest:
            return
        self.items.append([key, value, size])
        while len(self.items) > self.entries or sum(item[2] for item in self.items) > self.budget:
            self.items.pop(0)
            self.evictions += 1

    def clear(self) -> None:
        self.items.clear()


@pytest.mark.parametrize("seed", range(40))
def test_random_operations_follow_the_list_model(seed):
    rng = random.Random(seed)
    entries, budget, largest = rng.randint(0, 8), rng.randint(0, 60), rng.randint(0, 30)
    store, model = Kept(entries, budget, largest), ListModel(entries, budget, largest)
    keys = [f"k{i}" for i in range(rng.randint(1, 12))] + [("tuple", 1), 7]
    for step in range(600):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.45:
            assert store.get(key) == model.get(key), step
        elif roll < 0.98:
            value, size = (key, step), rng.randint(0, 35)
            store.put(key, value, size)
            model.put(key, value, size)
            if size <= largest and size <= budget and entries > 0:
                assert store.get(key) == value and model.get(key) == value  # replaced
            else:
                assert key not in store  # never kept, and what it held is gone
        else:
            store.clear()
            model.clear()
        kept = store._entries
        assert store.keys() == [item[0] for item in model.items], step
        assert all((key in store) == (model._find(key) is not None) for key in keys)
        assert len(store) == len(model.items) <= entries
        assert [size for _, size in kept.values()] == [item[2] for item in model.items]
        assert store.size == sum(size for _, size in kept.values()) <= budget
        assert all(size <= largest for _, size in kept.values())
        assert [value for value, _ in kept.values()] == [item[1] for item in model.items]
        counts = (store.hits, store.misses, store.evictions)
        assert counts == (model.hits, model.misses, model.evictions), step


def test_a_put_on_a_kept_key_replaces_its_value_and_size():
    store = Kept(entries=4, budget=10, largest=8)
    store.put("a", 1, 3)
    store.put("b", 2, 3)
    store.put("a", 3, 6)  # now 9 of 10, "a" the most recent
    assert (store.keys(), store.get("a"), store.size) == (["b", "a"], 3, 9)
    store.put("c", 4, 2)  # 11 > 10: "b" goes first
    assert (store.keys(), store.size) == (["a", "c"], 8)
    store.put("a", 5, 9)  # over the largest: dropped, not kept
    assert (store.keys(), store.size) == (["c"], 2)


def test_four_threads_lose_no_hit_and_overcount_no_miss():
    store = Kept(entries=4)
    for key in range(4):
        store.put(key, key)
    gets_per_thread = 5000
    rng = random.Random(3203)
    keys = [[rng.randint(0, 7) for _ in range(gets_per_thread)] for _ in range(4)]

    def reader(thread_keys: list[int]) -> None:
        for key in thread_keys:
            store.get(key)  # keys 4 to 7 miss

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(thread_keys,)) for thread_keys in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # A hit is counted under the lock; a miss takes none, so racing misses
    # may count as one.
    misses = sum(key >= 4 for thread_keys in keys for key in thread_keys)
    assert store.hits == 4 * gets_per_thread - misses
    assert 0 < store.misses <= misses
