"""An insertion-ordered set for protocol state.

Python's built-in ``set`` iterates in hash order, and string hashing is
randomized per process (PYTHONHASHSEED): two runs of the *same seed* can
release locks, chain replay tasks or wait on events in different orders,
breaking the simulator's bit-identical-timeline guarantee. ``OrderedSet``
keeps set semantics (uniqueness, O(1) membership) but iterates in insertion
order, which is fully determined by the simulation itself.

Protocol/migration/txn state that is ever iterated must use this type (or
wrap every iteration in ``sorted()``) — simlint rule SIM003 enforces it.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator


class OrderedSet:
    """A set that iterates in insertion order (dict-backed)."""

    __slots__ = ("_items",)

    def __init__(self, iterable: Iterable[Hashable] = ()) -> None:
        self._items: dict = dict.fromkeys(iterable)

    # -- core set protocol ---------------------------------------------
    def add(self, item: Hashable) -> None:
        self._items[item] = None

    def discard(self, item: Hashable) -> None:
        self._items.pop(item, None)

    def remove(self, item: Hashable) -> None:
        del self._items[item]

    def clear(self) -> None:
        self._items.clear()

    def update(self, iterable: Iterable[Hashable]) -> None:
        for item in iterable:
            self._items[item] = None

    def difference_update(self, iterable: Iterable[Hashable]) -> None:
        for item in iterable:
            self._items.pop(item, None)

    def copy(self) -> "OrderedSet":
        return OrderedSet(self._items)

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    # -- algebra (results keep *this* set's iteration order) ------------
    def __and__(self, other) -> "OrderedSet":
        return OrderedSet(item for item in self._items if item in other)

    def __rand__(self, other) -> "OrderedSet":
        # set & OrderedSet: keep our deterministic order, not the set's.
        return self.__and__(other)

    def __or__(self, other) -> "OrderedSet":
        result = self.copy()
        result.update(other)
        return result

    def __ror__(self, other) -> "OrderedSet":
        return OrderedSet(other) | self

    def __ior__(self, other) -> "OrderedSet":
        self.update(other)
        return self

    def union(self, other) -> "OrderedSet":
        return self.__or__(other)

    def __sub__(self, other) -> "OrderedSet":
        return OrderedSet(item for item in self._items if item not in other)

    def difference(self, other) -> "OrderedSet":
        return self.__sub__(other)

    # -- comparison ------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, OrderedSet):
            return self._items.keys() == other._items.keys()
        if isinstance(other, (set, frozenset)):
            return set(self._items) == other
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        return "OrderedSet({!r})".format(list(self._items))
