"""Versioned maps: O(1) writes, with every older version still readable.

Contract states are snapshots.  ``Ledger.read_state`` and ``Ledger.history``
hand them out, and a transition builds its next state without changing the
one it was given.  Some states hold a map that grows with the whole
population: the identity registry's records, and the record factory's
minted and added sets.  Copying such a map on every write makes each write
O(N).  A ``VersionedMap`` avoids the copy with Baker's diff representation
of versions ("Shallow binding makes functional arrays fast", SIGPLAN Notices
1991; see also Conchon and Filliâtre, "A Persistent Union-Find Data
Structure", ML Workshop 2007).

Only the newest version of a map holds its dict.  Every older version is a
one-entry diff against the version written from it: the key that write set,
the value the key had before (or none), and that next version.  All versions
of one map share one list of its keys, each once, in insertion order; a
version is a read-only ``Mapping`` over its first ``len`` keys, and nothing
it reads ever changes.

* ``put`` from the newest version writes the dict in place, in O(1), turns
  the version it wrote from into that write's diff and returns the new
  newest version.
* Reading the newest version is one dict operation.
* An older version walks its diffs towards the newest, one step per later
  write, so it reads exactly as it did when it was the newest.
* ``put`` from any other version first copies that version into a fresh map
  (``_copied``), which is O(N).  That is off the common path: a saved
  snapshot written to again, a write discarded with a rejected transaction,
  or a plain dict installed by hand.

A diff points only at newer versions, so a superseded value stays alive
only while some held version can still read it; once every such version is
dropped, the collector frees it.  Iteration follows insertion order, so
encoding a version walks its keys in the order they were first written,
just as a dict would.  ``values()`` and ``items()`` of the newest version
iterate copies of the dict's keys and values, taken in C when iteration
starts, so a ``put`` made meanwhile does not show; an older version looks
each key up through its diffs.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Iterator, Mapping, ValuesView
from itertools import islice
from typing import Any, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING: Any = object()


class VersionedMap(Mapping[K, V]):
    """One read-only version of a map; ``put`` makes the next one."""

    __slots__ = ("_latest", "_keys", "_len", "_diff")

    def __init__(self, items: Iterable[tuple[K, V]] = ()) -> None:
        self._latest: Any = dict(items)  # the map's dict while newest, else None
        self._keys = list(self._latest)  # shared by every version of this map
        self._len = len(self._keys)
        self._diff: Any = None  # once older: (key, value here or _MISSING, next version)

    def _older(self, key: Any) -> Any:
        """The value of ``key`` at this older version, or _MISSING."""
        version = self
        while version._latest is None:
            written, value, version = version._diff
            if written == key:
                return value
        return version._latest.get(key, _MISSING)

    def __getitem__(self, key: K) -> V:
        if self._latest is not None:
            return self._latest[key]
        value = self._older(key)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def get(self, key: K, default: Any = None) -> Any:
        if self._latest is not None:
            return self._latest.get(key, default)
        value = self._older(key)
        return default if value is _MISSING else value

    def __contains__(self, key: object) -> bool:
        if self._latest is not None:
            return key in self._latest
        return self._older(key) is not _MISSING

    def __iter__(self) -> Iterator[K]:
        # keys only grow at the end, so the first _len are this version's
        return islice(self._keys, self._len)

    def __len__(self) -> int:
        return self._len

    def values(self) -> ValuesView[V]:
        return _Values(self)

    def items(self) -> ItemsView[K, V]:
        return _Items(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Any]:
        latest = self._mapping._latest
        if latest is None:
            return super().__iter__()
        return iter(list(latest.values()))


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        latest = self._mapping._latest
        if latest is None:
            return super().__iter__()
        # zip reuses its tuple when the loop drops it; a list of items would not
        return zip(list(latest), list(latest.values()))


def _copied(mapping: Mapping[K, V]) -> VersionedMap[K, V]:
    """A fresh map holding ``mapping``'s items: the one O(N) path."""
    return VersionedMap(mapping.items())


def put(mapping: Mapping[K, V], key: K, value: V) -> VersionedMap[K, V]:
    """``mapping`` with ``key`` set to ``value``, as a new version; ``mapping``
    itself reads as before.  O(1) when ``mapping`` is the newest version of
    its map; any other mapping, a plain dict included, is copied first."""
    if type(mapping) is not VersionedMap or mapping._latest is None:
        mapping = _copied(mapping)
    latest, keys = mapping._latest, mapping._keys
    old = latest.get(key, _MISSING)
    latest[key] = value
    if old is _MISSING:
        keys.append(key)
    new = VersionedMap.__new__(VersionedMap)
    new._latest, new._keys, new._len, new._diff = latest, keys, len(keys), None
    mapping._latest, mapping._diff = None, (key, old, new)
    return new
