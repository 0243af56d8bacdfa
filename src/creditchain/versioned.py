"""Versioned maps: O(1) writes, with every older version still readable.

Contract states are snapshots.  ``Ledger.read_state`` and ``Ledger.history``
hand them out, and a transition builds its next state without changing the
one it was given.  Some states hold a map that grows with the whole
population: the identity registry's records, and the record factory's
minted and added sets.  Copying such a map on every write makes each write
O(N).  A ``VersionedMap`` avoids the copy with the fat-node method of
Driscoll, Sarnak, Sleator and Tarjan ("Making Data Structures Persistent",
JCSS 1989).

All versions of one map share one log, which holds one entry per write, like
the ledger's own log: version v is the map after the log's first v writes.
Beside the written values the log keeps every key once, in insertion order,
and for each key the ascending versions that wrote it; a plain dict holds
each key's newest value.  A version is a read-only ``Mapping`` given by its
version number and its length, and nothing it reads ever changes.

* ``put`` from the newest version appends to the log in O(1) and returns the
  next version.
* Reading the newest version is one dict lookup.
* An older version bisects the key's few versions, so it reads exactly as it
  did when it was the newest.
* ``put`` from any other version first copies that version into a fresh log
  (``_copied``), which is O(N).  That is off the common path: a saved
  snapshot written to again, a write discarded with a rejected transaction,
  or a plain dict installed by hand.

The log keeps every value a key ever had, as a persistent structure must.
Iteration follows insertion order, so encoding a version walks its keys in
the order they were first written, just as a dict would.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping
from itertools import islice
from typing import Any, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING: Any = object()


class _Log:
    """What every version of one map shares; only ``write`` changes it."""

    __slots__ = ("keys", "latest", "writes", "versions")

    def __init__(self) -> None:
        self.keys: list = []  # each key once, in insertion order
        self.latest: dict = {}  # key -> its newest value
        self.writes: list = []  # writes[v - 1] is the value version v wrote
        self.versions: dict[Any, array] = {}  # key -> the versions that wrote it

    def write(self, key: Any, value: Any) -> int:
        """Append one write; returns the version it makes."""
        self.writes.append(value)
        version = len(self.writes)
        written = self.versions.get(key)
        if written is None:
            self.keys.append(key)
            self.versions[key] = array("Q", (version,))
        else:
            written.append(version)
        self.latest[key] = value
        return version


class VersionedMap(Mapping[K, V]):
    """One read-only version of a map; ``put`` makes the next one."""

    __slots__ = ("_log", "_version", "_len")

    def __init__(self, items: Iterable[tuple[K, V]] = ()) -> None:
        log = _Log()
        for key, value in items:
            log.write(key, value)
        self._log, self._version, self._len = log, len(log.writes), len(log.keys)

    def _at(self, key: Any) -> Any:
        """The value of ``key`` at this older version, or _MISSING."""
        log = self._log
        written = log.versions.get(key)
        if written is None:
            return _MISSING
        i = bisect_right(written, self._version)
        return log.writes[written[i - 1] - 1] if i else _MISSING

    def __getitem__(self, key: K) -> V:
        log = self._log
        if self._version == len(log.writes):
            return log.latest[key]
        value = self._at(key)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def get(self, key: K, default: Any = None) -> Any:
        log = self._log
        if self._version == len(log.writes):
            return log.latest.get(key, default)
        value = self._at(key)
        return default if value is _MISSING else value

    def __contains__(self, key: object) -> bool:
        log = self._log
        if self._version == len(log.writes):
            return key in log.latest
        written = log.versions.get(key)
        return written is not None and written[0] <= self._version

    def __iter__(self) -> Iterator[K]:
        # keys only grow at the end, so the first _len are this version's
        return islice(self._log.keys, self._len)

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


def _copied(mapping: Mapping[K, V]) -> VersionedMap[K, V]:
    """A fresh log holding ``mapping``'s items: the one O(N) path."""
    return VersionedMap(mapping.items())


def put(mapping: Mapping[K, V], key: K, value: V) -> VersionedMap[K, V]:
    """``mapping`` with ``key`` set to ``value``, as a new version; ``mapping``
    itself reads as before.  O(1) when ``mapping`` is the newest version of
    its log; any other mapping, a plain dict included, is copied first."""
    if type(mapping) is not VersionedMap or mapping._version != len(mapping._log.writes):
        mapping = _copied(mapping)
    log = mapping._log
    new = VersionedMap.__new__(VersionedMap)
    new._log, new._version = log, log.write(key, value)
    new._len = len(log.keys)
    return new
