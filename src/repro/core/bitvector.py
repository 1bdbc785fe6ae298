"""Context bit vector (Section 6.2, "Context Derivation").

For each stream partition the runtime keeps one bit per context type plus a
timestamp.  Entries are sorted alphabetically by context name so lookup is a
constant-time index into a fixed layout; the vector is the only piece of
shared state the context deriving queries write and the router reads.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import UnknownContextError
from repro.events.timebase import TimePoint


class ContextBitVector:
    """A fixed-layout bit vector over a set of context type names.

    The bit layout is frozen at construction (``W.size = |C|``, constant for
    an application).  Mutations update ``W.time``; since events arrive
    in-order, only the most recent version is kept (Section 6.2).
    """

    __slots__ = ("_names", "_index", "_bits", "time", "_active")

    def __init__(self, context_names: Iterable[str]):
        self._names = tuple(sorted(set(context_names)))
        self._index = {name: i for i, name in enumerate(self._names)}
        self._bits = 0
        self.time: TimePoint = 0
        #: ``(bits, active names)`` of the last :meth:`active` call
        self._active: tuple[int, tuple[str, ...]] = (0, ())

    @property
    def size(self) -> int:
        """Number of context types tracked (``|C|``)."""
        return len(self._names)

    @property
    def names(self) -> tuple[str, ...]:
        """Context names in bit order (alphabetical); a new tuple exactly
        when :meth:`register` changes the layout."""
        return self._names

    @property
    def value(self) -> int:
        """The raw bit pattern (bit ``i`` is ``names[i]``)."""
        return self._bits

    def bit(self, name: str) -> int:
        """The mask of ``name``'s bit in the current layout."""
        index = self._index.get(name)
        if index is None:
            raise UnknownContextError(name)
        return 1 << index

    def set(self, name: str, time: TimePoint) -> bool:
        """Set the bit for ``name``; returns True if it was previously 0."""
        bit = self.bit(name)
        was_clear = not self._bits & bit
        self._bits |= bit
        self.time = time
        return was_clear

    def clear(self, name: str, time: TimePoint) -> bool:
        """Clear the bit for ``name``; returns True if it was previously 1."""
        bit = self.bit(name)
        was_set = bool(self._bits & bit)
        self._bits &= ~bit
        self.time = time
        return was_set

    def register(self, name: str) -> bool:
        """Extend the layout with a new context name (online deployment).

        The alphabetical bit order is re-derived, so existing names may move
        to new indices; their set/clear state is carried over by name.
        Returns True if the layout actually grew (False: already present).
        """
        if name in self._index:
            return False
        active = [n for n in self._names if self.test(n)]
        self._names = tuple(sorted(self._names + (name,)))
        self._index = {n: i for i, n in enumerate(self._names)}
        self._bits = 0
        for n in active:
            self._bits |= 1 << self._index[n]
        self._active = (0, ())
        return True

    def test(self, name: str) -> bool:
        """Constant-time lookup: does the context window currently hold?"""
        return bool(self._bits & self.bit(name))

    def active(self) -> tuple[str, ...]:
        """All context names whose bit is set, in bit order.  Memoised by
        bit pattern: the set changes far less often than it is read."""
        bits = self._bits
        if self._active[0] != bits:
            names = tuple(n for i, n in enumerate(self._names) if bits >> i & 1)
            self._active = (bits, names)
        return self._active[1]

    def count_active(self) -> int:
        return bin(self._bits).count("1")

    def clear_all(self, time: TimePoint) -> None:
        self._bits = 0
        self.time = time

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __repr__(self) -> str:
        pattern = "".join("1" if self.test(n) else "0" for n in self._names)
        return f"<ContextBitVector t={self.time} {pattern} {self._names}>"
