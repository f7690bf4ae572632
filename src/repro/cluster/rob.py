"""Reorder buffer (ROB).

The front end allocates one ROB entry per µop at dispatch (copies excluded --
they are a back-end artefact of the clustered design and retire with the µop
that required them), and the commit stage retires completed µops in order at
the commit width of Table 2.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional


class ReorderBuffer:
    """In-order retirement window.

    Parameters
    ----------
    size:
        Maximum number of in-flight (dispatched, not yet committed) µops.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("ROB size must be positive")
        self.size = int(size)
        self._entries: Deque[object] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def free_entries(self) -> int:
        """Number of µops that can still be dispatched before the ROB fills up."""
        return self.size - len(self._entries)

    @property
    def is_full(self) -> bool:
        """True when no further µop can be dispatched."""
        return len(self._entries) >= self.size

    @property
    def is_empty(self) -> bool:
        """True when nothing is in flight."""
        return not self._entries

    def allocate(self, record: object) -> bool:
        """Append ``record``; return ``False`` when the ROB is full."""
        if self.is_full:
            return False
        self._entries.append(record)
        return True

    def head(self) -> Optional[object]:
        """Oldest in-flight µop (next to commit), or ``None``."""
        return self._entries[0] if self._entries else None

    def commit_ready(self, width: int, is_completed) -> List[object]:
        """Retire up to ``width`` completed µops from the head, in order.

        ``is_completed`` is a predicate applied to each head entry; retirement
        stops at the first incomplete µop, preserving in-order semantics.
        """
        retired: List[object] = []
        while self._entries and len(retired) < width and is_completed(self._entries[0]):
            retired.append(self._entries.popleft())
        return retired

    def commit_completed(self, width: int) -> List[object]:
        """Retire up to ``width`` entries whose ``completed`` attribute is set.

        Specialisation of :meth:`commit_ready` for records that expose a
        ``completed`` attribute: the per-head predicate call is measurable in
        the commit stage's profile, so the common case reads the attribute
        directly.  Retirement order and stop condition are identical.
        """
        entries = self._entries
        retired: List[object] = []
        while entries and len(retired) < width and entries[0].completed:
            retired.append(entries.popleft())
        return retired

    def __iter__(self) -> Iterable[object]:
        return iter(self._entries)
