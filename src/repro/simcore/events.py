"""Event and event-queue primitives for the discrete-event kernel.

The queue is a binary heap of ``(time, seq, event)`` tuples.  The
sequence number makes ordering total and deterministic: two events
scheduled for the same instant fire in the order they were scheduled.
Because ``(time, seq)`` is unique, ``heapq`` orders entries by comparing
a float and an int in C and never reaches the :class:`Event` itself.

The run loop takes one :meth:`EventQueue.pop` per event: ``pop`` accepts
a horizon and returns ``None`` when the earliest live event lies beyond
it, leaving that event queued.  Events can be cancelled in O(1);
cancelled entries are skipped lazily when they reach the top.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

_INF = float("inf")


class Event:
    """A scheduled callback.

    Attributes:
        time: Virtual time (seconds) at which the event fires.
        seq: Monotonic tie-breaker assigned by the queue.
        callback: Zero-argument callable invoked at ``time``.
        label: Optional human-readable tag used in repr.
        cancelled: Set by :meth:`cancel`; the queue skips the event.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}, {self.label!r}{state})"


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[2].cancelled for entry in self._heap)

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``callback`` at virtual ``time`` and return the event."""
        if time != time:  # NaN guard
            raise ValueError("event time must not be NaN")
        seq = next(self._counter)
        event = Event(time, seq, callback, label)
        heappush(self._heap, (time, seq, event))
        return event

    def pop(self, horizon: float = _INF) -> Optional[Event]:
        """Remove and return the earliest live event.

        Returns None when the queue holds no live event, or when the
        earliest live event fires after ``horizon``; that event then
        stays queued.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
            elif time > horizon:
                return None
            else:
                heappop(heap)
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the fire time of the earliest live event without popping."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
