"""One event record for every layer: sequencer, caches and modulator.

Stall rule: each stall is recorded once, by the layer that knows its
cost in ticks.  The sequencer records ``fetch_stall``, the decode ticks
lost beyond the hit latency (sequential fetch) or the jump penalty
(taken jump); the waveform cache records ``swap_stall``, the ticks a
page swap waited for its fill.  Stream engines record ``underrun``, the
gap a late command left in one engine's stream; a gap is the output-side
view of a stall or of decode pacing, so ``stalls()`` leaves it out.
Caches record misses and late fills as causes, with no ticks, and count
their hits instead of logging them.

Storage: the sequencer and each cache keep their events in an
``EventLog``.  A decoded event is one ``Event`` row.  A fast-forwarded
block of laps is one chunk: the rows its template laps recorded and the
tick shift of each copy as one int64 array (or one shift per row, when
the rows move at different rates), so copying m laps of n events builds
no Event.  The copies' Events are built only when the log is
read, by iteration or indexing, and again on every such read;
``OutputTrace.events`` reads its logs once and keeps the sorted list.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

__all__ = ["EventKind", "Event", "EventLog", "stalls"]


class EventKind(str, Enum):
    """Closed set of event kinds; ``layer`` is the layer that records one."""

    def __new__(cls, value: str, layer: str):
        member = str.__new__(cls, value)
        member._value_ = value
        member.layer = layer
        return member

    UNDERRUN = "underrun", "engine"
    QUEUE_FULL = "queue_full", "engine"
    FETCH_STALL = "fetch_stall", "engine"
    TRIGGER_DROPPED = "trigger_dropped", "engine"
    TRAP = "trap", "engine"
    MISS = "miss", "mem"
    WINDOW_WAIT = "window_wait", "mem"   # window line hit before its fill
    ASSOC_WAIT = "assoc_wait", "mem"     # prefetched line hit before its fill
    PREFETCH = "prefetch", "mem"
    PREFETCH_DUP = "prefetch_dup", "mem"
    PAGE_FILL = "page_fill", "mem"
    PAGE_SWAP = "page_swap", "mem"
    SWAP_STALL = "swap_stall", "mem"
    MODULATE_UNDERFILLED = "modulate_underfilled", "mod"
    RESET_PHASE = "reset_phase", "mod"


# Members bound once as module globals for the layers that build events
# per instruction or command: a class read costs ten global reads.
EV_UNDERRUN = EventKind.UNDERRUN
EV_QUEUE_FULL = EventKind.QUEUE_FULL
EV_FETCH_STALL = EventKind.FETCH_STALL
EV_TRIGGER_DROPPED = EventKind.TRIGGER_DROPPED
EV_TRAP = EventKind.TRAP
EV_MISS = EventKind.MISS
EV_WINDOW_WAIT = EventKind.WINDOW_WAIT
EV_ASSOC_WAIT = EventKind.ASSOC_WAIT
EV_PREFETCH = EventKind.PREFETCH
EV_PREFETCH_DUP = EventKind.PREFETCH_DUP
EV_PAGE_FILL = EventKind.PAGE_FILL
EV_PAGE_SWAP = EventKind.PAGE_SWAP
EV_SWAP_STALL = EventKind.SWAP_STALL
EV_MODULATE_UNDERFILLED = EventKind.MODULATE_UNDERFILLED
EV_RESET_PHASE = EventKind.RESET_PHASE

_STALLS = frozenset({EV_FETCH_STALL, EV_SWAP_STALL})
_NO_DETAIL: Mapping = MappingProxyType({})    # shared, so read-only


class Event(NamedTuple):
    """One event; a tuple, so immutable and cheap to build per run."""

    tick: int
    kind: EventKind
    ticks: int = 0          # cost; nonzero for stalls and underruns
    detail: Mapping = _NO_DETAIL

    @property
    def stall(self) -> int:
        """Alias of ``ticks`` read by bench/run.py's per-layer counters."""
        return self.ticks


def stalls(events) -> list[Event]:
    """The stall events among events, in their order."""
    return [e for e in events if e.kind in _STALLS]


class EventLog:
    """One layer's events in record order: decoded rows and copied chunks.

    ``append`` is the row list's own bound method, so recording a
    decoded event costs what appending to a list does.  ``len()`` counts
    every copy; iteration and indexing expand the chunks (module
    docstring).
    """

    __slots__ = ("rows", "append", "chunks", "copies")

    def __init__(self):
        self.rows: list[Event] = []
        self.append = self.rows.append
        # (at, lo, hi, shifts): the chunk is rows[lo:hi] again once per
        # shift, after rows[:at]
        self.chunks: list[tuple[int, int, int, np.ndarray]] = []
        self.copies = 0                  # events the chunks stand for

    def __len__(self) -> int:
        return len(self.rows) + self.copies

    def __iter__(self):
        return iter(self._expand() if self.chunks else self.rows)

    def __getitem__(self, i):
        return (self._expand() if self.chunks else self.rows)[i]

    def repeat(self, first: int, shifts, end: int | None = None) -> None:
        """Record events first..end (by default all) again once per
        shift, ticks moved on by it, as one chunk; a shift is an int, or
        a row of one int per event.  They are decoded rows: no chunk's
        copies lie among them."""
        end = len(self) if end is None else end
        lo, hi = self._row(first), self._row(end, stop=True)
        if end - first != hi - lo:
            raise ValueError(f"copy of events {first}..{end} spans a chunk")
        shifts = np.asarray(shifts, np.int64)
        if hi > lo and len(shifts):
            self.chunks.append((len(self.rows), lo, hi, shifts))
            self.copies += (hi - lo) * len(shifts)

    def _row(self, i: int, stop: bool = False) -> int:
        """The row of event i, which no chunk copied; if stop, the row a
        range that stops before event i stops before."""
        copies = 0
        for at, lo, hi, shifts in self.chunks:
            if i < at + copies + stop:
                break
            n = (hi - lo) * len(shifts)
            if i < at + copies + n:
                raise ValueError(f"copy from event {i} starts inside a "
                                 f"chunk (the log holds {len(self)})")
            copies += n
        return i - copies

    def since(self, first: int) -> list[Event]:
        """The events from first on, all decoded rows."""
        return self.rows[self._row(first):]

    def copy(self) -> EventLog:
        """A snapshot: later records to this log do not change it."""
        log = EventLog()
        log.rows += self.rows
        log.chunks += self.chunks
        log.copies = self.copies
        return log

    def _expand(self) -> list[Event]:
        """Every event, each chunk built into Events in its place."""
        rows, out, done = self.rows, [], 0
        for at, lo, hi, shifts in self.chunks:
            out += rows[done:at]
            out += _copies(rows[lo:hi], shifts)
            done = at
        out += rows[done:]
        return out


def _copies(template: list[Event], shifts: np.ndarray) -> list[Event]:
    """template again once per shift, ticks moved on by it (and the until
    tick of a queue_full); details without a tick are shared.  A shift
    is one int, or one per template event."""
    n, m = len(template), len(shifts)
    tick, kind, ticks, detail = zip(*template)
    shifts = shifts.reshape(m, -1)
    tick = (shifts + np.array(tick, np.int64)).ravel().tolist()
    detail = list(detail) * m
    for j in [j for j, k in enumerate(kind) if k is EV_QUEUE_FULL]:
        base = detail[j]
        for c, d in enumerate(shifts[:, j % shifts.shape[1]].tolist()):
            detail[c * n + j] = {**base, "until": base["until"] + d}
    # tuple.__new__ is Event(...) less its Python-level __new__
    return list(map(tuple.__new__, repeat(Event, n * m),
                    zip(tick, kind * m, ticks * m, detail)))
