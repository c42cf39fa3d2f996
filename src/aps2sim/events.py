"""One event record for every layer: sequencer, caches and modulator.

Stall rule: each stall is recorded once, by the layer that knows its
cost in ticks.  The sequencer records ``fetch_stall``, the decode ticks
lost beyond the hit latency (sequential fetch) or the jump penalty
(taken jump); the waveform cache records ``swap_stall``, the ticks a
page swap waited for its fill.  The waveform engine records
``underrun``, the gap a late command left in its stream; a gap is the
output-side view of a stall or of decode pacing, so ``stalls()`` leaves
it out.
Caches record misses and late fills as causes, with no ticks, and count
their hits instead of logging them.

Storage: the sequencer, the waveform engine and each cache keep their
events in an ``EventLog`` of their own, a ``column.Column`` of ``Event``
rows; the modulator builds its list on each resolve.  A decoded event is
one row.  A fast-forwarded block of m laps is one chunk: the rows its
template laps recorded, m, and the tick step of one copy, one int for
the whole log, so copying m laps of n events builds no Event.  The
copies' Events are built only when the log is read, all of them on
iteration, again on every such read, and only the one returned on
indexing; ``trace.OutputTrace.events`` reads its logs once and keeps
the sorted list.
"""

from __future__ import annotations

from enum import Enum
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .column import Column

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


class EventLog(Column):
    """One layer's events in record order, a ``Column`` of ``Event``
    rows: copy c moves each event's tick on by c times its step (module
    docstring)."""

    __slots__ = ()

    def _moved(self, template: list[Event], step: int, first: int,
               stop: int) -> list[Event]:
        return _copies(template, step, first, stop)


def _copies(template: list[Event], step: int, first: int,
            stop: int) -> list[Event]:
    """Copies first..stop - 1 of template, copy c's ticks (and the until
    tick of a queue_full) moved on by c * step; details without a tick
    are shared."""
    n, m = len(template), stop - first
    tick, kind, ticks, detail = zip(*template)
    shifts = np.arange(first, stop) * step
    tick = (shifts[:, None] + np.array(tick, np.int64)).ravel().tolist()
    detail = list(detail) * m
    for j in [j for j, k in enumerate(kind) if k is EV_QUEUE_FULL]:
        base = detail[j]
        for c, d in enumerate(shifts.tolist()):
            detail[c * n + j] = {**base, "until": base["until"] + d}
    # tuple.__new__ is Event(...) less its Python-level __new__
    return list(map(tuple.__new__, repeat(Event, n * m),
                    zip(tick, kind * m, ticks * m, detail)))
