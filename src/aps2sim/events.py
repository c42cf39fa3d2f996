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
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

__all__ = ["EventKind", "Event", "stalls"]


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
