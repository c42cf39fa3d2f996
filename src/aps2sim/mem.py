"""Deep memory and caches: SDRAM timing, instruction cache, waveform cache.

SDRAM is a latency plus bandwidth abstraction: a request occupies the data
bus for bytes/rate, bursts are serialized in request order, and a request
completes at max(request + latency, end of previous burst) + burst.  No
protocol detail beyond that.  The latency is 200 ns (``SDRAM_LATENCY_TICKS``,
1200 ticks) and the rate 1.45 GB/s (``SDRAM_TICKS_PER_BYTE``, 6e9 / 1.45e9
ticks per byte), so one 1 kB line fill takes 1200 + 4238 ticks on an idle
bus.

The instruction cache has two halves, both built from 1 kB lines of
``isa.CACHE_LINE_INSTRUCTIONS`` (128) instructions:

  * a sequential circular window that tracks the program counter, keeping
    a few played lines behind and prefetching ahead, and
  * a small fully associative cache filled only by explicit PREFETCH
    instructions, for subroutines and branch targets, and replaced
    oldest-first: a PREFETCH of a new line into a full half evicts the
    line filled longest ago.  It holds ``ASSOC_LINES`` (8) lines, the
    capacity the prefetch planner in ``asm`` plans for.

The window re-centres on the line the program counter enters; it keeps
``WINDOW_BEHIND`` lines behind that base and fills ``WINDOW_AHEAD``
lines ahead of it.  This geometry, the associative capacity and the
latencies are fixed in the gateware, so they are module constants, not
configuration.

The waveform cache is either one linear 128 ksample memory (everything
resident at start) or two 64 ksample pages in ping-pong mode where the
waveform engine's PREFETCH command refills the idle page.

Timing contract: every read returns (data, available_tick).  Hits are
available after ``HIT_LATENCY_TICKS`` (2 sequencer clocks); the caller
treats anything later as a stall and records it, since only the caller
knows how many of those ticks it lost.  So the sequencer records fetch
stalls, and the caches record a miss or a late fill only as a cause,
with no ticks.  The waveform cache records the one stall it owns: a page
swap that waits for its fill.  Hits are counted, not logged.  Caches
start warm over their initial contents, which stands in for
configuration time before a sequence starts; every fill after that is on
the clock.

Resident fetch: ``InstructionCache.resident`` is the pc range of the
line whose next read is a plain hit that changes no cache state (a
filled window line at or behind the base, a filled associative line
outside the window, or any line of an ideal cache).  The cache alone
keeps it: a read that re-centres the window and a PREFETCH that evicts
the line reset it.  A caller with no fetch of its own in flight may
skip ``read_instruction`` for a pc inside it; the word is then
available after the hit latency, and the caller adds the hit to
``hits`` itself, so hits and misses count every fetch either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clocks import SEQ_CLOCK_TICKS, TICKS_PER_NS, ns_to_ticks
from .events import (EV_ASSOC_WAIT, EV_MISS, EV_PAGE_FILL, EV_PAGE_SWAP,
                     EV_PREFETCH, EV_PREFETCH_DUP, EV_SWAP_STALL,
                     EV_WINDOW_WAIT, Event, EventLog, stalls)
from .isa import CACHE_LINE_INSTRUCTIONS

__all__ = [
    "ASSOC_LINES",
    "LINE_FILL_BYTES",
    "WINDOW_AHEAD",
    "WINDOW_BEHIND",
    "HIT_LATENCY_TICKS",
    "SDRAM_LATENCY_TICKS",
    "SDRAM_TICKS_PER_BYTE",
    "MemConfig",
    "CacheError",
    "Sdram",
    "InstructionCache",
    "WaveformCache",
    "page_fill_ticks",
]


LINE_FILL_BYTES = 8 * CACHE_LINE_INSTRUCTIONS   # 8-byte instruction words
WINDOW_AHEAD = 4                  # lines the window fills past its base
WINDOW_BEHIND = 2                 # played lines it keeps behind its base
ASSOC_LINES = 8                   # associative lines
HIT_LATENCY_TICKS = 2 * SEQ_CLOCK_TICKS
SDRAM_LATENCY_TICKS = ns_to_ticks(200.0)
SDRAM_TICKS_PER_BYTE = TICKS_PER_NS * 1e9 / 1.45e9   # at 1.45 GB/s


@dataclass
class MemConfig:
    wave_mode: str = "single"          # "single" or "pingpong"
    wave_page_samples: int = 65536
    ideal: bool = False                # every fetch hits, for comparison runs

    def __post_init__(self):
        if self.wave_page_samples < 1:
            raise ValueError("MemConfig.wave_page_samples must be at least "
                             f"1, got {self.wave_page_samples}")
        if self.wave_mode not in ("single", "pingpong"):
            raise ValueError("MemConfig.wave_mode must be 'single' or "
                             f"'pingpong', got {self.wave_mode!r}")


class CacheError(RuntimeError):
    """Fatal access outside the resident region, or a bad mode."""


class Sdram:
    """Serialized burst bus with a fixed first-word latency."""

    def __init__(self):
        self.busy_until = 0

    def request(self, nbytes: int, tick: int) -> int:
        """Schedule a transfer; returns the completion tick."""
        start = max(tick + SDRAM_LATENCY_TICKS, self.busy_until)
        self.busy_until = start + math.ceil(nbytes * SDRAM_TICKS_PER_BYTE)
        return self.busy_until


def page_fill_ticks(cfg: MemConfig) -> int:
    """Idle-bus fill time for one waveform page (4 bytes per sample)."""
    return Sdram().request(4 * cfg.wave_page_samples, 0)


class InstructionCache:
    def __init__(self, cfg: MemConfig, words: list[int], sdram: Sdram):
        self.cfg = cfg
        self.words = words
        self.sdram = sdram
        self.n_lines = max(1, -(-len(words) // CACHE_LINE_INSTRUCTIONS))
        self.base_line = 0
        # line -> fill completion tick; initial window is warm
        self.window: dict[int, int] = {
            ln: 0 for ln in range(min(WINDOW_AHEAD + 1, self.n_lines))}
        # line -> fill completion tick, oldest fill first (victim order)
        self.assoc: dict[int, int] = {}
        self.events = EventLog()
        self.hits = 0
        self.misses = 0
        # pcs whose next read is a plain hit (see the module docstring)
        self.resident = range(len(words)) if cfg.ideal else range(0)

    def _schedule_window(self, line: int, tick: int) -> None:
        """Re-center the window on line, scheduling any missing fills."""
        self.base_line = line
        self.resident = range(0)
        lo = max(0, line - WINDOW_BEHIND)
        hi = min(self.n_lines - 1, line + WINDOW_AHEAD)
        for ln in list(self.window):
            if not lo <= ln <= hi:
                del self.window[ln]
        for ln in range(line, hi + 1):
            if ln not in self.window:
                self.window[ln] = self.sdram.request(LINE_FILL_BYTES, tick)

    def read_instruction(self, addr: int, tick: int) -> tuple[int, int]:
        """Fetch one word; returns (word, available_tick)."""
        if not 0 <= addr < len(self.words):
            raise CacheError(f"instruction fetch {addr} beyond program end")
        line = addr // CACHE_LINE_INSTRUCTIONS
        fill_done = self.window.get(line)
        if fill_done is not None and fill_done <= tick \
                and line <= self.base_line:
            # filled window line at or behind the base: no re-centre
            self.hits += 1
            if addr not in self.resident:
                self._reside(line)
            return self.words[addr], tick + HIT_LATENCY_TICKS
        if self.cfg.ideal:
            self.hits += 1
            return self.words[addr], tick + HIT_LATENCY_TICKS

        if fill_done is not None:
            if line > self.base_line:
                self._schedule_window(line, tick)
            cause = EV_WINDOW_WAIT
            self.hits += 1
        elif line in self.assoc:
            fill_done, cause = self.assoc[line], EV_ASSOC_WAIT
            self.hits += 1
        else:
            # demand miss: the window re-centers here and the demanded
            # line fill (always after tick) is on the critical path
            self.misses += 1
            self._schedule_window(line, tick)
            fill_done, cause = self.window[line], EV_MISS
        if fill_done <= tick:
            # the line is filled and now a window line at or behind the
            # base, or an associative line outside the window
            self._reside(line)
            return self.words[addr], tick + HIT_LATENCY_TICKS
        self.events.append(Event(tick, cause, 0,
                                 {"addr": addr, "line": line}))
        return self.words[addr], fill_done + HIT_LATENCY_TICKS

    def _reside(self, line: int) -> None:
        first = line * CACHE_LINE_INSTRUCTIONS
        self.resident = range(first, min(first + CACHE_LINE_INSTRUCTIONS,
                                         len(self.words)))

    def prefetch_line(self, addr: int, tick: int) -> None:
        """Explicit PREFETCH: fill the associative half, oldest out."""
        if self.cfg.ideal:
            return
        line = addr // CACHE_LINE_INSTRUCTIONS
        detail = {"addr": addr, "line": line}
        if line in self.assoc:
            self.events.append(Event(tick, EV_PREFETCH_DUP, 0, detail))
            return
        if len(self.assoc) >= ASSOC_LINES:
            victim = next(iter(self.assoc))
            del self.assoc[victim]
            if victim * CACHE_LINE_INSTRUCTIONS in self.resident:
                self.resident = range(0)
        self.assoc[line] = self.sdram.request(LINE_FILL_BYTES, tick)
        self.events.append(Event(tick, EV_PREFETCH, 0, detail))


class WaveformCache:
    def __init__(self, cfg: MemConfig, wave_mem: np.ndarray, sdram: Sdram):
        self.mem = wave_mem
        self.sdram = sdram
        self.events = EventLog()
        # constants read once: locate runs for every PLAY
        self.page = page = cfg.wave_page_samples
        self.pingpong = cfg.wave_mode == "pingpong"
        self.size = len(wave_mem)     # at most two pages in single mode
        if self.pingpong:
            # both pages warm at start: page 0 active, page 1 staged
            self.slots = [(0, 0), (1, 0)]      # (sdram page, fill done tick)
            self.active_slot = 0
        elif len(wave_mem) > 2 * page:
            raise CacheError(
                f"waveform memory {len(wave_mem)} exceeds {2 * page} samples "
                "in single mode")

    def locate(self, addr: int, count: int) -> int:
        """Absolute waveform address of a page-local read of count
        samples at addr; raises CacheError for a read the mode forbids."""
        end = addr + count
        if not self.pingpong:
            if end > self.size:
                raise CacheError(
                    f"waveform read [{addr}, {addr + count}) beyond resident "
                    "memory")
            return addr
        if end > self.page:
            raise CacheError(
                f"waveform read [{addr}, {addr + count}) crosses the page "
                "boundary in ping-pong mode")
        sdram_page, _ = self.slots[self.active_slot]
        base = sdram_page * self.page
        if base + end > self.size:
            raise CacheError(
                f"waveform read [{addr}, {addr + count}) beyond page "
                f"{sdram_page} contents")
        return base + addr

    def read(self, addr: int, count: int, tick: int) -> np.ndarray:
        """Page-local read of count samples; resident data never stalls."""
        start = self.locate(addr, count)
        return self.mem[start:start + count]

    def begin_prefetch(self, page_index: int, tick: int) -> None:
        """Start filling the idle page with the given deep-memory page."""
        if not self.pingpong:
            raise CacheError("waveform PREFETCH is invalid in single mode")
        done = self.sdram.request(4 * self.page, tick)
        idle = 1 - self.active_slot
        self.slots[idle] = (page_index, done)
        self.events.append(Event(tick, EV_PAGE_FILL, 0,
                                 {"page": page_index, "slot": idle}))

    def complete_swap(self, tick: int) -> int:
        """Swap to the idle page, which ``begin_prefetch`` has just
        staged; returns the actual swap tick."""
        self.active_slot = idle = 1 - self.active_slot
        page, done = self.slots[idle]
        detail = {"page": page, "slot": idle}
        if done > tick:
            self.events.append(Event(tick, EV_SWAP_STALL, done - tick,
                                     detail))
            return done
        self.events.append(Event(tick, EV_PAGE_SWAP, 0, detail))
        return tick

    def stall_events(self) -> list[Event]:
        """Swap stalls so far, copied laps' expanded from the log, for
        bench/run.py; use OutputTrace.stall_events."""
        return stalls(self.events)
