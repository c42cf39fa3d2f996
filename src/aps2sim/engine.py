"""Cycle-accurate pulse sequencer: control unit, output engines, traces.

The control unit decodes one instruction per 20-tick sequencer clock and
dispatches engine commands into per-engine queues.  The decoder runs
ahead of real output time (greedy lookahead): it keeps decoding while
engines are stalled at WAIT, stopping only for SYNC fences (all queues
must drain), LOAD_CMP with an empty steering FIFO, or a full target
queue.  Taken jumps cost a fixed pipeline flush; lookahead hides it from
the analog stream whenever the queues hold enough work.

Engine timing: a PLAY dispatched at D starts no earlier than
D + ``PIPELINE_TICKS``; starts are clock aligned unless they continue a
contiguous stream, and a waveform engine begins a new command at most
every ``MIN_PLAY_GAP_TICKS`` (2 sequencer clocks) so 8-sample minimum
pulses play back to back.  A WAIT, a SYNC fence and a waveform page swap
each end the stream through ``_StreamEngine.restart``: the next run
starts fresh, with no underrun.  All engines released by the same trigger
emit their first sample on the same tick.  Trace timestamps are at the
engine output plane; the DAC chain delay after it is not modelled.

A blocked run returns a reason ("need_trigger", "need_steering") so a
harness can feed fabric messages in and resume, which is how the closed
loop is driven.  The instruction that blocked runs again on resume but
counts one decode, and its fetch is carried over the return.

Output path: the decode loop builds no sample.  Each engine appends
plain integers per run to the rows of its columns (``column.Column``):
the waveform engine the start tick, absolute waveform address (the
active ping-pong page base included), sample count and TA flag; a
marker engine the start tick, count, state and last word.  ``finalize``
builds each column into one array, a chunk of copied laps by one outer
add, resolves the modulator's windows over those columns, then walks
the stream in blocks of ``BLOCK_SAMPLES``, so its
working memory is bounded by the block size.  Per block it builds the
index of one 32-bit word per sample in two passes, each run's base word
repeated over its entries plus the entry numbers (a block holding a TA
run inside a window first multiplies the entry numbers by each run's
step, 0 for that run), gathers the words from a word view of the
image's waveform memory (each word an int16 I/Q pair), converts and
scales the pairs to float in one pass and views them as complex
samples.  It rotates the samples inside windows in place and makes one
mixer call, which writes into the block's slice of the result.  The
mixer multiplies the (I, Q) rows by the transposed matrix, kept
C-contiguous from its constructor, adds the DC offset as one complex
number, and takes one min and one max of the product: only a block
with a value out of range is counted and clipped, and only a block
holding an exact zero takes the signed-zero pass.  A TA run outside
every window stays lazy: one mixed value, expanded only by
``OutputTrace.analog_values``; the mixer counts its saturations once
per sample it stands for, at the cost of the lazy entries alone.

Rotation ramps: the entry of window j that plays d sample periods after
the window's first (gaps count) rotates by the direct exp of its exact
phase word start_j + inc_j·d, mod 2^48.  With d = m·L + r that is
phasor(start_j + inc_j·m·L) times ramp(inc_j)[r].  ``_ramps`` builds one
ramp per distinct increment once, each as long as its longest window but
all in ``BLOCK_SAMPLES`` entries (1 MiB).  Per block ``_Rotation.rotate``
cuts the entries where the phasor changes (run starts, window edges,
multiples of L; repeats dropped by a sort and a neighbour mask, not
``np.unique``), so its pieces never outgrow a block, and takes one
direct exp per piece; an entry then costs a ramp gather and two complex
multiplies, and one outside windows is multiplied by exactly 1.  A factor
is within a few ulp of ``mod.Windows.rotation`` and equal to it at
r = 0, so a zero increment rotates by exactly the direct exp.

Hot-path rule: an instruction on a resident cache line costs no call.
When no fetch is carried over a stall and pc lies in the instruction
cache's ``resident`` range, the decode loop counts the hit for the cache
and takes the instruction from a per-pc list, filled on first fetch
(each distinct word is decoded once); every other fetch goes through
``InstructionCache.read_instruction``.
The loop dispatches PLAYs, waveform PREFETCH, engine WAIT and SYNC and
modulator commands itself: queue room comes from each engine's head
pointer, the first run not started by the decode tick (it only moves
forward, since the decode tick never decreases), and a PLAY goes to its
engine's ``play``, where ``_start_for`` is the one start-tick rule.
Control flow and the rarer opcodes go through ``_execute``.  Code run
per instruction or per command reads enum members through module
globals (``isa.OP_*``, ``events.EV_*``), never through their class.  The
gateware's fixed timing is module constants, each defined once and read
as a global: ``STACK_DEPTH``, ``JUMP_PENALTY_TICKS`` and
``MIN_PLAY_GAP_TICKS`` here, ``PIPELINE_TICKS`` in ``clocks`` (the
modulator reads it too), the hit latency, window and SDRAM constants
in ``mem``.  The configured values the loop needs (queue
depth, decode budget) are read into locals once per
``run_until_blocked``, and no hot path reads a config property
(``tests/test_hot_paths.py`` checks both rules).

Lap fast-forward: at each taken REPEAT, ``Sequencer._skip_laps``
compares the machine state with its state at the taken REPEATs at the
same pc that began the last few laps, up to ``CLK`` of them.  Ticks are
compared relative to the decode tick t0.  A tick at or below t0 is
stale, and any two stale values of a field count as equal: the code only
ever compares such a tick against a later one, with max or <=.  So
``last_start`` is compared as ``last_start + min_gap``, the bound it
puts on a start, and the waveform frontier is never stale, since an
underrun event records it.  Each lap records its counters and the row
count of every column a lap writes, all listed once in
``Sequencer._columns``: each engine's runs (start and dispatch tick,
count and the rest), the modulator's commands, dispatch ticks and
positions, and the three event logs.  The full state is built only when
the lap's waveform lead (frontier less t0) equals a recorded one.  The
laps copied are one chunk in every column (``column.Column.repeat``):
the laps' rows once, the number of copies and the step of one copy,
which ``Sequencer._steps`` gives per column.  So copying m laps costs
the laps' rows, not m times them, and no Python object is made per
copied run, command or event; a copied event becomes an ``Event`` only
when a log is read.  The engines also keep their last
``queue_depth`` copied runs as rows: no more runs than that are ever
queued, so the queue room check, ``lap_key`` and ``affine_laps`` read
plain lists, and every index the lap code keeps (``head``, the marks,
template ranges) is a row index.  The decode, hit and miss counts, the
stream position, the repeat register and ``laps_copied`` advance as the
copied laps would have advanced them, and the state is set to the one
the last copy ends in, ticks relative to its decode tick (a stale tick
stays stale).
No lap is copied past the decode budget, over a lap that wrote the
repeat register itself (a LOAD_REPEAT in the loop's frame, or a RETURN
out of it), or while an input could change the next lap: a WAIT queued
in any engine or the modulator, or queued steering words.  A SYNC fence
resolves before the next instruction decodes, and a waveform page swap
begins and ends in its PREFETCH, so neither is pending at a REPEAT.  No
lap spans a return from ``run_until_blocked``.

Exact laps: if the state k laps back matches, every tick moved by the
same period P, a multiple of the sequencer clock, and the rest is equal
(pc, call stack, comparison register and result, window base and lines,
associative lines in victim order, resident range, active waveform page,
the runs queued in each engine), then each block of k laps still to run
is the last k moved on by P, 2P and so on (modulator positions by the
block's samples), and the r < k laps left after the last whole block
are the block's first r moved on once more, ending in the state
recorded r laps into it.  The nearest such record wins.  k
exceeds 1 when the laps are paced by something off the clock grid: a lap
bound by the SDRAM bus takes B ticks, decode runs on the 20-tick clock,
so fill ticks drift B mod 20 against t0 each lap and the state repeats
only after 20 / gcd(B, 20) laps, at most ``CLK``.

Affine laps: a lap whose lead drains or grows repeats no earlier lap,
but the last two laps repeat each other with every field moved on by a
period of its own: the decode tick and every cache tick by P, each
engine's run starts (so its frontier and last start) by its own Q, its
floor not at all, and a cache tick the laps leave alone ahead of t0 not
at all.  The two laps must match in everything else: the counts of
decodes, hits, misses and samples, and every column, each compared by
``Column.moved`` with the step a copy takes: the commands, their
dispatch ticks (moved by P) and positions, each engine's run starts
(moved by Q), dispatch ticks (moved by P) and the rest of its runs, and
the events (an underrun moved by the waveform engine's Q, a fetch stall
and every instruction-cache event by P, and no event of another kind
from the sequencer); no SYNC fence or page event.  Each run of the
last lap started by ``_start_for``'s rule over three bounds: the
pipeline after its dispatch (moving P), the floor (0) and the last
start plus the minimum gap (Q).  Its slack, frontier less each bound,
changes linearly per copy.  A run that continued the stream keeps doing
so while every slack stays at or above 0; one that started on its
latest bound keeps its start while that bound, which must move by Q on
the clock grid, stays the latest.  The queue room check before it keeps
its outcome while the run ``queue_depth`` runs before it started by its
dispatch: checked copy by copy while that run was decoded before the
two laps, linear per copy once it lies in them or their copies.  A
linear condition holds for m copies if it holds for the last lap and
for copy m, so ``_StreamEngine.affine_laps`` takes the largest such m
and ``_repeat_affine`` appends m copies of the last lap, each column
moved by the step it was compared with.  The next laps decode again, and
the exact path takes over once their state repeats.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .clocks import (ANALOG_SAMPLE_TICKS, PIPELINE_TICKS, SEQ_CLOCK_TICKS,
                     align_up)
from .column import Column
from .events import (EV_FETCH_STALL, EV_QUEUE_FULL, EV_TRAP,
                     EV_TRIGGER_DROPPED, EV_UNDERRUN, Event, EventLog, stalls)
from .isa import (
    CMP_EQ,
    CMP_LT,
    CMP_NEQ,
    MK_SYNC,
    MK_WAIT,
    MOD_SYNC,
    MOD_WAIT,
    OP_CALL,
    OP_CMP,
    OP_GOTO,
    OP_LOAD_CMP,
    OP_LOAD_REPEAT,
    OP_MARKER,
    OP_MODULATOR,
    OP_PREFETCH,
    OP_REPEAT,
    OP_RETURN,
    OP_SYNC,
    OP_WAIT,
    OP_WAVEFORM,
    PHASE_MASK,
    WF_PLAY,
    WF_PREFETCH,
    WF_SYNC,
    WF_WAIT,
    CmpOp,
    Instruction,
    Modulator,
    ProgramImage,
    decode,
)
from .mem import (HIT_LATENCY_TICKS, InstructionCache, MemConfig, Sdram,
                  WaveformCache)
from .mod import MixerCorrector, ModConfig, ModEngine, Windows, phasors

__all__ = [
    "STACK_DEPTH",
    "JUMP_PENALTY_TICKS",
    "PIPELINE_TICKS",
    "MIN_PLAY_GAP_TICKS",
    "EngineConfig",
    "Sequencer",
    "OutputTrace",
    "Runs",
    "MarkerRuns",
    "DeadlockError",
    "SimTrap",
]

CLK = SEQ_CLOCK_TICKS

# fixed in the gateware, so constants rather than configuration
STACK_DEPTH = 16                     # CALL frames
JUMP_PENALTY_TICKS = 16 * CLK        # taken-branch pipeline flush
MIN_PLAY_GAP_TICKS = 2 * CLK         # new waveform every 2 clocks


@dataclass
class EngineConfig:
    queue_depth: int = 64
    initial_cmp: int = 0                 # comparison register at start
    max_decodes: int = 20_000_000

    def __post_init__(self):
        for name in ("queue_depth", "max_decodes"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"EngineConfig.{name} must be at least 1, "
                                 f"got {value}")


class DeadlockError(RuntimeError):
    pass


class SimTrap(RuntimeError):
    """Fatal program error (stack misuse, bad page mode, runaway loop)."""


class _Marks(NamedTuple):
    """Counters and row counts at a taken REPEAT: what a lap adds is
    measured from them."""

    decodes: int
    hits: int
    misses: int
    stream_pos: int
    fences: int           # SYNC fences resolved
    rows: tuple           # of each column in Sequencer._columns


# the sequencer's and the waveform cache's logs in Sequencer._columns
_SEQ_LOG, _WAVE_LOG = -3, -1


def _steady(before: _Marks, after: _Marks) -> bool:
    """Whether the laps between the marks resolved no SYNC fence and
    logged no waveform page event: no stream restarted."""
    return (before.fences == after.fences
            and before.rows[_WAVE_LOG] == after.rows[_WAVE_LOG])


@dataclass(slots=True, eq=False)
class _Lap:
    """A taken REPEAT that began a lap: the decode tick t0, the waveform
    lead, its marks and, once built, the state outside the engines
    (``Sequencer._state_key``) and each engine's ``lap_key``."""

    t0: int
    lead: int | None
    marks: _Marks
    state: tuple | None = None
    engine_keys: list | None = None


def _kept(slack: int, step: int, laps: int) -> int:
    """The most laps, at most laps, over which slack (at least 0), moved
    on by step a lap, stays at least 0."""
    return laps if step >= 0 else min(laps, slack // -step)


BLOCK_SAMPLES = 1 << 16   # samples finalize gathers, rotates, mixes at once
_MOD_WAIT_CMD = Modulator(MOD_WAIT)   # the modulator's share of a WAIT


@dataclass(frozen=True, eq=False)
class Runs:
    """One output stream's runs as columns, in stream order: run k plays
    n[k] samples from tick start[k], one every ANALOG_SAMPLE_TICKS."""

    start: np.ndarray
    n: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def end(self) -> np.ndarray:
        return self.start + ANALOG_SAMPLE_TICKS * self.n

    def ticks(self) -> np.ndarray:
        """Output tick of every sample, in order."""
        # each tick as the step from the one before, summed in place: a
        # run's first sample steps from the last sample of the run before
        played = self.n > 0
        start, n = self.start[played], self.n[played]
        out = np.full(int(n.sum()), ANALOG_SAMPLE_TICKS, dtype=np.int64)
        if len(n):
            step = start.copy()
            step[1:] -= start[:-1] + ANALOG_SAMPLE_TICKS * (n[:-1] - 1)
            out[np.cumsum(n) - n] = step
        return np.cumsum(out, out=out)


@dataclass(frozen=True, eq=False)
class MarkerRuns(Runs):
    """Marker runs: every level of run k is state[k] but the last four,
    which are the bits of last[k], most significant first."""

    state: np.ndarray
    last: np.ndarray

    def levels(self) -> np.ndarray:
        levels = np.repeat(self.state.astype(np.uint8), self.n)
        played = self.n > 0
        tail = np.cumsum(self.n)[played] - 4
        for bit in range(4):
            levels[tail + bit] = (self.last[played] >> (3 - bit)) & 1
        return levels


class _StreamEngine:
    """Shared scheduling for waveform and marker engines."""

    gaps_are_underruns = True     # a gap in the stream is lost output
    count_ticks = ANALOG_SAMPLE_TICKS     # a run's ticks per count

    def __init__(self, name: str, events: EventLog, min_gap_ticks: int):
        self.name = name
        self.events = events
        self.min_gap = min_gap_ticks
        self.starts = Column()           # start tick of each run
        self.counts = Column()           # count operand of each run
        self.dispatches = Column()       # dispatch tick of each run
        self.head = 0        # first row not started by the decode tick
        self.pending: list[tuple[object, int]] = []
        self.wait_dispatch: int | None = None
        self.frontier: int | None = None
        self.last_start: int | None = None
        self.floor = 0                   # no command may start before this

    # -- command flow -------------------------------------------------------

    def submit_wait(self, tick: int) -> None:
        if self.wait_dispatch is not None:
            self.pending.append(("wait", tick))
        else:
            self._begin_wait(tick)

    def _begin_wait(self, tick: int) -> None:
        self.wait_dispatch = tick
        # resume may not overlap samples already committed
        self.restart(self.drain_tick())

    def waiting(self) -> bool:
        return self.wait_dispatch is not None

    def deliver_trigger(self, edge: int) -> bool:
        """Release the engine if it has an undelivered WAIT; edge aligned.
        The commands queued behind it resolve through ``submit`` up to
        the next WAIT, which holds the rest."""
        if self.wait_dispatch is None:
            return False
        self.wait_dispatch = None
        self.floor = max(self.floor, edge)
        pending, self.pending = self.pending, []
        for i, (cmd, tick) in enumerate(pending):
            if cmd == "wait":
                self._begin_wait(max(tick, edge))
                self.pending = pending[i + 1:]
                break
            self.submit(cmd, max(tick, edge))
        return True

    def _start_for(self, dispatch: int, duration: int) -> int:
        """The start-tick rule: the run starts after the pipeline, the
        floor and the minimum gap, on the clock grid unless it continues
        the stream; a gap that opens is an underrun."""
        # max and align_up written out: this runs once per PLAY
        earliest = -(-dispatch // CLK) * CLK + PIPELINE_TICKS
        if self.floor > earliest:
            earliest = self.floor
        last = self.last_start
        if last is not None and last + self.min_gap > earliest:
            earliest = last + self.min_gap
        frontier = self.frontier
        if frontier is not None and earliest <= frontier:
            start = frontier
        else:
            start = -(-earliest // CLK) * CLK
            if frontier is not None and self.gaps_are_underruns:
                self.events.append(Event(frontier, EV_UNDERRUN,
                                         start - frontier,
                                         {"engine": self.name}))
        self.starts.append(start)
        self.dispatches.append(dispatch)
        self.last_start = start
        self.frontier = start + duration
        return start

    def drain_tick(self) -> int:
        return self.frontier if self.frontier is not None else self.floor

    def restart(self, floor: int) -> None:
        """End the stream: the next run starts fresh, no earlier than
        floor, with no minimum gap to the last run and no underrun."""
        self.floor = max(self.floor, floor)
        self.frontier = None
        self.last_start = None

    # -- lap fast-forward (see Sequencer._skip_laps) -----------------------

    def lap_key(self, t0: int) -> tuple:
        """Scheduling state at decode tick t0, ticks relative to it and a
        stale one as 0; moves head to the first run not started by t0."""
        starts = self.starts.rows
        head, n_runs = self.head, len(starts)
        while head < n_runs and starts[head] <= t0:
            head += 1
        self.head = head
        frontier, last = self.frontier, self.last_start
        if frontier is not None:
            # an underrun event records the frontier: never stale there
            frontier -= t0
            if frontier < 0 and not self.gaps_are_underruns:
                frontier = 0
        if last is not None:
            # last_start bounds a start only as last_start + min_gap
            last = max(last + self.min_gap - t0, 0)
        return (frontier, last, max(self.floor - t0, 0),
                [start - t0 for start in starts[head:]])

    def restore(self, key: tuple, t0: int) -> None:
        """Set the scheduling ticks to lap_key's, relative to t0."""
        frontier, last, floor, _ = key
        self.frontier = None if frontier is None else t0 + frontier
        self.last_start = None if last is None else t0 + last - self.min_gap
        self.floor = t0 + floor
        self.head = bisect_right(self.starts.rows, t0, self.head)

    def move(self, ticks: int, t0: int) -> None:
        """Move the stream on by ticks; the floor stays."""
        if self.frontier is not None:
            self.frontier += ticks
            self.last_start += ticks
        self.head = bisect_right(self.starts.rows, t0, self.head)

    def affine_laps(self, first: int, period: int, move: int, depth: int,
                    laps: int) -> int:
        """The most copies, at most laps, of runs first.. that can be
        appended with dispatch ticks moved on by period and starts by
        move per copy while each start rule and queue room check decides
        as it did for them (module docstring); the lap before them
        repeats them too."""
        starts, counts = self.starts.rows, self.counts.rows
        dispatches = self.dispatches.rows[first:]
        n = len(dispatches)
        earlier = first - n              # the lap before's first run
        for j, dispatch in enumerate(dispatches):
            run = first + j
            last = starts[run - 1]
            frontier = last + self.count_ticks * counts[run - 1]
            # each bound on the start and its move per lap
            bounds = ((-(-dispatch // CLK) * CLK + PIPELINE_TICKS, period),
                      (self.floor, 0), (last + self.min_gap, move))
            latest = max(bounds)
            if latest[0] <= frontier:
                # the run continues the stream: the frontier stays at or
                # past every bound
                for tick, step in bounds:
                    laps = _kept(frontier - tick, move - step, laps)
            elif latest[1] != move or move % CLK:
                return 0
            else:
                # the run starts on its latest bound, which stays latest
                for tick, step in bounds:
                    laps = _kept(latest[0] - tick, move - step, laps)
            # queue room: the run depth runs before this one has started
            # by its dispatch; from the lap before on, that start moves
            # by move per copy
            for i in range(1, laps + 1):
                back = run - depth + i * n
                if back < earlier:
                    if back >= 0 and starts[back] > dispatch + i * period:
                        laps = i - 1
                        break
                    continue
                lap, k = divmod(back - earlier, n)
                room = dispatch + i * period - starts[earlier + k] - lap * move
                laps = i - 1 if room < 0 else \
                    i + _kept(room, period - move, laps - i)
                break
        return laps


class WaveformEngine(_StreamEngine):
    def __init__(self, events, cache: WaveformCache):
        super().__init__("waveform", events, min_gap_ticks=MIN_PLAY_GAP_TICKS)
        self.cache = cache
        self.addrs = Column()            # absolute waveform address per run
        self.ta = Column()               # run repeats one TA sample
        # besides starts, dispatch ticks first
        self.columns = (self.dispatches, self.counts, self.addrs, self.ta)

    def play(self, wf, tick: int) -> None:
        """Start a PLAY dispatched at tick; the cache checks the read."""
        count = wf.count
        addr = self.cache.locate(wf.addr, 1 if wf.ta else count)
        self._start_for(tick, self.count_ticks * count)
        self.addrs.append(addr)
        self.counts.append(count)
        self.ta.append(wf.ta)

    def submit(self, wf, tick: int) -> None:
        """Resolve a PLAY or PREFETCH dispatched at tick; no WAIT holds
        the engine (WAIT and SYNC never get here)."""
        if wf.action is WF_PLAY:
            self.play(wf, tick)
            return
        # the fill starts as the command resolves: at dispatch, so
        # playback hides it, or at the edge that releases a WAIT
        self.cache.begin_prefetch(wf.addr, tick)
        at = self.frontier if self.frontier is not None \
            else max(tick, self.floor)
        swapped = self.cache.complete_swap(max(at, tick))
        self.restart(align_up(swapped, CLK))


class MarkerEngine(_StreamEngine):
    gaps_are_underruns = False    # a marker idles low between pulses
    count_ticks = 4 * ANALOG_SAMPLE_TICKS     # a count is one 4-sample word

    def __init__(self, channel: int, events):
        super().__init__(f"marker{channel}", events, min_gap_ticks=CLK)
        self.channel = channel
        self.states = Column()
        self.lasts = Column()
        self.columns = (self.dispatches, self.counts, self.states, self.lasts)

    def play(self, mk, tick: int) -> None:
        """Start a PLAY dispatched at tick."""
        self._start_for(tick, self.count_ticks * mk.count)
        self.counts.append(mk.count)
        self.states.append(mk.state)
        self.lasts.append(mk.last_word)

    submit = play     # a PLAY is the one marker command queued behind a WAIT

    def runs(self) -> MarkerRuns:
        return MarkerRuns(self.starts.array(), 4 * self.counts.array(),
                          self.states.array(), self.lasts.array())


@dataclass(eq=False)
class OutputTrace:
    """A finished run: integer run columns plus the mixed analog samples.

    analog holds the waveform runs (len(analog) counts them) and mixed
    their corrected samples in stream order, except that a lazy run (a
    TA run outside every MODULATE window, flagged in lazy) holds one
    entry for all its samples.  analog_values() expands those entries.
    logs holds the event logs as ``finalize`` saw them (the sequencer's,
    the instruction cache's, the waveform cache's, the modulator's);
    events is built from them on its first read, copied laps expanded,
    and kept, so decoding after ``finalize`` leaves it unchanged.
    """

    analog: Runs
    markers: dict[int, MarkerRuns]
    logs: tuple
    mixed: np.ndarray
    lazy: np.ndarray
    saturations: int = 0

    @cached_property
    def events(self) -> list[Event]:
        """Every event sorted by tick, ties in log order; built from the
        logs, copied laps expanded, on the first read and kept."""
        events = []
        for log in self.logs:
            events += log
        events.sort(key=itemgetter(0))      # an Event is a tuple
        return events

    def analog_values(self) -> np.ndarray:
        if not self.lazy.any():
            return self.mixed.copy()
        n = self.analog.n
        per_entry = np.repeat(np.where(self.lazy, n, 1),
                              np.where(self.lazy, 1, n))
        return np.repeat(self.mixed, per_entry)

    def analog_ticks(self) -> np.ndarray:
        return self.analog.ticks()

    def marker_levels(self, channel: int) -> tuple[np.ndarray, np.ndarray]:
        runs = self.markers.get(channel)
        if runs is None:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
        return runs.ticks(), runs.levels()

    def marker_edges(self, channel: int) -> list[tuple[int, int]]:
        """Level transitions (tick, new_level), idle level 0; a run
        followed by a gap or the end closes back to idle."""
        ticks, levels = self.marker_levels(channel)
        if not len(ticks):
            return []
        levels = levels.astype(np.int64)
        # sample i starts a contiguous segment, or ends one
        starts = np.ones(len(ticks), dtype=bool)
        starts[1:] = ticks[1:] != ticks[:-1] + ANALOG_SAMPLE_TICKS
        ends = np.append(starts[1:], True)
        before = np.where(starts, 0, np.roll(levels, 1))
        rise = np.flatnonzero(levels != before)
        fall = np.flatnonzero(ends & (levels != 0))
        # a transition at sample i precedes the close after sample i
        order = np.argsort(np.concatenate([2 * rise, 2 * fall + 1]))
        at = np.concatenate([ticks[rise], ticks[fall] + ANALOG_SAMPLE_TICKS])
        level = np.concatenate([levels[rise], np.zeros(len(fall), np.int64)])
        return list(zip(at[order].tolist(), level[order].tolist()))

    def stall_events(self) -> list[Event]:
        """Fetch and page-swap stalls, each recorded once (see events)."""
        return stalls(self.events)

    def write_events_jsonl(self, path) -> None:
        """One JSON object per event: tick, kind, ticks, then the detail."""
        with open(path, "w") as fh:
            for e in self.events:
                fh.write(json.dumps({"tick": e.tick, "kind": e.kind,
                                     "ticks": e.ticks, **e.detail}) + "\n")


class Sequencer:
    """One pulse sequencer module: control unit plus its engines."""

    def __init__(self, image: ProgramImage, cfg: EngineConfig | None = None,
                 mem_cfg: MemConfig | None = None,
                 mod_cfg: ModConfig | None = None):
        self.image = image
        self.cfg = cfg or EngineConfig()
        self.mem_cfg = mem_cfg or MemConfig()
        self.mod_cfg = mod_cfg or ModConfig()
        self.n_instrs = len(image.words)
        # pc -> its instruction, filled on first fetch; each distinct
        # word is decoded once, so equal words share one Instruction
        self._program: list[Instruction | None] = [None] * self.n_instrs
        self._decoded: dict[int, Instruction] = {}
        self.reset()

    def reset(self) -> None:
        """Fresh run state; the decoded program and config are reused."""
        self.sdram = Sdram()
        self.icache = InstructionCache(self.mem_cfg, self.image.words,
                                       self.sdram)
        self.wavecache = WaveformCache(self.mem_cfg, self.image.waveforms,
                                       self.sdram)
        self.events = EventLog()
        self.wf = WaveformEngine(self.events, self.wavecache)
        self.markers = [MarkerEngine(ch, self.events) for ch in range(4)]
        self.engines = (self.wf, *self.markers)
        self.modeng = ModEngine()
        # every column a lap writes: the engines' run starts, the rest of
        # their runs (these _run_columns keep copied runs as rows), the
        # modulator's, then the logs (the sequencer's at _SEQ_LOG, the
        # waveform cache's at _WAVE_LOG)
        columns = [e.starts for e in self.engines]
        for e in self.engines:
            columns += e.columns
        self._run_columns = len(columns)
        modeng = self.modeng
        columns += (modeng.commands, modeng.ticks, modeng.positions,
                    self.events, self.icache.events, self.wavecache.events)
        self._columns = tuple(columns)
        self.mod_waits = 0
        self.stream_pos = 0      # waveform samples dispatched so far
        self.trigger_edges: list[int] = []
        self.pc = 0
        self.decode_tick = 0
        self.repeat_register = 0
        self.stack: list[tuple[int, int]] = []
        self.cmp_register = self.cfg.initial_cmp
        self.cmp_result = False
        self.steering: list[tuple[int, int]] = []   # (word, available tick)
        self.halted = False
        self.trap_reason: str | None = None
        self.decodes = 0
        self.laps_copied = 0     # laps the lap fast-forward appended
        self._carried_fetch: tuple[int, int] | None = None   # (pc, avail)
        self._sync_pending = False
        self._fences = 0         # SYNC fences resolved
        # the taken REPEATs at pc _lap_at that began the laps since, the
        # last CLK of them, oldest first
        self._laps: deque[_Lap] = deque(maxlen=CLK)
        self._lap_at = -1
        self._lap_depth = -1     # their stack depth; -1 once a lap writes
                                 # the repeat register itself

    # -- external deliveries ------------------------------------------------

    def deliver_trigger(self, tick: int) -> None:
        edge = align_up(tick, CLK)
        consumed = False
        for eng in self.engines:
            consumed |= eng.deliver_trigger(edge)
        if self.mod_waits > 0:
            self.mod_waits -= 1
            consumed = True
        if consumed:
            self.trigger_edges.append(edge)
        else:
            self.events.append(Event(tick, EV_TRIGGER_DROPPED, 0,
                                     {"edge": edge}))

    def deliver_steering(self, word: int, tick: int) -> None:
        self.steering.append((word, tick))

    # -- the decode loop ----------------------------------------------------

    def run_until_blocked(self) -> str:
        """Advance until halted or blocked on an external input."""
        max_decodes = self.cfg.max_decodes
        queue_depth = self.cfg.queue_depth
        n_instrs = self.n_instrs
        program = self._program
        words = self.image.words
        icache = self.icache
        wf = self.wf
        markers = self.markers
        modeng = self.modeng
        mod_commands, mod_ticks, mod_positions = (
            modeng.commands, modeng.ticks, modeng.positions)
        self._laps.clear()       # an input arrived: no lap spans it
        while not self.halted:
            if self.decodes >= max_decodes:
                raise SimTrap("decode budget exhausted (runaway program?)")
            if self._sync_pending:
                reason = self._try_sync()
                if reason:
                    return reason
            pc = self.pc
            if pc >= n_instrs:
                if self.mod_waits or any(e.waiting() for e in self.engines):
                    return "need_trigger"   # queues still hold a WAIT
                self.halted = True
                break
            tick = self.decode_tick
            if self._carried_fetch is None and pc in icache.resident:
                icache.hits += 1       # a plain hit, counted for the cache
            elif not self._fetch(pc, tick):
                continue               # fetch stall advanced decode_tick
            instr = program[pc]
            if instr is None:
                instr = program[pc] = self._decode(words[pc])
            self.decodes += 1
            op = instr.op
            if op is OP_MODULATOR:
                md = instr.engine
                action = md.action
                if action is MOD_WAIT:
                    self.mod_waits += 1
                elif action is MOD_SYNC:
                    self._sync_pending = True
                mod_commands.append(md)
                mod_ticks.append(tick)
                mod_positions.append(self.stream_pos)
            elif op is OP_WAVEFORM or op is OP_MARKER:
                cmd = instr.engine
                action = cmd.action
                eng = wf if op is OP_WAVEFORM else markers[cmd.channel]
                if action is WF_WAIT or action is MK_WAIT:
                    eng.submit_wait(tick)
                elif action is WF_SYNC or action is MK_SYNC:
                    self._sync_pending = True
                else:
                    # PLAY, or waveform PREFETCH: wait for queue room.
                    # The queue holds the runs not started by tick, the
                    # commands queued behind a WAIT and the WAIT itself.
                    starts = eng.starts.rows
                    n_runs = len(starts)
                    head = eng.head
                    while head < n_runs and starts[head] <= tick:
                        head += 1
                    eng.head = head
                    if (n_runs - head + len(eng.pending)
                            + (eng.wait_dispatch is not None)) >= queue_depth:
                        if head == n_runs:
                            self._unfetch(pc, tick)
                            return "need_trigger"  # only a trigger helps
                        until = align_up(starts[head], CLK)
                        self.events.append(Event(
                            tick, EV_QUEUE_FULL, 0,
                            {"engine": eng.name, "until": until}))
                        self.decode_tick = tick = until
                    if eng.wait_dispatch is not None:
                        eng.pending.append((cmd, tick))
                    elif action is WF_PREFETCH:
                        eng.submit(cmd, tick)
                    else:
                        eng.play(cmd, tick)
                    if action is WF_PLAY:
                        self.stream_pos += cmd.count
            else:
                advance = self._execute(instr, tick)
                if advance is not None:
                    return advance
                continue
            self.pc = pc + 1
            self.decode_tick = tick + CLK
        return "halted"

    def _fetch(self, pc: int, tick: int) -> bool:
        """Fetch pc through the cache, or take the fetch carried over a
        stall; False on a stall, which advanced decode_tick."""
        carried = self._carried_fetch
        if carried is not None and carried[0] == pc:
            avail = carried[1]
            self._carried_fetch = None
        else:
            _, avail = self.icache.read_instruction(pc, tick)
        if avail > tick + HIT_LATENCY_TICKS:
            self.decode_tick = align_up(avail - HIT_LATENCY_TICKS, CLK)
            self._fetch_stall(tick, pc)
            self._carried_fetch = (pc, avail)
            return False
        return True

    def _unfetch(self, pc: int, tick: int) -> None:
        """Undo the decode of pc, fetched at tick, which blocked on an
        input, and carry its fetch over the return: it counts once."""
        self.decodes -= 1
        self._carried_fetch = (pc, tick + HIT_LATENCY_TICKS)

    def _decode(self, word: int) -> Instruction:
        instr = self._decoded.get(word)
        if instr is None:
            instr = self._decoded[word] = decode(word)
        return instr

    def _fetch_stall(self, since: int, pc: int) -> None:
        """Record the decode ticks lost waiting for pc, from since on."""
        self.events.append(Event(since, EV_FETCH_STALL,
                                 self.decode_tick - since, {"pc": pc}))

    def _try_sync(self) -> str | None:
        engines = self.engines
        if self.mod_waits or any(e.waiting() for e in engines):
            return "need_trigger"      # queues hold a WAIT; fence must wait
        drain = align_up(max(e.drain_tick() for e in engines), CLK)
        self.decode_tick = max(self.decode_tick, drain + CLK)
        for e in engines:
            e.restart(drain)    # the fence ends the stream
        self._sync_pending = False
        self._fences += 1
        return None

    def _redirect(self, target: int, tick: int) -> None:
        """Taken jump: flush penalty, overlap the target line fetch."""
        self.pc = target
        flushed = tick + CLK + JUMP_PENALTY_TICKS
        if target >= self.n_instrs:
            # jump one past the end: the program completes there
            self._carried_fetch = None
            self.decode_tick = flushed
            return
        _, avail = self.icache.read_instruction(target, tick)
        self._carried_fetch = (target, avail)
        self.decode_tick = max(flushed,
                               align_up(avail - HIT_LATENCY_TICKS, CLK))
        if self.decode_tick > flushed:
            self._fetch_stall(flushed, target)

    def _execute(self, instr: Instruction, tick: int) -> str | None:
        """Control flow and the opcodes the decode loop does not inline."""
        op = instr.op
        next_tick = tick + CLK

        if op is OP_CALL or op is OP_GOTO:
            if not instr.conditional or self.cmp_result:
                if op is OP_CALL:
                    if len(self.stack) >= STACK_DEPTH:
                        return self._trap(tick, "call stack overflow")
                    self.stack.append((self.pc + 1, self.repeat_register))
                self._redirect(instr.addr, tick)
                return None
        elif op is OP_RETURN:
            if not self.stack:
                return self._trap(tick, "RETURN with empty call stack")
            target, repeat = self.stack.pop()
            if len(self.stack) < self._lap_depth:
                self._lap_depth = -1    # left the lap's frame
            self.repeat_register = repeat
            self._redirect(target, tick)
            return None
        elif op is OP_REPEAT:
            if self.repeat_register:
                self.repeat_register -= 1
                at = self.pc
                self._redirect(instr.addr, tick)
                self._skip_laps(at)
                return None
        elif op is OP_PREFETCH:
            self.icache.prefetch_line(instr.addr, tick)
        elif op is OP_LOAD_REPEAT:
            if len(self.stack) <= self._lap_depth:
                self._lap_depth = -1
            self.repeat_register = instr.value
        elif op is OP_CMP:
            self.cmp_result = _compare(instr.cmp_op, self.cmp_register,
                                       instr.mask)
        elif op is OP_WAIT:
            for eng in self.engines:
                eng.submit_wait(tick)
            self.modeng.submit(_MOD_WAIT_CMD, tick, self.stream_pos)
            self.mod_waits += 1
        elif op is OP_SYNC:
            self._sync_pending = True
        elif op is OP_LOAD_CMP:
            if not self.steering:
                self._unfetch(self.pc, tick)
                return "need_steering"
            word, avail = self.steering.pop(0)
            edge = max(tick, align_up(avail, CLK))
            self.cmp_register = word
            self.decode_tick = edge + CLK
            self.pc += 1
            return None

        self.pc += 1
        self.decode_tick = next_tick
        return None

    def _trap(self, tick: int, reason: str) -> str | None:
        self.events.append(Event(tick, EV_TRAP, 0, {"reason": reason}))
        self.trap_reason = reason
        self.halted = True
        return None

    # -- lap fast-forward ----------------------------------------------------

    def _skip_laps(self, at: int) -> None:
        """At a taken REPEAT at pc at, append laps still to run as copies
        of earlier ones if the state repeats (module docstring)."""
        t0 = self.decode_tick
        depth = len(self.stack)
        if self._lap_depth != depth or self._lap_at != at:
            self._laps.clear()   # another loop, or the lap was not pure
            self._lap_at = at
        self._lap_depth = depth
        engines = self.engines
        if (self.mod_waits or self.steering
                or any(e.wait_dispatch is not None for e in engines)):
            self._laps.clear()   # an input could change the next lap
            return
        frontier = self.wf.frontier
        lap = _Lap(t0, None if frontier is None else frontier - t0,
                   self._lap_marks())
        laps = self._laps
        # cheap pre-check: a lap whose waveform lead against the decode
        # tick no recorded lap shares repeats none, so no key is built
        if any(old.lead == lap.lead for old in laps):
            lap.state = self._state_key(t0)
            lap.engine_keys = [e.lap_key(t0) for e in engines]
            for k in range(1, len(laps) + 1):
                old = laps[-k]
                if (old.engine_keys == lap.engine_keys
                        and old.state == lap.state):
                    if self._repeat_laps(old, lap, k):
                        laps.clear()
                        return
                    break
        if laps and _steady(laps[-1].marks, lap.marks):
            if lap.state is None:
                lap.state = self._state_key(t0)
            if (len(laps) > 1 and laps[-1].state is not None
                    and laps[-1].state[0] == lap.state[0]
                    and self._repeat_affine(laps[-2], laps[-1], lap)):
                laps.clear()
                return
        laps.append(lap)

    def _state_key(self, t0: int) -> tuple[tuple, tuple]:
        """The state outside the engines the laps ahead read: its shape,
        and its ticks relative to t0, a stale one as 0 (the bus, the
        window lines in line order, the associative lines in victim
        order, a carried fetch, the waveform pages)."""
        icache, wavecache = self.icache, self.wavecache
        carried = self._carried_fetch
        window = sorted(icache.window.items())
        ticks = [self.sdram.busy_until, *(t for _, t in window),
                 *icache.assoc.values()]
        shape = [self.pc, tuple(self.stack), self.cmp_register,
                 self.cmp_result, icache.base_line, icache.resident,
                 tuple(line for line, _ in window), tuple(icache.assoc),
                 None if carried is None else carried[0]]
        if carried is not None:
            ticks.append(carried[1])
        if wavecache.pingpong:
            shape += [wavecache.active_slot,
                      tuple(page for page, _ in wavecache.slots)]
            ticks += [t for _, t in wavecache.slots]
        return tuple(shape), tuple(max(t - t0, 0) for t in ticks)

    def _restore(self, state: tuple[tuple, tuple], t0: int) -> None:
        """Set the state _state_key read to state, relative to the decode
        tick t0."""
        icache, wavecache = self.icache, self.wavecache
        shape, ticks = state
        self.pc, stack, self.cmp_register, self.cmp_result = shape[:4]
        self.stack = list(stack)
        icache.base_line, icache.resident, window, assoc, carried = \
            shape[4:9]
        # the ticks in _state_key's order; each zip takes as many as its
        # lines
        at = iter([t0 + t for t in ticks])
        self.sdram.busy_until = next(at)
        icache.window = dict(zip(window, at))
        icache.assoc = dict(zip(assoc, at))
        self._carried_fetch = None if carried is None else (carried, next(at))
        if wavecache.pingpong:
            wavecache.active_slot = shape[9]
            wavecache.slots = list(zip(shape[10], at))
        self.decode_tick = t0

    def _lap_marks(self) -> _Marks:
        # row counts: no lap spans a copy, so rows index what laps add
        return _Marks(self.decodes, self.icache.hits, self.icache.misses,
                      self.stream_pos, self._fences,
                      tuple([len(column.rows) for column in self._columns]))

    def _repeat_laps(self, old: _Lap, now: _Lap, k: int) -> bool:
        """Append the laps still to run as blocks of copies of the last
        k, from old to now, each moved on by the period from old to now
        from the one before; then the r < k laps left as the first r of
        them moved on once more.  False if not one lap can be."""
        period = now.t0 - old.t0
        if period % CLK:
            return False
        marks, laps = old.marks, self._laps
        per_block = now.marks.decodes - marks.decodes
        budget = self.cfg.max_decodes - self.decodes
        blocks = min(self.repeat_register // k, budget // per_block)
        budget -= blocks * per_block
        # the laps left, as many of the block's first laps as end at a
        # recorded state and fit the budget
        left = min(self.repeat_register - blocks * k, k - 1)
        r = next((r for r in range(left, 0, -1)
                  if laps[r - k].engine_keys is not None
                  and laps[r - k].marks.decodes - marks.decodes <= budget), 0)
        if not blocks and not r:
            return False
        played = now.marks.stream_pos - marks.stream_pos
        if blocks:
            self._copy_laps(marks, now.marks, k, blocks,
                            self._steps(period, played))
        end, copies = now, blocks
        if r:
            # a lap inside the block may differ from now in more than its
            # ticks (a comparison result that alternates lap by lap), so
            # the whole state is set to end's
            end, copies = laps[r - k], blocks + 1
            self._copy_laps(marks, end.marks, r, 1,
                            self._steps(copies * period, copies * played))
        self._restore(end.state, end.t0 + copies * period)
        for e, key in zip(self.engines, end.engine_keys):
            e.restore(key, self.decode_tick)
        return True

    def _repeat_affine(self, a: _Lap, b: _Lap, now: _Lap) -> bool:
        """Append copies of the lap from b to now, which moved every field
        of the lap from a to b on by its own period, until one of its
        start rules or queue room checks would decide otherwise (module
        docstring).  False if the laps differ in more, or not one lap
        can be copied."""
        period = now.t0 - b.t0
        ma, mb, mc = a.marks, b.marks, now.marks
        # every counter grew alike; the columns are compared below
        if (b.t0 - a.t0 != period or not _steady(ma, mb)
                or any(z - y != y - x for x, y, z in zip(ma[:-1], mb[:-1],
                                                         mc[:-1]))):
            return False
        engines = self.engines
        moves = [e.starts.rows[y] - e.starts.rows[x] if z > y else 0
                 for e, x, y, z in zip(engines, ma.rows, mb.rows, mc.rows)]
        # an underrun moves with the waveform stream, a fetch stall with
        # the decode tick; a lap with any other event of the sequencer's
        # is not copied
        rates = {EV_UNDERRUN: moves[0], EV_FETCH_STALL: period}
        events = [rates.get(e.kind) for e in self.events.rows[
            ma.rows[_SEQ_LOG]:mb.rows[_SEQ_LOG]]]
        if None in events:
            return False
        steps = self._steps(period, mc.stream_pos - mb.stream_pos, moves,
                            events)
        if not all(column.moved(x, y, z, step) for column, x, y, z, step
                   in zip(self._columns, ma.rows, mb.rows, mc.rows, steps)):
            return False
        laps = min(self.repeat_register, (self.cfg.max_decodes
                                          - self.decodes) // (mc.decodes
                                                              - mb.decodes))
        # a tick outside the engines moved on with the decode tick, or it
        # stayed put ahead of it: no lap reads such a tick, since a fetch
        # that did would stall by a different amount each lap
        ticks = now.state[1]
        if any(t != was and t != was - period
               for was, t in zip(b.state[1], ticks)):
            return False
        depth = self.cfg.queue_depth
        for e, first, move in zip(engines, mb.rows, moves):
            laps = e.affine_laps(first, period, move, depth, laps)
        if laps <= 0:
            return False
        self._copy_laps(mb, mc, 1, laps, steps)
        moved = laps * period
        self._restore((now.state[0], tuple(
            t if t == was else t - moved
            for was, t in zip(b.state[1], ticks))), now.t0 + moved)
        for e, move in zip(engines, moves):
            e.move(laps * move, self.decode_tick)
        return True

    def _steps(self, period: int, samples: int,
               moves: list[int] | None = None, events=None) -> list:
        """The step of one copy of each column in _columns: each engine's
        run starts move by its move in moves, the sequencer's events by
        events (an int or one per event), both by default the period,
        modulator positions by samples, dispatch ticks and cache events
        by the period, and the other columns not at all."""
        steps = [period] * len(self.engines) if moves is None else moves[:]
        for e in self.engines:
            steps += (period,) + (0,) * (len(e.columns) - 1)
        steps += (0, period, samples, period if events is None else events,
                  period, period)
        return steps

    def _copy_laps(self, old: _Marks, end: _Marks, laps: int, count: int,
                   steps: list) -> None:
        """Append what the laps between marks old and end (laps of them)
        added to each column count times, copy c moved on by c times the
        column's step in steps (``_steps``).  Count the copies' decodes,
        hits, misses, samples and laps."""
        depth = self.cfg.queue_depth
        kept = self._run_columns
        for i, (column, lo, hi, step) in enumerate(zip(
                self._columns, old.rows, end.rows, steps)):
            column.repeat(lo, hi, step, count, depth if i < kept else 0)
        icache = self.icache
        played = end.stream_pos - old.stream_pos
        self.decodes += count * (end.decodes - old.decodes)
        icache.hits += count * (end.hits - old.hits)
        icache.misses += count * (end.misses - old.misses)
        self.stream_pos += count * played
        self.repeat_register -= count * laps
        self.laps_copied += count * laps

    # -- convenience open-loop driver ---------------------------------------

    def run_simple(self, triggers=(), steering=()) -> OutputTrace:
        """Run with prescheduled external inputs; returns the final trace."""
        triggers = list(triggers)
        steering = list(steering)
        while True:
            reason = self.run_until_blocked()
            if reason == "halted":
                break
            if reason == "need_trigger":
                if not triggers:
                    raise DeadlockError("blocked on trigger, none scheduled")
                self.deliver_trigger(triggers.pop(0))
            elif reason == "need_steering":
                if not steering:
                    raise DeadlockError("blocked on steering, none scheduled")
                word, tick = steering.pop(0)
                self.deliver_steering(word, tick)
        return self.finalize()

    # -- trace assembly ------------------------------------------------------

    def cache_stall_events(self) -> list[Event]:
        """Fetch and page-swap stalls so far, copied laps' expanded from
        the logs, for bench/run.py; use OutputTrace.stall_events."""
        return stalls(self.events) + self.wavecache.stall_events()

    def finalize(self) -> OutputTrace:
        """Assemble the trace; a repeat call returns an equal trace."""
        wf = self.wf
        analog = Runs(wf.starts.array(), wf.counts.array())
        windows = self.modeng.resolve(analog.start, analog.n,
                                      self.trigger_edges)
        corrector = MixerCorrector(self.mod_cfg)
        mixed, lazy = _mix(self.image.waveforms, analog, wf.addrs.array(),
                           wf.ta.array().astype(bool), windows, corrector)
        # resolve replaces the modulator's list, so it is a snapshot too
        logs = (self.events.copy(), self.icache.events.copy(),
                self.wavecache.events.copy(), self.modeng.events)
        markers = {m.channel: m.runs() for m in self.markers if m.starts}
        return OutputTrace(analog=analog, markers=markers,
                           logs=logs, mixed=mixed, lazy=lazy,
                           saturations=corrector.saturations)


def _mix(waveforms: np.ndarray, runs: Runs, addr: np.ndarray,
         ta: np.ndarray, windows: Windows,
         corrector: MixerCorrector) -> tuple[np.ndarray, np.ndarray]:
    """Corrected samples of waveform runs, BLOCK_SAMPLES entries at a time.

    Sample i of run k reads waveforms[addr[k] + i] (addr[k] for a TA
    run).  A TA run no window touches is lazy: one entry stands for all
    its samples.  Returns the entries and the lazy flag of each run.
    """
    count = runs.n
    first = np.cumsum(count) - count            # stream position of runs
    # windows are sorted and disjoint: a run overlaps those that open
    # before it ends, less those that close before it starts
    touched = (np.searchsorted(windows.lo, first + count)
               > np.searchsorted(windows.hi, first, side="right"))
    lazy = ta & ~touched
    width = np.where(lazy, 1, count)            # entries per run
    entry = np.cumsum(width) - width            # first entry of each run
    entry_end = entry + width
    # entry p of run k reads word base[k] + step[k]*p and, expanded,
    # plays origin[k] + p sample periods after tick 0 (run starts lie on
    # the sample grid).  A lazy run has one entry, so only an expanded TA
    # run needs step 0
    step = np.where(ta & ~lazy, 0, 1)
    base = addr - step * entry
    origin = runs.start // ANALOG_SAMPLE_TICKS - entry
    held_at, held_count = entry[lazy], count[lazy]
    # a window touches expanded runs only, so it covers consecutive
    # entries, shifted from stream positions as its first run is
    k = np.searchsorted(first, windows.lo, side="right") - 1
    w_lo = windows.lo - first[k] + entry[k]
    w_hi = w_lo + (windows.hi - windows.lo)
    total = int(width.sum())
    rotation = _Rotation(windows, w_lo, w_hi, entry, origin)
    # one I/Q pair of int16 per 32-bit word
    words = np.ascontiguousarray(waveforms).view(np.uint32).reshape(-1)

    mixed = np.empty(total, dtype=np.complex128)
    for b0 in range(0, total, BLOCK_SAMPLES):
        b1 = min(b0 + BLOCK_SAMPLES, total)
        k0, k1 = (np.searchsorted(entry_end, b0, side="right"),
                  np.searchsorted(entry, b1))
        size = (np.minimum(entry_end[k0:k1], b1)
                - np.maximum(entry[k0:k1], b0))     # the runs' entries here
        index = np.arange(b0, b1)
        if not step[k0:k1].all():
            index *= np.repeat(step[k0:k1], size)
        index += np.repeat(base[k0:k1], size)
        # I/Q to [-1, 1): scaling by a power of two is exact
        z = np.multiply(words[index].view(np.int16), 1.0 / 32768.0)
        del index
        z = z.view(np.complex128)
        rotation.rotate(z, b0, b1)
        h0, h1 = np.searchsorted(held_at, (b0, b1))
        corrector.apply(
            z, (held_at[h0:h1] - b0, held_count[h0:h1]) if h1 > h0 else None,
            out=mixed[b0:b1])
    return mixed, lazy


class _Rotation:
    """Window j's entries [lo[j], hi[j]), rotated block by block (module
    docstring); entry p of run k plays origin[k] + p sample periods
    after tick 0."""

    def __init__(self, windows: Windows, lo: np.ndarray, hi: np.ndarray,
                 entry: np.ndarray, origin: np.ndarray):
        self.windows, self.lo, self.hi = windows, lo, hi
        self.entry, self.origin = entry, origin
        self.first = self.played(lo)
        self.ramp, self.ramp_at, self.period = _ramps(
            windows.inc, self.played(hi - 1) - self.first + 1)

    def played(self, p: np.ndarray) -> np.ndarray:
        """Sample periods after tick 0 of entries p, from their run."""
        return self.origin[np.searchsorted(self.entry, p, side="right")
                           - 1] + p

    def rotate(self, z: np.ndarray, b0: int, b1: int) -> None:
        """Rotate entries [b0, b1), held in z, in place."""
        j0, j1 = (np.searchsorted(self.hi, b0, side="right"),
                  np.searchsorted(self.lo, b1))
        if j1 == j0:
            return
        k0, k1 = np.searchsorted(self.entry, (b0, b1))
        cut = np.concatenate([[b0], self.entry[k0:k1], self.lo[j0:j1],
                              self.hi[j0:j1]])
        cut = cut[(cut >= b0) & (cut < b1)]
        cut.sort()          # then drop repeats: a sort beats np.unique's hash
        cut = cut[np.concatenate([[True], cut[1:] != cut[:-1]])]
        size = np.diff(cut, append=b1)
        j = np.searchsorted(self.lo, cut, side="right") - 1
        inside = (j >= 0) & (cut < self.hi[j])
        # outside windows: d = 0 and one phasor row longer than the block
        j[~inside] = 0
        d = np.where(inside, self.played(cut) - self.first[j], 0)
        row = np.where(inside, self.period[j], b1 - b0)
        # one piece per cut and phasor row m
        m, rep = _spans(d // row, (d + size - 1) // row + 1)
        j, d, inside = j[rep], d[rep], inside[rep]
        edge = m * row[rep]                 # d at the phasor row's start
        d_at = np.maximum(d, edge)
        at = cut[rep] + d_at - d
        # entry p reads ramp[p + shift]; outside windows, the last, 1
        shift = np.where(inside, self.ramp_at[j] + d_at - edge,
                         len(self.ramp) - 1) - at
        turn = np.where(inside, phasors(self.windows.words(
            j, ANALOG_SAMPLE_TICKS * (self.first[j] + edge))), 1)
        size = np.diff(at, append=b1)
        index = np.repeat(shift, size)
        index += np.arange(b0, b1)
        factor = self.ramp.take(index, mode="clip")
        del index
        factor *= np.repeat(turn, size)
        z *= factor


def _ramps(inc: np.ndarray, span: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ramp, at, period) for windows of increment words inc that span
    span sample periods, gaps included: ramp[at[j] + r] is window j's
    factor r samples on from a phasor, for r < period[j], and the last
    entry is 1.  One ramp per distinct increment, as long as its longest
    span but at most BLOCK_SAMPLES over the distinct count."""
    distinct, owner = np.unique(inc, return_inverse=True)
    longest = np.zeros(len(distinct), np.int64)
    np.maximum.at(longest, owner, span)
    length = np.minimum(longest, BLOCK_SAMPLES // max(1, len(distinct)))
    at = np.cumsum(length) - length
    n = int(length.sum())
    words = np.zeros(n + 1, np.int64)   # the last word 0 turns into 1
    words[:n] = np.arange(n) - np.repeat(at, length)
    words[:n] *= np.repeat(distinct, length)
    words &= PHASE_MASK
    # past BLOCK_SAMPLES increments a ramp is empty: r is 0, read as 1
    return (phasors(words), np.where(length > 0, at, n)[owner],
            np.maximum(length, 1)[owner])


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every integer of the ranges [lo[i], hi[i]) in order, and its i."""
    n = hi - lo
    which = np.repeat(np.arange(len(n)), n)
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n), which


def _compare(op: CmpOp, register: int, mask: int) -> bool:
    if op is CMP_EQ:
        return register == mask
    if op is CMP_NEQ:
        return register != mask
    if op is CMP_LT:
        return register < mask
    return register > mask
