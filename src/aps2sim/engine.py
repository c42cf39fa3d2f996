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
loop is driven.

Output path: the decode loop builds no sample.  Each engine appends
plain integers per run: the waveform engine the start tick, absolute
waveform address (the active ping-pong page base included), sample
count and TA flag; a marker engine the start tick, count, state and
last word.  ``finalize`` resolves the modulator's windows over those
columns, then walks the stream in blocks of ``BLOCK_SAMPLES``, so its
working memory is bounded by the block size.  Per block it gathers
one 32-bit word per sample from a word view of the image's waveform
memory (each word an int16 I/Q pair), converts the pairs to float and
scales them in place, and views them as complex samples.  It rotates
the samples inside windows in place and makes one mixer call, which
reads the complex samples as (I, Q) rows, adds the DC offset as one
complex number and returns a complex view of its product.  A TA run
outside every window stays lazy: one mixed value, expanded only by
``OutputTrace.analog_values``; the mixer counts its saturations once
per sample it stands for, at the cost of the lazy entries alone.

Rotation ramps: the entry of window j that plays d sample periods after
the window's first (gaps count) rotates by the direct exp of its exact
phase word start_j + inc_j·d, mod 2^48.  With d = m·L + r that is
phasor(start_j + inc_j·m·L) times ramp(inc_j)[r].  ``_ramps`` builds one
ramp per distinct increment once, each as long as its longest window but
all in ``BLOCK_SAMPLES`` entries (1 MiB).  Per block ``_Rotation.rotate``
cuts the entries where the phasor changes (run starts, window edges,
multiples of L), so its pieces never outgrow a block, and takes one
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
underrun event records it.  A lap records its waveform lead (frontier
less t0) first; the full state is built only when the lead equals a
recorded one, so a loop whose lead drifts pays one lookup a lap.  If
the state k laps back matches, every tick moved by the same period P, a
multiple of the sequencer clock, and the rest is equal (pc, call stack,
comparison register and result, window base and lines, associative
lines in victim order, resident range, active waveform page), then each
block of k laps still to run is the last k moved on by P, 2P and so on.
The nearest such record wins.  k exceeds 1 when the laps are paced by
something off the clock grid: a lap bound by the SDRAM bus takes B
ticks, decode runs on the 20-tick clock, so fill ticks drift B mod 20
against t0 each lap and the state repeats only after 20 / gcd(B, 20)
laps, at most ``CLK``.  The sequencer then appends m copies of the last
k laps' run columns, the start ticks as one outer add of the m shifts.
Each event log records the k laps' events once more as one chunk, the
m shifts beside them (``events.EventLog.repeat``), and
``ModEngine.repeat_lap`` appends their modulator commands m times as one
array chunk (dispatch ticks moved on by P and stream positions by the
samples per block).  So no Python object is made per copied event or
command; a copied event becomes an ``Event`` only when a log is read.
It adds m blocks to the decode, hit and miss counts and the stream
position, takes mk from the repeat register and moves every tick on by
mP; a stale tick stays stale.  m is the repeat register
divided by k, rounded down, or fewer if the decode budget runs out
first; the laps left over are decoded.  There is no skip over a lap
that wrote the repeat register itself (a LOAD_REPEAT in the loop's
frame, or a RETURN out of it), or while an input could change the next
lap: a WAIT queued in any engine or the modulator, or queued steering
words.  A SYNC fence resolves before the next instruction decodes, and
a waveform page swap begins and ends in its PREFETCH, so neither is
pending at a REPEAT.  No lap spans a return from ``run_until_blocked``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .clocks import (ANALOG_SAMPLE_TICKS, PIPELINE_TICKS, SEQ_CLOCK_TICKS,
                     align_up)
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

    def __init__(self, name: str, events: EventLog, min_gap_ticks: int):
        self.name = name
        self.events = events
        self.min_gap = min_gap_ticks
        self.starts: list[int] = []      # start tick of each run
        self.counts: list[int] = []      # count operand of each run
        self.head = 0        # first run not started by the decode tick
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
        starts = self.starts
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

    def repeat_lap(self, first: int, shifts: np.ndarray) -> None:
        """Append runs first.. again once per shift (an int64 array),
        start ticks moved by it, then move every scheduling tick on by
        the last shift."""
        lap = np.array(self.starts[first:], np.int64)
        self.starts += (shifts[:, None] + lap).ravel().tolist()
        for column in self.columns:
            column += column[first:] * len(shifts)
        self.head += len(lap) * len(shifts)
        moved = int(shifts[-1])
        if self.frontier is not None:
            self.frontier += moved
        if self.last_start is not None:
            self.last_start += moved
        self.floor += moved


class WaveformEngine(_StreamEngine):
    def __init__(self, events, cache: WaveformCache):
        super().__init__("waveform", events, min_gap_ticks=MIN_PLAY_GAP_TICKS)
        self.cache = cache
        self.addrs: list[int] = []       # absolute waveform address per run
        self.ta: list[bool] = []         # run repeats one TA sample
        self.columns = (self.counts, self.addrs, self.ta)   # besides starts

    def play(self, wf, tick: int) -> None:
        """Start a PLAY dispatched at tick; the cache checks the read."""
        count = wf.count
        addr = self.cache.locate(wf.addr, 1 if wf.ta else count)
        self._start_for(tick, ANALOG_SAMPLE_TICKS * count)
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

    def __init__(self, channel: int, events):
        super().__init__(f"marker{channel}", events, min_gap_ticks=CLK)
        self.channel = channel
        self.states: list[int] = []
        self.lasts: list[int] = []
        self.columns = (self.counts, self.states, self.lasts)

    def play(self, mk, tick: int) -> None:
        """Start a PLAY dispatched at tick."""
        self._start_for(tick, ANALOG_SAMPLE_TICKS * 4 * mk.count)
        self.counts.append(mk.count)
        self.states.append(mk.state)
        self.lasts.append(mk.last_word)

    submit = play     # a PLAY is the one marker command queued behind a WAIT

    def runs(self) -> MarkerRuns:
        return MarkerRuns(np.array(self.starts, np.int64),
                          4 * np.array(self.counts, np.int64),
                          np.array(self.states, np.int64),
                          np.array(self.lasts, np.int64))


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
        self._carried_fetch: tuple[int, int] | None = None   # (pc, avail)
        self._sync_pending = False
        # the taken REPEATs at pc _lap_at that began the laps since, the
        # last CLK of them, oldest first: each one's waveform lead, and
        # (key, decode tick, _lap_marks()) if a key was built, else None
        self._lap_leads: deque = deque(maxlen=CLK)
        self._lap_records: deque = deque(maxlen=CLK)
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
        self._forget_laps()      # an input arrived: no lap spans it
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
                    starts = eng.starts
                    n_runs = len(starts)
                    head = eng.head
                    while head < n_runs and starts[head] <= tick:
                        head += 1
                    eng.head = head
                    if (n_runs - head + len(eng.pending)
                            + (eng.wait_dispatch is not None)) >= queue_depth:
                        if head == n_runs:
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
        """At a taken REPEAT at pc at, append the laps still to run as
        copies of the last k if the state repeats (module docstring)."""
        t0 = self.decode_tick
        depth = len(self.stack)
        if self._lap_depth != depth or self._lap_at != at:
            self._forget_laps()  # another loop, or the lap was not pure
            self._lap_at = at
        self._lap_depth = depth
        frontier = self.wf.frontier
        lead = None if frontier is None else frontier - t0
        record = None
        # cheap pre-check: a lap whose waveform lead against the decode
        # tick no recorded lap shares repeats none, so no key is built
        if lead in self._lap_leads:
            if (self.mod_waits or self.steering
                    or any(e.waiting() for e in self.engines)):
                self._forget_laps()
                return
            key = self._lap_key(t0)
            records = self._lap_records
            for k in range(1, len(records) + 1):
                old = records[-k]
                if old is not None and old[0] == key:
                    if self._repeat_laps(t0 - old[1], old[2], k):
                        self._forget_laps()
                        return
                    break
            record = (key, t0, self._lap_marks())
        self._lap_leads.append(lead)
        self._lap_records.append(record)

    def _forget_laps(self) -> None:
        self._lap_leads.clear()
        self._lap_records.clear()

    def _lap_key(self, t0: int) -> list:
        """Everything the laps ahead read, ticks relative to t0."""
        icache, wavecache = self.icache, self.wavecache
        carried = self._carried_fetch
        key = [self.pc, tuple(self.stack), self.cmp_register, self.cmp_result,
               None if carried is None
               else (carried[0], max(carried[1] - t0, 0)),
               icache.base_line, icache.resident,
               {line: max(t - t0, 0) for line, t in icache.window.items()},
               [(line, max(t - t0, 0)) for line, t in icache.assoc.items()],
               max(self.sdram.busy_until - t0, 0)]
        if wavecache.pingpong:
            key += [wavecache.active_slot,
                    [(page, max(t - t0, 0)) for page, t in wavecache.slots]]
        key += [e.lap_key(t0) for e in self.engines]
        return key

    def _lap_marks(self) -> tuple:
        """Counters and list lengths a lap's additions are measured from."""
        return (self.decodes, self.icache.hits, self.icache.misses,
                self.stream_pos, len(self.events), len(self.icache.events),
                len(self.wavecache.events), self.modeng.pending_commands(),
                [len(e.starts) for e in self.engines])

    def _repeat_laps(self, period: int, marks: tuple, k: int) -> bool:
        """Append the laps after the last k, which began at marks, as
        blocks of copies of those k, each moved on by period from the
        one before; False if not one block can be."""
        decodes, hits, misses, pos, n_ev, n_icache_ev, n_wave_ev, n_mod, \
            n_runs = marks
        per_block = self.decodes - decodes
        blocks = min(self.repeat_register // k,
                     (self.cfg.max_decodes - self.decodes) // per_block)
        if period % CLK or blocks <= 0:
            return False
        shifts = np.arange(period, (blocks + 1) * period, period)
        moved = blocks * period
        for e, first in zip(self.engines, n_runs):
            e.repeat_lap(first, shifts)
        icache, wavecache = self.icache, self.wavecache
        self.events.repeat(n_ev, shifts)
        icache.events.repeat(n_icache_ev, shifts)
        wavecache.events.repeat(n_wave_ev, shifts)
        samples = self.stream_pos - pos
        self.modeng.repeat_lap(n_mod, shifts, samples)
        self.decodes += blocks * per_block
        icache.hits += blocks * (icache.hits - hits)
        icache.misses += blocks * (icache.misses - misses)
        self.stream_pos += blocks * samples
        self.repeat_register -= blocks * k
        self.decode_tick += moved
        if self._carried_fetch is not None:
            pc, avail = self._carried_fetch
            self._carried_fetch = (pc, avail + moved)
        icache.window = {line: t + moved for line, t in icache.window.items()}
        icache.assoc = {line: t + moved for line, t in icache.assoc.items()}
        self.sdram.busy_until += moved
        if wavecache.pingpong:
            wavecache.slots = [(page, t + moved) for page, t in wavecache.slots]
        return True

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
        analog = Runs(np.array(wf.starts, np.int64),
                      np.array(wf.counts, np.int64))
        windows = self.modeng.resolve(analog.start, analog.n,
                                      self.trigger_edges)
        corrector = MixerCorrector(self.mod_cfg)
        mixed, lazy = _mix(self.image.waveforms, analog,
                           np.array(wf.addrs, np.int64),
                           np.array(wf.ta, dtype=bool), windows, corrector)
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
    step = np.where(ta, 0, 1)
    # entry p of run k reads word base[k] + step[k]*p and, expanded,
    # plays origin[k] + p sample periods after tick 0 (run starts lie on
    # the sample grid)
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
        pos, run = _spans(np.maximum(entry[k0:k1], b0),
                          np.minimum(entry_end[k0:k1], b1))
        run += k0
        # I/Q to [-1, 1): scaling by a power of two is exact
        z = words[base[run] + step[run] * pos].view(np.int16) \
            .astype(np.float64)
        z *= 1.0 / 32768.0
        z = z.view(np.complex128)
        rotation.rotate(z, b0, b1)
        h0, h1 = np.searchsorted(held_at, (b0, b1))
        mixed[b0:b1] = corrector.apply(
            z, (held_at[h0:h1] - b0, held_count[h0:h1]) if h1 > h0 else None)
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
        cut = np.unique(np.concatenate([[b0], self.entry[k0:k1],
                                        self.lo[j0:j1], self.hi[j0:j1]]))
        cut = cut[(cut >= b0) & (cut < b1)]
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
