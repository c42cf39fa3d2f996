"""Cycle-accurate pulse sequencer: control unit, output engines, traces.

The control unit decodes one instruction per 20-tick sequencer clock and
dispatches engine commands into per-engine queues.  The decoder runs
ahead of real output time (greedy lookahead): it keeps decoding while
engines are stalled at WAIT, stopping only for SYNC fences (all queues
must drain), LOAD_CMP with an empty steering FIFO, or a full target
queue.  Taken jumps cost a fixed pipeline flush; lookahead hides it from
the analog stream whenever the queues hold enough work.

Engine timing: a PLAY dispatched at D starts no earlier than
D + pipeline; starts are clock aligned unless they continue a contiguous
stream, and a waveform engine begins a new command at most every
2 sequencer clocks so 8-sample minimum pulses play back to back.  All
engines released by the same trigger emit their first sample on the same
tick.  Trace timestamps are at the engine output plane; the DAC chain
delay after it is not modelled.

A blocked run returns a reason ("need_trigger", "need_steering") so a
harness can feed fabric messages in and resume, which is how the closed
loop is driven.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .clocks import ANALOG_SAMPLE_TICKS, SEQ_CLOCK_TICKS, align_up
from .events import Event, EventKind, stalls
from .isa import (
    CmpOp,
    Instruction,
    MarkerAction,
    ModAction,
    Modulator,
    Opcode,
    ProgramImage,
    WfAction,
    decode,
)
from .mem import InstructionCache, MemConfig, Sdram, WaveformCache
from .mod import MixerCorrector, ModConfig, ModEngine

__all__ = [
    "EngineConfig",
    "Sequencer",
    "OutputTrace",
    "DeadlockError",
    "SimTrap",
]

CLK = SEQ_CLOCK_TICKS


@dataclass
class EngineConfig:
    queue_depth: int = 64
    stack_depth: int = 16
    lookahead: bool = True
    jump_penalty_clocks: int = 16        # taken-branch pipeline flush
    waveform_pipeline_clocks: int = 9    # dispatch to first output sample
    min_play_gap_clocks: int = 2         # new waveform every 2 clocks
    initial_cmp: int = 0                 # comparison register at start
    max_decodes: int = 20_000_000

    @property
    def jump_penalty_ticks(self) -> int:
        return self.jump_penalty_clocks * CLK

    @property
    def pipeline_ticks(self) -> int:
        return self.waveform_pipeline_clocks * CLK


class DeadlockError(RuntimeError):
    pass


class SimTrap(RuntimeError):
    """Fatal program error (stack misuse, bad page mode, runaway loop)."""


@dataclass(slots=True)
class _Run:
    start: int
    data: np.ndarray      # complex analog samples or uint8 marker levels

    @property
    def n(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.start + ANALOG_SAMPLE_TICKS * self.n


def _sample_ticks(runs: list[_Run]) -> np.ndarray:
    """Output tick of every sample of runs, in order: sample i of a run
    plays at start + ANALOG_SAMPLE_TICKS * i."""
    counts = np.array([r.n for r in runs], dtype=np.int64)
    starts = np.array([r.start for r in runs], dtype=np.int64)
    first = np.cumsum(counts) - counts       # stream index of each start
    return (np.repeat(starts - ANALOG_SAMPLE_TICKS * first, counts)
            + ANALOG_SAMPLE_TICKS * np.arange(counts.sum(), dtype=np.int64))


class _StreamEngine:
    """Shared scheduling for waveform and marker engines."""

    def __init__(self, name: str, cfg: EngineConfig, events: list[Event],
                 min_gap_ticks: int):
        self.name = name
        self.cfg = cfg
        self.events = events
        self.min_gap = min_gap_ticks
        self.runs: list[_Run] = []
        self.starts: list[int] = []      # resolved command start ticks
        self.pending: list[tuple[object, int]] = []
        self.wait_dispatch: int | None = None
        self.frontier: int | None = None
        self.last_start: int | None = None
        self.floor = 0                   # no command may start before this

    # -- queue accounting ---------------------------------------------------

    def occupancy(self, tick: int) -> int:
        queued = len(self.starts) - bisect_right(self.starts, tick)
        return queued + len(self.pending) + (1 if self.wait_dispatch is not None else 0)

    def accept_tick(self, tick: int) -> int | None:
        """Earliest tick with queue room; None means only a trigger helps."""
        if self.occupancy(tick) < self.cfg.queue_depth:
            return tick
        idx = bisect_right(self.starts, tick)
        if idx < len(self.starts):
            return self.starts[idx]
        return None

    # -- command flow -------------------------------------------------------

    def submit(self, cmd, tick: int) -> None:
        if self.wait_dispatch is not None:
            self.pending.append((cmd, tick))
        else:
            self._resolve(cmd, tick)

    def submit_wait(self, tick: int) -> None:
        if self.wait_dispatch is not None:
            self.pending.append(("wait", tick))
        else:
            self._begin_wait(tick)

    def _begin_wait(self, tick: int) -> None:
        self.wait_dispatch = tick
        if self.frontier is not None:
            # resume may not overlap samples already committed
            self.floor = max(self.floor, self.frontier)
        self.frontier = None
        self.last_start = None

    def waiting(self) -> bool:
        return self.wait_dispatch is not None

    def deliver_trigger(self, edge: int) -> bool:
        """Release the engine if it has an undelivered WAIT; edge aligned."""
        if self.wait_dispatch is None:
            return False
        self.wait_dispatch = None
        self.floor = max(self.floor, edge)
        pending, self.pending = self.pending, []
        for cmd, tick in pending:
            if cmd == "wait":
                if self.wait_dispatch is None:
                    self._begin_wait(max(tick, edge))
                else:
                    self.pending.append((cmd, tick))
            elif self.wait_dispatch is None:
                self._resolve(cmd, max(tick, edge))
            else:
                self.pending.append((cmd, tick))
        return True

    def _start_for(self, dispatch: int, duration: int) -> int:
        earliest = max(align_up(dispatch, CLK) + self.cfg.pipeline_ticks,
                       self.floor)
        if self.last_start is not None:
            earliest = max(earliest, self.last_start + self.min_gap)
        if self.frontier is not None and earliest <= self.frontier:
            start = self.frontier
        else:
            start = align_up(earliest, CLK)
            if self.frontier is not None:
                self.events.append(Event(
                    self.frontier, EventKind.UNDERRUN, start - self.frontier,
                    {"engine": self.name}))
        self.starts.append(start)
        self.last_start = start
        self.frontier = start + duration
        return start

    def drain_tick(self) -> int:
        return self.frontier if self.frontier is not None else self.floor

    def idle(self) -> bool:
        return self.wait_dispatch is None and not self.pending

    def _resolve(self, cmd, tick: int) -> None:  # pragma: no cover
        raise NotImplementedError


class WaveformEngine(_StreamEngine):
    def __init__(self, cfg, events, cache: WaveformCache):
        super().__init__("waveform", cfg, events,
                         min_gap_ticks=cfg.min_play_gap_clocks * CLK)
        self.cache = cache
        self.deferred_fill: int | None = None

    def submit(self, cmd, tick: int) -> None:
        wf = cmd
        if wf.action is WfAction.PREFETCH and self.wait_dispatch is None \
                and self.cache.pending_fill is None:
            # fills start at dispatch so playback hides them
            self.cache.begin_prefetch(wf.addr, tick)
            self.deferred_fill = None
        super().submit(cmd, tick)

    def _resolve(self, wf, tick: int) -> None:
        if wf.action is WfAction.PLAY:
            data = self._fetch(wf)
            start = self._start_for(tick, ANALOG_SAMPLE_TICKS * wf.count)
            self.runs.append(_Run(start, data))
        elif wf.action is WfAction.PREFETCH:
            if self.cache.pending_fill is None:
                # dispatch-time start was not possible (fill already in
                # flight, or queued behind a WAIT): start it now
                self.cache.begin_prefetch(wf.addr, tick)
            at = self.drain_tick() if self.frontier is not None else max(tick, self.floor)
            swapped = self.cache.complete_swap(max(at, tick))
            self.floor = max(self.floor, align_up(swapped, CLK))
            self.frontier = None
            self.last_start = None
        # engine-level SYNC is handled as a dispatcher fence

    def _fetch(self, wf) -> np.ndarray:
        if wf.ta:
            raw = self.cache.read(wf.addr, 1, 0)
            value = complex(raw[0, 0], raw[0, 1]) / 32768.0
            return np.full(wf.count, value, dtype=np.complex128)
        raw = self.cache.read(wf.addr, wf.count, 0)
        return (raw[:, 0].astype(np.float64)
                + 1j * raw[:, 1].astype(np.float64)) / 32768.0


class MarkerEngine(_StreamEngine):
    def __init__(self, channel: int, cfg, events):
        super().__init__(f"marker{channel}", cfg, events, min_gap_ticks=CLK)
        self.channel = channel

    def _resolve(self, mk, tick: int) -> None:
        if mk.action is not MarkerAction.PLAY:
            return
        levels = np.full(4 * mk.count, mk.state, dtype=np.uint8)
        for bit in range(4):
            levels[4 * (mk.count - 1) + bit] = (mk.last_word >> (3 - bit)) & 1
        start = self._start_for(tick, ANALOG_SAMPLE_TICKS * len(levels))
        self.runs.append(_Run(start, levels))


@dataclass
class OutputTrace:
    analog: list[_Run]
    markers: dict[int, list[_Run]]
    events: list[Event]
    saturations: int = 0

    def analog_values(self) -> np.ndarray:
        if not self.analog:
            return np.zeros(0, dtype=np.complex128)
        return np.concatenate([r.data for r in self.analog])

    def analog_ticks(self) -> np.ndarray:
        return _sample_ticks(self.analog)

    def marker_levels(self, channel: int) -> tuple[np.ndarray, np.ndarray]:
        runs = self.markers.get(channel, [])
        if not runs:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.uint8)
        return _sample_ticks(runs), np.concatenate([r.data for r in runs])

    def marker_edges(self, channel: int) -> list[tuple[int, int]]:
        """Level transitions (tick, new_level), idle level 0."""
        ticks, levels = self.marker_levels(channel)
        edges = []
        level = 0
        for i in range(len(ticks)):
            if levels[i] != level:
                level = int(levels[i])
                edges.append((int(ticks[i]), level))
            # close a run back to idle if a gap or the end follows
            is_last = i + 1 == len(ticks)
            gap_next = (not is_last
                        and ticks[i + 1] != ticks[i] + ANALOG_SAMPLE_TICKS)
            if (is_last or gap_next) and level != 0:
                edges.append((int(ticks[i]) + ANALOG_SAMPLE_TICKS, 0))
                level = 0
        return edges

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
        mod_cfg = mod_cfg or ModConfig()
        if mod_cfg.pipeline_ticks == 0:
            mod_cfg = replace(mod_cfg, pipeline_ticks=self.cfg.pipeline_ticks)
        self.mod_cfg = mod_cfg
        self.n_instrs = len(image.words)
        self._decoded: dict[int, Instruction] = {}   # on first fetch
        self.reset()

    def reset(self) -> None:
        """Fresh run state; the decoded program and config are reused."""
        cfg = self.cfg
        self.sdram = Sdram(self.mem_cfg)
        self.icache = InstructionCache(self.mem_cfg, self.image.words,
                                       self.sdram)
        self.wavecache = WaveformCache(self.mem_cfg, self.image.waveforms,
                                       self.sdram)
        self.events: list[Event] = []
        self.wf = WaveformEngine(cfg, self.events, self.wavecache)
        self.markers = [MarkerEngine(ch, cfg, self.events) for ch in range(4)]
        self.modeng = ModEngine(self.mod_cfg)
        self.mod_waits = 0
        self.stream_pos = 0      # waveform samples dispatched so far
        self.trigger_edges: list[int] = []
        self.pc = 0
        self.decode_tick = 0
        self.repeat_register = 0
        self.stack: list[tuple[int, int]] = []
        self.cmp_register = cfg.initial_cmp
        self.cmp_result = False
        self.steering: list[tuple[int, int]] = []   # (word, available tick)
        self.halted = False
        self.trap_reason: str | None = None
        self.decodes = 0
        self._carried_fetch: tuple[int, int, int] | None = None
        self._sync_pending = False

    # -- external deliveries ------------------------------------------------

    def deliver_trigger(self, tick: int) -> None:
        edge = align_up(tick, CLK)
        consumed = False
        for eng in (self.wf, *self.markers):
            consumed |= eng.deliver_trigger(edge)
        if self.mod_waits > 0:
            self.mod_waits -= 1
            consumed = True
        if consumed:
            self.trigger_edges.append(edge)
        else:
            self.events.append(Event(tick, EventKind.TRIGGER_DROPPED,
                                     detail={"edge": edge}))

    def deliver_steering(self, word: int, tick: int) -> None:
        self.steering.append((word, tick))

    # -- the decode loop ----------------------------------------------------

    def run_until_blocked(self) -> str:
        """Advance until halted or blocked on an external input."""
        cfg = self.cfg
        while not self.halted:
            if self.decodes >= cfg.max_decodes:
                raise SimTrap("decode budget exhausted (runaway program?)")
            if self._sync_pending:
                reason = self._try_sync()
                if reason:
                    return reason
            if self.pc >= self.n_instrs:
                if any(e.waiting() for e in (self.wf, *self.markers)):
                    return "need_trigger"   # queues still hold a WAIT
                self.halted = True
                break
            if not cfg.lookahead:
                blocked = self._no_lookahead_fence()
                if blocked:
                    return blocked
            tick = self.decode_tick
            instr = self._fetch(tick)
            if instr is None:
                continue               # fetch stall advanced decode_tick
            self.decodes += 1
            advance = self._execute(instr, self.decode_tick)
            if advance == "need_steering":
                return advance
            if advance == "blocked_queue":
                return "need_trigger"
        return "halted"

    def _fetch(self, tick: int):
        carried = self._carried_fetch
        if carried is not None and carried[0] == self.pc:
            word, avail = carried[1], carried[2]
            self._carried_fetch = None
        else:
            word, avail = self.icache.read_instruction(self.pc, tick)
        hit = self.mem_cfg.hit_latency_ticks
        if avail > tick + hit:
            self.decode_tick = align_up(avail - hit, CLK)
            self._fetch_stall(tick, self.pc)
            self._carried_fetch = (self.pc, word, avail)
            return None
        instr = self._decoded.get(self.pc)
        if instr is None:
            instr = self._decoded[self.pc] = decode(self.image.words[self.pc])
        return instr

    def _fetch_stall(self, since: int, pc: int) -> None:
        """Record the decode ticks lost waiting for pc, from since on."""
        self.events.append(Event(since, EventKind.FETCH_STALL,
                                 self.decode_tick - since, {"pc": pc}))

    def _no_lookahead_fence(self) -> str | None:
        if any(e.waiting() for e in (self.wf, *self.markers)):
            return "need_trigger"
        drain = max(e.drain_tick() for e in (self.wf, *self.markers))
        self.decode_tick = max(self.decode_tick, align_up(drain, CLK))
        return None

    def _try_sync(self) -> str | None:
        engines = (self.wf, *self.markers)
        if any(not e.idle() for e in engines) or self.mod_waits > 0:
            return "need_trigger"      # queues hold a WAIT; fence must wait
        drain = align_up(max(e.drain_tick() for e in engines), CLK)
        self.decode_tick = max(self.decode_tick, drain + CLK)
        for e in engines:
            # the fence ends the stream: what follows starts fresh
            e.frontier = None
            e.last_start = None
            e.floor = max(e.floor, drain)
        self._sync_pending = False
        return None

    def _redirect(self, target: int, tick: int) -> None:
        """Taken jump: flush penalty, overlap the target line fetch."""
        self.pc = target
        if target >= self.n_instrs:
            # jump one past the end: the program completes there
            self._carried_fetch = None
            self.decode_tick = tick + CLK + self.cfg.jump_penalty_ticks
            return
        word, avail = self.icache.read_instruction(target, tick)
        self._carried_fetch = (target, word, avail)
        hit = self.mem_cfg.hit_latency_ticks
        flushed = tick + CLK + self.cfg.jump_penalty_ticks
        self.decode_tick = max(flushed, align_up(avail - hit, CLK))
        if self.decode_tick > flushed:
            self._fetch_stall(flushed, target)

    def _dispatch(self, engine: _StreamEngine, cmd, tick: int) -> str | None:
        free = engine.accept_tick(tick)
        if free is None:
            return "blocked_queue"
        if free > tick:
            self.decode_tick = align_up(free, CLK)
            self.events.append(Event(
                tick, EventKind.QUEUE_FULL,
                detail={"engine": engine.name, "until": self.decode_tick}))
        engine.submit(cmd, self.decode_tick)
        return None

    def _execute(self, instr: Instruction, tick: int) -> str | None:
        op = instr.op
        next_tick = tick + CLK

        if op is Opcode.WAVEFORM:
            wf = instr.engine
            if wf.action is WfAction.WAIT:
                self.wf.submit_wait(tick)
            elif wf.action is WfAction.SYNC:
                self._sync_pending = True
            else:
                blocked = self._dispatch(self.wf, wf, tick)
                if blocked:
                    return blocked
                if wf.action is WfAction.PLAY:
                    self.stream_pos += wf.count
                next_tick = self.decode_tick + CLK
        elif op is Opcode.MARKER:
            mk = instr.engine
            eng = self.markers[mk.channel]
            if mk.action is MarkerAction.WAIT:
                eng.submit_wait(tick)
            elif mk.action is MarkerAction.SYNC:
                self._sync_pending = True
            else:
                blocked = self._dispatch(eng, mk, tick)
                if blocked:
                    return blocked
                next_tick = self.decode_tick + CLK
        elif op is Opcode.MODULATOR:
            md = instr.engine
            if md.action is ModAction.WAIT:
                self.mod_waits += 1
            elif md.action is ModAction.SYNC:
                self._sync_pending = True
            self.modeng.submit(md, tick, self.stream_pos)
        elif op is Opcode.WAIT:
            self.wf.submit_wait(tick)
            for eng in self.markers:
                eng.submit_wait(tick)
            self.modeng.submit(Modulator(ModAction.WAIT), tick,
                               self.stream_pos)
            self.mod_waits += 1
        elif op is Opcode.SYNC:
            self._sync_pending = True
        elif op is Opcode.LOAD_REPEAT:
            self.repeat_register = instr.value
        elif op is Opcode.REPEAT:
            if self.repeat_register:
                self.repeat_register -= 1
                self._redirect(instr.addr, tick)
                return None
        elif op is Opcode.LOAD_CMP:
            if not self.steering:
                return "need_steering"
            word, avail = self.steering.pop(0)
            edge = max(tick, align_up(avail, CLK))
            self.cmp_register = word
            self.decode_tick = edge + CLK
            self.pc += 1
            return None
        elif op is Opcode.CMP:
            self.cmp_result = _compare(instr.cmp_op, self.cmp_register,
                                       instr.mask)
        elif op in (Opcode.GOTO, Opcode.CALL):
            taken = (not instr.conditional) or self.cmp_result
            if taken:
                if op is Opcode.CALL:
                    if len(self.stack) >= self.cfg.stack_depth:
                        return self._trap(tick, "call stack overflow")
                    self.stack.append((self.pc + 1, self.repeat_register))
                self._redirect(instr.addr, tick)
                return None
        elif op is Opcode.RETURN:
            if not self.stack:
                return self._trap(tick, "RETURN with empty call stack")
            target, repeat = self.stack.pop()
            self.repeat_register = repeat
            self._redirect(target, tick)
            return None
        elif op is Opcode.PREFETCH:
            self.icache.prefetch_line(instr.addr, tick)

        self.pc += 1
        self.decode_tick = next_tick
        return None

    def _trap(self, tick: int, reason: str) -> str | None:
        self.events.append(Event(tick, EventKind.TRAP,
                                 detail={"reason": reason}))
        self.trap_reason = reason
        self.halted = True
        return None

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
        """Stalls so far, for bench/run.py; use OutputTrace.stall_events."""
        return stalls(self.events) + self.wavecache.stall_events()

    def finalize(self) -> OutputTrace:
        """Assemble the trace; a repeat call returns an equal trace."""
        corrector = MixerCorrector(self.mod_cfg)
        runs = self.wf.runs
        if self.modeng.pending_commands():
            [factors] = self.modeng.resolve([_sample_ticks(runs)],
                                            self.trigger_edges)
            first = np.cumsum([0] + [r.n for r in runs])
            analog = [_Run(r.start, corrector.apply(r.data * factors[a:b]))
                      for r, a, b in zip(runs, first, first[1:])]
        else:
            analog = [_Run(r.start, corrector.apply(r.data)) for r in runs]
        events = (self.events + self.icache.events + self.wavecache.events
                  + self.modeng.events)
        markers = {m.channel: m.runs for m in self.markers if m.runs}
        return OutputTrace(analog=analog, markers=markers,
                           events=sorted(events, key=lambda e: e.tick),
                           saturations=corrector.saturations)


def _compare(op: CmpOp, register: int, mask: int) -> bool:
    if op is CmpOp.EQ:
        return register == mask
    if op is CmpOp.NEQ:
        return register != mask
    if op is CmpOp.LT:
        return register < mask
    return register > mask
