"""Cycle-accurate pulse sequencer: control unit and output engines.

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
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .laps import LapRecorder
from .mem import (HIT_LATENCY_TICKS, InstructionCache, MemConfig, Sdram,
                  WaveformCache)
from .mod import MixerCorrector, ModConfig, ModEngine
from .trace import MarkerRuns, OutputTrace, Runs, _mix

__all__ = [
    "STACK_DEPTH",
    "JUMP_PENALTY_TICKS",
    "MIN_PLAY_GAP_TICKS",
    "EngineConfig",
    "Sequencer",
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
    """Runaway program: the decode budget ran out (stack misuse halts
    with a ``trap`` event; a bad page mode raises ``mem.CacheError``)."""


_MOD_WAIT_CMD = Modulator(MOD_WAIT)   # the modulator's share of a WAIT


class _StreamEngine:
    """Shared scheduling for waveform and marker engines."""

    gaps_are_underruns = True     # a gap is lost output, logged in events
    count_ticks = ANALOG_SAMPLE_TICKS     # a run's ticks per count

    def __init__(self, name: str, min_gap_ticks: int):
        self.name = name
        self.min_gap = min_gap_ticks
        self.starts = Column()           # start tick of each run
        self.counts = Column()           # count operand of each run
        self.dispatches = Column()       # dispatch tick of each run
        self.columns = (self.starts, self.dispatches, self.counts)
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


class WaveformEngine(_StreamEngine):
    def __init__(self, cache: WaveformCache):
        super().__init__("waveform", min_gap_ticks=MIN_PLAY_GAP_TICKS)
        self.events = EventLog()         # its underruns
        self.cache = cache
        self.addrs = Column()            # absolute waveform address per run
        self.ta = Column()               # run repeats one TA sample
        self.columns += (self.addrs, self.ta)    # every column of a run

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

    def __init__(self, channel: int):
        super().__init__(f"marker{channel}", min_gap_ticks=CLK)
        self.channel = channel
        self.states = Column()
        self.lasts = Column()
        self.columns += (self.states, self.lasts)

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
        self.events = EventLog()  # fetch stalls, queue_full, drops, traps
        self.wf = WaveformEngine(self.wavecache)
        self.markers = [MarkerEngine(ch) for ch in range(4)]
        self.engines = (self.wf, *self.markers)
        self.modeng = ModEngine()
        self.laps = LapRecorder(self)
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
        self.laps.clear()        # an input arrived: no lap spans it
        while not self.halted:
            if self.decodes >= max_decodes:
                raise SimTrap(f"decode budget {max_decodes} ran out at pc "
                              f"{self.pc}, decode tick {self.decode_tick}")
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
            if len(self.stack) < self.laps.lap_depth:
                self.laps.lap_depth = -1    # left the lap's frame
            self.repeat_register = repeat
            self._redirect(target, tick)
            return None
        elif op is OP_REPEAT:
            if self.repeat_register:
                self.repeat_register -= 1
                at = self.pc
                self._redirect(instr.addr, tick)
                self.laps.skip_laps(at)
                return None
        elif op is OP_PREFETCH:
            self.icache.prefetch_line(instr.addr, tick)
        elif op is OP_LOAD_REPEAT:
            if len(self.stack) <= self.laps.lap_depth:
                self.laps.lap_depth = -1
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
        mixed, entry, lazy = _mix(
            self.image.waveforms, analog, wf.addrs.array(),
            wf.ta.array().astype(bool), windows, corrector)
        # resolve replaces the modulator's list, so it is a snapshot too
        logs = (wf.events.copy(), self.events.copy(),
                self.icache.events.copy(), self.wavecache.events.copy(),
                self.modeng.events)
        markers = {m.channel: m.runs() for m in self.markers if m.starts}
        return OutputTrace(analog=analog, markers=markers,
                           logs=logs, mixed=mixed, entry=entry, lazy=lazy,
                           saturations=corrector.saturations)



def _compare(op: CmpOp, register: int, mask: int) -> bool:
    if op is CMP_EQ:
        return register == mask
    if op is CMP_NEQ:
        return register != mask
    if op is CMP_LT:
        return register < mask
    return register > mask
