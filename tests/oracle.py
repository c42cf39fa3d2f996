"""Reference interpreter and random program generator for cross-checks.

The interpreter walks instructions one at a time in program order and
collects the ordered sample values each output engine would emit.  It has
no pipeline, queue, clock, or cache model, and shares nothing with the
simulator beyond the instruction encoding, so agreement between the two
routes checks engine semantics rather than restating them.

``reference_resolve`` is the modulator's command loop in the same
style: it applies a ``ModEngine``'s commands one at a time, in stream
order, to an NCO bank of Python ints, each phase a 48-bit word summed
mod 2^48.  ``ModEngine.resolve`` computes the same windows and events
in array passes, and must match it byte for byte.

Generated programs stay inside the value-comparable subset:

* phase increments stay zero.  A nonzero increment makes sample values
  depend on playback timing, which the interpreter deliberately cannot
  see.  Timing-dependent phase is covered by dedicated engine tests,
  among them one that rebuilds every modulated sample from its output
  tick and ``reference_resolve``'s words, over programs made with
  ``random_program(..., increments=True)``.
* no WAIT and no LOAD_CMP, so control flow needs no external events.
* SYNC fences only with ``random_program(..., syncs=True)``, one in
  each loop body: a fence moves output in time, never a value.
* every MODULATE window is emitted directly before the plays it binds
  and covers them exactly.  Windows bind samples by arrival order at the
  rotation stage; a window that covered plays only partially would bind
  different samples under lookahead than under program-order execution.

``reference_assemble`` is the assembler's line scan written line by
line: pass 1 visits every source line for its labels and content, and
pass 2 looks up every instruction line's word.  ``asm.assemble`` does
the same passes once per distinct line, and must give the same image or
the same error, line number included.  Both build a line's word with
``asm._word``.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from aps2sim import asm, isa
from aps2sim.clocks import ANALOG_SAMPLE_TICKS, PIPELINE_TICKS
from aps2sim.events import Event, EventKind
from aps2sim.isa import (
    CmpOp,
    Instruction,
    Marker,
    MarkerAction,
    ModAction,
    Modulator,
    Opcode,
    ProgramImage,
    Waveform,
    WfAction,
)
from aps2sim.mod import ModEngine, Windows

TWO_PI = 2.0 * np.pi
_TOP = 32767.0 / 32768.0


def _clip_iq(z: np.ndarray) -> np.ndarray:
    pair = np.stack([z.real, z.imag], axis=-1)
    out = pair @ np.eye(2) + np.zeros(2)
    clipped = np.clip(out, -1.0, _TOP)
    return clipped[..., 0] + 1j * clipped[..., 1]


def interpret(image: ProgramImage, initial_cmp: int = 0,
              max_steps: int = 500_000) -> dict:
    """Ordered value streams from straight program-order execution."""
    instrs = image.decode_all()
    wave = image.waveforms
    analog: list[np.ndarray] = []
    markers: dict[int, list[np.ndarray]] = {ch: [] for ch in range(4)}

    # phase words, 2^-48 turn each, summed mod 2^48
    offsets = [0, 0, 0, 0]
    frames = [0, 0, 0, 0]
    window_nco = 0
    window_left = 0
    pending: list[Modulator] = []    # commands latch when the window closes

    def apply_phase(md: Modulator) -> None:
        word = md.phase_word & isa.PHASE_MASK
        for k in range(4):
            if md.nco & (1 << k):
                if md.action is ModAction.RESET_PHASE:
                    frames[k] = 0
                elif md.action is ModAction.SET_PHASE_OFFSET:
                    offsets[k] = word
                elif md.action is ModAction.UPDATE_FRAME:
                    frames[k] = (frames[k] + word) & isa.PHASE_MASK

    def pump() -> None:
        nonlocal window_nco, window_left
        while pending and window_left == 0:
            md = pending.pop(0)
            if md.action is ModAction.MODULATE:
                window_nco, window_left = md.nco, md.count
            else:
                apply_phase(md)

    def emit(samples: np.ndarray) -> None:
        nonlocal window_left
        out = []
        pos = 0
        n = len(samples)
        while pos < n:
            pump()
            if window_left == 0:
                out.append(samples[pos:])
                break
            take = min(window_left, n - pos)
            word = (offsets[window_nco] + frames[window_nco]) & isa.PHASE_MASK
            turns = word / (1 << isa.PHASE_BITS)
            factor = np.exp(1j * TWO_PI * np.full(take, turns))
            out.append(samples[pos:pos + take] * factor)
            window_left -= take
            pos += take
        pump()    # phase commands latch right at the window close
        analog.append(_clip_iq(np.concatenate(out) if len(out) != 1 else out[0]))

    pc = 0
    repeat = 0
    stack: list[tuple[int, int]] = []
    cmp_reg = initial_cmp
    cmp_res = False
    steps = 0
    while 0 <= pc < len(instrs):
        steps += 1
        if steps > max_steps:
            raise RuntimeError("reference interpreter step budget exhausted")
        ins = instrs[pc]
        op = ins.op
        if op is Opcode.WAVEFORM:
            wf = ins.engine
            if wf.action is WfAction.PLAY:
                if wf.ta:
                    value = complex(wave[wf.addr, 0], wave[wf.addr, 1]) / 32768.0
                    emit(np.full(wf.count, value, dtype=np.complex128))
                else:
                    raw = wave[wf.addr:wf.addr + wf.count]
                    emit((raw[:, 0].astype(np.float64)
                          + 1j * raw[:, 1].astype(np.float64)) / 32768.0)
        elif op is Opcode.MARKER:
            mk = ins.engine
            if mk.action is MarkerAction.PLAY:
                levels = np.full(4 * mk.count, mk.state, dtype=np.uint8)
                for bit in range(4):
                    levels[4 * (mk.count - 1) + bit] = (mk.last_word >> (3 - bit)) & 1
                markers[mk.channel].append(levels)
        elif op is Opcode.MODULATOR:
            md = ins.engine
            if md.action not in (ModAction.WAIT, ModAction.SYNC):
                pending.append(md)
                pump()
        elif op is Opcode.LOAD_REPEAT:
            repeat = ins.value
        elif op is Opcode.REPEAT:
            if repeat:
                repeat -= 1
                pc = ins.addr
                continue
        elif op is Opcode.CMP:
            cmp_res = {CmpOp.EQ: cmp_reg == ins.mask,
                       CmpOp.NEQ: cmp_reg != ins.mask,
                       CmpOp.LT: cmp_reg < ins.mask,
                       CmpOp.GT: cmp_reg > ins.mask}[ins.cmp_op]
        elif op is Opcode.GOTO:
            if not ins.conditional or cmp_res:
                pc = ins.addr
                continue
        elif op is Opcode.CALL:
            if not ins.conditional or cmp_res:
                stack.append((pc + 1, repeat))
                pc = ins.addr
                continue
        elif op is Opcode.RETURN:
            pc, repeat = stack.pop()
            continue
        # WAIT / SYNC / PREFETCH do not change values
        pc += 1

    return {
        "analog": (np.concatenate(analog) if analog
                   else np.zeros(0, dtype=np.complex128)),
        "markers": {ch: (np.concatenate(runs) if runs
                         else np.zeros(0, dtype=np.uint8))
                    for ch, runs in markers.items()},
    }


# ---------------------------------------------------------------------------
# random program generation


class _Emitter:
    """Instruction list with symbolic branch targets patched at the end."""

    def __init__(self) -> None:
        self.items: list = []       # Instruction or (op, label, conditional)
        self.labels: dict[str, int] = {}
        self.dead = 0               # padding words, never executed
        self._n = 0

    def put(self, instr: Instruction) -> None:
        self.items.append(instr)

    def branch(self, op: Opcode, label: str, conditional: bool = False) -> None:
        self.items.append((op, label, conditional))

    def mark(self, label: str) -> None:
        self.labels[label] = len(self.items)

    def pad(self, n: int) -> None:
        """n words no path reaches, which move what follows them on."""
        self.items += [DEAD] * n
        self.dead += n

    def fresh(self, base: str) -> str:
        self._n += 1
        return f"{base}{self._n}"

    def build(self, waveforms: np.ndarray) -> ProgramImage:
        words = []
        for item in self.items:
            if isinstance(item, tuple):
                op, label, conditional = item
                item = Instruction(op, addr=self.labels[label],
                                   conditional=conditional)
            words.append(isa.encode(item))
        return ProgramImage(words, waveforms,
                            symbols=dict(self.labels))


LIB_SAMPLES = 1024
DEAD = Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=0)
# the fences: global, and each engine's
SYNCS = [Instruction(Opcode.SYNC),
         Instruction(Opcode.WAVEFORM, Waveform(WfAction.SYNC)),
         Instruction(Opcode.MARKER, Marker(MarkerAction.SYNC)),
         Instruction(Opcode.MODULATOR, Modulator(ModAction.SYNC))]


def random_program(rng: np.random.Generator, max_instructions: int = 400,
                   max_repeat: int = 4, increments: bool = False,
                   pad: int = 0,
                   syncs: bool = False) -> tuple[ProgramImage, int]:
    """A structured random program plus the comparison register preset;
    each loop runs at most max_repeat laps.  increments adds nonzero
    SET_PHASE_INC commands, whose values interpret() cannot check.  A
    pad above 1 spreads the program over cache lines: up to pad dead
    words after the first GOTO and each RETURN, and GOTOs over as many
    inside blocks, loop bodies included (max_instructions counts no
    dead word).  syncs puts a SYNC fence in every loop body, global or
    one engine's, between two blocks; without it, a seed gives the
    program it gave before the flag."""
    wave = rng.integers(-32768, 32768, size=(LIB_SAMPLES, 2), dtype=np.int16)
    em = _Emitter()
    initial_cmp = int(rng.integers(0, 8))

    def play(count: int | None = None) -> None:
        count = int(rng.integers(4, 33)) if count is None else count
        if rng.random() < 0.15:
            em.put(Instruction(Opcode.WAVEFORM, Waveform(
                WfAction.PLAY, addr=int(rng.integers(0, LIB_SAMPLES)),
                count=count, ta=True)))
        else:
            addr = int(rng.integers(0, LIB_SAMPLES - count + 1))
            em.put(Instruction(Opcode.WAVEFORM, Waveform(
                WfAction.PLAY, addr=addr, count=count)))

    def marker() -> None:
        em.put(Instruction(Opcode.MARKER, Marker(
            MarkerAction.PLAY, channel=int(rng.integers(0, 4)),
            state=int(rng.integers(0, 2)), count=int(rng.integers(1, 6)),
            last_word=int(rng.integers(0, 16)))))

    phase_actions = [ModAction.SET_PHASE_OFFSET, ModAction.UPDATE_FRAME,
                     ModAction.RESET_PHASE]
    if increments:
        phase_actions.append(ModAction.SET_PHASE_INCREMENT)

    def phase_command() -> None:
        action = ModAction(rng.choice(phase_actions))
        word = (0 if action is ModAction.RESET_PHASE
                else int(rng.integers(0, 1 << 48)))
        em.put(Instruction(Opcode.MODULATOR, Modulator(
            action, nco=int(rng.integers(1, 16)), phase_word=word)))

    def mod_group() -> None:
        # window emitted right before the plays it covers, exact length
        for _ in range(rng.integers(0, 3)):
            phase_command()
        parts = [int(rng.integers(4, 25)) for _ in range(rng.integers(1, 4))]
        em.put(Instruction(Opcode.MODULATOR, Modulator(
            ModAction.MODULATE, nco=int(rng.integers(0, 4)),
            count=sum(parts))))
        for p in parts:
            play(p)

    def loop(sub_level: int) -> None:
        em.put(Instruction(Opcode.LOAD_REPEAT,
                           value=int(rng.integers(0, max_repeat))))
        top = em.fresh("loop")
        em.mark(top)
        block(sub_level, in_loop=True, size=int(rng.integers(1, 4)))
        if syncs:
            em.put(SYNCS[int(rng.integers(0, len(SYNCS)))])
            block(sub_level, in_loop=True, size=int(rng.integers(0, 2)))
        em.branch(Opcode.REPEAT, top)

    def conditional_skip(sub_level: int) -> None:
        em.put(Instruction(Opcode.CMP,
                           cmp_op=CmpOp(rng.choice(list(CmpOp))),
                           mask=int(rng.integers(0, 8))))
        skip = em.fresh("skip")
        em.branch(Opcode.GOTO, skip, conditional=True)
        block(sub_level, in_loop=True, size=int(rng.integers(1, 3)))
        em.mark(skip)

    subs: list[list[str]] = [[] for _ in range(4)]

    def jump_over_padding() -> None:
        over = em.fresh("over")
        em.branch(Opcode.GOTO, over)
        em.pad(int(rng.integers(1, pad)))
        em.mark(over)

    def block(sub_level: int, in_loop: bool, size: int) -> None:
        for _ in range(size):
            if len(em.items) - em.dead > max_instructions:
                return
            if pad and rng.random() < 0.15:
                jump_over_padding()
            roll = rng.random()
            if roll < 0.30:
                play()
            elif roll < 0.45:
                marker()
            elif roll < 0.60:
                mod_group()
            elif roll < 0.70 and not in_loop:
                loop(sub_level)
            elif roll < 0.80:
                conditional_skip(sub_level)
            elif roll < 0.90 and sub_level < 3 and subs[sub_level + 1]:
                target = rng.choice(subs[sub_level + 1])
                em.branch(Opcode.CALL, str(target),
                          conditional=rng.random() < 0.3)
            else:
                phase_command()

    em.branch(Opcode.GOTO, "main")
    if pad:
        em.pad(int(rng.integers(0, pad)))
    for level in range(3, 0, -1):
        for s in range(int(rng.integers(1, 3))):
            name = f"sub{level}_{s}"
            em.mark(name)
            block(level, in_loop=False, size=int(rng.integers(2, 5)))
            em.put(Instruction(Opcode.RETURN))
            if pad:
                em.pad(int(rng.integers(0, pad)))
            subs[level].append(name)
    em.mark("main")
    block(0, in_loop=False, size=int(rng.integers(4, 9)))

    return em.build(wave), initial_cmp


# ---------------------------------------------------------------------------
# reference modulator resolve


class _Nco:
    """One NCO's state as 48-bit phase words (2^-48 turn each)."""

    __slots__ = ("inc", "acc", "ref_tick", "offset", "frame")

    def __init__(self) -> None:
        self.inc = 0            # per analog sample
        self.acc = 0            # accumulated up to ref_tick
        self.ref_tick = 0
        self.offset = 0
        self.frame = 0


class NcoBank:
    def __init__(self):
        self.ncos = [_Nco() for _ in range(isa.NUM_NCOS)]
        # the NCOs each value of the 4-bit mask field selects
        self.selected = [[nco for k, nco in enumerate(self.ncos)
                          if mask & (1 << k)]
                         for mask in range(1 << isa.NUM_NCOS)]


def reference_resolve(eng: ModEngine, starts, counts,
                      trigger_edges) -> tuple[Windows, list[Event]]:
    """What eng.resolve returns, one command at a time: the windows and
    the modulator events.

    Commands apply in stream order to an NCO bank of Python ints, every
    sum of words taken mod 2^48.  The run holding a position is found by
    walking forward, since the position a command binds never decreases.
    """
    starts, counts = np.asarray(starts).tolist(), np.asarray(counts).tolist()
    code, dispatch_ticks, dispatch_positions = eng.columns()
    stream = zip([eng.table[c] for c in code.tolist()],
                 dispatch_ticks.tolist(), dispatch_positions.tolist())
    bank = NcoBank()
    ncos, selected = bank.ncos, bank.selected
    events: list[Event] = []
    first = list(accumulate(counts, initial=0))  # stream position of runs
    total = first[-1]
    run = 0                 # the run holding the latest bound position

    cols: list[tuple] = []          # one row per window
    edges = iter(trigger_edges)
    pipe = PIPELINE_TICKS
    mask = isa.PHASE_MASK
    cursor_pos = 0          # stream position the next command may bind
    cursor_tick = 0         # output-plane floor once samples ran out

    for md, dispatch, dispatch_pos in stream:
        pos = dispatch_pos if dispatch_pos > cursor_pos else cursor_pos
        action = md.action
        if action is ModAction.MODULATE:
            end = pos + md.count
            bound = min(end, total)
            if bound > pos:
                nco = ncos[md.nco]
                cols.append((pos, bound, nco.ref_tick,
                             (nco.acc + nco.offset + nco.frame) & mask,
                             nco.inc))
                # output tick just after the window's last sample
                last = bound - 1
                while first[run + 1] <= last:
                    run += 1
                cursor_tick = max(cursor_tick, starts[run]
                                  + ANALOG_SAMPLE_TICKS
                                  * (last - first[run] + 1))
            if end > total:
                events.append(Event(
                    cursor_tick, EventKind.MODULATE_UNDERFILLED, 0,
                    {"nco": md.nco, "missing": end - total}))
            cursor_pos = end
        elif action is ModAction.WAIT:
            edge = next(edges, None)
            if edge is None:
                break        # parked at WAIT: nothing further applies
            cursor_tick = max(cursor_tick, edge)
            cursor_pos = pos
        elif action is ModAction.SYNC:
            cursor_pos = pos
        else:
            word = md.phase_word & mask
            if action is ModAction.UPDATE_FRAME:
                for nco in selected[md.nco]:
                    nco.frame = (nco.frame + word) & mask
            elif action is ModAction.SET_PHASE_OFFSET:
                for nco in selected[md.nco]:
                    nco.offset = word
            else:
                # RESET_PHASE and SET_PHASE_INC latch on the
                # rotation-plane clock, just before the sample at
                # their stream position
                if pos < total:
                    while first[run + 1] <= pos:
                        run += 1
                    at = (starts[run] + ANALOG_SAMPLE_TICKS
                          * (pos - first[run]) - pipe)
                else:
                    at = max(cursor_tick, dispatch) - pipe
                if action is ModAction.RESET_PHASE:
                    for nco in selected[md.nco]:
                        nco.acc = 0
                        nco.frame = 0
                        nco.ref_tick = at
                    events.append(Event(at, EventKind.RESET_PHASE, 0,
                                        {"mask": md.nco}))
                else:
                    # accumulate at the old increment up to the latch
                    for nco in selected[md.nco]:
                        samples, off = divmod(at - nco.ref_tick,
                                              ANALOG_SAMPLE_TICKS)
                        assert not off, f"latch tick {at} is off the grid"
                        nco.acc = (nco.acc + nco.inc * samples) & mask
                        nco.ref_tick = at
                        nco.inc = word
            cursor_pos = pos

    return Windows(*(np.array(col, np.int64) for col in (
        zip(*cols) if cols else [()] * 5))), events


def resolved(windows: Windows, events: list[Event]) -> tuple:
    """A resolve's result as comparable values: each Windows column's
    dtype and bytes, and the events' repr, which shows a numpy scalar
    where a Python int belongs."""
    cols = (windows.lo, windows.hi, windows.ref_tick, windows.phase,
            windows.inc)
    return [(c.dtype.str, c.tobytes()) for c in cols], repr(events)


# ---------------------------------------------------------------------------
# Reference assembler: one Python step per source line


def _reference_scan(text: str) -> tuple[dict[str, int], list[int], list[str]]:
    """Pass 1: labels, plus the line number and stripped text of every
    instruction line (its address is its index)."""
    labels: dict[str, int] = {}
    numbers: list[int] = []
    lines: list[str] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        content = raw.partition(";")[0].strip()
        while ":" in content:
            head = content.split(None, 1)[0]
            if not head.endswith(":"):
                break
            name = head[:-1]
            if not name.isidentifier():
                raise asm.AsmError(no, f"bad label {name!r}")
            if name in labels:
                raise asm.AsmError(no, f"duplicate label {name!r}")
            labels[name] = len(lines)
            content = content[len(head):].strip()
        if content:
            numbers.append(no)
            lines.append(content)
    return labels, numbers, lines


def reference_assemble(text: str,
                       library: asm.WaveformLibrary | None = None
                       ) -> ProgramImage:
    """What ``asm.assemble`` gives, scanning and looking up line by line."""
    labels, numbers, lines = _reference_scan(text)
    if library is not None:
        wave_mem, wave_syms = library.pack()
    else:
        wave_mem = np.zeros((0, 2), np.int16)
        wave_syms = {}

    def resolve(tok: str, line_no: int) -> int:
        if tok in labels:
            return labels[tok]
        try:
            return int(tok, 0)
        except ValueError:
            raise asm.AsmError(line_no, f"unknown label {tok!r}") from None

    # Pass 2: every label is known, so a line's word depends on its text
    # alone; each distinct text is built once, at its first occurrence.
    word_of: dict[str, int] = {}
    for no, line in zip(numbers, lines):
        if line not in word_of:
            word_of[line] = asm._word(line, no, resolve, wave_syms)
    return ProgramImage(words=list(map(word_of.__getitem__, lines)),
                        waveforms=wave_mem, symbols=labels,
                        wave_symbols=wave_syms)
