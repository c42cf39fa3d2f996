"""Modulation engine: NCO bank, phase bookkeeping, mixer correction.

Each NCO free-runs on the analog sample clock (one increment per 5-tick
sample period) whether or not it is selected, so applied phase at tick t
is always

    phase(t) = accumulated(t) + offset + frame        (turns, mod 1)

with accumulated(t) advancing from the last RESET_PHASE epoch.  The
accumulators live at the rotation stage, a fixed pipeline ahead of the
output plane, so a sample emitted at tick T carries the phase evaluated
at T - pipeline_ticks.  A RESET_PHASE processed on a trigger edge
therefore gives exactly zero accumulated phase and frame on the first
post-trigger output sample.

Command stream semantics: commands are consumed in order and bind by
stream position, the running count of waveform samples dispatched before
the command.  A MODULATE rotates the next `count` samples from its
position onward (gaps appear in time but not in the binding), so a
window always covers the plays that follow it in the program, never
samples already in flight down the pipeline.  Phase commands latch at
the next boundary: the end of an open MODULATE window, the trigger edge
if the stream sits at a WAIT, or directly before the next sample
otherwise.  Samples outside any window pass through unrotated.

``ModEngine.resolve`` resolves the command stream over the run columns
(start tick and sample count of each waveform run) and returns the
MODULATE windows as ``Windows`` columns: each window's stream positions
and the NCO state frozen when it opened.  It touches no sample; the
caller rotates the samples inside windows in one pass with
``Windows.rotation``.

Array resolve: the engine keeps the stream as columns (command code,
dispatch tick, dispatch position), and a copied loop lap arrives as one
array chunk.  ``resolve`` works in array passes over the columns, with
no Python step per command:

* the position command i binds is a running maximum.  With p the
  dispatch positions and E_i the samples the MODULATEs before i claim,
  pos_i = E_i + max over j <= i of (p_j - E_j); the cursor starts at 0,
  which needs no term of its own, since E_0 = 0 and p_0 >= 0;
* the run holding a position is one ``searchsorted`` over the runs'
  first positions: the last run that starts at or before it, so a run
  of no samples is never chosen;
* the cursor tick, the output-plane floor once samples ran out, is a
  running maximum of window-end ticks and consumed trigger edges, and
  the first WAIT without an edge ends the stream.

NCO state is built per NCO over the phase commands that select it, and
is bit for bit what applying them in order gives.  offset, inc and
ref_tick are forward fills of the last value set.  frame is the sum of
the UPDATE_FRAME phase words since the last RESET_PHASE, mod 2^48: every
term is a multiple of 2^-48 and frame + turns stays below 2, so the
float update (frame + turns) % 1.0 never rounds and the integer sum has
the same bits.  acc does round: each SET_PHASE_INC adds
inc * (at - ref_tick) / 5, so acc is summed in command order, one
``np.add.accumulate`` per RESET_PHASE segment, seeded with 0.0 so that a
-0.0 first term gives +0.0 as ``acc += term`` does.  The command loop
this replaced is ``reference_resolve`` in ``tests/oracle.py``.

Shared rotation factors: a sample of window j at output tick T rotates
by exp(2πi·phase) with phase = acc + inc·rel/5 + offset + frame and
rel = T - pipeline_ticks - ref_tick, every term the window's.  A window
that plays contiguously (its last sample's tick is its first's plus
ANALOG_SAMPLE_TICKS per sample) has rel = r0, r0 + 5, ... with r0 = its
first tick - pipeline_ticks - ref_tick.  Two such windows of equal
length, equal r0 and bit-equal acc, inc, offset and frame therefore run
the same float operations on the same operands, and get byte-identical
factors.  ``Windows.leaders`` groups windows by that key (bits, not
values: a -0.0 frame gives another signed zero than +0.0) and names for
each the first window of its group in stream order, its leader.  This
is what every triggered shot of a readout looks like: a RESET_PHASE on
the trigger edge gives each shot r0 = 0 and the same NCO state.  Loop
laps of a free-running NCO differ in r0, acc or frame and share
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clocks import ANALOG_SAMPLE_TICKS
from .events import EV_MODULATE_UNDERFILLED, EV_RESET_PHASE, Event
from .isa import (MOD_MODULATE, MOD_RESET_PHASE, MOD_SET_PHASE_INCREMENT,
                  MOD_SET_PHASE_OFFSET, MOD_UPDATE_FRAME, MOD_WAIT, NUM_NCOS,
                  PHASE_BITS, PHASE_MASK, Modulator)

__all__ = ["ModConfig", "ModEngine", "Windows", "MixerCorrector"]

TWO_PI = 2.0 * np.pi


@dataclass
class ModConfig:
    num_ncos: int = NUM_NCOS
    mixer_matrix: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0)
    dc_offset_i: float = 0.0
    dc_offset_q: float = 0.0
    dac_bits: int | None = None      # optional output quantization, e.g. 14
    pipeline_ticks: int = 0          # rotation stage to output plane delay


@dataclass(frozen=True, eq=False)
class Windows:
    """MODULATE windows in stream order, as columns.

    Window j rotates stream positions [lo[j], hi[j]) by one NCO whose
    state (acc, inc, ref_tick, offset, frame) is frozen when the window
    opens; phase commands bound inside it latch only after it closes.
    Windows never overlap.
    """

    lo: np.ndarray
    hi: np.ndarray
    acc: np.ndarray
    inc: np.ndarray
    ref_tick: np.ndarray
    offset: np.ndarray
    frame: np.ndarray
    pipeline_ticks: int          # rotation stage to output plane delay

    def __len__(self) -> int:
        return len(self.lo)

    def rotation(self, which: int | np.ndarray,
                 ticks: np.ndarray) -> np.ndarray:
        """Factors for samples emitted at ticks inside windows which
        (one index, or one per tick), evaluated on the rotation plane."""
        rel = ticks - self.pipeline_ticks
        rel -= self.ref_tick[which]
        phase = rel / ANALOG_SAMPLE_TICKS
        # acc + inc*rel + offset + frame, added in that order, which
        # fixes the rounding
        phase *= self.inc[which]
        phase += self.acc[which]
        phase += self.offset[which]
        phase += self.frame[which]
        factor = np.zeros(phase.shape, np.complex128)
        np.multiply(phase, TWO_PI, out=factor.imag)
        return np.exp(factor, out=factor)

    def leaders(self, first_tick: np.ndarray,
                last_tick: np.ndarray) -> np.ndarray:
        """For each window, the first window whose rotation factors it
        repeats (itself if none), given the output ticks of each
        window's first and last sample (module docstring)."""
        n = len(self)
        size = self.hi - self.lo
        index = np.arange(n)
        gapped = last_tick - first_tick != ANALOG_SAMPLE_TICKS * (size - 1)
        # float columns as their bits: -0.0 and +0.0 rotate differently
        keys = np.stack([
            np.where(gapped, index, -1), size,
            first_tick - self.pipeline_ticks - self.ref_tick,
            self.acc.view(np.int64), self.inc.view(np.int64),
            self.offset.view(np.int64), self.frame.view(np.int64)])
        order = np.lexsort(keys)     # stable: stream order within a key
        ranked = keys[:, order]
        opens = np.ones(n, dtype=bool)
        opens[1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
        leader = np.empty(n, dtype=np.int64)
        leader[order] = order[np.maximum.accumulate(
            np.where(opens, index, 0))]
        return leader


class ModEngine:
    """Resolves the modulator command stream against the sample schedule.

    The stream is kept as columns: each command's code (its index in
    ``table``), dispatch tick and dispatch position.  Decoded commands
    are appended to the list columns; ``repeat_lap`` seals those into an
    array chunk and appends the copied laps as one more chunk.
    """

    def __init__(self, cfg: ModConfig):
        self.cfg = cfg
        # decoded commands not yet sealed into a chunk, as columns
        self.commands: list[Modulator] = []
        self.ticks: list[int] = []
        self.positions: list[int] = []
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._sealed = 0                   # commands in chunks
        self.table: list[Modulator] = []  # code -> command
        self._code: dict[Modulator, int] = {}
        self.events: list[Event] = []     # of the latest resolve()

    def submit(self, md: Modulator, tick: int, pos: int = 0) -> None:
        """Queue a command dispatched at tick with pos samples ahead of it."""
        self.commands.append(md)
        self.ticks.append(tick)
        self.positions.append(pos)

    def pending_commands(self) -> int:
        return self._sealed + len(self.commands)

    def repeat_lap(self, first: int, shifts: range, samples: int) -> None:
        """Append commands first.. again once per shift: dispatch ticks
        moved on by it, dispatch positions by samples per lap.  The lap
        is decoded commands: first is not before a chunk's end."""
        if first < self._sealed:
            raise ValueError(f"lap from command {first} starts inside a "
                             f"chunk (the chunks hold {self._sealed})")
        n = self.pending_commands() - first
        if not n:
            return
        # seal the decoded commands into a chunk, which the lap ends; the
        # lists stay the same objects, so the decode loop keeps appending
        self.chunks.append(self._tail())
        self._sealed += len(self.commands)
        self.commands.clear()
        self.ticks.clear()
        self.positions.clear()
        code, tick, pos = (col[-n:] for col in self.chunks[-1])
        laps = len(shifts)
        shift = np.arange(shifts.start, shifts.stop, shifts.step)
        moved = samples * np.arange(1, laps + 1)
        self.chunks.append((np.tile(code, laps),
                            (shift[:, None] + tick).reshape(-1),
                            (moved[:, None] + pos).reshape(-1)))
        self._sealed += laps * n

    def _tail(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The decoded commands as a chunk: a command's code is looked up
        once per distinct object, not per command."""
        commands = self.commands
        ids = np.fromiter(map(id, commands), np.uint64, len(commands))
        distinct, at, inverse = np.unique(ids, return_index=True,
                                          return_inverse=True)
        codes = self._code
        table = self.table
        code = np.empty(len(distinct), np.int64)
        for k, i in enumerate(at.tolist()):
            md = commands[i]
            c = codes.get(md)
            if c is None:
                c = codes[md] = len(table)
                table.append(md)
            code[k] = c
        return (code[inverse], np.array(self.ticks, np.int64),
                np.array(self.positions, np.int64))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole stream: code, dispatch tick and dispatch position of
        every command, in order."""
        parts = self.chunks + [self._tail()] if self.commands else self.chunks
        if not parts:
            return (np.zeros(0, np.int64),) * 3
        return tuple(np.concatenate(col) for col in zip(*parts))

    def resolve(self, starts, counts, trigger_edges: list[int]) -> Windows:
        """MODULATE windows over waveform runs given as columns (arrays or
        lists): run k starts at tick starts[k] and plays counts[k]
        samples."""
        pipe = self.cfg.pipeline_ticks
        code, dispatch, dispatch_pos = self.columns()
        if not len(code):           # no command: no window, no event
            self.events = []
            ints, floats = np.zeros(0, np.int64), np.zeros(0)
            return Windows(ints, ints, floats, floats, ints, floats, floats,
                           pipe)
        starts = np.asarray(starts, np.int64)
        counts = np.asarray(counts, np.int64)
        table = self.table
        act, nco, word, count = (
            np.array(col, np.int64)[code] for col in (
                [md.action for md in table], [md.nco for md in table],
                [md.phase_word & PHASE_MASK for md in table],
                [md.count for md in table]))

        # a WAIT without a trigger edge parks the stream: nothing from it
        # on applies
        waits = np.flatnonzero(act == MOD_WAIT)
        edges = np.asarray(trigger_edges, np.int64)
        if len(waits) > len(edges):
            n = waits[len(edges)]
            act, nco, word, count, dispatch, dispatch_pos = (
                col[:n] for col in (act, nco, word, count, dispatch,
                                    dispatch_pos))
            waits = waits[:len(edges)]

        first = np.zeros(len(counts) + 1, np.int64)   # stream position
        np.cumsum(counts, out=first[1:])              # of each run
        total = int(first[-1])
        modulate = act == MOD_MODULATE
        # the position a command binds: its dispatch position, or the
        # end of the window before it if that lies further on
        step = np.where(modulate, count, 0)
        before = np.cumsum(step) - step
        pos = np.maximum.accumulate(dispatch_pos - before)
        pos += before
        end = pos + count
        bound = np.minimum(end, total)
        window = modulate & (bound > pos)
        latch = (act == MOD_RESET_PHASE) | (act == MOD_SET_PHASE_INCREMENT)

        # output tick of each window's last sample and of each latch
        # position with a sample there; the run holding a position is the
        # last one that starts at or before it
        placed = np.flatnonzero(window | (latch & (pos < total)))
        x = np.where(window, bound - 1, pos)[placed]
        run = np.searchsorted(first, x, side="right") - 1
        tick = starts[run] + ANALOG_SAMPLE_TICKS * (x - first[run])
        # the output-plane floor once samples ran out: the latest window
        # end or consumed trigger edge so far
        cursor = np.zeros(len(act), np.int64)
        closes = window[placed]
        cursor[placed[closes]] = tick[closes] + ANALOG_SAMPLE_TICKS
        cursor[waits] = edges[:len(waits)]
        np.maximum.accumulate(cursor, out=cursor)
        # RESET_PHASE and SET_PHASE_INC latch on the rotation-plane clock,
        # just before the sample at their position, or at the floor
        at = np.maximum(cursor, dispatch)
        at[placed[~closes]] = tick[~closes]
        at -= pipe

        under = modulate & (end > total)
        reset = act == MOD_RESET_PHASE
        self.events = [
            Event(t, EV_MODULATE_UNDERFILLED, 0, {"nco": k, "missing": m})
            if u else Event(t, EV_RESET_PHASE, 0, {"mask": k})
            for t, u, k, m in zip(
                *(col[under | reset].tolist()
                  for col in (np.where(under, cursor, at), under, nco,
                              end - total)))]

        opened = np.flatnonzero(window)
        on = nco[opened]
        if (on >= self.cfg.num_ncos).any():
            raise IndexError(f"MODULATE selects NCO {int(on.max())}, "
                             f"the bank has {self.cfg.num_ncos}")
        acc, inc, offset, frame = (np.zeros(len(opened)) for _ in range(4))
        ref = np.zeros(len(opened), np.int64)
        phase = latch | (act == MOD_SET_PHASE_OFFSET) \
            | (act == MOD_UPDATE_FRAME)
        for k in range(self.cfg.num_ncos):
            mine = on == k
            if not mine.any():
                continue        # no window reads this NCO's state
            sel = np.flatnonzero(phase & (nco & (1 << k) != 0))
            states = _nco_states(act[sel], word[sel], at[sel])
            # the state after the last of its commands before the window
            j = np.searchsorted(sel, opened[mine])
            for column, values in zip((acc, inc, ref, offset, frame), states):
                column[mine] = values[j]
        return Windows(pos[opened], bound[opened], acc, inc, ref, offset,
                       frame, pipe)


def _nco_states(act: np.ndarray, word: np.ndarray,
                at: np.ndarray) -> tuple[np.ndarray, ...]:
    """acc, inc, ref_tick, offset and frame of one NCO before its phase
    commands (action, 48-bit phase word, latch tick) and after each one:
    entry j is the state after the first j commands."""
    n = len(act)
    reset = act == MOD_RESET_PHASE
    set_inc = act == MOD_SET_PHASE_INCREMENT

    def latest(sets: np.ndarray) -> np.ndarray:
        """After j commands, 1 + the index of the last one in sets, or 0."""
        last = np.zeros(n + 1, np.int64)
        last[1:] = np.where(sets, np.arange(1, n + 1), 0)
        return np.maximum.accumulate(last, out=last)

    def after(values: np.ndarray, initial) -> np.ndarray:
        return np.concatenate([np.array([initial], values.dtype), values])

    turns = after(word / (1 << PHASE_BITS), 0.0)    # exact: word < 2^48
    inc = turns[latest(set_inc)]
    offset = turns[latest(act == MOD_SET_PHASE_OFFSET)]
    latched = latest(reset | set_inc)
    ref_tick = after(at, 0)[latched]
    # frame words summed mod 2^48 since the last RESET_PHASE: the float
    # sums (frame + turns) % 1.0 the hardware model does are exact
    added = np.zeros(n + 1, np.uint64)
    np.cumsum(np.where(act == MOD_UPDATE_FRAME, word, 0).astype(np.uint64),
              out=added[1:])
    added -= added[latest(reset)]
    added &= np.uint64(PHASE_MASK)
    frame = added.astype(np.float64) / (1 << PHASE_BITS)
    # SET_PHASE_INC accumulates at the old increment up to its latch;
    # RESET_PHASE zeroes acc.  Each segment between resets is summed in
    # command order from 0.0, as acc += term rounds.
    j = np.flatnonzero(set_inc)
    term = inc[j] * (at[j] - ref_tick[j]) / ANALOG_SAMPLE_TICKS
    value = np.zeros(n + 1)
    value[j + 1] = _segment_sums(term, np.cumsum(reset)[j])
    acc = value[latched]
    return acc, inc, ref_tick, offset, frame


def _segment_sums(term: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """Running sums of term, restarted from 0.0 where segment changes."""
    out = np.empty(len(term))
    cuts = [0, *(np.flatnonzero(np.diff(segment)) + 1).tolist(), len(term)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part = np.zeros(hi - lo + 1)
        part[1:] = term[lo:hi]
        out[lo:hi] = np.add.accumulate(part)[1:]
    return out


class MixerCorrector:
    """2x2 amplitude/phase correction with DC offsets at the DAC plane."""

    def __init__(self, cfg: ModConfig):
        a, b, c, d = cfg.mixer_matrix
        self.matrix = np.array([[a, b], [c, d]])
        self.offset = complex(cfg.dc_offset_i, cfg.dc_offset_q)
        self.dac_bits = cfg.dac_bits
        self.saturations = 0

    def apply(self, iq: np.ndarray,
              held: tuple[np.ndarray, np.ndarray] | None = None
              ) -> np.ndarray:
        """Correct a complex sample array; saturates into [-1, 1).

        Each I or Q outside the range counts one saturation, counted
        before the clip, which works in place on the product.  held is
        (index, count): iq[index[m]] stands for count[m] output samples
        (a lazy TA run), so its saturations count count[m] times; only
        those entries pay for that.  The product stays numpy's matrix
        path (rows @ matrix.T), whose rounding the value pins in
        tests/test_engine.py hold: an elementwise I/Q formula, or a
        one-row call, may round the same sample differently.
        """
        iq = np.ascontiguousarray(iq, dtype=np.complex128)
        # (n, 2) I/Q pairs as a view, the layout np.stack would copy
        pair = iq.view(np.float64).reshape(-1, 2)
        # numpy multiplies a one-row matrix on its vector path, which
        # rounds differently: a second row keeps every sample on one path
        rows = np.repeat(pair, 2, axis=0) if len(pair) == 1 else pair
        out = (rows @ self.matrix.T)[:len(pair)]
        z = out.view(np.complex128).reshape(-1)
        z += self.offset
        top = 32767.0 / 32768.0
        flat = out.reshape(-1)
        self.saturations += (int(np.count_nonzero(flat < -1.0))
                             + int(np.count_nonzero(flat > top)))
        if held is not None:
            index, count = held
            part = out[index]
            hit = (part < -1.0) | (part > top)
            self.saturations += int(hit.sum(axis=1) @ (count - 1))
        np.clip(flat, -1.0, top, out=flat)
        if self.dac_bits is not None:
            scale = float(1 << (self.dac_bits - 1))
            flat *= scale
            np.round(flat, out=flat)
            flat /= scale
            np.clip(flat, -1.0, top, out=flat)
        # signed zeros as I + 1j*Q gives them: a zero Q is +0, a zero I
        # keeps its sign only where Q's sign bit is set
        z += z.imag * 0.0
        return z.reshape(iq.shape)
