"""Modulation engine: NCO bank, phase bookkeeping, mixer correction.

Each NCO free-runs on the analog sample clock (one increment per 5-tick
sample period) whether or not it is selected.  Phase is a 48-bit word,
2^-48 turn per unit, as in the hardware, and every sum of words wraps
mod 2^48, so the applied phase at tick t is exactly

    phase(t) = accumulated(t) + offset + frame        (words, mod 2^48)

with accumulated(t) advancing by the increment word per sample from the
last RESET_PHASE epoch.  It turns into a float only for the rotation:
the word as turns, then one complex exp (``phasors``).  The
accumulators live at the rotation stage, ``PIPELINE_TICKS`` ahead of the
output plane, so a sample emitted at tick T carries the phase evaluated
at T - PIPELINE_TICKS.  A RESET_PHASE processed on a trigger edge
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
otherwise.  Samples outside any window pass through unrotated.  A latch
lies on the 5-tick sample grid, as sample ticks, dispatch ticks and
trigger edges do; ``resolve`` raises ``ValueError`` for one off it.

``ModEngine.resolve`` resolves the command stream over the run columns
(start tick and sample count of each waveform run) and returns the
MODULATE windows as ``Windows`` columns: each window's stream positions
and the NCO state frozen when it opened, as its reference tick, its
phase word there and its increment word.  It touches no sample; the
caller rotates the samples inside windows in one pass.

Array resolve: the engine keeps the stream as columns (command,
dispatch tick, dispatch position), in which a copied block of loop laps
is one chunk, built into the arrays by one outer add.  ``resolve`` works
in array passes over the columns, with no Python step per command:

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

NCO state is built per NCO over the phase commands that select it.
offset, inc and ref_tick are forward fills of the last value set.  acc
and frame restart at each RESET_PHASE, and both only add words: each
SET_PHASE_INC adds inc * (at - ref_tick) / 5 to acc, each UPDATE_FRAME
its word to frame.  So acc + frame is one wrapping integer cumulative
sum less its value at the last RESET_PHASE, and integer sums need no
order kept.  The command loop this replaced is ``reference_resolve`` in
``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clocks import ANALOG_SAMPLE_TICKS, PIPELINE_TICKS
from .column import Column
from .events import EV_MODULATE_UNDERFILLED, EV_RESET_PHASE, Event
from .isa import (MOD_MODULATE, MOD_RESET_PHASE, MOD_SET_PHASE_INCREMENT,
                  MOD_SET_PHASE_OFFSET, MOD_UPDATE_FRAME, MOD_WAIT, NUM_NCOS,
                  PHASE_BITS, PHASE_MASK, Modulator)

__all__ = ["ModConfig", "ModEngine", "Windows", "MixerCorrector", "phasors"]

RADIANS_PER_WORD = 2.0 * np.pi / (1 << PHASE_BITS)   # 2π scaled by 2^-48


@dataclass
class ModConfig:
    mixer_matrix: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0)
    dc_offset_i: float = 0.0
    dc_offset_q: float = 0.0
    dac_bits: int | None = None      # optional output quantization, e.g. 14

    def __post_init__(self):
        if len(self.mixer_matrix) != 4:
            raise ValueError("ModConfig.mixer_matrix must hold 4 entries "
                             f"(a, b, c, d), got {len(self.mixer_matrix)}")
        if self.dac_bits is not None and self.dac_bits < 1:
            raise ValueError("ModConfig.dac_bits must be at least 1 or "
                             f"None, got {self.dac_bits}")


def phasors(words: np.ndarray) -> np.ndarray:
    """exp(2πi·word / 2^48) of 48-bit phase words: the word (exact in
    float64) as radians, then one complex exp."""
    factor = np.zeros(np.shape(words), np.complex128)
    np.multiply(words, RADIANS_PER_WORD, out=factor.imag)
    return np.exp(factor, out=factor)


@dataclass(frozen=True, eq=False)
class Windows:
    """MODULATE windows in stream order, as columns.

    Window j rotates stream positions [lo[j], hi[j]) by one NCO in the
    state frozen when it opens: phase[j], its word at rotation-plane tick
    ref_tick[j] (acc + offset + frame, mod 2^48), and inc[j], its word per
    sample.  Phase commands bound inside it latch after it closes.
    Windows never overlap.
    """

    lo: np.ndarray
    hi: np.ndarray
    ref_tick: np.ndarray
    phase: np.ndarray
    inc: np.ndarray

    def __len__(self) -> int:
        return len(self.lo)

    def words(self, which: int | np.ndarray,
              ticks: np.ndarray) -> np.ndarray:
        """Phase words of samples emitted at ticks (on the sample grid)
        inside windows which (one index, or one per tick)."""
        samples = ticks - PIPELINE_TICKS
        samples -= self.ref_tick[which]
        samples //= ANALOG_SAMPLE_TICKS
        # int64 products and sums wrap mod 2^64, a multiple of 2^48
        samples *= self.inc[which]
        samples += self.phase[which]
        samples &= PHASE_MASK
        return samples

    def rotation(self, which: int | np.ndarray,
                 ticks: np.ndarray) -> np.ndarray:
        """Factors for samples emitted at ticks inside windows which,
        each the direct exp of its exact phase word."""
        return phasors(self.words(which, ticks))


class ModEngine:
    """Resolves the modulator command stream against the sample schedule.

    The stream is kept as three ``column.Column``s: each command, its
    dispatch tick and its dispatch position.  The decode loop appends a
    decoded command to each column's rows, and the lap fast-forward
    copies laps into them as it does into every column a lap writes
    (``laps.LapRecorder._copy_laps``).  ``columns`` builds the arrays,
    a command as its code, its index in ``table``.
    """

    def __init__(self):
        self.commands = Column()           # the Modulator of each command
        self.ticks = Column()
        self.positions = Column()
        self.table: list[Modulator] = []  # code -> command
        self._code: dict[Modulator, int] = {}
        self.events: list[Event] = []     # of the latest resolve()

    def submit(self, md: Modulator, tick: int, pos: int = 0) -> None:
        """Queue a command dispatched at tick with pos samples ahead of it."""
        self.commands.append(md)
        self.ticks.append(tick)
        self.positions.append(pos)

    def pending_commands(self) -> int:
        return len(self.commands)

    def _codes(self) -> np.ndarray:
        """The code of each command row: looked up once per distinct
        object, not per command, and a new command takes the next code
        in order of first appearance (not of id), so equal runs give
        equal columns."""
        commands = self.commands.rows
        ids = np.fromiter(map(id, commands), np.uint64, len(commands))
        distinct, at, inverse = np.unique(ids, return_index=True,
                                          return_inverse=True)
        codes = self._code
        table = self.table
        code = np.empty(len(distinct), np.int64)
        order = np.argsort(at)
        for k, i in zip(order.tolist(), at[order].tolist()):
            md = commands[i]
            c = codes.get(md)
            if c is None:
                c = codes[md] = len(table)
                table.append(md)
            code[k] = c
        return code[inverse]

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole stream: code, dispatch tick and dispatch position of
        every command, in order."""
        if not self.commands.rows:
            return (np.zeros(0, np.int64),) * 3
        return (self.commands.array(self._codes()), self.ticks.array(),
                self.positions.array())

    def resolve(self, starts, counts, trigger_edges: list[int]) -> Windows:
        """MODULATE windows over waveform runs given as columns (arrays or
        lists): run k starts at tick starts[k] and plays counts[k]
        samples."""
        code, dispatch, dispatch_pos = self.columns()
        if not len(code):           # no command: no window, no event
            self.events = []
            return Windows(*[np.zeros(0, np.int64)] * 5)
        starts = np.asarray(starts, np.int64)
        counts = np.asarray(counts, np.int64)
        off = np.flatnonzero(starts % ANALOG_SAMPLE_TICKS)
        if len(off):
            raise ValueError(f"run {int(off[0])} starts at output tick "
                             f"{int(starts[off[0]])}, off the "
                             f"{ANALOG_SAMPLE_TICKS}-tick sample grid")
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
        off = latch & (at % ANALOG_SAMPLE_TICKS != 0)
        if off.any():
            raise ValueError(f"latch at output tick {int(at[off][0])} is "
                             f"off the {ANALOG_SAMPLE_TICKS}-tick sample grid")
        at -= PIPELINE_TICKS

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
        if (on >= NUM_NCOS).any():
            raise IndexError(f"MODULATE selects NCO {int(on.max())}, "
                             f"the bank has {NUM_NCOS}")
        state = [np.zeros(len(opened), np.int64) for _ in range(3)]
        phase_cmds = latch | (act == MOD_SET_PHASE_OFFSET) \
            | (act == MOD_UPDATE_FRAME)
        for k in range(NUM_NCOS):
            mine = on == k
            if not mine.any():
                continue        # no window reads this NCO's state
            sel = np.flatnonzero(phase_cmds & (nco & (1 << k) != 0))
            states = _nco_states(act[sel], word[sel], at[sel])
            # the state after the last of its commands before the window
            j = np.searchsorted(sel, opened[mine])
            for column, values in zip(state, states):
                column[mine] = values[j]
        return Windows(pos[opened], bound[opened], *state)


def _nco_states(act: np.ndarray, word: np.ndarray,
                at: np.ndarray) -> tuple[np.ndarray, ...]:
    """ref_tick, phase word there and inc of one NCO before its phase
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

    def after(values: np.ndarray) -> np.ndarray:
        return np.concatenate([np.zeros(1, np.int64), values])

    words = after(word)
    inc = words[latest(set_inc)]
    ref_tick = after(at)[latest(reset | set_inc)]
    # acc + frame since the last RESET_PHASE: SET_PHASE_INC adds the old
    # increment's samples up to its latch, UPDATE_FRAME its word
    added = after(np.where(act == MOD_UPDATE_FRAME, word, 0))
    j = np.flatnonzero(set_inc)
    added[j + 1] = inc[j] * ((at[j] - ref_tick[j]) // ANALOG_SAMPLE_TICKS)
    np.cumsum(added, out=added)          # wraps mod 2^64, like the words
    added -= added[latest(reset)]
    added += words[latest(act == MOD_SET_PHASE_OFFSET)]
    added &= PHASE_MASK
    return ref_tick, added, inc


class MixerCorrector:
    """2x2 amplitude/phase correction with DC offsets at the DAC plane."""

    def __init__(self, cfg: ModConfig):
        a, b, c, d = cfg.mixer_matrix
        self.matrix = np.array([[a, b], [c, d]])
        # the product's right factor, C-contiguous: numpy hands a
        # transposed view to BLAS on a slower path, with the same bits
        self._right = np.ascontiguousarray(self.matrix.T)
        self.offset = complex(cfg.dc_offset_i, cfg.dc_offset_q)
        self.dac_bits = cfg.dac_bits
        self.saturations = 0

    def apply(self, iq: np.ndarray,
              held: tuple[np.ndarray, np.ndarray] | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
        """Correct a complex sample array; saturates into [-1, 1).

        The product is numpy's matrix path, rows @ matrix.T, with the
        transpose kept C-contiguous from the constructor; the value pins
        in tests/test_engine.py hold its rounding: an elementwise I/Q
        formula, einsum or a one-row call may round the same sample
        differently.  The DC offset is then added as one complex number.
        Each I or Q outside the range counts one saturation, counted
        before the clip, which works in place on the product.  held is
        (index, weight): iq[index[m]] stands for weight[m] output samples,
        so its saturations count weight[m] times.  ``trace._mix`` weighs
        an entry by the runs that share it, times the samples of a lazy
        TA run, and lists only the entries whose weight is not 1.  One
        min and one max of the product decide whether any of that runs:
        a product wholly in range is neither counted nor clipped.  The
        signed-zero pass runs only on a result holding a zero.  The
        result is written to out (a complex array of iq's length) when
        given, and returned.
        """
        iq = np.ascontiguousarray(iq, dtype=np.complex128)
        # (n, 2) I/Q pairs as a view, the layout np.stack would copy
        pair = iq.view(np.float64).reshape(-1, 2)
        n = len(pair)
        if out is None:
            out = np.empty(n, np.complex128)
        z = out.reshape(-1)
        flat = z.view(np.float64)
        if n == 1:
            # numpy multiplies a one-row matrix on its vector path, which
            # rounds differently: a second row keeps every sample on one
            # path
            flat[:] = (np.repeat(pair, 2, axis=0) @ self._right)[0]
        else:
            np.matmul(pair, self._right, out=flat.reshape(-1, 2))
        z += self.offset
        top = 32767.0 / 32768.0
        # NaN if any entry is NaN, and in range if there is none
        lo, hi = flat.min(initial=np.inf), flat.max(initial=-np.inf)
        if not (lo >= -1.0 and hi <= top):
            self.saturations += (int(np.count_nonzero(flat < -1.0))
                                 + int(np.count_nonzero(flat > top)))
            if held is not None:
                index, weight = held
                part = flat.reshape(-1, 2)[index]
                hit = (part < -1.0) | (part > top)
                self.saturations += int(hit.sum(axis=1) @ (weight - 1))
            np.clip(flat, -1.0, top, out=flat)
        if self.dac_bits is not None:
            scale = float(1 << (self.dac_bits - 1))
            flat *= scale
            np.round(flat, out=flat)
            flat /= scale
            np.clip(flat, -1.0, top, out=flat)
        # signed zeros as I + 1j*Q gives them: a zero Q is +0, a zero I
        # keeps its sign only where Q's sign bit is set.  Elsewhere the
        # pass is the identity, but for a NaN Q, which makes I NaN too
        if lo != lo or not flat.all():
            z += z.imag * 0.0
        return out.reshape(iq.shape)
