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

``ModEngine.resolve`` runs the command stream once over the run columns
(start tick and sample count of each waveform run) and returns the
MODULATE windows as ``Windows`` columns: each window's stream positions
and the NCO state frozen when it opened.  It touches no sample; the
caller rotates the samples inside windows in one pass with
``Windows.rotation``.  Its command loop applies phase commands in place,
and since the stream position a command binds never decreases, it finds
the run holding that position by walking forward, not by search.

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
from itertools import accumulate

import numpy as np

from .clocks import ANALOG_SAMPLE_TICKS
from .events import EV_MODULATE_UNDERFILLED, EV_RESET_PHASE, Event
from .isa import (MOD_MODULATE, MOD_RESET_PHASE, MOD_SET_PHASE_OFFSET,
                  MOD_SYNC, MOD_UPDATE_FRAME, MOD_WAIT, NUM_NCOS, PHASE_BITS,
                  PHASE_MASK, Modulator)

__all__ = ["ModConfig", "NcoBank", "ModEngine", "Windows", "MixerCorrector"]

TWO_PI = 2.0 * np.pi


@dataclass
class ModConfig:
    num_ncos: int = NUM_NCOS
    mixer_matrix: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0)
    dc_offset_i: float = 0.0
    dc_offset_q: float = 0.0
    dac_bits: int | None = None      # optional output quantization, e.g. 14
    pipeline_ticks: int = 0          # rotation stage to output plane delay


class _Nco:
    __slots__ = ("inc", "acc", "ref_tick", "offset", "frame")

    def __init__(self) -> None:
        self.inc = 0.0          # turns per analog sample
        self.acc = 0.0          # turns accumulated up to ref_tick
        self.ref_tick = 0
        self.offset = 0.0
        self.frame = 0.0


class NcoBank:
    def __init__(self, cfg: ModConfig):
        self.ncos = [_Nco() for _ in range(cfg.num_ncos)]
        # the NCOs each value of the 4-bit mask field selects
        self.selected = [[nco for k, nco in enumerate(self.ncos)
                          if mask & (1 << k)]
                         for mask in range(1 << NUM_NCOS)]


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
    """Resolves the modulator command stream against the sample schedule."""

    def __init__(self, cfg: ModConfig):
        self.cfg = cfg
        self.queue: list[tuple[Modulator, int, int]] = []
        self.events: list[Event] = []     # of the latest resolve()

    def submit(self, md: Modulator, tick: int, pos: int = 0) -> None:
        """Queue a command dispatched at tick with pos samples ahead of it."""
        self.queue.append((md, tick, pos))

    def pending_commands(self) -> int:
        return len(self.queue)

    def resolve(self, starts: list[int], counts: list[int],
                trigger_edges: list[int]) -> Windows:
        """MODULATE windows over waveform runs given as columns: run k
        starts at tick starts[k] and plays counts[k] samples."""
        bank = NcoBank(self.cfg)      # fresh state: a repeat call agrees
        ncos, selected = bank.ncos, bank.selected
        events = self.events = []
        first = list(accumulate(counts, initial=0))  # stream position of runs
        total = first[-1]
        run = 0                 # the run holding the latest bound position

        cols: list[tuple] = []          # one row per window
        edges = iter(trigger_edges)
        pipe = self.cfg.pipeline_ticks
        turn = 1 << PHASE_BITS          # phase word units per turn
        cursor_pos = 0          # stream position the next command may bind
        cursor_tick = 0         # output-plane floor once samples ran out

        for md, dispatch, dispatch_pos in self.queue:
            pos = dispatch_pos if dispatch_pos > cursor_pos else cursor_pos
            action = md.action
            if action is MOD_MODULATE:
                end = pos + md.count
                bound = min(end, total)
                if bound > pos:
                    nco = ncos[md.nco]
                    cols.append((pos, bound, nco.acc, nco.inc, nco.ref_tick,
                                 nco.offset, nco.frame))
                    # output tick just after the window's last sample
                    last = bound - 1
                    while first[run + 1] <= last:
                        run += 1
                    cursor_tick = max(cursor_tick, starts[run]
                                      + ANALOG_SAMPLE_TICKS
                                      * (last - first[run] + 1))
                if end > total:
                    events.append(Event(
                        cursor_tick, EV_MODULATE_UNDERFILLED, 0,
                        {"nco": md.nco, "missing": end - total}))
                cursor_pos = end
            elif action is MOD_WAIT:
                edge = next(edges, None)
                if edge is None:
                    break        # parked at WAIT: nothing further applies
                cursor_tick = max(cursor_tick, edge)
                cursor_pos = pos
            elif action is MOD_SYNC:
                cursor_pos = pos
            else:
                turns = (md.phase_word & PHASE_MASK) / turn
                if action is MOD_UPDATE_FRAME:
                    for nco in selected[md.nco]:
                        nco.frame = (nco.frame + turns) % 1.0
                elif action is MOD_SET_PHASE_OFFSET:
                    for nco in selected[md.nco]:
                        nco.offset = turns
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
                    if action is MOD_RESET_PHASE:
                        for nco in selected[md.nco]:
                            nco.acc = 0.0
                            nco.frame = 0.0
                            nco.ref_tick = at
                        events.append(Event(at, EV_RESET_PHASE, 0,
                                            {"mask": md.nco}))
                    else:
                        # accumulate at the old increment up to the latch
                        for nco in selected[md.nco]:
                            nco.acc += (nco.inc * (at - nco.ref_tick)
                                        / ANALOG_SAMPLE_TICKS)
                            nco.ref_tick = at
                            nco.inc = turns
                cursor_pos = pos

        lo, hi, acc, inc, ref, offset, frame = zip(*cols) if cols else [()] * 7
        return Windows(np.array(lo, np.int64), np.array(hi, np.int64),
                       np.array(acc, np.float64), np.array(inc, np.float64),
                       np.array(ref, np.int64), np.array(offset, np.float64),
                       np.array(frame, np.float64), pipe)


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
