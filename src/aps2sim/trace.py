"""Output plane: a finished run's columns, mixed samples and events.

Output path: the decode loop builds no sample.  Each engine appends
plain integers per run to the rows of its columns (``column.Column``):
the waveform engine the start tick, absolute waveform address (the
active ping-pong page base included), sample count and TA flag; a
marker engine the start tick, count, state and last word.
``Sequencer.finalize`` builds each column into one array, a chunk of
copied laps by one outer add, resolves the modulator's windows over
those columns, then walks the stream in blocks of ``BLOCK_SAMPLES``, so
its working memory is bounded by the block size.  Per block it builds the
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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .clocks import ANALOG_SAMPLE_TICKS
from .events import Event, stalls
from .isa import PHASE_MASK
from .mod import MixerCorrector, Windows, phasors

__all__ = ["BLOCK_SAMPLES", "Runs", "MarkerRuns", "OutputTrace"]

BLOCK_SAMPLES = 1 << 16   # samples finalize gathers, rotates, mixes at once


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


@dataclass(eq=False)
class OutputTrace:
    """A finished run: integer run columns plus the mixed analog samples.

    analog holds the waveform runs (len(analog) counts them) and mixed
    their corrected samples in stream order, except that a lazy run (a
    TA run outside every MODULATE window, flagged in lazy) holds one
    entry for all its samples.  analog_values() expands those entries.
    logs holds the event logs as ``finalize`` saw them, in this order:
    the waveform engine's, the sequencer's, the instruction cache's, the
    waveform cache's and the modulator's.  events is built from them on
    its first read, copied laps expanded, and kept, so decoding after
    ``finalize`` leaves it unchanged.
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
