"""Output plane: a finished run's columns, mixed samples and events.

Output path: the decode loop builds no sample.  Each engine appends
plain integers per run to the rows of its columns (``column.Column``):
the waveform engine the start tick, absolute waveform address (the
active ping-pong page base included), sample count and TA flag; a
marker engine the start tick, count, state and last word.
``Sequencer.finalize`` builds each column into one array, a chunk of
copied laps by one outer add, resolves the modulator's windows over
those columns, then walks the compact stream (one run of each key, see
"Distinct runs") in blocks of ``BLOCK_SAMPLES``, so its working memory
is bounded by the block size.  Per block it builds the index of one
32-bit word per sample in two passes, each run's base word repeated over
its entries plus the entry numbers (a block holding a TA run inside a
window first multiplies the entry numbers by each run's step, 0 for that
run), gathers the words from a word view of the image's waveform memory
(each word an int16 I/Q pair), converts and scales the pairs to float in
one pass and views them as complex samples.  It rotates the samples
inside windows in place and makes one mixer call, which writes into the
block's slice of the result.  The mixer multiplies the (I, Q) rows by
the transposed matrix, kept C-contiguous from its constructor, adds the
DC offset as one complex number, and takes one min and one max of the
product: only a block with a value out of range is counted and clipped,
and only a block holding an exact zero takes the signed-zero pass.  A TA
run outside every window stays lazy: one mixed value; the mixer counts
its saturations once per sample it stands for, at the cost of the
weighed entries alone.  The trace keeps the compact stream as it was
mixed, and ``OutputTrace.analog_values`` expands it on read.
``Runs.ticks`` likewise fills each run's base tick, then adds a
block-long ramp of sample ticks in place, a block at a time.

Distinct runs: a shot repeated many times plays the same words under the
same NCO state, so ``_mix`` groups the runs by a key for which equal
keys give bit-equal entries and mixes the first run of each group (the
compact stream).  The trace stores that stream and each run's first
entry in it, and ``_expand`` gathers every run's entries from its
group's, a block at a time, when the samples are read.  Run k
(n samples, from address addr, TA flag ta) has the key (free, addr, n,
ta) if no window touches it, and (whole, addr, n, ta, inc_j, W_j, d_k)
if window j holds all of it: W_j is the phase word at the window's first
played sample, first_j, and d_k the run's first played sample period
less first_j.  A run that a window edge cuts is a group of its own.
Equal keys give equal bits: entry i of a whole run rotates by
ramp(inc_j)[r] · phasor(W_j + inc_j·m·L), with m and r the quotient and
remainder of d_k + i by L, which is fixed by inc_j within one
``finalize`` (below), so the factor depends on (inc_j, W_j, d_k + i)
alone; and the mixer's result for a row depends on no other row.  The
kind stays in the key, so that a free run and a rotated one never share
a group, even where a zero word makes the factor exactly 1.  The mixer
counts a saturating entry once per output sample it stands for: its
weight is its group's count of runs, times n for a lazy run.  Only runs
that can share a key are sorted: like a cut run, a whole run of a window
whose (inc_j, W_j) no other window has is a group alone, since two runs
of one window that play differ in d_k.  Grouping is one sort of
a 64-bit mix of the key columns, then a comparison, column by column, of
the rows whose mix equals their neighbour's, so a collision can only
split a group.  When no two runs share a key, the compact stream is the
stream, and the trace stores no entry offsets.

Rotation ramps: the entry of window j that plays d sample periods after
the window's first (gaps count) rotates by the direct exp of its exact
phase word W_j + inc_j·d, mod 2^48.  With d = m·L + r that is
phasor(W_j + inc_j·m·L) times ramp(inc_j)[r].  ``_ramps`` builds one
ramp per distinct increment once, each as long as its longest window but
all in ``BLOCK_SAMPLES`` entries (1 MiB), over the windows of the whole
stream, so L does not depend on which runs the compact stream holds.  A
window covers consecutive entries of the compact stream: those of the
groups led by its runs.  Per block ``_Rotation.rotate`` cuts the entries
where the phasor changes (run starts, window edges, multiples of L;
repeats dropped by a sort and a neighbour mask, not ``np.unique``), so
its pieces never outgrow a block, and takes one direct exp per piece; an
entry then costs a ramp gather and two complex multiplies, and one
outside windows is multiplied by exactly 1.  A factor is within a few
ulp of ``mod.Windows.rotation`` and equal to it at r = 0, so a zero
increment rotates by exactly the direct exp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .clocks import ANALOG_SAMPLE_TICKS
from .events import Event, stalls
from .isa import PHASE_MASK
from .mod import MixerCorrector, Windows, phasors

__all__ = ["BLOCK_SAMPLES", "Runs", "MarkerRuns", "OutputTrace"]

BLOCK_SAMPLES = 1 << 16   # samples finalize gathers, rotates, mixes at once
# a block's entry numbers and sample ticks from its start, made once: a
# block adds them in place instead of building its own
_ENTRIES = np.arange(BLOCK_SAMPLES)
_STEPS = ANALOG_SAMPLE_TICKS * _ENTRIES
_ENTRIES.flags.writeable = _STEPS.flags.writeable = False


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
        # sample p of the stream, in run k, plays at tick
        # start[k] - 5·first[k] + 5·p: each run's base repeated, then
        # the steps 5·p added a block at a time
        first = np.cumsum(self.n) - self.n
        out = np.repeat(self.start - ANALOG_SAMPLE_TICKS * first, self.n)
        for b0 in range(0, len(out), BLOCK_SAMPLES):
            block = out[b0:b0 + BLOCK_SAMPLES]
            block += _STEPS[:len(block)]
            block += ANALOG_SAMPLE_TICKS * b0
        return out


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
    the compact stream of their corrected entries: each distinct run's
    once (module docstring, "Distinct runs").  Run k plays its entries
    from mixed[entry[k]] on, or, entry None when no two runs share a
    key, the runs' entries lie back to back in stream order.  A lazy run
    (a TA run outside every MODULATE window, flagged in lazy) has one
    entry for all its samples.  analog_values() expands the entries.
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
    entry: np.ndarray | None
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
        return _expand(self.mixed, self.analog.n, self.lazy, self.entry)

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
         corrector: MixerCorrector
         ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Corrected samples of waveform runs, BLOCK_SAMPLES entries at a time.

    Sample i of run k reads waveforms[addr[k] + i] (addr[k] for a TA
    run).  A TA run no window touches is lazy: one entry stands for all
    its samples.  Runs of one key (module docstring, "Distinct runs") mix
    once: the first run of each group, in stream order, makes the compact
    stream, which is mixed block by block, each of its entries weighing
    the output samples it stands for.  Returns the compact stream, each
    run's first entry in it (its group's first run's), None when no two
    runs share a key, and the lazy flag of each run.
    """
    count = runs.n
    first = np.cumsum(count) - count            # stream position of runs
    # windows are sorted and disjoint: a run overlaps those that open
    # before it ends less those that close before it starts
    j0 = np.searchsorted(windows.hi, first, side="right")
    touched = np.searchsorted(windows.lo, first + count) > j0
    lazy = ta & ~touched
    phases = _phases(windows, runs.start, first)
    group, lead = _groups_among(len(runs), *_keys(
        runs, first, addr, ta, touched, j0, windows, phases))

    # the compact stream's runs: columns of each group's first run (one:
    # lazy, of one entry).  An entry of weight w stands for w samples
    start, count, first, addr, ta, one = (
        col[lead] for col in (runs.start, count, first, addr, ta, lazy))
    weight = np.bincount(group) * np.where(one, count, 1)
    weighed = np.flatnonzero(weight != 1)
    span = np.where(one, 1, count)              # entries per run
    at = np.cumsum(span) - span                 # first entry of each run
    at_end = at + span
    # entry p of run k reads word base[k] + step[k]*p and, expanded,
    # plays origin[k] + p sample periods after tick 0 (run starts lie on
    # the sample grid).  A lazy run has one entry, so only an expanded TA
    # run needs step 0
    step = np.where(ta & ~one, 0, 1)
    base = addr - step * at
    origin = start // ANALOG_SAMPLE_TICKS - at
    # window j covers the entries of the groups led from its first run
    # on to its last, which are consecutive in the compact stream:
    # before[k] groups are led by a run before run k
    before = np.zeros(len(group) + 1, np.int64)
    before[lead + 1] = 1
    np.cumsum(before, out=before)
    ca, cb = before[phases.ka], before[phases.kb + 1] - 1
    j = np.flatnonzero(cb >= ca)                # windows that lead a group
    ca, cb = ca[j], cb[j]
    rotation = _Rotation(
        at[ca] + np.maximum(windows.lo[j] - first[ca], 0),
        at[cb] + np.minimum(windows.hi[j] - first[cb], count[cb]), j, at,
        origin, phases)
    # one I/Q pair of int16 per 32-bit word
    words = np.ascontiguousarray(waveforms).view(np.uint32).reshape(-1)
    compact = np.empty(int(span.sum()), np.complex128)
    # the set-up columns go before the blocks' working memory comes
    del phases, start, count, first, addr, ta, one, span, origin
    del touched, j0, before, ca, cb, j

    for b0 in range(0, len(compact), BLOCK_SAMPLES):
        b1 = min(b0 + BLOCK_SAMPLES, len(compact))
        k0, k1 = (np.searchsorted(at_end, b0, side="right"),
                  np.searchsorted(at, b1))
        size = (np.minimum(at_end[k0:k1], b1)
                - np.maximum(at[k0:k1], b0))     # the runs' entries here
        index = np.repeat(base[k0:k1], size)
        if step[k0:k1].all():
            index += b0
            index += _ENTRIES[:b1 - b0]
        else:
            index += np.repeat(step[k0:k1], size) * (_ENTRIES[:b1 - b0] + b0)
        # I/Q to [-1, 1): scaling by a power of two is exact
        z = np.multiply(words[index].view(np.int16), 1.0 / 32768.0)
        del index
        z = z.view(np.complex128)
        rotation.rotate(z, b0, b1)
        h0, h1 = np.searchsorted(weighed, (k0, k1))
        corrector.apply(z, _held(weighed[h0:h1], weight, at, at_end, b0, b1)
                        if h1 > h0 else None, out=compact[b0:b1])
    if len(lead) == len(group):
        return compact, None, lazy
    return compact, at[group], lazy


def _expand(mixed: np.ndarray, n: np.ndarray, lazy: np.ndarray,
            entry: np.ndarray | None) -> np.ndarray:
    """Every output sample of runs that play n[k] entries of mixed from
    entry[k] on, or one entry n[k] times if lazy[k]; entry None: the runs'
    entries back to back.  A new array, whatever the runs."""
    if entry is not None:
        # entry p of run k is entry p of its group's first run
        width = np.where(lazy, 1, n)            # entries per run
        first = np.cumsum(width) - width        # first entry of each run
        total = int(width.sum())
        shift = entry - first
        first_end = first + width
        out = np.empty(total, np.complex128)
        for b0 in range(0, total, BLOCK_SAMPLES):
            b1 = min(b0 + BLOCK_SAMPLES, total)
            k0, k1 = (np.searchsorted(first_end, b0, side="right"),
                      np.searchsorted(first, b1))
            index = np.repeat(shift[k0:k1], np.minimum(first_end[k0:k1], b1)
                              - np.maximum(first[k0:k1], b0))
            index += b0
            index += _ENTRIES[:b1 - b0]
            # every index is in range; numpy buffers out under the default
            # mode="raise" (a second copy of the block), not under "clip"
            mixed.take(index, out=out[b0:b1], mode="clip")
        mixed = out
    if not lazy.any():
        return mixed if entry is not None else mixed.copy()
    # a lazy run's one entry plays n times
    return np.repeat(mixed, np.repeat(np.where(lazy, n, 1),
                                      np.where(lazy, 1, n)))


def _held(runs: np.ndarray, weight: np.ndarray, at: np.ndarray,
          end: np.ndarray, b0: int, b1: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """(index, weight) of the entries in block [b0, b1) of the runs
    given, each run's entries [at, end) weighing its weight."""
    lo, hi = np.maximum(at[runs], b0) - b0, np.minimum(end[runs], b1) - b0
    index, k = _spans(lo, hi)
    return index, weight[runs][k]


class _Phases(NamedTuple):
    """Window j over a stream of runs: runs ka[j] and kb[j] hold its first
    and last sample, its first entry plays first[j] sample periods after
    tick 0, at phase word word[j], and its increment word is inc[j]; its
    factor r samples on from a phasor is ramp[at[j] + r], for
    r < period[j] (``_ramps``)."""

    ka: np.ndarray
    kb: np.ndarray
    first: np.ndarray
    word: np.ndarray
    inc: np.ndarray
    ramp: np.ndarray
    at: np.ndarray
    period: np.ndarray


def _phases(windows: Windows, start: np.ndarray,
            first: np.ndarray) -> _Phases:
    """The phases of windows over runs that start at ticks start and at
    stream positions first."""
    ka = np.searchsorted(first, windows.lo, side="right") - 1
    kb = np.searchsorted(first, windows.hi - 1, side="right") - 1
    lo = start[ka] // ANALOG_SAMPLE_TICKS + windows.lo - first[ka]
    hi = start[kb] // ANALOG_SAMPLE_TICKS + windows.hi - first[kb]
    return _Phases(ka, kb, lo, windows.words(np.arange(len(windows)),
                                             ANALOG_SAMPLE_TICKS * lo),
                   windows.inc, *_ramps(windows.inc, hi - lo))


def _keys(runs: Runs, first: np.ndarray, addr: np.ndarray, ta: np.ndarray,
          touched: np.ndarray, j0: np.ndarray, windows: Windows,
          phases: _Phases) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The runs that may share a key (module docstring) with another, in
    stream order, and their keys as int64 columns.  Run k sits at stream
    position first[k], a window touches it if touched[k], and j0[k]
    windows close at or before its start."""
    n = runs.n
    if not len(windows):
        return np.arange(len(n)), (ta.astype(np.int64), addr, n)
    # a run that holds a window's edge inside it is cut: a group alone
    cut = np.zeros(len(n), bool)
    ka, kb = phases.ka, phases.kb
    cut[ka[windows.lo > first[ka]]] = True
    cut[kb[windows.hi < first[kb] + n[kb]]] = True
    whole = touched ^ cut
    j = np.minimum(j0, len(windows) - 1)     # a whole run's window
    # a whole run's key holds its window's (inc, W), and two runs of one
    # window that play differ in d, so a whole run of a window whose
    # pair no other window has is a group alone too
    pair, _ = _groups(phases.inc, phases.word)
    shared = np.bincount(pair)[pair] > 1
    rows = np.flatnonzero(~touched | (whole & shared[j]))
    whole, j = whole[rows], j[rows]
    d = np.where(whole, runs.start[rows] // ANALOG_SAMPLE_TICKS
                 - phases.first[j], 0)
    return rows, (2 * whole + ta[rows], addr[rows], n[rows],  # free, whole
                  np.where(whole, phases.inc[j], 0),
                  np.where(whole, phases.word[j], 0), d)


def _groups_among(n: int, rows: np.ndarray, key: tuple[np.ndarray, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``_groups`` over n rows, of which rows (ascending) are grouped by
    their key columns and every other row is a group alone."""
    group, lead = _groups(*key)
    if len(rows) == n:
        return group, lead
    if len(lead) == len(rows):                  # every row alone
        return np.arange(n), np.arange(n)
    leads = np.ones(n, bool)
    leads[rows] = False
    leads[rows[lead]] = True
    number = np.cumsum(leads) - 1               # group of each lead
    number[rows] = number[rows[lead]][group]
    return number, np.flatnonzero(leads)


_MIX = np.uint64(0x9E3779B97F4A7C15)     # 2^64 over the golden ratio, odd


def _groups(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows equal in every int64 column: the group of each row,
    groups numbered in order of their first row, and that row of each
    group.

    One sort of a 64-bit mix of the columns brings equal rows together,
    and neighbours of equal mix are compared on every column, so a
    collision of the mix can only split a group, never merge rows that
    differ.  Rows of distinct mixes cost no comparison.
    """
    n = len(columns[0])
    mix = columns[0].astype(np.uint64)
    for col in columns[1:]:
        mix *= _MIX
        mix += col.view(np.uint64)
    order = np.argsort(mix)
    mix = mix[order]
    same = np.flatnonzero(mix[1:] == mix[:-1])
    if not len(same):
        return np.arange(n), np.arange(n)
    a, b = order[same], order[same + 1]
    differ = np.zeros(len(same), bool)
    for col in columns:
        differ |= col[a] != col[b]
    new = np.ones(n, bool)
    new[same[~differ] + 1] = False
    at = np.flatnonzero(new)
    lead = np.minimum.reduceat(order, at)       # each label's first row
    rank = np.argsort(lead)
    number = np.empty(len(lead), np.int64)
    number[rank] = np.arange(len(lead))
    group = np.empty(n, np.int64)
    group[order] = np.repeat(number, np.diff(at, append=n))
    return group, lead[rank]


class _Rotation:
    """Pieces [lo[i], hi[i]) of windows which[i], as entries, rotated
    block by block (module docstring); entry p of run k plays
    origin[k] + p sample periods after tick 0."""

    def __init__(self, lo: np.ndarray, hi: np.ndarray, which: np.ndarray,
                 entry: np.ndarray, origin: np.ndarray, phases: _Phases):
        self.lo, self.hi = lo, hi
        self.entry, self.origin = entry, origin
        self.first, self.word, self.inc, self.ramp_at, self.period = (
            col[which] for col in (phases.first, phases.word, phases.inc,
                                   phases.at, phases.period))
        self.ramp = phases.ramp

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
        # the phasor's word, wrapping mod 2^64 like the words
        edge *= self.inc[j]
        edge += self.word[j]
        edge &= PHASE_MASK
        turn = np.where(inside, phasors(edge), 1)
        size = np.diff(at, append=b1)
        index = np.repeat(shift, size)
        index += np.arange(b0, b1)
        factor = self.ramp.take(index, mode="clip")
        del index
        turn = np.repeat(turn, size)
        if b1 - b0 == 1:
            # numpy multiplies one complex element in place on its scalar
            # path, which rounds unlike its array loop; out of place it
            # takes the array loop, so an entry's bits do not depend on
            # its block's length
            z[:] = z * (factor * turn)
            return
        factor *= turn
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
