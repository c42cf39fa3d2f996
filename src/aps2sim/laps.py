"""Lap fast-forward: the laps of a REPEAT loop copied, not decoded.

Lap fast-forward: at each taken REPEAT, ``LapRecorder.skip_laps``
compares the machine state with its state at the taken REPEATs at the
same pc that began the last few laps, up to ``CLK`` of them.  Ticks are
compared relative to the decode tick t0.  A tick at or below t0 is
stale, and any two stale values of a field count as equal: the code only
ever compares such a tick against a later one, with max or <=.  So
``last_start`` is compared as ``last_start + min_gap``, the bound it
puts on a start, and the waveform frontier is never stale, since an
underrun event records it.  Each lap records its counters and the row
count of every column a lap writes, all listed once in
``LapRecorder.columns`` with the step rule of each: each engine's runs
(start and dispatch tick, count and the rest), the modulator's commands,
dispatch ticks and positions, and the four event logs.  The full state
is built only when the lap's waveform lead (frontier less t0) equals a
recorded one.  The laps copied are one chunk in every column
(``column.Column.repeat``): the laps' rows once, the number of copies
and the step of one copy, which the column's rule gives.  So copying m
laps costs the laps' rows, not m times them, and no Python object is
made per copied run, command or event; a copied event becomes an
``Event`` only when a log is read.  The engines' columns also keep their
last ``queue_depth`` copied runs as rows: no more runs than that are
ever queued, so the queue room check, ``_lap_key`` and ``_affine_laps``
read plain lists, and every index the lap code keeps (``head``, the
marks, template ranges) is a row index.  The decode, hit and miss
counts, the stream position, the repeat register and ``laps_copied``
advance as the copied laps would have advanced them, and the state is
set to the one the last copy ends in, ticks relative to its decode tick
(a stale tick stays stale).
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
the event logs (the waveform engine's underruns moved by its Q, like
its run starts; the sequencer's, fetch stalls only, and the instruction
cache's by P); no SYNC fence or page event.  Each run of the
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
for copy m, so ``_affine_laps`` takes the largest such m and
``_repeat_affine`` appends m copies of the last lap, each column moved
by the step it was compared with.  The next laps decode again, and the
exact path takes over once their state repeats.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .clocks import PIPELINE_TICKS, SEQ_CLOCK_TICKS as CLK
from .events import EV_FETCH_STALL

__all__ = ["LapRecorder"]

# step rules of the columns; an engine's starts and log take its move
PERIOD, SAMPLES, STILL = "period", "samples", "still"


class _Marks(NamedTuple):
    """Counters and row counts at a taken REPEAT: what a lap adds is
    measured from them."""

    decodes: int
    hits: int
    misses: int
    stream_pos: int
    fences: int           # SYNC fences resolved
    rows: dict            # of each column in LapRecorder.columns


@dataclass(slots=True, eq=False)
class _Lap:
    """A taken REPEAT that began a lap: the decode tick t0, the waveform
    lead, its marks and, once built, the state outside the engines
    (``_state_key``) and each engine's ``_lap_key``."""

    t0: int
    lead: int | None
    marks: _Marks
    state: tuple | None = None
    engine_keys: list | None = None


def _steady(before: _Marks, after: _Marks, pages) -> bool:
    """Whether the laps between the marks resolved no SYNC fence and
    logged no waveform page event in pages: no stream restarted."""
    return (before.fences == after.fences
            and before.rows[pages] == after.rows[pages])


def _kept(slack: int, step: int, laps: int) -> int:
    """The most laps, at most laps, over which slack (at least 0), moved
    on by step a lap, stays at least 0."""
    return laps if step >= 0 else min(laps, slack // -step)


class LapRecorder:
    """One sequencer's lap records and copies (module docstring): the
    decode loop calls ``skip_laps`` and, per run, ``clear``."""

    def __init__(self, seq):
        self.seq = seq
        # the taken REPEATs at pc _lap_at that began the laps since, the
        # last CLK of them, oldest first
        self._laps: deque[_Lap] = deque(maxlen=CLK)
        self._lap_at = -1
        self.lap_depth = -1      # their stack depth; -1 once a lap writes
                                 # the repeat register itself
        # every column a lap writes, once: (column, step rule, copied rows
        # kept as rows); an engine's columns keep queue_depth of them
        depth, modeng = seq.cfg.queue_depth, seq.modeng
        self.columns = tuple(
            [(c, e if c is e.starts else PERIOD if c is e.dispatches
              else STILL, depth) for e in seq.engines for c in e.columns]
            + [(modeng.commands, STILL, 0), (modeng.ticks, PERIOD, 0),
               (modeng.positions, SAMPLES, 0), (seq.wf.events, seq.wf, 0),
               (seq.events, PERIOD, 0), (seq.icache.events, PERIOD, 0),
               (seq.wavecache.events, PERIOD, 0)])

    def clear(self) -> None:
        """Drop the records: an input arrived, and no lap spans it."""
        self._laps.clear()

    def skip_laps(self, at: int) -> None:
        """At a taken REPEAT at pc at, append laps still to run as copies
        of earlier ones if the state repeats (module docstring)."""
        seq = self.seq
        t0 = seq.decode_tick
        depth = len(seq.stack)
        if self.lap_depth != depth or self._lap_at != at:
            self._laps.clear()   # another loop, or the lap was not pure
            self._lap_at = at
        self.lap_depth = depth
        engines = seq.engines
        if (seq.mod_waits or seq.steering
                or any(e.wait_dispatch is not None for e in engines)):
            self._laps.clear()   # an input could change the next lap
            return
        if not seq.repeat_register:
            return               # the loop's last lap: none is left to copy
        frontier = seq.wf.frontier
        lap = _Lap(t0, None if frontier is None else frontier - t0,
                   self._lap_marks())
        laps = self._laps
        # cheap pre-check: a lap whose waveform lead against the decode
        # tick no recorded lap shares repeats none, so no key is built
        if any(old.lead == lap.lead for old in laps):
            lap.state = _state_key(seq, t0)
            lap.engine_keys = [_lap_key(e, t0) for e in engines]
            for k in range(1, len(laps) + 1):
                old = laps[-k]
                if (old.engine_keys == lap.engine_keys
                        and old.state == lap.state):
                    if self._repeat_laps(old, lap, k):
                        laps.clear()
                        return
                    break
        if laps and _steady(laps[-1].marks, lap.marks, seq.wavecache.events):
            if lap.state is None:
                lap.state = _state_key(seq, t0)
            if (len(laps) > 1 and laps[-1].state is not None
                    and laps[-1].state[0] == lap.state[0]
                    and self._repeat_affine(laps[-2], laps[-1], lap)):
                laps.clear()
                return
        laps.append(lap)

    def _lap_marks(self) -> _Marks:
        # row counts: no lap spans a copy, so rows index what laps add
        seq = self.seq
        return _Marks(seq.decodes, seq.icache.hits, seq.icache.misses,
                      seq.stream_pos, seq._fences,
                      {c: len(c.rows) for c, _, _ in self.columns})

    def _repeat_laps(self, old: _Lap, now: _Lap, k: int) -> bool:
        """Append the laps still to run as blocks of copies of the last
        k, from old to now, each moved on by the period from old to now
        from the one before; then the r < k laps left as the first r of
        them moved on once more.  False if not one lap can be."""
        seq = self.seq
        period = now.t0 - old.t0
        if period % CLK:
            return False
        marks, laps = old.marks, self._laps
        per_block = now.marks.decodes - marks.decodes
        budget = seq.cfg.max_decodes - seq.decodes
        blocks = min(seq.repeat_register // k, budget // per_block)
        budget -= blocks * per_block
        # the laps left, as many of the block's first laps as end at a
        # recorded state and fit the budget
        left = min(seq.repeat_register - blocks * k, k - 1)
        r = next((r for r in range(left, 0, -1)
                  if laps[r - k].engine_keys is not None
                  and laps[r - k].marks.decodes - marks.decodes <= budget), 0)
        if not blocks and not r:
            return False
        played = now.marks.stream_pos - marks.stream_pos
        if blocks:
            self._copy_laps(marks, now.marks, k, blocks,
                            self._rule_steps(period, played))
        end, copies = now, blocks
        if r:
            # a lap inside the block may differ from now in more than its
            # ticks (a comparison result that alternates lap by lap), so
            # the whole state is set to end's
            end, copies = laps[r - k], blocks + 1
            self._copy_laps(marks, end.marks, r, 1, self._rule_steps(
                copies * period, copies * played))
        _restore(seq, end.state, end.t0 + copies * period)
        for e, key in zip(seq.engines, end.engine_keys):
            _restore_engine(e, key, seq.decode_tick)
        return True

    def _repeat_affine(self, a: _Lap, b: _Lap, now: _Lap) -> bool:
        """Append copies of the lap from b to now, which moved every field
        of the lap from a to b on by its own period, until one of its
        start rules or queue room checks would decide otherwise (module
        docstring).  False if the laps differ in more, or not one lap
        can be copied."""
        seq = self.seq
        period = now.t0 - b.t0
        ma, mb, mc = a.marks, b.marks, now.marks
        laps = min(seq.repeat_register, (seq.cfg.max_decodes - seq.decodes)
                   // (mc.decodes - mb.decodes))
        if laps <= 0:            # bounded first: no lap left, no comparison
            return False
        # every counter grew alike; the columns are compared below
        if (b.t0 - a.t0 != period or not _steady(ma, mb, seq.wavecache.events)
                or any(z - y != y - x for x, y, z in zip(ma[:-1], mb[:-1],
                                                         mc[:-1]))):
            return False
        engines = seq.engines
        moves = {}
        for e in engines:
            x, y, z = ma.rows[e.starts], mb.rows[e.starts], mc.rows[e.starts]
            moves[e] = e.starts.rows[y] - e.starts.rows[x] if z > y else 0
        # a fetch stall moves with the decode tick; a lap with any other
        # event of the sequencer's is not copied
        log = seq.events
        if any(e.kind is not EV_FETCH_STALL
               for e in log.rows[ma.rows[log]:mb.rows[log]]):
            return False
        steps = self._rule_steps(period, mc.stream_pos - mb.stream_pos,
                                 moves)
        if not all(c.moved(ma.rows[c], mb.rows[c], mc.rows[c], steps[rule])
                   for c, rule, _ in self.columns):
            return False
        # a tick outside the engines moved on with the decode tick, or it
        # stayed put ahead of it: no lap reads such a tick, since a fetch
        # that did would stall by a different amount each lap
        ticks = now.state[1]
        if any(t != was and t != was - period
               for was, t in zip(b.state[1], ticks)):
            return False
        depth = seq.cfg.queue_depth
        for e, move in moves.items():
            laps = _affine_laps(e, mb.rows[e.starts], period, move, depth,
                                laps)
        if laps <= 0:
            return False
        self._copy_laps(mb, mc, 1, laps, steps)
        moved = laps * period
        _restore(seq, (now.state[0], tuple(
            t if t == was else t - moved
            for was, t in zip(b.state[1], ticks))), now.t0 + moved)
        for e, move in moves.items():
            _move_engine(e, laps * move, seq.decode_tick)
        return True

    def _rule_steps(self, period, samples, moves=None) -> dict:
        """Each rule's step per copy (``columns``): an engine's run
        starts and log move by its move in moves, by default the period."""
        return {**(dict.fromkeys(self.seq.engines, period) if moves is None
                   else moves), PERIOD: period, SAMPLES: samples, STILL: 0}

    def _copy_laps(self, old: _Marks, end: _Marks, laps: int, count: int,
                   steps: dict) -> None:
        """Append what the laps between marks old and end (laps of them)
        added to each column count times, copy c moved on by c times the
        step its rule has in steps (``_rule_steps``).  Count the copies'
        decodes, hits, misses, samples and laps."""
        for column, rule, keep in self.columns:
            column.repeat(old.rows[column], end.rows[column], steps[rule],
                          count, keep)
        seq = self.seq
        icache = seq.icache
        played = end.stream_pos - old.stream_pos
        seq.decodes += count * (end.decodes - old.decodes)
        icache.hits += count * (end.hits - old.hits)
        icache.misses += count * (end.misses - old.misses)
        seq.stream_pos += count * played
        seq.repeat_register -= count * laps
        seq.laps_copied += count * laps


# -- the state a lap compares and restores: the sequencer's, each engine's

def _state_key(seq, t0: int) -> tuple[tuple, tuple]:
    """The state of seq outside the engines the laps ahead read: its shape,
    and its ticks relative to t0, a stale one as 0 (the bus, the
    window lines in line order, the associative lines in victim
    order, a carried fetch, the waveform pages)."""
    icache, wavecache = seq.icache, seq.wavecache
    carried = seq._carried_fetch
    window = sorted(icache.window.items())
    ticks = [seq.sdram.busy_until, *(t for _, t in window),
             *icache.assoc.values()]
    shape = [seq.pc, tuple(seq.stack), seq.cmp_register,
             seq.cmp_result, icache.base_line, icache.resident,
             tuple(line for line, _ in window), tuple(icache.assoc),
             None if carried is None else carried[0]]
    if carried is not None:
        ticks.append(carried[1])
    if wavecache.pingpong:
        shape += [wavecache.active_slot,
                  tuple(page for page, _ in wavecache.slots)]
        ticks += [t for _, t in wavecache.slots]
    return tuple(shape), tuple(max(t - t0, 0) for t in ticks)


def _restore(seq, state: tuple[tuple, tuple], t0: int) -> None:
    """Set the state of seq _state_key read to state, relative to the
    decode tick t0."""
    icache, wavecache = seq.icache, seq.wavecache
    shape, ticks = state
    seq.pc, stack, seq.cmp_register, seq.cmp_result = shape[:4]
    seq.stack = list(stack)
    icache.base_line, icache.resident, window, assoc, carried = \
        shape[4:9]
    # the ticks in _state_key's order; each zip takes as many as its
    # lines
    at = iter([t0 + t for t in ticks])
    seq.sdram.busy_until = next(at)
    icache.window = dict(zip(window, at))
    icache.assoc = dict(zip(assoc, at))
    seq._carried_fetch = None if carried is None else (carried, next(at))
    if wavecache.pingpong:
        wavecache.active_slot = shape[9]
        wavecache.slots = list(zip(shape[10], at))
    seq.decode_tick = t0


def _lap_key(eng, t0: int) -> tuple:
    """eng's scheduling state at decode tick t0, ticks relative to it and
    a stale one as 0; moves head to the first run not started by t0."""
    starts = eng.starts.rows
    head, n_runs = eng.head, len(starts)
    while head < n_runs and starts[head] <= t0:
        head += 1
    eng.head = head
    frontier, last = eng.frontier, eng.last_start
    if frontier is not None:
        # an underrun event records the frontier: never stale there
        frontier -= t0
        if frontier < 0 and not eng.gaps_are_underruns:
            frontier = 0
    if last is not None:
        # last_start bounds a start only as last_start + min_gap
        last = max(last + eng.min_gap - t0, 0)
    return (frontier, last, max(eng.floor - t0, 0),
            [start - t0 for start in starts[head:]])


def _restore_engine(eng, key: tuple, t0: int) -> None:
    """Set eng's scheduling ticks to _lap_key's, relative to t0."""
    frontier, last, floor, _ = key
    eng.frontier = None if frontier is None else t0 + frontier
    eng.last_start = None if last is None else t0 + last - eng.min_gap
    eng.floor = t0 + floor
    eng.head = bisect_right(eng.starts.rows, t0, eng.head)


def _move_engine(eng, ticks: int, t0: int) -> None:
    """Move eng's stream on by ticks; the floor stays."""
    if eng.frontier is not None:
        eng.frontier += ticks
        eng.last_start += ticks
    eng.head = bisect_right(eng.starts.rows, t0, eng.head)


def _affine_laps(eng, first: int, period: int, move: int, depth: int,
                 laps: int) -> int:
    """The most copies, at most laps, of eng's runs first.. that can be
    appended with dispatch ticks moved on by period and starts by move
    per copy while each start rule and queue room check decides as it
    did for them (module docstring); the lap before them repeats them
    too."""
    starts, counts = eng.starts.rows, eng.counts.rows
    dispatches = eng.dispatches.rows[first:]
    n = len(dispatches)
    earlier = first - n              # the lap before's first run
    for j, dispatch in enumerate(dispatches):
        run = first + j
        last = starts[run - 1]
        frontier = last + eng.count_ticks * counts[run - 1]
        # each bound on the start and its move per lap
        bounds = ((-(-dispatch // CLK) * CLK + PIPELINE_TICKS, period),
                  (eng.floor, 0), (last + eng.min_gap, move))
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
