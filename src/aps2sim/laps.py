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
recorded one, and the state outside the engines also when the lap
restarted no stream.  The laps copied are one chunk in every column
(``column.Column.repeat``): the laps' rows once, the number of copies
and the step of one copy, which the column's rule gives.  So copying m
laps costs the laps' rows, not m times them, and no Python object is
made per copied run, command or event; a copied event becomes an
``Event`` only when a log is read.  The engines' columns also keep their
last ``queue_depth`` copied runs as rows: no more runs than that are
ever queued, so the queue room check, ``_lap_key`` and ``_affine_laps``
read plain lists, and every index the lap code keeps (``head``, the
marks, template ranges) is a row index.
No lap is copied past the decode budget, over a lap that wrote the
repeat register itself (a LOAD_REPEAT in the loop's frame, or a RETURN
out of it), or while an input could change the next lap: a WAIT queued
in any engine or the modulator, or queued steering words.  A SYNC fence
resolves before the next instruction decodes, and a waveform page swap
begins and ends in its PREFETCH, so neither is pending at a REPEAT.  No
lap spans a return from ``run_until_blocked``.

Copied laps: at a taken REPEAT, the block of k laps from the record
b = ``laps[-k]`` to now is copied m times (``LapRecorder._repeat``),
copy c of each column moved on by c times the step its rule gives: the
period P, now's t0 less b's, for the dispatch ticks; each engine's own
move Q for its run starts and its log; the block's samples for the
modulator's positions; 0 for the rest.  The decode, hit and miss
counts, the stream position, the repeat register and ``laps_copied``
advance as the copied laps would have advanced them.  Then one restore
(``_restore``) sets the state to a record's, each tick moved on by m
times its own move: the decode tick by P, each engine's frontier and
last start by its Q, and each tick ``_state_key`` reads (the bus, the
cache lines, a carried fetch, the waveform pages, the engines' floors)
by P, or not at all if it stayed put ahead of t0 from b to now.  A
stale tick stays stale.

Every move is P when b's state matches now's: every tick moved by P, a
multiple of the sequencer clock, and the rest equal (pc, call stack,
comparison register and result, window base and lines, associative
lines in victim order, resident range, active waveform page, the runs
queued in each engine).  Then each block of k laps still to run is the
last k moved on by P once more, so m is bounded only by the repeat
register and the decode budget, and the r < k laps left after the last
whole block are the block's first r moved on once more, ending in the
state recorded r laps into it.  The nearest such record wins, and its
laps may resolve SYNC fences, swap waveform pages and wait for queue
room.  k exceeds 1 when the laps are paced by something off the clock
grid: a lap bound by the SDRAM bus takes B ticks, decode runs on the
20-tick clock, so fill ticks drift B mod 20 against t0 each lap and the
state repeats only after 20 / gcd(B, 20) laps, at most ``CLK``.

Any other set of moves is tried with k = 1, on a lap whose lead drains
or grows: it repeats no earlier lap, but the last two laps, a =
``laps[-2]`` to b and b to now, may repeat each other with every field
moved on by a move of its own: the decode tick and every cache tick by
P, each engine's run starts (so its frontier and last start) by its own
Q, and a tick the laps leave alone ahead of t0 not at all.  The two
laps must match in everything else: the counts of decodes, hits,
misses and samples, and every column, each compared by
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
for copy m, so ``_affine_laps`` takes the largest such m.  The next
laps decode again, and once their state repeats every move is P.
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
    lead, its marks and, once built, the state outside the engines'
    streams (``_state_key``) and each engine's ``_lap_key``."""

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
        k = 0                    # laps back to a record whose state is now's
        # cheap pre-check: a lap whose waveform lead against the decode
        # tick no recorded lap shares repeats none, so no key is built
        if any(old.lead == lap.lead for old in laps):
            lap.state = _state_key(seq, t0)
            lap.engine_keys = [_lap_key(e, t0) for e in engines]
            k = next((k for k in range(1, len(laps) + 1)
                      if laps[-k].engine_keys == lap.engine_keys
                      and laps[-k].state == lap.state), 0)
        elif laps and _steady(laps[-1].marks, lap.marks,
                              seq.wavecache.events):
            lap.state = _state_key(seq, t0)     # the next lap compares it
        if (k or len(laps) > 1) and self._repeat(lap, k or 1, bool(k)):
            laps.clear()
            return
        laps.append(lap)

    def _lap_marks(self) -> _Marks:
        # row counts: no lap spans a copy, so rows index what laps add
        seq = self.seq
        return _Marks(seq.decodes, seq.icache.hits, seq.icache.misses,
                      seq.stream_pos, seq._fences,
                      {c: len(c.rows) for c, _, _ in self.columns})

    def _repeat(self, now: _Lap, k: int, exact: bool) -> bool:
        """Append the laps still to run as copies of the block of k laps
        from the record k laps back to now, and restore the state the
        last copy ends in (module docstring).  exact: the record's state
        is now's, so every move is the period.  False if the laps differ
        in more, or not one lap can be copied."""
        seq, laps = self.seq, self._laps
        b = laps[-k]
        period = now.t0 - b.t0
        mb, mc = b.marks, now.marks
        per_block = mc.decodes - mb.decodes
        budget = seq.cfg.max_decodes - seq.decodes
        count = min(seq.repeat_register // k, budget // per_block)
        rules = {PERIOD: period, SAMPLES: mc.stream_pos - mb.stream_pos,
                 STILL: 0}
        rest, r = mb, 0          # the laps left after the last whole block
        if exact:
            if period % CLK:
                return False
            steps = dict.fromkeys(seq.engines, period) | rules
            # as many of the block's first laps as end at a recorded
            # state and fit the budget
            budget -= count * per_block
            left = min(seq.repeat_register - count * k, k - 1)
            r = next((r for r in range(left, 0, -1)
                      if laps[r - k].engine_keys is not None
                      and laps[r - k].marks.decodes - mb.decodes <= budget),
                     0)
            if r:
                rest = laps[r - k].marks
        elif not count:          # bounded first: no lap left, no comparison
            return False
        else:
            steps = self._moves(laps[-2 * k], b, now, rules)
            if steps is None:
                return False
            for e in seq.engines:
                count = _affine_laps(e, mb.rows[e.starts], period, steps[e],
                                     seq.cfg.queue_depth, count)
        if not count and not r:
            return False
        # a tick _state_key reads moved on with the decode tick, or it
        # stayed put ahead of it: no lap reads such a tick, since a fetch
        # that did would stall by a different amount each lap
        held = []
        for was, tick in zip(b.state[1], now.state[1]):
            if tick != was and tick != was - period:
                return False
            held.append(period if tick == was else 0)
        if now.engine_keys is None:
            now.engine_keys = [_lap_key(e, now.t0) for e in seq.engines]
        self._copy_laps(mb, mc, k, count, rest, r, steps)
        # a lap inside the block may differ from now in more than its
        # ticks (a comparison result that alternates lap by lap), so the
        # laps left end in the state recorded r laps into the block
        _restore(seq, laps[r - k] if r else now, count + (r > 0), steps,
                 held)
        return True

    def _moves(self, a: _Lap, b: _Lap, now: _Lap, rules: dict) -> dict | None:
        """The step of each rule, rules and each engine's move, if the lap
        from b to now repeats the lap from a to b with every column moved
        on by its step (module docstring); None if they differ in more."""
        seq = self.seq
        ma, mb, mc = a.marks, b.marks, now.marks
        # every counter grew alike; the columns are compared below
        if (b.t0 - a.t0 != rules[PERIOD] or b.state is None
                or b.state[0] != now.state[0]
                or not _steady(ma, mc, seq.wavecache.events)
                or any(z - y != y - x for x, y, z in zip(ma[:-1], mb[:-1],
                                                         mc[:-1]))):
            return None
        steps = dict(rules)
        for e in seq.engines:
            x, y, z = ma.rows[e.starts], mb.rows[e.starts], mc.rows[e.starts]
            steps[e] = e.starts.rows[y] - e.starts.rows[x] if z > y else 0
        # a fetch stall moves with the decode tick; a lap with any other
        # event of the sequencer's is not copied
        log = seq.events
        if any(e.kind is not EV_FETCH_STALL
               for e in log.rows[ma.rows[log]:mb.rows[log]]):
            return None
        if not all(c.moved(ma.rows[c], mb.rows[c], mc.rows[c], steps[rule])
                   for c, rule, _ in self.columns):
            return None
        return steps

    def _copy_laps(self, old: _Marks, end: _Marks, k: int, count: int,
                   rest: _Marks, r: int, steps: dict) -> None:
        """Append what the k laps between marks old and end added to each
        column count times, copy c moved on by c times the step its rule
        has in steps, then what the first r of them added, up to marks
        rest (old if r is 0), once more as copy count + 1.  Count the
        copies' decodes, hits, misses, samples and laps."""
        for column, rule, keep in self.columns:
            lo, step = old.rows[column], steps[rule]
            column.repeat(lo, end.rows[column], step, count, keep)
            column.repeat(lo, rest.rows[column], (count + 1) * step, 1, keep)
        seq = self.seq
        icache = seq.icache
        decodes, hits, misses, played = (
            count * (e - o) + (s - o)
            for o, e, s in zip(old[:4], end[:4], rest[:4]))
        seq.decodes += decodes
        icache.hits += hits
        icache.misses += misses
        seq.stream_pos += played
        seq.repeat_register -= count * k + r
        seq.laps_copied += count * k + r


# -- the state a lap compares and restores: the sequencer's, each engine's

def _state_key(seq, t0: int) -> tuple[tuple, tuple]:
    """The state of seq outside the engines' streams the laps ahead read:
    its shape, and its ticks relative to t0, a stale one as 0 (the bus,
    the engines' floors, the window lines in line order, the
    associative lines in victim order, a carried fetch, the waveform
    pages)."""
    icache, wavecache = seq.icache, seq.wavecache
    carried = seq._carried_fetch
    window = sorted(icache.window.items())
    ticks = [seq.sdram.busy_until, *(e.floor for e in seq.engines),
             *(t for _, t in window), *icache.assoc.values()]
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


def _lap_key(eng, t0: int) -> tuple:
    """eng's stream at decode tick t0, ticks relative to it and a stale
    one as 0; moves head to the first run not started by t0."""
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
    return frontier, last, [start - t0 for start in starts[head:]]


def _restore(seq, lap: _Lap, copies: int, steps: dict, held: list) -> None:
    """Set the state of seq the keys read to lap's, each tick moved on
    by copies times its move: the decode tick by the period in steps,
    each engine's frontier and last start by its step, each tick of
    _state_key's by its move in held."""
    icache, wavecache = seq.icache, seq.wavecache
    (shape, ticks), t0 = lap.state, lap.t0
    seq.pc, stack, seq.cmp_register, seq.cmp_result = shape[:4]
    seq.stack = list(stack)
    icache.base_line, icache.resident, window, assoc, carried = \
        shape[4:9]
    # the ticks in _state_key's order; each zip takes as many as its
    # lines
    at = iter([t0 + t + copies * move for t, move in zip(ticks, held)])
    seq.sdram.busy_until = next(at)
    for e in seq.engines:
        e.floor = next(at)
    icache.window = dict(zip(window, at))
    icache.assoc = dict(zip(assoc, at))
    seq._carried_fetch = None if carried is None else (carried, next(at))
    if wavecache.pingpong:
        wavecache.active_slot = shape[9]
        wavecache.slots = list(zip(shape[10], at))
    seq.decode_tick = now = t0 + copies * steps[PERIOD]
    for e, (frontier, last, _) in zip(seq.engines, lap.engine_keys):
        moved = t0 + copies * steps[e]
        e.frontier = None if frontier is None else frontier + moved
        e.last_start = None if last is None else last - e.min_gap + moved
        e.head = bisect_right(e.starts.rows, now, e.head)


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
