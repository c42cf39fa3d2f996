"""The output plane: run ticks and levels, runs that mix once, and the
compact sample store they leave."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aps2sim import trace
from aps2sim.clocks import ANALOG_SAMPLE_TICKS
from aps2sim.engine import Sequencer
from aps2sim.isa import (Instruction, ModAction, Modulator, Opcode,
                         ProgramImage, Waveform, WfAction, encode)
from aps2sim.mod import MixerCorrector, ModConfig, Windows
from aps2sim.trace import (BLOCK_SAMPLES, MarkerRuns, Runs, _MIX, _expand,
                           _groups, _mix)

# run lengths: short ones, and ones that cross or outgrow a block
COUNTS = st.one_of(st.integers(0, 9),
                   st.integers(BLOCK_SAMPLES - 3, 2 * BLOCK_SAMPLES + 3))


@st.composite
def run_columns(draw, counts=COUNTS):
    """(start, n) of runs in stream order: each starts on the sample
    grid, back to back with the run before or after a gap."""
    n = draw(st.lists(counts, max_size=6))
    gap = draw(st.lists(st.sampled_from([0, 0, 1, 7, 1000]),
                        min_size=len(n), max_size=len(n)))
    start, tick = [], draw(st.integers(0, 50))
    for count, g in zip(n, gap):
        tick += ANALOG_SAMPLE_TICKS * g
        start.append(tick)
        tick += ANALOG_SAMPLE_TICKS * count
    return np.array(start, np.int64), np.array(n, np.int64)


def each_run(runs, values):
    """Concatenate values(k) of every run k; int64 zeros for none."""
    return np.concatenate([np.zeros(0, np.int64)]
                          + [values(k) for k in range(len(runs))])


@settings(max_examples=60, deadline=None)
@given(run_columns())
def test_ticks_are_each_runs_arange(columns):
    runs = Runs(*columns)
    ticks = runs.ticks()
    assert ticks.dtype == np.int64
    assert np.array_equal(ticks, each_run(
        runs, lambda k: runs.start[k]
        + ANALOG_SAMPLE_TICKS * np.arange(runs.n[k])))


@settings(max_examples=60, deadline=None)
@given(run_columns(st.one_of(st.integers(0, 3), st.integers(
    BLOCK_SAMPLES // 4 - 1, BLOCK_SAMPLES // 2 + 1)).map(lambda c: 4 * c)),
    st.data())
def test_marker_levels_are_each_runs_state_then_last_word(columns, data):
    start, n = columns
    state = np.array(data.draw(st.lists(st.integers(0, 1), min_size=len(n),
                                        max_size=len(n))), np.int64)
    last = np.array(data.draw(st.lists(st.integers(0, 15), min_size=len(n),
                                       max_size=len(n))), np.int64)
    runs = MarkerRuns(start, n, state, last)

    def levels(k):
        if not n[k]:
            return np.zeros(0, np.int64)
        tail = [(last[k] >> (3 - bit)) & 1 for bit in range(4)]
        return np.concatenate([np.full(n[k] - 4, state[k]), tail])

    assert np.array_equal(runs.levels(), each_run(runs, levels))
    assert np.array_equal(runs.ticks(), each_run(
        runs, lambda k: start[k] + ANALOG_SAMPLE_TICKS * np.arange(n[k])))


# -- the compact sample store ----------------------------------------------


def expand_by_run(mixed, n, lazy, entry):
    """Reference: each run's slice of mixed, or its one entry n times."""
    if entry is None:
        width = np.where(lazy, 1, n)
        entry = np.cumsum(width) - width
    return np.concatenate([np.zeros(0, complex)] + [
        np.full(n[k], mixed[entry[k]]) if lazy[k]
        else mixed[entry[k]:entry[k] + n[k]] for k in range(len(n))])


@st.composite
def compact_stores(draw):
    """(mixed, n, lazy, entry) of runs that each read the compact stream
    from its own first entry (entry None), all from one run's, or some
    from an earlier run's of their length and laziness."""
    n = np.array(draw(st.lists(COUNTS, max_size=6)), np.int64)
    lazy = np.array(draw(st.lists(st.booleans(), min_size=len(n),
                                  max_size=len(n))), bool)
    form = draw(st.sampled_from(["distinct", "one group", "some groups"]))
    if form == "one group":
        n[:], lazy[:] = n[:1].sum(), lazy[:1].any()
    width = np.where(lazy, 1, n)
    entry = np.cumsum(width) - width            # each run's own entries
    if form == "one group":
        entry[:] = 0
    if form == "some groups":
        for k in range(len(n)):
            led = draw(st.integers(0, k))
            if (lazy[led], n[led]) == (lazy[k], n[k]):
                entry[k] = entry[led]
    mixed = np.arange(width.sum()) * (1 + 0.5j)
    return mixed, n, lazy, None if form == "distinct" else entry


@settings(max_examples=80, deadline=None)
@given(compact_stores())
def test_expansion_is_each_runs_slice_or_fill(store):
    mixed, n, lazy, entry = store
    values = _expand(mixed, n, lazy, entry)
    assert values.dtype == np.complex128
    assert values.tobytes() == expand_by_run(mixed, n, lazy, entry).tobytes()
    assert not np.shares_memory(values, mixed)


# -- runs that mix once ----------------------------------------------------


def groups_by_dict(*columns):
    """Reference: groups numbered in order of their first row."""
    seen, group, lead = {}, [], []
    for k, row in enumerate(zip(*(c.tolist() for c in columns))):
        if row not in seen:
            seen[row] = len(lead)
            lead.append(k)
        group.append(seen[row])
    return group, lead


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.lists(
    st.tuples(*[st.integers(-2, 2)] * width), max_size=40)))
def test_groups_number_equal_rows_by_their_first(rows):
    columns = [np.array(col, np.int64).reshape(-1)
               for col in (zip(*rows) if rows else [[]])]
    group, lead = _groups(*columns)
    assert (group.tolist(), lead.tolist()) == groups_by_dict(*columns)


def test_a_collision_of_the_mix_splits_but_never_merges():
    # the mix is a polynomial in _MIX mod 2^64: (0, _MIX) and (1, 0) meet
    spare = int(_MIX) - (1 << 64)
    columns = (np.array([0, 1, 0, 1]), np.array([spare, 0, spare, 0]))
    group, lead = _groups(*columns)
    rows = list(zip(*(c.tolist() for c in columns)))
    for a in range(4):
        for b in range(4):
            if group[a] == group[b]:
                assert rows[a] == rows[b]
    assert group[0] != group[1]
    assert lead.tolist() == sorted(lead.tolist())
    assert (group[lead] == np.arange(len(lead))).all()


SKEW = ModConfig(mixer_matrix=(1.07, -0.13, 0.09, 0.94),
                 dc_offset_i=0.31, dc_offset_q=-0.27)   # clips full scale
REGION = 2048                      # a shot's waveforms, copied per shot
SHOTS = 6


def play(addr, count, ta=False):
    return Instruction(Opcode.WAVEFORM,
                       Waveform(WfAction.PLAY, addr=addr, count=count, ta=ta))


def mod(action, phase_word=0, count=0):
    nco = 0 if action == ModAction.MODULATE else 1
    return Instruction(Opcode.MODULATOR, Modulator(
        action, nco=nco, phase_word=phase_word, count=count))


def repeated_shots(copied: bool) -> Sequencer:
    """Shots of one trigger, a phase reset, a window over a play, a TA
    play and the first 40 samples of a third play (which the window's
    edge cuts), then a free pulse and a lazy TA idle that clips.  Each
    shot reads the same words: from one region, or copied, from its own
    region."""
    wave = np.random.default_rng(5).integers(-32768, 32768, (REGION, 2),
                                             dtype=np.int16)
    wave[900] = (32000, -32000)
    prog = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_4567_89AB),
            mod(ModAction.SET_PHASE_OFFSET, phase_word=0x1234_5678_9ABC)]
    for shot in range(SHOTS):
        base = REGION * shot if copied else 0
        prog += [Instruction(Opcode.WAIT), mod(ModAction.RESET_PHASE),
                 mod(ModAction.MODULATE, count=200 + 30 + 40),
                 play(base, 200), play(base + 1200, 30, ta=True),
                 play(base + 300, 100), play(base + 600, 50),
                 play(base + 900, 5000, ta=True)]
    image = ProgramImage([encode(i) for i in prog], np.tile(wave, (SHOTS, 1)))
    return Sequencer(image, mod_cfg=replace(SKEW, dac_bits=14))


def test_repeated_shots_mix_once_and_give_the_copied_bytes(monkeypatch):
    rows = []
    apply = MixerCorrector.apply

    def spy(self, iq, held=None, out=None):
        rows.append(len(iq))
        return apply(self, iq, held, out)

    monkeypatch.setattr(MixerCorrector, "apply", spy)
    triggers = [1000 + 40_000 * k for k in range(SHOTS)]
    traces, mixed_rows = {}, {}
    for copied in (False, True):
        rows.clear()
        traces[copied] = repeated_shots(copied).run_simple(triggers=triggers)
        mixed_rows[copied] = sum(rows)
    shared, apart = traces[False], traces[True]
    assert shared.analog_values().tobytes() == apart.analog_values().tobytes()
    assert (shared.lazy == apart.lazy).all() and shared.lazy.sum() == SHOTS
    assert shared.saturations == apart.saturations > 5000 * SHOTS
    # per shot: the window's play and TA play, the cut play, the free
    # pulse and the lazy entry; every shot's cut play is its own group
    shot = 200 + 30 + 100 + 50 + 1
    assert apart.entry is None
    assert mixed_rows[True] == len(apart.mixed) == SHOTS * shot
    assert mixed_rows[False] == len(shared.mixed) == shot + (SHOTS - 1) * 100
    # the runs' entries, a lazy run's one, as the copied shots store them
    n = shared.analog.n
    entries = _expand(shared.mixed, np.where(shared.lazy, 1, n),
                      np.zeros(len(n), bool), shared.entry)
    assert entries.tobytes() == apart.mixed.tobytes()
    # every shot alike: rotated inside its 270-sample window, and the
    # free pulse mixed from its plain words
    shots = entries.reshape(SHOTS, shot)
    assert (shots == shots[0]).all()
    iq = repeated_shots(False).image.waveforms @ [1, 1j] / 32768.0
    mixer = MixerCorrector(replace(SKEW, dac_bits=14))
    assert (shots[0, :200] != mixer.apply(iq[:200])).mean() > 0.9
    assert shots[0, 330:380].tobytes() == mixer.apply(iq[600:650]).tobytes()


@pytest.mark.parametrize("reset", [False, True], ids=["free_nco", "reset"])
def test_only_runs_that_can_share_a_key_are_sorted(monkeypatch, reset):
    # a free-running NCO opens each window at its own phase word, so no
    # run a window holds can share a key and only the free pulse's row is
    # sorted; reset before each window, the windows share one pair, and
    # their runs sort and mix once
    sorted_rows = []
    groups = trace._groups

    def spy(*columns):
        sorted_rows.append(len(columns[0]))
        return groups(*columns)

    monkeypatch.setattr(trace, "_groups", spy)
    prog = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_4567_89AB)]
    for _ in range(4):
        prog += [mod(ModAction.RESET_PHASE)] * reset + [
            mod(ModAction.MODULATE, count=100), play(0, 100)]
    wave = np.random.default_rng(5).integers(-32768, 32768, (512, 2),
                                             dtype=np.int16)
    image = ProgramImage([encode(i) for i in prog + [play(200, 50)]], wave)
    out = Sequencer(image).run_simple()
    # the windows' (inc, W) pairs, then the runs' keys
    assert sorted_rows == [4, 5 if reset else 1]
    assert len(out.mixed) == (100 if reset else 400) + 50
    assert (out.entry is None) != reset


def test_an_entry_mixed_alone_keeps_its_bits():
    # four one-sample shots from one NCO state mix once, as a compact
    # stream of one entry; numpy multiplies one complex element in place
    # on a path that rounds otherwise, so the rotation multiplies it out
    # of place and it keeps the bits that four entries mixed apart get
    start = np.array([1015, 6035, 11055, 21075])
    windows = Windows(np.arange(4), np.arange(1, 5), start + 85,
                      np.full(4, 0x75BA_1D90_DD43),
                      np.full(4, 0x0321_4567_89AB))
    wave = np.tile(np.array([[17144, 20414]], np.int16), (4, 1))
    runs = Runs(start, np.ones(4, np.int64))
    mixed = [_mix(wave, runs, addr, np.zeros(4, bool), windows,
                  MixerCorrector(ModConfig()))
             for addr in (np.zeros(4, np.int64), np.arange(4))]
    assert [len(m[0]) for m in mixed] == [1, 4]
    values = [_expand(compact, runs.n, lazy, entry)
              for compact, entry, lazy in mixed]
    assert values[0].tobytes() == values[1].tobytes()


@pytest.mark.parametrize("copied", [True, False], ids=["distinct", "grouped"])
def test_read_out_values_are_the_callers_own(copied):
    trace = repeated_shots(copied).run_simple(
        triggers=[1000 + 40_000 * k for k in range(SHOTS)])
    assert (trace.entry is None) == copied
    mixed = trace.mixed.copy()
    values = trace.analog_values()
    again = values.copy()
    values[:] = 7
    assert trace.mixed.tobytes() == mixed.tobytes()
    assert trace.analog_values().tobytes() == again.tobytes()


def test_repeated_shots_store_their_distinct_entries():
    trace = repeated_shots(False).run_simple(
        triggers=[1000 + 40_000 * k for k in range(SHOTS)])
    shot = 200 + 30 + 100 + 50 + 1
    stored = shot + (SHOTS - 1) * 100           # a cut play per later shot
    assert len(trace.mixed) == stored and trace.mixed.nbytes == 16 * stored
    assert len(trace.analog_values()) == SHOTS * (shot - 1 + 5000)
