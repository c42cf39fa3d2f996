"""The output plane: run ticks and levels, and runs that mix once."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aps2sim.clocks import ANALOG_SAMPLE_TICKS
from aps2sim.engine import Sequencer
from aps2sim.isa import (Instruction, ModAction, Modulator, Opcode,
                         ProgramImage, Waveform, WfAction, encode)
from aps2sim.mod import MixerCorrector, ModConfig, Windows
from aps2sim.trace import (BLOCK_SAMPLES, MarkerRuns, Runs, _MIX, _groups,
                           _mix)

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
    assert shared.mixed.tobytes() == apart.mixed.tobytes()
    assert shared.analog_values().tobytes() == apart.analog_values().tobytes()
    assert (shared.lazy == apart.lazy).all() and shared.lazy.sum() == SHOTS
    assert shared.saturations == apart.saturations > 5000 * SHOTS
    # per shot: the window's play and TA play, the cut play, the free
    # pulse and the lazy entry; every shot's cut play is its own group
    shot = 200 + 30 + 100 + 50 + 1
    assert mixed_rows[True] == len(apart.mixed) == SHOTS * shot
    assert mixed_rows[False] == shot + (SHOTS - 1) * 100
    # every shot alike: rotated inside its 270-sample window, and the
    # free pulse mixed from its plain words
    shots = shared.mixed.reshape(SHOTS, shot)
    assert (shots == shots[0]).all()
    iq = repeated_shots(False).image.waveforms @ [1, 1j] / 32768.0
    mixer = MixerCorrector(replace(SKEW, dac_bits=14))
    assert (shots[0, :200] != mixer.apply(iq[:200])).mean() > 0.9
    assert shots[0, 330:380].tobytes() == mixer.apply(iq[600:650]).tobytes()



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
    mixed = [_mix(wave, Runs(start, np.ones(4, np.int64)), addr,
                  np.zeros(4, bool), windows, MixerCorrector(ModConfig()))[0]
             for addr in (np.zeros(4, np.int64), np.arange(4))]
    assert mixed[0].tobytes() == mixed[1].tobytes()
