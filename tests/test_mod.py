"""NCO phase bookkeeping, latch boundaries, and mixer correction."""

import hashlib

import numpy as np
import pytest

from aps2sim.clocks import PIPELINE_TICKS
from aps2sim.isa import (NUM_NCOS, PHASE_MASK, ModAction, Modulator,
                         phase_word_from_turns)
from aps2sim.mod import MixerCorrector, ModConfig, ModEngine, Windows

from oracle import NcoBank, reference_resolve, resolved

TICKS = 5  # analog sample period


def mk(action, nco=0, turns=None, count=0):
    word = phase_word_from_turns(turns) if turns is not None else 0
    return Modulator(action, nco=nco, phase_word=word, count=count)


def sample_ticks(start, n):
    return start + TICKS * np.arange(n)


def rotations(eng, runs, edges=()):
    """Rotation factor of every sample of runs (arrays of contiguous
    sample ticks), 1 outside the windows resolve() returns."""
    ticks = np.concatenate(runs)
    windows = eng.resolve([int(r[0]) for r in runs], [len(r) for r in runs],
                          list(edges))
    factors = np.ones(len(ticks), dtype=np.complex128)
    for j in range(len(windows)):
        span = slice(windows.lo[j], windows.hi[j])
        factors[span] = windows.rotation(j, ticks[span])
    return factors


def test_two_nco_phase_continuity():
    """Alternating windows track each oscillator's own continuous phase."""
    eng = ModEngine()
    f0, f1 = 0.01, 0.037          # turns per sample
    eng.submit(mk(ModAction.RESET_PHASE, nco=0b11), 0)
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=f0), 0)
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b10, turns=f1), 0)
    segs = [(0, 40), (1, 64), (0, 16), (1, 25), (0, 80)]
    for nco, count in segs:
        eng.submit(mk(ModAction.MODULATE, nco=nco, count=count), 0)
    total = sum(c for _, c in segs)
    ticks = sample_ticks(0, total)
    factors = rotations(eng, [ticks])

    # oracle: each NCO's phase is f_k * (samples since reset), reset at t=0
    pos = 0
    for nco, count in segs:
        seg_ticks = ticks[pos:pos + count]
        f = (f0, f1)[nco]
        expect = np.exp(2j * np.pi * f * seg_ticks / TICKS)
        err = np.abs(np.angle(factors[pos:pos + count] / expect))
        assert err.max() < 1e-9
        pos += count


def test_update_frame_pi_negates():
    eng = ModEngine()
    eng.submit(mk(ModAction.RESET_PHASE, nco=0b01), 0)
    inc = 0.013
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=inc), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=32), 0)
    eng.submit(mk(ModAction.UPDATE_FRAME, nco=0b01, turns=0.5), 1)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=32), 2)
    ticks = sample_ticks(0, 64)
    factors = rotations(eng, [ticks])
    base = np.exp(2j * np.pi * inc * ticks / TICKS)
    assert np.allclose(factors[:32], base[:32], atol=1e-12)
    assert np.allclose(factors[32:], -base[32:], atol=1e-12)


def test_phase_command_held_until_window_end():
    """An offset dispatched mid-window latches only at the boundary."""
    eng = ModEngine()
    eng.submit(mk(ModAction.MODULATE, nco=0, count=16), 0)
    # dispatched while the first window is open
    eng.submit(mk(ModAction.SET_PHASE_OFFSET, nco=0b01, turns=0.25), 10)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=16), 20)
    ticks = sample_ticks(0, 32)
    factors = rotations(eng, [ticks])
    assert np.allclose(factors[:16], 1.0, atol=1e-12)
    assert np.allclose(factors[16:], 1j, atol=1e-12)


def test_reset_on_trigger_gives_zero_phase_at_first_sample():
    # rotation stage sits one engine pipeline ahead of the output plane
    eng = ModEngine()
    inc = 0.021
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=inc), 0)
    eng.submit(mk(ModAction.WAIT), 0)
    eng.submit(mk(ModAction.RESET_PHASE, nco=0b01), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=8), 0)
    trigger = 1000
    first_sample = trigger + 180          # engine pipeline after resume
    ticks = sample_ticks(first_sample, 8)
    factors = rotations(eng, [ticks], [trigger])
    assert factors[0] == pytest.approx(1.0 + 0j, abs=1e-12)
    expect = np.exp(2j * np.pi * inc * np.arange(8))
    assert np.allclose(factors, expect, atol=1e-12)


def test_increment_change_keeps_accumulated_phase():
    eng = ModEngine()
    f1, f2 = 0.02, 0.005
    eng.submit(mk(ModAction.RESET_PHASE, nco=0b01), 0)
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=f1), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=20), 0)
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=f2), 5)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=20), 10)
    ticks = sample_ticks(0, 40)
    factors = rotations(eng, [ticks])
    # boundary is the tick after sample 19; accumulated phase carries over
    phase1 = f1 * np.arange(20)
    boundary = f1 * 20
    phase2 = boundary + f2 * np.arange(20)
    expect = np.exp(2j * np.pi * np.concatenate([phase1, phase2]))
    assert np.allclose(factors, expect, atol=1e-10)


def test_unmodulated_samples_pass_through():
    eng = ModEngine()
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=0.1), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=4), 0)
    ticks = sample_ticks(0, 12)
    factors = rotations(eng, [ticks])
    assert np.allclose(factors[4:], 1.0)


def test_underfilled_window_is_diagnosed():
    eng = ModEngine()
    eng.submit(mk(ModAction.MODULATE, nco=0, count=100), 0)
    eng.resolve([0], [10], [])
    assert any(e.kind == "modulate_underfilled" for e in eng.events)


def test_ncos_free_run_across_gaps():
    """A scheduling gap advances phase: the oscillators never pause."""
    eng = ModEngine()
    inc = 0.01
    eng.submit(mk(ModAction.RESET_PHASE, nco=0b01), 0)
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=inc), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=8), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=8), 0)
    run1 = sample_ticks(0, 8)
    run2 = sample_ticks(1000, 8)          # 200 sample periods later
    f2 = rotations(eng, [run1, run2])[8:]
    expect2 = np.exp(2j * np.pi * inc * run2 / TICKS)
    assert np.allclose(f2, expect2, atol=1e-10)


def word_factor(word):
    """exp(2πi·word/2^48) from a Python-int word, one sample at a time."""
    return complex(np.exp(2j * np.pi * ((word & PHASE_MASK) / 2**48)))


def test_rotation_is_the_direct_exp_of_the_exact_word():
    # the word at a tick is phase + inc·samples since ref_tick, mod 2^48,
    # with the ticks on the rotation plane; window 1's products pass 2^64
    phase = [0xFFFF_FFFF_FFF0, 0x1234_5678_9ABC]
    inc = [0x0321_4567_89AB, 0xFFFF_0000_0001]
    windows = Windows(np.array([0, 8]), np.array([8, 16]),
                      np.array([-400, 10**12]), np.array(phase),
                      np.array(inc))
    for j, first in ((0, 1280), (1, 10**12 + 2**40 * TICKS)):
        ticks = sample_ticks(first + PIPELINE_TICKS, 8)
        samples = (ticks - PIPELINE_TICKS - windows.ref_tick[j]) // TICKS
        words = [(phase[j] + inc[j] * int(n)) & PHASE_MASK for n in samples]
        assert windows.words(j, ticks).tolist() == words
        assert np.allclose(windows.rotation(j, ticks),
                           [word_factor(w) for w in words], rtol=0,
                           atol=1e-15)
    assert windows.rotation(0, np.zeros(0, np.int64)).shape == (0,)


def test_equal_words_rotate_to_equal_bytes():
    # two windows whose NCO state splits the same phase differently
    # between the word at ref_tick and the samples since: with integer
    # words the factors are the same bytes
    inc = 0x0321_0000_0000
    windows = Windows(np.array([0, 8]), np.array([8, 16]),
                      np.array([100, 1100]),
                      np.array([0x5A00_0000_0000,
                                (0x5A00_0000_0000 - 40 * inc) & PHASE_MASK]),
                      np.array([inc, inc]))
    # window 1 opens 40 samples after its reference tick
    rotated = [windows.rotation(j, sample_ticks(t, 8))
               for j, t in ((0, 280), (1, 1480))]
    assert rotated[0].tobytes() == rotated[1].tobytes()
    # a zero word rotates by exactly 1, never by a signed zero's angle
    zero = Windows(*[np.zeros(1, np.int64)] * 5)
    assert zero.rotation(0, sample_ticks(PIPELINE_TICKS, 4)).tobytes() \
        == np.ones(4, np.complex128).tobytes()


def test_mixer_correction_and_saturation():
    cfg = ModConfig(mixer_matrix=(1.0, 0.02, 0.0, 0.98),
                    dc_offset_i=0.01, dc_offset_q=-0.02)
    corr = MixerCorrector(cfg)
    iq = np.array([0.5 + 0.5j, 0.999 + 0.999j])
    out = corr.apply(iq)
    assert out[0].real == pytest.approx(0.5 + 0.02 * 0.5 + 0.01)
    assert out[0].imag == pytest.approx(0.98 * 0.5 - 0.02)
    assert corr.saturations >= 1
    assert out.real.max() <= 32767.0 / 32768.0


def test_mixer_result_does_not_depend_on_the_call_size():
    cfg = ModConfig(mixer_matrix=(1.03, 0.021, -0.017, 0.97),
                    dc_offset_i=0.003, dc_offset_q=-0.002)
    rng = np.random.default_rng(0)
    iq = rng.uniform(-0.7, 0.7, 64) + 1j * rng.uniform(-0.7, 0.7, 64)
    together = MixerCorrector(cfg).apply(iq)
    alone = np.concatenate([MixerCorrector(cfg).apply(iq[k:k + 1])
                            for k in range(len(iq))])
    assert together.tobytes() == alone.tobytes()


@pytest.mark.parametrize("field, value", [
    ("mixer_matrix", (1.0, 0.0, 1.0)), ("mixer_matrix", (1.0,) * 5),
    ("dac_bits", 0), ("dac_bits", -3)])
def test_mod_config_rejects_a_bad_value(field, value):
    # caught where the config is built, not in finalize's shift or the
    # mixer's unpacking
    with pytest.raises(ValueError, match=f"ModConfig.{field}"):
        ModConfig(**{field: value})


def test_mod_config_takes_one_dac_bit_or_none():
    assert ModConfig(dac_bits=1).dac_bits == 1
    assert ModConfig(dac_bits=None).dac_bits is None


def test_mixer_counts_saturations_exactly():
    matrix = (1.07, -0.13, 0.09, 0.94)
    rng = np.random.default_rng(3)
    # wholly in range: nothing counted, the plain product comes back
    iq = rng.uniform(-0.5, 0.5, 1000) + 1j * rng.uniform(-0.5, 0.5, 1000)
    corr = MixerCorrector(ModConfig(mixer_matrix=matrix, dc_offset_i=0.01))
    product = iq.view(np.float64).reshape(-1, 2) \
        @ np.ascontiguousarray(np.reshape(matrix, (2, 2)).T)
    product[:, 0] += 0.01
    assert corr.apply(iq).tobytes() == product.tobytes()
    assert corr.saturations == 0
    # I and Q well outside the range: one count each, clipped to the edges
    top = 32767.0 / 32768.0
    iq = np.full(100, 0.25 + 0.25j)
    iq[[3, 40, 41]] += 1.5           # I over the top
    iq[[5, 6, 7, 8]] -= 2.5j         # Q under -1
    iq[[50, 60]] = -3 + 4j           # both out
    corr = MixerCorrector(ModConfig())
    out = corr.apply(iq)
    assert corr.saturations == 3 + 4 + 2 * 2
    assert out[3] == top + 0.25j and out[5] == 0.25 - 1j
    assert out[50] == -1 + top * 1j and out[0] == 0.25 + 0.25j
    # a held entry weighs the output samples it stands for, each
    # saturating alike: a lazy run's count of samples, or, for an entry
    # that runs of one key share, their number; zero for a run of none
    corr = MixerCorrector(ModConfig())
    corr.apply(iq, (np.array([0, 3, 50]), np.array([7, 10, 1000])))
    assert corr.saturations == 11 + 1 * 9 + 2 * 999
    weight = rng.integers(0, 6, len(iq))
    listed = np.flatnonzero(weight != 1)
    skewed = ModConfig(mixer_matrix=matrix)
    weighed, expanded = MixerCorrector(skewed), MixerCorrector(skewed)
    out = weighed.apply(iq, (listed, weight[listed]))
    assert expanded.apply(np.repeat(iq, weight)).tobytes() \
        == np.repeat(out, weight).tobytes()
    assert weighed.saturations == expanded.saturations > 5
    # a zero from the DAC rounding takes I + 1j*Q's signed zeros: Q's
    # zero is +0, I's keeps its sign where Q's sign bit is set
    corr = MixerCorrector(ModConfig(dac_bits=14))
    out = corr.apply(np.array([-1e-6 - 0.5j, -1e-6 + 0.5j, 0.5 - 1e-6j,
                               0.5 + 0.5j]))
    assert np.signbit(out.real).tolist() == [True, False, False, False]
    assert np.signbit(out.imag).tolist() == [True, False, False, False]
    assert (out.real[:2] == 0).all() and out.imag[2] == 0
    assert corr.saturations == 0


def test_dac_quantization_grid():
    cfg = ModConfig(dac_bits=14)
    corr = MixerCorrector(cfg)
    out = corr.apply(np.array([0.123456789 + 0.5j]))
    scale = 1 << 13
    assert out[0].real == pytest.approx(round(0.123456789 * scale) / scale)


def test_bank_masks_address_multiple_ncos():
    bank = NcoBank()
    assert bank.selected[0b0101] == [bank.ncos[0], bank.ncos[2]]
    # one window on each NCO, after an increment set through the mask
    eng = ModEngine()
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b0101, turns=0.25), 0)
    for nco in range(3):
        eng.submit(mk(ModAction.MODULATE, nco=nco, count=1), 0)
    assert eng.resolve([0], [3], []).inc.tolist() == [1 << 46, 0, 1 << 46]


# -- resolve pins ----------------------------------------------------------
#
# Digests of what resolve() computes from seeded command streams with
# nonzero increments, recorded when NCO state became exact 48-bit words:
# a change that moves one bit of a window's frozen NCO state or one
# modulator event fails here.

PHASE_ACTIONS = (ModAction.RESET_PHASE, ModAction.SET_PHASE_OFFSET,
                 ModAction.SET_PHASE_INCREMENT, ModAction.UPDATE_FRAME)


def random_stream(seed):
    """A ModEngine fed a seeded command stream, and the runs and trigger
    edges to resolve it over.  The stream mixes nonzero SET_PHASE_INC,
    multi-NCO masks, RESET_PHASE, SYNC, WAITs (an odd seed leaves the
    last one without an edge) and windows; it ends with an underfilled
    MODULATE.  Some runs play no sample."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 30, 40)
    counts[rng.integers(0, 40, 3)] = 0
    starts, tick = [], 0
    for n in counts:
        tick += TICKS * int(rng.integers(0, 3)) * int(rng.random() < 0.3)
        starts.append(tick)
        tick += TICKS * int(n)
    total = int(counts.sum())

    eng = ModEngine()
    dispatch = pos = waits = 0
    for _ in range(120):
        dispatch += 20 * int(rng.integers(0, 3))
        pos = min(total + 30, pos + int(rng.integers(0, 12)))
        r = rng.random()
        if r < 0.5:
            action = PHASE_ACTIONS[int(rng.integers(0, 4))]
            word = 0 if action is ModAction.RESET_PHASE \
                else int(rng.integers(0, 1 << 48))
            md = Modulator(action, nco=int(rng.integers(1, 16)),
                           phase_word=word)
        elif r < 0.8:
            md = Modulator(ModAction.MODULATE, nco=int(rng.integers(0, 4)),
                           count=int(rng.integers(1, 40)))
        elif r < 0.9:
            md = Modulator(ModAction.SYNC)
        else:
            md = Modulator(ModAction.WAIT)
            waits += 1
        eng.submit(md, dispatch, pos)
    eng.submit(Modulator(ModAction.MODULATE, nco=1, count=total + 50),
               dispatch + 20, pos)
    return eng, starts, [int(n) for n in counts], clock_edges(
        rng, tick + 1000, waits - seed % 2)


def clock_edges(rng, below, n):
    """n sorted trigger edges below a tick, on the 20-tick sequencer clock
    as Sequencer.deliver_trigger aligns them."""
    return sorted(20 * int(e) for e in rng.integers(0, below // 20, n))


def resolve_digest(eng, starts, counts, edges):
    """sha256 prefix of the bytes of every Windows column and every
    modulator event as (tick, kind, ticks, detail)."""
    w = eng.resolve(starts, counts, edges)
    h = hashlib.sha256()
    for col in (w.lo, w.hi, w.ref_tick, w.phase, w.inc):
        h.update(col.tobytes())
    events = [(int(e.tick), e.kind.value, int(e.ticks),
               sorted(e.detail.items())) for e in eng.events]
    h.update(repr(events).encode())
    return h.hexdigest()[:16]


RESOLVE_PINNED = {
    0: "a011338a4351feb8",
    1: "4fc0956f14398351",
    2: "f678ccde33ae5c39",
    3: "9768bd6dd2dae985",
    4: "18587cd1e01040ef",
    5: "7c1ebced924b952b",
    6: "6765b3addab62f5e",
    7: "5ee40564e3edbef1",
    8: "27dcb5b22f815bf8",
    9: "76b23db66662a11b",
    10: "1d2fab39dd74fadb",
    11: "82abb1a8f7fb4058",
}


@pytest.mark.parametrize("seed", sorted(RESOLVE_PINNED))
def test_resolve_is_pinned(seed):
    assert resolve_digest(*random_stream(seed)) == RESOLVE_PINNED[seed]


# -- array resolve against the reference loop ------------------------------
#
# resolve() works in array passes over the command columns; the command
# loop it replaced is tests/oracle.py's reference_resolve.  Both must give
# the same column bytes and the same events.


def check_against_reference(eng, starts, counts, edges):
    expect = resolved(*reference_resolve(eng, starts, counts, edges))
    assert resolved(eng.resolve(starts, counts, edges), eng.events) == expect


@pytest.mark.parametrize("block", range(10))
def test_resolve_matches_the_reference_loop(block):
    for seed in range(20 * block, 20 * block + 20):
        check_against_reference(*random_stream(seed))


def copy_laps(eng, first, end, ticks, samples, count):
    """Append command rows first..end again count times as
    LapRecorder._copy_laps does: copy c's dispatch ticks moved on by
    c * ticks and its dispatch positions by c * samples."""
    eng.commands.repeat(first, end, 0, count)
    eng.ticks.repeat(first, end, ticks, count)
    eng.positions.repeat(first, end, samples, count)


def add_laps(eng, rng, starts, counts, decoded, *, submit_each=False):
    """Append laps as LapRecorder._repeat does: the commands from a
    seeded index at or after decoded on again, a seeded number of times,
    each lap's dispatch ticks a period and its positions a lap's samples
    further on; then decode a few commands more.  Runs are appended for
    the laps' samples.  submit_each submits every copied command instead.
    Returns the index of the first command decoded after the laps."""
    first = int(rng.integers(decoded, eng.pending_commands()))
    period = 20 * int(rng.integers(1, 40))
    laps = int(rng.integers(1, 8))
    samples = int(rng.integers(0, 80))
    if submit_each:
        code, tick, pos = (col[first:].tolist() for col in eng.columns())
        for k in range(1, laps + 1):
            for c, t, p in zip(code, tick, pos):
                eng.submit(eng.table[c], t + k * period, p + k * samples)
    else:
        # decoded commands follow every chunk: row = index - copies
        rows = eng.commands
        copy_laps(eng, first - rows.copies, len(rows.rows), period, samples,
                  laps)
    decoded = eng.pending_commands()
    dispatch, pos = (int(col[-1]) for col in eng.columns()[1:])
    for _ in range(int(rng.integers(1, 5))):
        dispatch += 20
        pos += int(rng.integers(0, 12))
        action = (*PHASE_ACTIONS, ModAction.MODULATE,
                  ModAction.WAIT)[int(rng.integers(0, 6))]
        eng.submit(Modulator(action, nco=int(rng.integers(1, 4)),
                             phase_word=int(rng.integers(0, 1 << 48)),
                             count=int(rng.integers(1, 40))),
                   dispatch, pos)
    tick = starts[-1] + TICKS * counts[-1]
    for _ in range(laps):
        tick += TICKS * int(rng.integers(0, 3))
        starts.append(tick)
        counts.append(samples)
        tick += TICKS * samples
    return decoded


def lapped_stream(seed, submit_each=False):
    """random_stream with three rounds of add_laps, and a trigger edge
    for every WAIT but, for an odd seed, the last."""
    eng, starts, counts, _ = random_stream(seed)
    rng = np.random.default_rng(10_000 + seed)
    decoded = 0
    for _ in range(3):
        decoded = add_laps(eng, rng, starts, counts, decoded,
                           submit_each=submit_each)
    code = eng.columns()[0]
    waits = sum(eng.table[c].action is ModAction.WAIT for c in code.tolist())
    return eng, starts, counts, clock_edges(rng, starts[-1] + 1000,
                                            waits - seed % 2)


def test_codes_follow_first_appearance_not_object_ids():
    # submitted in falling id order, the commands still take codes
    # 0, 1, 2, ... as they first appear, in every chunk
    commands = sorted((mk(ModAction.UPDATE_FRAME, nco=1, turns=k / 64)
                       for k in range(12)), key=id, reverse=True)
    eng = ModEngine()
    for tick, md in enumerate(commands[:8] + commands[:3]):
        eng.submit(md, 20 * tick)
    copy_laps(eng, 0, 11, 500, 0, 1)
    for tick, md in enumerate(commands[8:] + commands[::-1]):
        eng.submit(md, 1000 + 20 * tick)
    code = eng.columns()[0].tolist()
    assert eng.table == commands
    assert code == [*range(8), 0, 1, 2] * 2 + [*range(8, 12),
                                               *range(11, -1, -1)]


def test_lap_chunks_are_the_commands_submitted_one_by_one():
    for seed in range(40):
        chunked, *runs = lapped_stream(seed)
        single, *same_runs = lapped_stream(seed, submit_each=True)
        assert runs == same_runs
        assert chunked.pending_commands() == single.pending_commands()
        # one chunk per copy in each column, and no copied row
        for column, same in zip(
                (chunked.commands, chunked.ticks, chunked.positions),
                (single.commands, single.ticks, single.positions)):
            assert len(column.chunks) == 3 and not same.chunks
            assert len(column.rows) + column.copies == len(same.rows)
        (code, tick, pos), (code1, tick1, pos1) = (chunked.columns(),
                                                   single.columns())
        assert ([chunked.table[c] for c in code.tolist()]
                == [single.table[c] for c in code1.tolist()]), seed
        assert np.array_equal(tick, tick1) and np.array_equal(pos, pos1)


def test_a_partial_copy_takes_its_template_from_before_the_chunk():
    # blocks of laps, then the first commands of the block once more, as
    # LapRecorder._copy_laps appends the laps left after whole blocks:
    # the template rows lie before the blocks' chunk
    for seed in range(20):
        eng = random_stream(seed)[0]
        single = random_stream(seed)[0]
        code, tick, pos = (col.tolist() for col in eng.columns())
        first, part = 80, 80 + seed % 37
        copy_laps(eng, first, len(code), 100, 7, 2)
        copy_laps(eng, first, part, 300, 21, 1)
        for d, step, end in [(100, 7, None), (200, 14, None),
                             (300, 21, part)]:
            for c, t, p in zip(code[first:end], tick[first:end],
                               pos[first:end]):
                single.submit(eng.table[c], t + d, p + step)
        assert eng.pending_commands() == single.pending_commands()
        (code, tick, pos), (code1, tick1, pos1) = (eng.columns(),
                                                   single.columns())
        assert ([eng.table[c] for c in code.tolist()]
                == [single.table[c] for c in code1.tolist()]), seed
        assert np.array_equal(tick, tick1) and np.array_equal(pos, pos1)


@pytest.mark.parametrize("block", range(5))
def test_resolve_of_lap_chunks_matches_the_reference_loop(block):
    for seed in range(20 * block, 20 * block + 20):
        check_against_reference(*lapped_stream(seed))


def test_a_modulate_beyond_the_bank_raises():
    # encode rejects such an index; a command submitted directly raises
    # when its window opens
    eng = ModEngine()
    eng.submit(mk(ModAction.MODULATE, nco=NUM_NCOS, count=4), 0)
    with pytest.raises(IndexError, match=f"NCO {NUM_NCOS}, the bank has"):
        eng.resolve([0], [4], [])


def test_an_empty_stream_resolves_to_no_window():
    eng = ModEngine()
    check_against_reference(eng, [0, 40], [8, 0], [])
    assert eng.events == [] and not len(eng.resolve([], [], []))


def test_a_run_off_the_sample_grid_is_a_value_error():
    # windows read phase per 5-tick sample from the run start, so a run
    # at 1003 would silently take the phase word of tick 1000
    eng = ModEngine()
    eng.submit(mk(ModAction.SET_PHASE_INCREMENT, nco=0b01, turns=0.125), 0)
    eng.submit(mk(ModAction.MODULATE, nco=0, count=16), 0)
    with pytest.raises(ValueError, match="run 1 starts at output tick 1003"):
        eng.resolve([1000, 1003], [8, 8], [])
    assert len(eng.resolve([1000, 1040], [8, 8], [])) == 1


@pytest.mark.parametrize("edge", [1003, 1000])
def test_a_latch_off_the_sample_grid_is_a_value_error(edge):
    # a RESET_PHASE after a WAIT latches on the trigger edge: an edge off
    # the 5-tick grid gives a latch off it
    eng = ModEngine()
    eng.submit(mk(ModAction.WAIT), 0)
    eng.submit(mk(ModAction.RESET_PHASE, nco=0b01), 0)
    if edge % TICKS:
        with pytest.raises(ValueError, match=f"output tick {edge} is off"):
            eng.resolve([], [], [edge])
    else:
        eng.resolve([], [], [edge])
        assert [e.tick for e in eng.events] == [edge - PIPELINE_TICKS]
