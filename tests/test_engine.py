"""Sequencer timing and semantics against hand-computed schedules."""

import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aps2sim.asm import WaveformLibrary, assemble, insert_prefetch_hints
from aps2sim import events
from aps2sim.clocks import (ANALOG_SAMPLE_TICKS, PIPELINE_TICKS,
                            SEQ_CLOCK_TICKS)
from aps2sim.column import Column
from aps2sim.engine import (STACK_DEPTH, DeadlockError, EngineConfig,
                            Sequencer, SimTrap)
from aps2sim.events import Event, EventKind, EventLog
from aps2sim.isa import (
    CmpOp,
    DecodeError,
    Instruction,
    Marker,
    MarkerAction,
    ModAction,
    Modulator,
    Opcode,
    ProgramImage,
    Waveform,
    WfAction,
    PHASE_MASK,
    encode,
    turns_from_phase_word,
)
from aps2sim.laps import PERIOD, LapRecorder
from aps2sim.mem import (LINE_FILL_BYTES, SDRAM_LATENCY_TICKS, MemConfig,
                        Sdram)
from aps2sim.mod import MixerCorrector, ModConfig, Windows
from aps2sim.trace import BLOCK_SAMPLES, Runs, _mix, _ramps

from oracle import interpret, random_program, reference_resolve, resolved

RAMP = np.stack([np.arange(16, dtype=np.int16) * 100,
                 -np.arange(16, dtype=np.int16) * 100], axis=1)


def image(instrs, wave=RAMP):
    return ProgramImage([encode(i) for i in instrs], wave)


def play(addr, count, ta=False):
    return Instruction(Opcode.WAVEFORM,
                       Waveform(WfAction.PLAY, addr=addr, count=count, ta=ta))


def wave_values(addr, count):
    raw = RAMP[addr:addr + count]
    return (raw[:, 0].astype(np.float64)
            + 1j * raw[:, 1].astype(np.float64)) / 32768.0


def test_trigger_sets_first_output_tick():
    prog = image([Instruction(Opcode.WAIT), play(0, 8)])
    trace = Sequencer(prog).run_simple(triggers=[1000])
    assert trace.analog.start[0] == 1000 + 180
    # an off-grid trigger latches on the next sequencer clock edge
    trace = Sequencer(prog).run_simple(triggers=[1003])
    assert trace.analog.start[0] == 1020 + 180


def test_all_engines_resume_on_the_same_edge():
    prog = image([
        Instruction(Opcode.WAIT),
        play(0, 8),
        Instruction(Opcode.MARKER, Marker(MarkerAction.PLAY, channel=0,
                                          state=1, count=2, last_word=0b1111)),
        Instruction(Opcode.MARKER, Marker(MarkerAction.PLAY, channel=3,
                                          state=1, count=1, last_word=0b1000)),
    ])
    trace = Sequencer(prog).run_simple(triggers=[2000])
    assert trace.analog.start[0] == 2180
    assert trace.markers[0].start[0] == 2180
    assert trace.markers[3].start[0] == 2180


def test_back_to_back_plays_are_gapless():
    trace = Sequencer(image([play(0, 8), play(8, 8)])).run_simple()
    assert trace.analog.start.tolist() == [180, 220]
    assert trace.analog.end[0] == trace.analog.start[1]
    assert not [e for e in trace.events if e.kind == "underrun"]
    assert np.array_equal(trace.analog_values(),
                          np.concatenate([wave_values(0, 8), wave_values(8, 8)]))


def test_minimum_command_rate_forces_gaps_for_short_pulses():
    # 4-sample pulses last 20 ticks but a new command starts every 40
    trace = Sequencer(image([play(0, 4)] * 4)).run_simple()
    starts = trace.analog.start.tolist()
    assert starts == [180, 220, 260, 300]
    gaps = [e for e in trace.events if e.kind == "underrun"]
    assert len(gaps) == 3 and all(e.ticks == 20 for e in gaps)


def test_repeat_is_taken_and_costs_the_flush():
    prog = image([
        Instruction(Opcode.LOAD_REPEAT, value=2),
        play(0, 8),
        Instruction(Opcode.REPEAT, addr=1),
    ])
    trace = Sequencer(prog).run_simple()
    # the 16-clock flush dominates the 8-sample body: visible gaps
    assert trace.analog.start.tolist() == [200, 560, 920]
    assert len(trace.analog) == 3


def test_lookahead_hides_the_flush_behind_long_pulses():
    # 96-sample body: 480 ticks of playback vs 360 ticks of decode per lap
    prog = image([
        Instruction(Opcode.LOAD_REPEAT, value=2),
        play(0, 96, ta=True),
        Instruction(Opcode.REPEAT, addr=1),
    ])
    trace = Sequencer(prog).run_simple()
    assert trace.analog.start.tolist() == [200, 680, 1160]
    assert [e for e in trace.events if e.kind == "underrun"] == []


def test_call_restores_the_repeat_register():
    # outer 3 runs x inner 4 runs = 12 bodies
    prog = image([
        Instruction(Opcode.GOTO, addr=5),
        Instruction(Opcode.LOAD_REPEAT, value=3),           # sub
        play(0, 8),
        Instruction(Opcode.REPEAT, addr=2),
        Instruction(Opcode.RETURN),
        Instruction(Opcode.LOAD_REPEAT, value=2),           # main
        Instruction(Opcode.CALL, addr=1),
        Instruction(Opcode.REPEAT, addr=6),
    ])
    seq = Sequencer(prog)
    trace = seq.run_simple()
    assert len(trace.analog) == 12
    assert seq.halted and not seq.stack


def test_call_stack_overflow_traps():
    prog = image([Instruction(Opcode.CALL, addr=0)])
    seq = Sequencer(prog)
    assert seq.run_until_blocked() == "halted"
    assert seq.trap_reason == "call stack overflow"
    assert len(seq.stack) == STACK_DEPTH == 16


def test_return_without_call_traps():
    seq = Sequencer(image([Instruction(Opcode.RETURN)]))
    seq.run_until_blocked()
    assert seq.trap_reason == "RETURN with empty call stack"


def test_load_cmp_blocks_then_latches_on_a_clock_edge():
    instrs = [
        Instruction(Opcode.LOAD_CMP),
        Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=3),
        Instruction(Opcode.GOTO, addr=4, conditional=True),
        play(0, 8),
        play(8, 8),
    ]
    seq = Sequencer(image(instrs))
    assert seq.run_until_blocked() == "need_steering"
    seq.deliver_steering(3, 95)       # usable at the 100-tick edge
    trace = seq.run_simple()
    # latch at 100, CMP at 120, taken branch at 140, play decoded at 480
    assert trace.analog.start.tolist() == [660]
    assert np.array_equal(trace.analog_values(), wave_values(8, 8))

    seq = Sequencer(image(instrs))
    seq.run_until_blocked()
    seq.deliver_steering(7, 95)       # comparison fails, no branch
    trace = seq.run_simple()
    assert trace.analog.start.tolist() == [340, 380]
    assert np.array_equal(
        trace.analog_values(),
        np.concatenate([wave_values(0, 8), wave_values(8, 8)]))


@pytest.mark.parametrize("instrs, block, deliver", [
    # the second PLAY finds the queue full behind the WAIT
    ([Instruction(Opcode.WAIT), play(0, 8), play(0, 8)], "need_trigger",
     lambda seq: seq.deliver_trigger(1000)),
    ([Instruction(Opcode.LOAD_CMP), play(0, 8)], "need_steering",
     lambda seq: seq.deliver_steering(1, 95)),
], ids=["queue_full", "load_cmp"])
def test_a_blocked_instruction_counts_one_decode_and_one_fetch(
        instrs, block, deliver):
    seq = Sequencer(image(instrs), EngineConfig(queue_depth=1))
    assert seq.run_until_blocked() == block
    counts = (seq.decodes, seq.icache.hits, seq.icache.misses)
    for _ in range(3):                # resumed without the input
        assert seq.run_until_blocked() == block
        assert (seq.decodes, seq.icache.hits, seq.icache.misses) == counts
    deliver(seq)
    assert seq.run_until_blocked() == "halted"
    assert (seq.decodes, seq.icache.hits, seq.icache.misses) \
        == (len(instrs), len(instrs), 0)


@pytest.mark.parametrize("sync", [
    Instruction(Opcode.SYNC),
    Instruction(Opcode.WAVEFORM, Waveform(WfAction.SYNC)),
    Instruction(Opcode.MARKER, Marker(MarkerAction.SYNC)),
    Instruction(Opcode.MODULATOR, Modulator(ModAction.SYNC)),
], ids=["sync", "waveform", "marker", "mod"])
def test_sync_fence_waits_for_drain(sync):
    prog = image([play(0, 96, ta=True), sync, play(0, 8)])
    trace = Sequencer(prog).run_simple()
    # drain at 660, decode resumes at 680, second stream starts fresh
    assert trace.analog.start.tolist() == [180, 860]
    assert [e for e in trace.events if e.kind == "underrun"] == []


@pytest.mark.parametrize("wait, wf_starts, mk_starts", [
    # the waveform engine holds its second PLAY for the edge at 1000;
    # the marker PLAY, decoded at 60, starts at 60 + 180
    (Instruction(Opcode.WAVEFORM, Waveform(WfAction.WAIT)),
     [180, 1180], [240]),
    # marker 0 holds its PLAY; the second waveform PLAY, decoded at 40,
    # continues the stream at 180 + 40
    (Instruction(Opcode.MARKER, Marker(MarkerAction.WAIT, channel=0)),
     [180, 220], [1180]),
], ids=["waveform", "marker"])
def test_an_engine_wait_holds_only_its_own_engine(wait, wf_starts,
                                                  mk_starts):
    pulse = Instruction(Opcode.MARKER, Marker(
        MarkerAction.PLAY, channel=0, state=1, count=2, last_word=0b0011))
    seq = Sequencer(image([play(0, 8), wait, play(8, 8), pulse]))
    trace = seq.run_simple(triggers=[1000])
    assert trace.analog.start.tolist() == wf_starts
    assert trace.markers[0].start.tolist() == mk_starts
    assert trace.markers.keys() == {0}
    assert seq.trigger_edges == [1000]


def test_run_simple_delivers_the_scheduled_steering():
    # LOAD_CMP; CMP = 1; GOTO L if; PLAY a; GOTO end; L: PLAY b
    prog = image([
        Instruction(Opcode.LOAD_CMP),
        Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=1),
        Instruction(Opcode.GOTO, addr=5, conditional=True),
        play(0, 8),
        Instruction(Opcode.GOTO, addr=6),
        play(8, 8),
    ])
    taken = Sequencer(prog).run_simple(steering=[(1, 95)])
    assert taken.analog.start.tolist() == [660]
    assert np.array_equal(taken.analog_values(), wave_values(8, 8))
    fell = Sequencer(prog).run_simple(steering=[(0, 95)])
    assert fell.analog.start.tolist() == [340]
    assert np.array_equal(fell.analog_values(), wave_values(0, 8))
    with pytest.raises(DeadlockError,
                       match="blocked on steering, none scheduled"):
        Sequencer(prog).run_simple()


def test_queue_starvation_versus_adequate_depth():
    instrs = [play(0, 8)] * 20
    shallow = Sequencer(image(instrs), EngineConfig(queue_depth=4)).run_simple()
    deep = Sequencer(image(instrs), EngineConfig(queue_depth=8)).run_simple()
    # 4 x 40 ticks of buffered work cannot cover the 180-tick pipeline
    assert len([e for e in shallow.events if e.kind == "underrun"]) > 0
    assert [e for e in deep.events if e.kind == "underrun"] == []
    assert len([e for e in deep.events if e.kind == "queue_full"]) > 0
    assert np.array_equal(shallow.analog_values(), deep.analog_values())


def test_marker_last_word_places_edges_on_the_sample_grid():
    def run(count, last):
        prog = image([Instruction(Opcode.MARKER, Marker(
            MarkerAction.PLAY, channel=2, state=1, count=count,
            last_word=last))])
        return Sequencer(prog).run_simple().marker_edges(2)

    assert run(1, 0b1000) == [(180, 1), (185, 0)]
    assert run(1, 0b1100) == [(180, 1), (190, 0)]
    assert run(1, 0b1110) == [(180, 1), (195, 0)]
    assert run(1, 0b1111) == [(180, 1), (200, 0)]
    assert run(2, 0b1100) == [(180, 1), (210, 0)]


def test_unclaimed_trigger_is_dropped_with_a_diagnostic():
    seq = Sequencer(image([play(0, 8)]))
    seq.run_until_blocked()
    seq.deliver_trigger(500)
    assert any(e.kind == "trigger_dropped" for e in seq.events)


def test_deadlock_without_scheduled_trigger():
    with pytest.raises(DeadlockError):
        Sequencer(image([Instruction(Opcode.WAIT), play(0, 8)])).run_simple()


def test_time_based_phase_on_a_gapless_stream():
    inc_word = 0x0000_1000_0000_0000
    prog = image([
        Instruction(Opcode.MODULATOR, Modulator(
            ModAction.SET_PHASE_INCREMENT, nco=0b0001, phase_word=inc_word)),
        Instruction(Opcode.MODULATOR, Modulator(
            ModAction.MODULATE, nco=0, count=24)),
        play(0, 8), play(0, 8), play(0, 8),
    ])
    trace = Sequencer(prog).run_simple()
    ticks = trace.analog_ticks()
    assert np.array_equal(ticks, 220 + 5 * np.arange(24))
    inc = turns_from_phase_word(inc_word)
    # the increment latches right before the first bound sample, so the
    # accumulated phase is inc times the per-sample index from there
    expected = wave_values(0, 8).tolist() * 3 \
        * np.exp(2j * np.pi * inc * np.arange(24))
    assert np.allclose(trace.analog_values(), expected, atol=1e-12)


def test_prefetch_hint_removes_the_far_jump_stall():
    n_plays = 80
    far = 1 + n_plays + 1 + 600      # into the sixth cache line
    filler = Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=0)

    def program(with_hint):
        head = [Instruction(Opcode.PREFETCH, addr=far)] if with_hint else []
        body = head + [play(0, 96, ta=True)] * n_plays
        body.append(Instruction(Opcode.GOTO, addr=far + len(head) - 1))
        while len(body) < far + len(head) - 1:
            body.append(filler)
        body.append(play(0, 8))
        return image(body)

    plain = Sequencer(program(False))
    t_plain = plain.run_simple()
    hinted = Sequencer(program(True))
    t_hint = hinted.run_simple()

    # the far GOTO stalls decode beyond its flush unless hinted
    assert [e.kind for e in t_plain.stall_events()] == ["fetch_stall"]
    assert t_hint.stall_events() == []
    # lookahead keeps the output gapless either way
    assert [e for e in t_plain.events if e.kind == "underrun"] == []
    assert np.array_equal(t_plain.analog_values(), t_hint.analog_values())


def test_waveform_page_swap_waits_for_the_fill():
    wave = np.stack([np.arange(32, dtype=np.int16),
                     np.zeros(32, dtype=np.int16)], axis=1)
    prog = ProgramImage([encode(i) for i in [
        play(0, 16),
        Instruction(Opcode.WAVEFORM, Waveform(WfAction.PREFETCH, addr=1)),
        play(0, 16),
    ]], wave)
    cfg = MemConfig(wave_mode="pingpong", wave_page_samples=16)
    trace = Sequencer(prog, mem_cfg=cfg).run_simple()
    assert trace.analog.start.tolist() == [180, 1500]
    assert np.array_equal(trace.analog_values().real * 32768,
                          np.arange(32))
    assert any(e.kind == "swap_stall" for e in trace.events)


def test_halt_only_after_pending_wait_resolves():
    seq = Sequencer(image([Instruction(Opcode.WAIT), play(0, 8)]))
    assert seq.run_until_blocked() == "need_trigger"
    seq.deliver_trigger(400)
    assert seq.run_until_blocked() == "halted"
    assert Sequencer(image([play(0, 8)])).run_until_blocked() == "halted"


def mod(action, nco=0b0001, phase_word=0, count=0):
    return Instruction(Opcode.MODULATOR, Modulator(
        action, nco=nco, phase_word=phase_word, count=count))


FILLER = Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=0)


def test_a_wait_held_only_by_the_modulator_needs_its_trigger():
    quarter_turn = 1 << 46                   # 2^48 phase words per turn
    prog = image([mod(ModAction.SET_PHASE_OFFSET, phase_word=quarter_turn),
                  mod(ModAction.WAIT, nco=0),
                  mod(ModAction.MODULATE, nco=0, count=16),
                  play(0, 16)])
    assert Sequencer(prog).run_until_blocked() == "need_trigger"
    with pytest.raises(DeadlockError):
        Sequencer(prog).run_simple()
    trace = Sequencer(prog).run_simple(triggers=[1000])
    assert np.allclose(trace.analog_values(), 1j * wave_values(0, 16),
                       atol=1e-12)


@pytest.mark.parametrize("field", ["queue_depth", "max_decodes"])
def test_engine_config_rejects_a_value_below_one(field):
    with pytest.raises(ValueError, match=f"EngineConfig.{field}"):
        EngineConfig(**{field: 0})


def test_finalize_is_repeatable():
    # a modulated loop with frame updates and no RESET_PHASE, and
    # triggered shots that reset the phase: both rebuild NCO state
    lap = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0800_0000_0000),
           mod(ModAction.UPDATE_FRAME, phase_word=0x2000_0000_0000),
           mod(ModAction.MODULATE, nco=0, count=16),
           play(0, 8), play(8, 8)]
    loop = [Instruction(Opcode.LOAD_REPEAT, value=3), *lap,
            Instruction(Opcode.REPEAT, addr=1)]
    shot = [Instruction(Opcode.WAIT), mod(ModAction.RESET_PHASE),
            mod(ModAction.MODULATE, nco=0, count=8), play(0, 8)]
    shots = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0800_0000_0000),
             *shot, *shot]
    for instrs, triggers in ((loop, []), (shots, [1000, 5000])):
        seq = Sequencer(image(instrs))
        first = seq.run_simple(triggers=triggers)
        second = seq.finalize()
        assert np.array_equal(second.analog_values(), first.analog_values())
        assert np.array_equal(second.analog_ticks(), first.analog_ticks())
        assert second.events == first.events


def test_sequencer_leaves_the_passed_config_unchanged():
    cfgs = EngineConfig(), MemConfig(), ModConfig()
    seq = Sequencer(image([mod(ModAction.MODULATE, nco=0, count=8),
                           play(0, 8)]), *cfgs)
    seq.run_simple()
    assert cfgs == (EngineConfig(), MemConfig(), ModConfig())
    assert seq.mod_cfg is cfgs[2]


FAR = 6 * 128 + 3                     # beyond the warm instruction window


def page_swap_program():
    """A ping-pong run with an underrun, a page-swap stall, a far jump's
    fetch stall and an underfilled window; returns the image and config."""
    wave = np.stack([np.arange(32, dtype=np.int16),
                     np.zeros(32, dtype=np.int16)], axis=1)
    body = [
        mod(ModAction.MODULATE, nco=0, count=1000),   # more than is played
        play(0, 4), play(4, 4),       # shorter than the command rate
        Instruction(Opcode.WAVEFORM, Waveform(WfAction.PREFETCH, addr=1)),
        play(0, 16),                  # swaps before the fill lands
        Instruction(Opcode.GOTO, addr=FAR),
    ]
    body += [FILLER] * (FAR - len(body))
    body.append(play(0, 8))
    cfg = MemConfig(wave_mode="pingpong", wave_page_samples=16)
    return ProgramImage([encode(i) for i in body], wave), cfg


def test_events_jsonl_round_trip(tmp_path):
    prog, cfg = page_swap_program()
    trace = Sequencer(prog, mem_cfg=cfg).run_simple()

    kinds = {e.kind for e in trace.events}
    assert {"underrun", "fetch_stall", "swap_stall",
            "modulate_underfilled"} <= kinds
    # the only fetch stall is the taken jump's, beyond its flush
    [stall] = [e for e in trace.events if e.kind == "fetch_stall"]
    assert stall.detail["pc"] == FAR and stall.ticks > 0

    path = tmp_path / "events.jsonl"
    trace.write_events_jsonl(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(trace.events)
    assert ([(r["tick"], EventKind(r["kind"]), r["ticks"]) for r in rows]
            == [(e.tick, e.kind, e.ticks) for e in trace.events])


def test_event_is_an_immutable_record(tmp_path):
    e = Event(120, EventKind.UNDERRUN, 20, {"engine": "waveform"})
    with pytest.raises(AttributeError):
        e.ticks = 0
    bare = Event(0, EventKind.TRAP)
    assert bare.ticks == 0 and dict(bare.detail) == {}
    with pytest.raises(TypeError):
        bare.detail["reason"] = "x"      # the shared default is read-only
    assert Event(1, EventKind.TRAP).detail == {}
    assert e.kind == "underrun" and e.kind.layer == "engine"
    assert EventKind.SWAP_STALL.layer == "mem"
    assert e.stall == e.ticks == 20
    # the export reads the same bytes as when events were dataclasses
    prog, cfg = page_swap_program()
    path = tmp_path / "events.jsonl"
    Sequencer(prog, mem_cfg=cfg).run_simple().write_events_jsonl(path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            == "ffe662b7972b3a77")


def test_event_log_stores_copies_as_chunks():
    log = EventLog()
    full = Event(10, EventKind.QUEUE_FULL, 0,
                 {"engine": "waveform", "until": 40})
    gap = Event(30, EventKind.UNDERRUN, 5, {"engine": "waveform"})
    for e in (Event(0, EventKind.TRAP), full, gap):
        log.append(e)
    log.repeat(1, 3, 100, 2)          # rows 1..3 twice, 100 ticks apart
    assert (len(log), len(log.rows)) == (7, 3)
    snapshot = log.copy()
    log.append(Event(400, EventKind.TRAP))
    log.repeat(3, 4, 1000, 1)
    assert len(log) == 9 and len(snapshot) == 7
    assert [(e.tick, e.detail.get("until")) for e in log] == [
        (0, None), (10, 40), (30, None), (110, 140), (130, None),
        (210, 240), (230, None), (400, None), (1400, None)]
    assert list(snapshot) == list(log)[:7]
    assert log[3].detail == {"engine": "waveform", "until": 140}
    assert log[4].detail is gap.detail        # no tick in it: shared
    assert [log[i] for i in range(-9, 9)] == list(log) * 2
    with pytest.raises(ValueError, match="spans the chunk"):
        log.repeat(2, 4, 2000, 1)     # rows 2 and 3, the copies between


def test_event_log_copies_part_of_a_block_once_more():
    # the laps left after whole blocks copy the block's first rows once
    # more, as far on as the copy after the last block
    log = EventLog()
    for e in (Event(0, EventKind.TRAP), Event(10, EventKind.UNDERRUN, 5),
              Event(20, EventKind.FETCH_STALL, 40, {"pc": 3})):
        log.append(e)
    log.repeat(1, 3, 100, 2)
    log.repeat(1, 2, 300, 1)
    assert (len(log), len(log.rows)) == (8, 3)
    assert [e.tick for e in log] == [0, 10, 20, 110, 120, 210, 220, 310]
    assert log[-2].detail == {"pc": 3}
    assert [log[i] for i in range(-8, 8)] == list(log) * 2
    log.append(Event(2000, EventKind.TRAP))
    with pytest.raises(ValueError, match="spans the chunk"):
        log.repeat(2, 4, 5, 1)          # rows 2 and 3, the chunks between


def far_calls_program(repeats=3):
    # as the farcall benchmark: a loop calling subroutines 8 cache lines
    # apart, each also playing one marker channel that idles in between
    body, subs = [None], []
    for ch in range(4):
        body += [FILLER] * ((8 * ch + 1) * 128 - len(body))
        subs.append(len(body))
        body += [Instruction(Opcode.MARKER, Marker(
                     MarkerAction.PLAY, channel=ch, state=1, count=2,
                     last_word=0b1111)),
                 play(0, 8), play(8, 8), Instruction(Opcode.RETURN)]
    main = len(body)
    body[0] = Instruction(Opcode.GOTO, addr=main)
    body.append(Instruction(Opcode.LOAD_REPEAT, value=repeats))
    body += [Instruction(Opcode.CALL, addr=subs[k]) for k in (0, 2, 1, 3)]
    body.append(Instruction(Opcode.REPEAT, addr=main + 1))
    return image(body)


def test_stall_ticks_of_far_calls_fit_inside_the_run():
    trace = Sequencer(far_calls_program()).run_simple()

    stalled = sum(e.ticks for e in trace.stall_events())
    assert stalled > 0
    assert stalled <= trace.analog_ticks()[-1]


def test_idle_markers_record_no_underrun():
    trace = Sequencer(far_calls_program()).run_simple()
    gaps = [e for e in trace.events if e.kind == "underrun"]
    # markers idle low between their pulses by design; the waveform
    # stream's 15 gaps are the far calls' fetch stalls
    assert {e.detail["engine"] for e in gaps} == {"waveform"}
    assert (len(gaps), sum(e.ticks for e in gaps)) == (15, 316_620)


def marker_edges_by_sample(ticks, levels):
    """marker_edges as a loop over samples: the reference."""
    edges = []
    level = 0
    for i in range(len(ticks)):
        if levels[i] != level:
            level = int(levels[i])
            edges.append((int(ticks[i]), level))
        is_last = i + 1 == len(ticks)
        gap_next = not is_last and ticks[i + 1] != ticks[i] + 5
        if (is_last or gap_next) and level != 0:
            edges.append((int(ticks[i]) + 5, 0))
            level = 0
    return edges


@pytest.mark.parametrize("seed", range(10))
def test_marker_edges_match_the_sample_loop(seed):
    rng = np.random.default_rng(seed)
    instrs = []
    for _ in range(40):
        if rng.random() < 0.2:
            instrs += [FILLER] * int(rng.integers(1, 8))   # leaves a gap
        instrs.append(Instruction(Opcode.MARKER, Marker(
            MarkerAction.PLAY, channel=1, state=int(rng.integers(0, 2)),
            count=int(rng.integers(1, 5)),
            last_word=int(rng.integers(0, 16)))))
    trace = Sequencer(image(instrs)).run_simple()
    ticks, levels = trace.marker_levels(1)
    assert trace.marker_edges(1) == marker_edges_by_sample(ticks, levels)
    assert trace.marker_edges(0) == []


MAX_COUNT = (1 << 24) - 1


def test_max_count_ta_play_stays_lazy():
    def peak(count):
        seq = Sequencer(image([play(3, count, ta=True)]))
        tracemalloc.start()
        try:
            trace = seq.run_simple()
            return tracemalloc.get_traced_memory()[1], trace
        finally:
            tracemalloc.stop()

    small, _ = peak(1000)
    big, trace = peak(MAX_COUNT)
    assert big < 16e6
    assert abs(big - small) < 64 * 1024       # no per-sample memory
    assert len(trace.analog) == 1
    values = trace.analog_values()
    assert len(values) == MAX_COUNT
    assert np.all(values == wave_values(3, 1)[0])


def test_long_modulated_play_mixes_in_blocks():
    # a TA play inside a window expands to one entry per sample; finalize
    # holds those 16 MB plus a few 2^16-sample blocks (1 MiB of complex
    # samples each) of working memory
    count = 1 << 20
    seq = Sequencer(image([
        mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_0000_0000),
        mod(ModAction.MODULATE, nco=0, count=count),
        play(3, count, ta=True)]))
    assert seq.run_until_blocked() == "halted"
    tracemalloc.start()
    try:
        trace = seq.finalize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not trace.lazy.any() and trace.mixed.nbytes == 16 * count
    assert peak - trace.mixed.nbytes < 12 * (1 << 20)
    values = trace.analog_values()
    assert len(set(values[:100].tolist())) == 100      # rotated
    assert np.allclose(np.abs(values), abs(wave_values(3, 1)[0]),
                       rtol=1e-12, atol=0)


def test_clipping_ta_run_counts_every_sample():
    # I = 1500/32768 plus a 0.98 offset clips; Q stays in range
    trace = Sequencer(image([play(15, 1000, ta=True)]),
                      mod_cfg=ModConfig(dc_offset_i=0.98)).run_simple()
    assert trace.saturations == 1000
    values = trace.analog_values()
    assert np.all(values.real == 32767 / 32768)
    assert np.all(values.imag == -1500 / 32768)


def test_ta_run_partly_inside_a_window_rotates_per_sample():
    inc_word = 0x0000_0800_0000_0000
    prog = image([
        mod(ModAction.SET_PHASE_INCREMENT, phase_word=inc_word),
        mod(ModAction.MODULATE, nco=0, count=10),
        play(5, 30, ta=True),
    ])
    values = Sequencer(prog).run_simple().analog_values()
    value = wave_values(5, 1)[0]
    inc = turns_from_phase_word(inc_word)
    # the increment latches just before the window's first sample
    assert np.allclose(values[:10],
                       value * np.exp(2j * np.pi * inc * np.arange(10)),
                       rtol=0, atol=1e-15)
    assert len(set(values[:10].tolist())) == 10
    assert np.all(values[10:] == value)


ASSOC_LINE = 20                        # the subroutine's line, far away


def assoc_eviction_program():
    """A loop that calls a subroutine on an associative line whose nine
    PREFETCHes of other lines evict it round-robin (eight associative
    lines) while it runs; the main loop prefetches it again each lap."""
    sub = ASSOC_LINE * 128
    body = [Instruction(Opcode.LOAD_REPEAT, value=3),
            Instruction(Opcode.PREFETCH, addr=sub)]
    body += [FILLER] * 10
    body += [Instruction(Opcode.CALL, addr=sub),
             Instruction(Opcode.REPEAT, addr=1), None]
    done = len(body) - 1
    body += [FILLER] * (sub - len(body))
    body += [play(0, 8)]
    body += [Instruction(Opcode.PREFETCH, addr=(ASSOC_LINE + 2 + k) * 128)
             for k in range(9)]
    body += [play(8, 8), Instruction(Opcode.RETURN)]
    body += [FILLER] * ((ASSOC_LINE + 11) * 128 + 1 - len(body))
    body[done] = Instruction(Opcode.GOTO, addr=len(body))
    return image(body)


def window_jump_program():
    """A forward jump into a filled window line beyond the base and a
    sequential walk into the next one, each re-centring the window
    without a miss, then a jump back behind the base."""
    back, forward = 128 + 7, 2 * 128 + 5
    body = [play(0, 8), Instruction(Opcode.GOTO, addr=forward)]
    body += [FILLER] * (back - len(body))
    body += [play(4, 8), None]
    done = len(body) - 1
    body += [FILLER] * (forward - len(body))
    body += [play(8, 8)]
    body += [FILLER] * (3 * 128 + 10 - len(body))
    body += [play(0, 4), Instruction(Opcode.GOTO, addr=back)]
    body[done] = Instruction(Opcode.GOTO, addr=len(body))
    return image(body)


def test_words_are_decoded_when_fetched():
    bad = 0xFF << 56                  # no such opcode
    words = [encode(play(0, 8)), encode(Instruction(Opcode.GOTO, addr=3)),
             bad]
    # the jump past the end skips the bad word, so the run never decodes it
    trace = Sequencer(ProgramImage(words, RAMP)).run_simple()
    assert np.array_equal(trace.analog_values(), wave_values(0, 8))
    with pytest.raises(DecodeError):
        Sequencer(ProgramImage([encode(play(0, 8)), bad], RAMP)).run_simple()


# -- timing pins ---------------------------------------------------------
#
# Digests of every integer a run produces, recorded before the decode
# loop was reworked for speed: a change to the loop that moves one tick,
# one run or one event fails here.  Analog values are left out; the
# oracle tests gate them.


def run_digest(seq, triggers=(), steering=()):
    """sha256 prefix of where a run blocked (reason, pc, decode tick),
    its waveform and marker run columns, every event as (tick, kind,
    ticks, sorted detail), the instruction cache's hits and misses, and
    the decode count."""
    triggers, steering = list(triggers), list(steering)
    blocks = []
    while (reason := seq.run_until_blocked()) != "halted":
        blocks.append((reason, seq.pc, seq.decode_tick))
        if reason == "need_steering":
            seq.deliver_steering(*steering.pop(0))
        else:
            seq.deliver_trigger(triggers.pop(0))
    trace = seq.finalize()
    markers = [(ch, r.start.tolist(), r.n.tolist(), r.state.tolist(),
                r.last.tolist()) for ch, r in sorted(trace.markers.items())]
    events = [(int(e.tick), e.kind.value, int(e.ticks),
               sorted(e.detail.items())) for e in trace.events]
    record = (blocks, trace.analog.start.tolist(), trace.analog.n.tolist(),
              seq.wf.addrs.array().tolist(),
              seq.wf.ta.array().astype(bool).tolist(),
              trace.lazy.tolist(), markers, events,
              seq.icache.hits, seq.icache.misses, seq.decodes)
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def pinned_runs():
    """name -> (sequencer, triggers) of every pinned run."""
    runs = {}
    for seed in range(25):
        prog, initial_cmp = random_program(np.random.default_rng(1000 + seed))
        runs[f"oracle{seed}"] = (
            Sequencer(prog, EngineConfig(initial_cmp=initial_cmp)), ())
    runs["far_calls"] = (Sequencer(far_calls_program()), ())
    for depth in (4, 8):
        runs[f"queue_depth{depth}"] = (Sequencer(
            image([play(0, 8)] * 20), EngineConfig(queue_depth=depth)), ())
    prog, cfg = page_swap_program()
    runs["page_swap"] = (Sequencer(prog, mem_cfg=cfg), ())
    # the second PLAY finds the queue full behind the WAIT: blocked_queue
    runs["blocked_queue"] = (Sequencer(
        image([Instruction(Opcode.WAIT)] + [play(0, 8)] * 4),
        EngineConfig(queue_depth=2)), (1000,))
    runs["assoc_eviction"] = (Sequencer(assoc_eviction_program()), ())
    runs["far_calls_ideal"] = (Sequencer(far_calls_program(),
                                         mem_cfg=MemConfig(ideal=True)), ())
    runs["window_jump"] = (Sequencer(window_jump_program()), ())
    # one-word marker pulses start every clock: a run starts on the very
    # tick a PLAY finds the queue full
    runs["marker_queue_depth2"] = (Sequencer(
        image([Instruction(Opcode.MARKER, Marker(
            MarkerAction.PLAY, channel=0, state=1, count=1,
            last_word=0b0101))] * 12), EngineConfig(queue_depth=2)), ())
    return runs


PINNED = {
    "oracle0": "01c56aa4ef9565ad",
    "oracle1": "ca51b7592bac4645",
    "oracle2": "ea56bcf1c2b8bf5e",
    "oracle3": "b9f7fd1322775eb0",
    "oracle4": "e0c0f3ad24dad71a",
    "oracle5": "2a26bc312b7e9c65",
    "oracle6": "067faa14e8281a49",
    "oracle7": "1cecaf5ae98ed8af",
    "oracle8": "11a22e4db499e35f",
    "oracle9": "9671a9546609e88a",
    "oracle10": "db60ce5569d5782a",
    "oracle11": "af3604273dcc401a",
    "oracle12": "4a9b2296bceb5018",
    "oracle13": "0351ec8d4f490c71",
    "oracle14": "d5ef685329345f71",
    "oracle15": "4be18047f0a016a9",
    "oracle16": "4e356bda727d36ab",
    "oracle17": "b05dced9624be498",
    "oracle18": "b68e9a5f14671c34",
    "oracle19": "d63a017590cd281a",
    "oracle20": "dfd83570064eb81f",
    "oracle21": "1aaed90d70651cf3",
    "oracle22": "32efe31e20b7bdeb",
    "oracle23": "4955fe5f0def75da",
    "oracle24": "adb4daaa42c2bf92",
    "far_calls": "a8b3f72b85cf6f2e",
    "queue_depth4": "c988781470701a14",
    "queue_depth8": "8a19f2c81c0104f7",
    "page_swap": "dca1e7b0663c6127",
    "blocked_queue": "e6fdc28701c8a1ac",
    "assoc_eviction": "0c70c7ebcc34170a",
    "far_calls_ideal": "1d776d92023c2ee2",
    "window_jump": "0a12493d44000668",
    "marker_queue_depth2": "911fffc8983b59a7",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_timing_is_pinned(name):
    seq, triggers = pinned_runs()[name]
    assert run_digest(seq, triggers) == PINNED[name]


# -- value pins ----------------------------------------------------------
#
# Digests of the analog values byte for byte, recorded when NCO phase
# became exact 48-bit words rotated through ramps: a change to the sample
# plane that moves one value by one ulp, or one saturation count, fails
# here.

SKEW = ModConfig(mixer_matrix=(1.07, -0.13, 0.09, 0.94),
                 dc_offset_i=0.31, dc_offset_q=-0.27)   # clips full scale
BIG_WAVE = np.random.default_rng(77).integers(
    -32768, 32768, size=(8192, 2), dtype=np.int16)


def value_digest(trace):
    """sha256 prefix of the analog values and ticks as bytes, every
    marker channel's levels and the saturation count."""
    h = hashlib.sha256()
    h.update(trace.analog_values().tobytes())
    h.update(trace.analog_ticks().tobytes())
    for ch in sorted(trace.markers):
        h.update(bytes([ch]) + trace.marker_levels(ch)[1].tobytes())
    h.update(repr(trace.saturations).encode())
    return h.hexdigest()[:16]


def value_runs():
    """name -> (sequencer, triggers): every pinned run, plus runs that
    reach the mixer's offsets, clipping, DAC rounding and block edges."""
    runs = pinned_runs()
    inc = mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_0000_0000)
    prog, initial_cmp = random_program(np.random.default_rng(2001))
    runs["skewed_mixer"] = (Sequencer(
        prog, EngineConfig(initial_cmp=initial_cmp), mod_cfg=SKEW), ())
    runs["dac_bits14"] = (Sequencer(
        prog, EngineConfig(initial_cmp=initial_cmp),
        mod_cfg=replace(SKEW, dac_bits=14)), ())
    # I or Q of -1/32768 rounds to a signed zero on the 14-bit grid
    tiny = np.array([[-1, 5], [-1, -5], [3, -1], [-3, -1], [-1, -1],
                     [0, -1], [-1, 0], [0, 0]], dtype=np.int16)
    runs["dac_signed_zeros"] = (Sequencer(
        image([play(0, 8)], tiny), mod_cfg=ModConfig(dac_bits=14)), ())
    # I = 1500/32768 plus 0.98 clips on every sample of the lazy run
    runs["lazy_clip_between_windows"] = (Sequencer(image([
        inc, mod(ModAction.MODULATE, nco=0, count=16), play(0, 16),
        play(15, 1000, ta=True),
        mod(ModAction.MODULATE, nco=0, count=16), play(0, 16)]),
        mod_cfg=ModConfig(dc_offset_i=0.98)), ())
    runs["ta_partly_in_window"] = (Sequencer(image([
        inc, mod(ModAction.MODULATE, nco=0, count=10), play(5, 30, ta=True),
        play(0, 8)]), mod_cfg=SKEW), ())
    # 17 plays and part of a TA run in one window: 71,632 entries span
    # two blocks, then a lazy run; every block mixes more than one row
    long = [inc, mod(ModAction.MODULATE, nco=0, count=70000)]
    long += [play(256 * k, 4096) for k in range(17)]
    long += [play(9, 2000, ta=True), play(100, 500, ta=True)]
    runs["long_window"] = (Sequencer(image(long, BIG_WAVE),
                                     mod_cfg=SKEW), ())
    # 65,536 expanded entries and one lazy run: the last block is one row
    edge = [play(4096 * (k % 2), 4096) for k in range(16)]
    runs["one_row_block"] = (Sequencer(
        image(edge + [play(7, 300, ta=True)], BIG_WAVE), mod_cfg=SKEW), ())
    # readout shots: every window opens from the same NCO state and
    # starts the same phasor rows; at 17,385 entries a shot, the windows
    # of shots 4 and 8 cross a block edge
    offset = mod(ModAction.SET_PHASE_OFFSET, phase_word=0x1234_5678_9ABC)
    shot = [Instruction(Opcode.WAIT), mod(ModAction.RESET_PHASE),
            mod(ModAction.UPDATE_FRAME, phase_word=0x5A00_0000_0000),
            mod(ModAction.MODULATE, nco=0, count=4 * 4096 + 1000)]
    shot += [play(1024 * k, 4096) for k in range(4)]
    shot += [play(7, 1000, ta=True), play(8191, 3000, ta=True)]
    runs["reset_shots"] = (Sequencer(
        image([inc, offset, *shot * 8], BIG_WAVE), mod_cfg=SKEW),
        [1000 + 150_000 * k for k in range(8)])
    # a SYNC between a shot's plays opens an output gap inside its
    # window; the shots without one play theirs contiguously
    gap = [inc]
    for k in range(6):
        gap += [Instruction(Opcode.WAIT), mod(ModAction.RESET_PHASE),
                mod(ModAction.MODULATE, nco=0, count=16), play(0, 8)]
        gap += [Instruction(Opcode.SYNC)] * (k % 2) + [play(8, 8)]
    runs["gap_in_window"] = (Sequencer(image(gap), mod_cfg=SKEW),
                             [1000 + 5000 * k for k in range(6)])
    # no RESET_PHASE: equal NCO state, but each window opens at a later
    # point of the free-running phase
    free = [Instruction(Opcode.WAIT), mod(ModAction.MODULATE, nco=0,
                                          count=4096), play(0, 4096)]
    runs["free_running_shots"] = (Sequencer(
        image([inc, *free * 3], BIG_WAVE), mod_cfg=SKEW),
        [1000 + 30_000 * k for k in range(3)])
    # windows longer than a block, so longer than their ramp: each takes
    # a second phasor row
    big = [Instruction(Opcode.WAIT), mod(ModAction.RESET_PHASE),
           mod(ModAction.MODULATE, nco=0, count=70_000),
           play(9, 70_000, ta=True)]
    runs["long_repeated_window"] = (Sequencer(
        image([inc, *big * 3], BIG_WAVE), mod_cfg=SKEW),
        [1000 + 400_000 * k for k in range(3)])
    return runs


PINNED_VALUES = {
    "assoc_eviction": "5a8abc043bb2d770",
    "blocked_queue": "01a676a610b3c440",
    "dac_bits14": "d67523d72a961deb",
    "dac_signed_zeros": "45c8c2d9512f24f3",
    "far_calls": "4d11243153baa9ef",
    "far_calls_ideal": "f137ccf79101a3bd",
    "free_running_shots": "97494c295702fd7a",
    "gap_in_window": "8aa0abbd03d6ca4e",
    "lazy_clip_between_windows": "6187942ec745a7c5",
    "long_repeated_window": "268027b07815f24a",
    "long_window": "20ab9193a01cf016",
    "marker_queue_depth2": "66280c62ffb1bfa2",
    "one_row_block": "05fd2a45cfa5a9b8",
    "oracle0": "b10787c72d7b700c",
    "oracle1": "9f39cef5e43ecd11",
    "oracle10": "8744ca3e6532a6cb",
    "oracle11": "e8c5c37d923e0970",
    "oracle12": "e9b61a3148695829",
    "oracle13": "81ec716916643335",
    "oracle14": "633a04afbd70a709",
    "oracle15": "867906c5463e03ad",
    "oracle16": "12dba28dd400f46f",
    "oracle17": "c0fd9da243022723",
    "oracle18": "d15f99ff2150f0a0",
    "oracle19": "d55843f2bcc8deee",
    "oracle2": "4167b37a16ef11d1",
    "oracle20": "72cc3052e94da8ed",
    "oracle21": "0fc8a8a4daf8110e",
    "oracle22": "c5728f20303fdb96",
    "oracle23": "9d9df7a718eded82",
    "oracle24": "98c7ee119e4130a1",
    "oracle3": "7e54964dffce7387",
    "oracle4": "788fedfa67968ef0",
    "oracle5": "372fc0d297c56fa7",
    "oracle6": "5e93edb10d44d72f",
    "oracle7": "1d9ecc3db5557a32",
    "oracle8": "f8ee778f9c8dafc8",
    "oracle9": "f4ea9d51159436ab",
    "page_swap": "630d12dccff2077f",
    "queue_depth4": "99d0c1452b739582",
    "queue_depth8": "bc22c599803885a3",
    "reset_shots": "93c46230d35d4abd",
    "skewed_mixer": "7678303fe908a40a",
    "ta_partly_in_window": "d691e496729d7cfd",
    "window_jump": "83505a110476d574",
}


@pytest.mark.parametrize("name", sorted(PINNED_VALUES))
def test_values_are_pinned(name):
    seq, triggers = value_runs()[name]
    assert value_digest(seq.run_simple(triggers=triggers)) \
        == PINNED_VALUES[name]


def test_skewed_mixer_gives_the_same_bytes_at_every_call_size():
    # the product's gemm takes rows in groups and a remainder, and numpy
    # sends one row down its vector path: no call size or split may move
    # a bit, written to a new array or into out
    rng = np.random.default_rng(11)
    n = 65_537
    iq = rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n)
    whole = MixerCorrector(SKEW).apply(iq)
    for size in (1, 2, 3, 5, 17, n):
        for cut in sorted({0, 1, size // 2, size - 1}):
            corr = MixerCorrector(SKEW)
            out = np.empty(size, np.complex128)
            corr.apply(iq[:cut], out=out[:cut])
            corr.apply(iq[cut:size], out=out[cut:])
            assert out.tobytes() == whole[:size].tobytes(), (size, cut)
            assert MixerCorrector(SKEW).apply(iq[cut:size]).tobytes() \
                == whole[cut:size].tobytes(), (size, cut)


def resolve_matches_the_reference(seq):
    """seq's modulator windows and events, resolved over the run
    columns finalize passes, equal tests/oracle.py's command loop."""
    eng, runs = seq.modeng, seq.finalize().analog
    expect = resolved(*reference_resolve(eng, runs.start, runs.n,
                                         seq.trigger_edges))
    return resolved(eng.resolve(runs.start, runs.n, seq.trigger_edges),
                    eng.events) == expect


def test_resolve_matches_the_reference_on_value_runs():
    modulated = []
    for name, (seq, triggers) in value_runs().items():
        seq.run_simple(triggers=triggers)
        assert resolve_matches_the_reference(seq), name
        if seq.modeng.pending_commands():
            modulated.append(name)
    assert len(modulated) >= 20
    assert {"reset_shots", "gap_in_window", "long_window"} <= set(modulated)


# -- rotation ramps -------------------------------------------------------
#
# finalize rotates an entry by its window's phasor times an entry of the
# ramp its increment shares.  These checks rebuild the values on their
# own: from the output ticks, the waveform words and the phase words
# tests/oracle.py's reference_resolve keeps as Python ints, with one
# direct exp per sample.


def rebuilt_values(seq, trace):
    """trace's analog values rebuilt from its ticks: each sample's
    waveform word, rotated by the direct exp of its exact phase word,
    through the mixer correction of seq's config."""
    ticks, runs, wf = trace.analog_ticks(), trace.analog, seq.wf
    windows, _ = reference_resolve(seq.modeng, runs.start, runs.n,
                                   seq.trigger_edges)
    index = np.concatenate([np.zeros(0, np.int64)] + [
        np.full(n, a) if ta else a + np.arange(n)
        for a, n, ta in zip(*(col.array().tolist()
                              for col in (wf.addrs, wf.counts, wf.ta)))])
    raw = seq.image.waveforms[index].astype(np.float64)
    z = (raw[:, 0] + 1j * raw[:, 1]) / 32768.0
    for lo, hi, ref, phase, inc in zip(*(col.tolist() for col in (
            windows.lo, windows.hi, windows.ref_tick, windows.phase,
            windows.inc))):
        samples, off = np.divmod(ticks[lo:hi] - PIPELINE_TICKS - ref, 5)
        assert not off.any()
        words = (phase + samples.astype(object) * inc) & PHASE_MASK
        z[lo:hi] *= np.exp(2j * np.pi * (words / (1 << 48)).astype(float))
    return MixerCorrector(seq.mod_cfg).apply(z), len(windows)


def test_modulated_values_rebuild_from_ticks_and_words():
    modulated = []
    for name, (seq, triggers) in value_runs().items():
        trace = seq.run_simple(triggers=triggers)
        rebuilt, windows = rebuilt_values(seq, trace)
        if windows:
            modulated.append(name)
            assert np.abs(trace.analog_values() - rebuilt).max() <= 1e-13, \
                name
    assert len(modulated) >= 20
    assert {"reset_shots", "gap_in_window", "free_running_shots",
            "long_window", "long_repeated_window"} <= set(modulated)


def test_random_programs_with_increments_rebuild_from_ticks_and_words():
    rotating = 0
    for seed in range(100):
        prog, initial_cmp = random_program(
            np.random.default_rng(5000 + seed), max_repeat=20,
            increments=True)
        seq = Sequencer(prog, EngineConfig(initial_cmp=initial_cmp))
        trace = seq.run_simple()
        rebuilt, _ = rebuilt_values(seq, trace)
        assert np.abs(trace.analog_values() - rebuilt).max(initial=0) \
            <= 1e-13, seed
        windows = seq.modeng.resolve(trace.analog.start, trace.analog.n, [])
        rotating += bool(windows.inc.any())
    assert rotating >= 20      # programs with a window at an increment


HALF = np.array([[16384, 0]], dtype=np.int16)    # 0.5: exact products


def test_ramp_stays_within_1e_14_of_the_direct_exp_over_2_20_samples():
    # one window of 2^20 samples of 0.5, in four plays with a trigger
    # wait between each: the ramp's phasor rows cross the gaps
    count = 1 << 20
    prog = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_4567_89AB),
            mod(ModAction.MODULATE, nco=0, count=count)]
    for k in range(4):
        prog += [Instruction(Opcode.WAIT)] * (k > 0)
        prog.append(play(0, count // 4, ta=True))
    seq = Sequencer(image(prog, HALF))
    trace = seq.run_simple(triggers=[2_000_000 * k for k in (2, 3, 5)])
    ticks = trace.analog_ticks()
    assert np.count_nonzero(np.diff(ticks) != 5) == 3
    windows = seq.modeng.resolve(trace.analog.start, trace.analog.n,
                                 seq.trigger_edges)
    assert len(windows) == 1
    direct = windows.rotation(0, ticks)
    # 0.5 times a factor, through the identity mixer, is exact
    assert np.abs(2 * trace.analog_values() - direct).max() <= 1e-14


def two_window_rotations(gap=0, first_tick=1280, **column):
    """Two windows of 0.5 samples through _mix, the second's column
    values, first tick and a gap after its first sample changed as
    given: twice the mixed entries, and the direct exp of each entry's
    exact phase word."""
    cols = {"lo": [0, 8], "hi": [8, 16], "ref_tick": [100, 1100],
            "phase": [0x4000_0000_0001] * 2, "inc": [0x0321_0000_0000] * 2}
    for name, value in column.items():
        cols[name][1] = value
    windows = Windows(*(np.array(cols[name], np.int64) for name in
                        ("lo", "hi", "ref_tick", "phase", "inc")))
    n = np.array([8, 1, cols["hi"][1] - 9])
    runs = Runs(np.array([280, first_tick, first_tick + 5 + gap]), n)
    mixed, entry, lazy = _mix(HALF, runs, np.zeros(3, np.int64),
                              np.ones(3, bool), windows,
                              MixerCorrector(ModConfig()))
    assert entry is None and not lazy.any()     # the runs' lengths differ
    which = np.repeat([0, 1], [8, n[1:].sum()])
    return 2 * mixed, windows.rotation(which, runs.ticks())


@pytest.mark.parametrize("change", [
    {}, {"phase": 0x4000_0000_0002}, {"inc": 0x0321_0000_0001},
    {"inc": 0}, {"ref_tick": 1105}, {"first_tick": 1285}, {"hi": 15},
    {"gap": 5}, {"hi": 100_008},
], ids=["same_state", "phase", "inc", "zero_inc", "ref_tick", "first_tick",
        "length", "gap", "past_a_block"])
def test_the_ramp_rotates_every_window_shape_as_the_direct_exp(change):
    ramped, direct = two_window_rotations(**change)
    assert np.abs(ramped - direct).max() <= 1e-14
    # r = 0, each window's first sample: the phasor itself
    assert ramped[[0, 8]].tobytes() == direct[[0, 8]].tobytes()


def test_ramps_are_one_per_increment_and_fit_in_a_block():
    inc = np.array([3, 5 << 40, 3, 0, 5 << 40])
    span = np.array([10, 4, 20, 7, 100_000])
    ramp, at, period = _ramps(inc, span)
    # three ramps, each as long as its increment's longest span, but the
    # longest cut to a third of a block, and the unit entry
    assert period.tolist() == [20, BLOCK_SAMPLES // 3, 20, 7,
                               BLOCK_SAMPLES // 3]
    assert len(ramp) == 27 + BLOCK_SAMPLES // 3 + 1 and ramp[-1] == 1
    assert at[0] == at[2] and at[1] == at[4] and len(set(at.tolist())) == 3
    for j in range(5):
        words = [(int(inc[j]) * r) & PHASE_MASK for r in range(period[j])]
        assert np.allclose(ramp[at[j]:at[j] + period[j]],
                           np.exp(2j * np.pi * np.array(words) / 2**48),
                           rtol=0, atol=1e-15)
    # past BLOCK_SAMPLES increments every window reads the unit entry
    many = np.arange(BLOCK_SAMPLES + 1)
    ramp, at, period = _ramps(many, np.full(len(many), 9))
    assert (period == 1).all() and (at == 0).all() and ramp.tolist() == [1]


def test_ramps_stay_within_one_block_of_memory(monkeypatch):
    # 128 shots, each at its own increment or all at one: 128 ramps cut
    # to 512 entries each, against one ramp of 4,096.  Each shot plays
    # from its own address, so that no two runs mix once in either case
    ramps = []
    make_ramps = _ramps

    def spy(inc, span):
        made = make_ramps(inc, span)
        ramps.append(made)
        return made

    monkeypatch.setattr("aps2sim.trace._ramps", spy)

    def peak(distinct):
        shots = []
        for c in range(128):
            word = 0x0321_0000_0000 + (c << 20) * distinct
            shots += [Instruction(Opcode.WAIT),
                      mod(ModAction.SET_PHASE_INCREMENT, phase_word=word),
                      mod(ModAction.RESET_PHASE),
                      mod(ModAction.MODULATE, nco=0, count=4096),
                      play(c, 4096)]
        seq = Sequencer(image(shots, BIG_WAVE))
        seq.run_simple(triggers=[1000 + 25_000 * k for k in range(128)])
        tracemalloc.start()
        try:
            trace = seq.finalize()
            return tracemalloc.get_traced_memory()[1], trace, seq
        finally:
            tracemalloc.stop()

    shared, _, _ = peak(False)
    apart, trace, seq = peak(True)
    ramp, at, period = ramps[-1]
    assert len(set(at.tolist())) == 128 and (period == 512).all()
    assert len(ramp) == BLOCK_SAMPLES + 1          # and the unit entry
    assert len(ramps[-3][0]) == 4096 + 1        # the one shared ramp
    assert apart - shared < 17 * BLOCK_SAMPLES    # 16 B an entry, + 6 %
    rebuilt, _ = rebuilt_values(seq, trace)
    assert np.abs(trace.analog_values() - rebuilt).max() <= 1e-13


def test_many_increments_keep_the_rotation_within_a_block(monkeypatch):
    # 4,096 back-to-back windows of 512 samples, each at its own
    # increment or all at one: 4,096 ramps of 16 entries give 32 phasor
    # rows a window, 131,072 pieces in all, but a block cuts only its own
    ramps = []
    make_ramps = _ramps

    def spy(inc, span):
        ramps.append(make_ramps(inc, span))
        return ramps[-1]

    monkeypatch.setattr("aps2sim.trace._ramps", spy)

    def peak(distinct):
        prog = []
        for c in range(4096):
            word = 0x0321_0000_0000 + (c << 20) * distinct
            prog += [mod(ModAction.SET_PHASE_INCREMENT, phase_word=word),
                     mod(ModAction.MODULATE, nco=0, count=512),
                     play(0, 512)]
        seq = Sequencer(image(prog, BIG_WAVE))
        assert seq.run_until_blocked() == "halted"
        tracemalloc.start()
        try:
            trace = seq.finalize()
            return tracemalloc.get_traced_memory()[1], trace, seq
        finally:
            tracemalloc.stop()

    shared, alike, _ = peak(False)
    apart, trace, seq = peak(True)
    assert (ramps[-1][2] == 16).all() and len(ramps[-2][0]) == 512 + 1
    # the ramps' 1 MiB and a block's pieces, not the 4 MiB that the
    # stream's 131,072 pieces hold at 32 B each, above what each trace
    # stores (one increment: windows of one phase word mix once)
    assert len(alike.mixed) < len(trace.mixed) == 4096 * 512
    assert ((apart - trace.mixed.nbytes) - (shared - alike.mixed.nbytes)
            < 2 * 16 * BLOCK_SAMPLES)
    rebuilt, windows = rebuilt_values(seq, trace)
    assert windows == 4096
    assert np.abs(trace.analog_values() - rebuilt).max() <= 1e-13


# -- lap fast-forward ----------------------------------------------------
#
# A taken REPEAT whose state repeats the previous lap's appends the laps
# still to run instead of decoding them.  Every run must stay identical
# to decoding each lap, which is what LapRecorder.skip_laps as a no-op
# does.


def every_move_is_the_period(seq, steps):
    """Whether a copy with the steps LapRecorder._copy_laps takes moved
    each engine's runs on by the period, as the decode tick moved."""
    return all(steps[e] == steps[PERIOD] for e in seq.engines)


class Skips(list):
    """The laps each fast-forward whose every move was the period
    appended, in order; ``affine`` those each other one appended."""

    def __init__(self):
        super().__init__()
        self.affine = []

    def clear(self):
        super().clear()
        self.affine.clear()


@pytest.fixture
def skips(monkeypatch):
    """A Skips of every fast-forward's laps: each appends its copies in
    one LapRecorder._copy_laps."""
    laps = Skips()
    copy_laps = LapRecorder._copy_laps

    def counted(self, *args):
        before = self.seq.repeat_register
        copy_laps(self, *args)
        copies = laps if every_move_is_the_period(self.seq, args[-1]) \
            else laps.affine
        copies.append(before - self.seq.repeat_register)

    monkeypatch.setattr(LapRecorder, "_copy_laps", counted)
    return laps


def decoding_every_lap(monkeypatch, run):
    """run() with the lap fast-forward off: every sequencer it makes
    copied no lap, so a patch that misses the call site fails here."""
    made = []
    record = LapRecorder.__init__

    def recording(self, seq):
        record(self, seq)
        made.append(seq)

    with monkeypatch.context() as m:
        m.setattr(LapRecorder, "__init__", recording)
        m.setattr(LapRecorder, "skip_laps", lambda self, at: None)
        result = run()
    assert made and all(seq.laps_copied == 0 for seq in made)
    return result


def long_loops_run_as_decoded(monkeypatch, skips, depth):
    """Seeded random programs padded over about a dozen cache lines, so
    loops and calls cross lines the window has yet to fill: some
    fast-forwards replay instruction-cache misses and window waits along
    with the laps.  Every run equals the one decoding each lap, and its
    values the oracle's.  Returns the runs with copies whose every move
    was the period, those with cache events among them, and the seeds
    with copies whose moves were not all the period."""
    replayed = []           # instruction-cache events each one appended
    counted = LapRecorder._copy_laps

    def replaying(self, *args):
        before = len(self.seq.icache.events)
        counted(self, *args)
        if every_move_is_the_period(self.seq, args[-1]):
            replayed.append(len(self.seq.icache.events) - before)

    monkeypatch.setattr(LapRecorder, "_copy_laps", replaying)
    skipped = cached = affine = 0
    for seed in range(100):
        prog, initial_cmp = random_program(np.random.default_rng(3000 + seed),
                                           max_repeat=40, pad=300)
        affine_seed = False
        for hinted in (prog, insert_prefetch_hints(prog)):
            def make():
                return Sequencer(hinted, EngineConfig(initial_cmp=initial_cmp,
                                                      queue_depth=depth))

            skips.clear()
            replayed.clear()
            seq = make()
            fast = run_digest(seq)
            assert fast == decoding_every_lap(
                monkeypatch, lambda: run_digest(make())), seed
            affine_seed |= bool(skips.affine)
            if not seq.laps_copied:
                continue
            skipped += bool(skips)
            cached += any(replayed)
            trace = make().run_simple()
            ref = interpret(hinted, initial_cmp)
            assert np.array_equal(trace.analog_values(), ref["analog"]), seed
            for ch in range(4):
                assert np.array_equal(trace.marker_levels(ch)[1],
                                      ref["markers"][ch]), seed
        affine += affine_seed
    return skipped, cached, affine


def test_long_loops_skip_laps_without_changing_the_run(monkeypatch, skips):
    skipped, cached, _ = long_loops_run_as_decoded(monkeypatch, skips, 4)
    assert skipped >= 50       # the fast path ran, not only its bail-outs
    assert cached >= 10        # and carried the instruction cache along


def test_long_loops_with_deep_queues_copy_affine_laps(monkeypatch, skips):
    skipped, cached, affine = long_loops_run_as_decoded(monkeypatch, skips,
                                                        64)
    assert skipped >= 50 and cached >= 10
    assert affine >= 20        # with moves of their own


def test_fenced_loops_copy_laps_as_decoded(monkeypatch):
    # a SYNC in every loop body, global or one engine's: every lap
    # restarts the streams, and a block of such laps still copies
    fenced = []             # seeds whose copies resolved fences
    copy_laps = LapRecorder._copy_laps

    def spy(self, old, end, *args):
        if end.fences > old.fences:
            fenced.append(seed)
        copy_laps(self, old, end, *args)

    monkeypatch.setattr(LapRecorder, "_copy_laps", spy)
    for seed in range(100):
        prog, initial_cmp = random_program(np.random.default_rng(9000 + seed),
                                           max_repeat=40, syncs=True)

        def make():
            return Sequencer(prog, EngineConfig(initial_cmp=initial_cmp))

        assert run_digest(make()) == decoding_every_lap(
            monkeypatch, lambda: run_digest(make())), seed
        trace = make().run_simple()
        ref = interpret(prog, initial_cmp)
        assert np.array_equal(trace.analog_values(), ref["analog"]), seed
        for ch in range(4):
            assert np.array_equal(trace.marker_levels(ch)[1],
                                  ref["markers"][ch]), seed
    assert len(set(fenced)) >= 40      # 43 of the 100 seeds


def test_decode_budget_runs_out_at_the_same_point(monkeypatch, skips):
    prog = image([Instruction(Opcode.LOAD_REPEAT, value=1000), play(0, 8),
                  play(8, 8), Instruction(Opcode.REPEAT, addr=1)])

    def trap_point():
        seq = Sequencer(prog, EngineConfig(queue_depth=4, max_decodes=2000))
        with pytest.raises(SimTrap, match="budget 2000 ran out at pc 2,"):
            seq.run_simple()
        return seq.decodes, seq.pc, seq.decode_tick

    fast = trap_point()
    assert skips and fast[:2] == (2000, 2)      # inside a lap
    assert fast == decoding_every_lap(monkeypatch, trap_point)


def farcall_image(laps):
    """As the farcall benchmark, with prefetch hints: a loop calling 16
    subroutines 8 cache lines apart, 5 apart in call order, after engine
    waits that hold the start for a trigger.  Its laps repeat as a block
    of 10, whose first copy comes after decoding 1,523 instructions."""
    lengths = (8, 16, 24, 32)
    lines = ["WAVEFORM WAIT"] + [f"MARKER WAIT ch={ch}" for ch in range(4)]
    lines.append("GOTO main")
    for s in range(16):
        while len(lines) < (8 * s + 1) * 128:
            lines.append(f"WAVEFORM PLAY p{lengths[len(lines) % 4]}")
        lines += [f"sub{s}:", f"MARKER PLAY ch={s % 4} state=1 count=2"]
        lines += [f"WAVEFORM PLAY p{lengths[(s + j) % 4]}" for j in range(3)]
        lines.append("RETURN")
    lines += ["main:", f"LOAD_REPEAT {laps - 1}", "loop:"]
    lines += [f"CALL sub{5 * k % 16}" for k in range(16)]
    lines.append("REPEAT loop")
    lib = WaveformLibrary()
    for n in lengths:
        lib.add(f"p{n}", np.full(n, 0.25))
    return insert_prefetch_hints(assemble("\n".join(lines) + "\n", lib))


# decodes up to the first block copy, and per lap, on farcall_image
FARCALL_AT, FARCALL_LAP = 1523, 116


@pytest.mark.parametrize("left, copied", [
    (FARCALL_LAP // 2, 0),                  # neither a block nor a lap
    (3 * FARCALL_LAP + 7, 3),               # no block, a recorded rest
    (10 * FARCALL_LAP + 7, 10),             # one block and no rest
])
def test_a_decode_budget_inside_a_block_traps_as_decoded(monkeypatch, left,
                                                         copied):
    # the budget leaves `left` decodes at the first exact 10-lap match:
    # _repeat copies what fits, or refuses when nothing does, and the
    # run traps where decoding every lap traps
    prog = farcall_image(250)
    budget = FARCALL_AT + left
    tried = []
    repeat = LapRecorder._repeat

    def recording(self, now, k, exact):
        before = self.seq.decodes
        done = repeat(self, now, k, exact)
        if exact:
            tried.append((k, before, done))
        return done

    def trap_point():
        seq = Sequencer(prog, EngineConfig(max_decodes=budget))
        with pytest.raises(SimTrap, match=f"budget {budget} ran out") as trap:
            seq.run_simple(triggers=[500_000])
        return str(trap.value), seq.decodes, seq.pc, seq.decode_tick, \
            seq.laps_copied

    monkeypatch.setattr(LapRecorder, "_repeat", recording)
    fast = trap_point()
    assert tried == [(10, FARCALL_AT, copied > 0)]
    assert fast[-1] == copied
    assert fast[:-1] == decoding_every_lap(monkeypatch, trap_point)[:-1]


def test_every_lap_starts_on_the_sequencer_clock(monkeypatch):
    # each step of the decode tick adds CLK or aligns up to it, so a
    # lap's period is whole clocks too and _repeat's off-grid refusal
    # is a guard that no program reaches
    starts = []
    skip = LapRecorder.skip_laps

    def recording(self, at):
        starts.append(self.seq.decode_tick)
        skip(self, at)

    monkeypatch.setattr(LapRecorder, "skip_laps", recording)
    Sequencer(farcall_image(30)).run_simple(triggers=[500_000])
    for seed in range(20):
        prog, initial_cmp = random_program(np.random.default_rng(3000 + seed),
                                           max_repeat=40, pad=300,
                                           syncs=seed % 2 == 1)
        Sequencer(prog, EngineConfig(initial_cmp=initial_cmp)).run_simple()
    assert len(starts) > 50
    assert all(tick % SEQ_CLOCK_TICKS == 0 for tick in starts)


def test_far_calls_skip_laps_without_changing_the_run(monkeypatch, skips):
    prog = insert_prefetch_hints(far_calls_program(repeats=40))
    seq = Sequencer(prog)
    fast = run_digest(seq)
    assert seq.laps_copied == sum(skips) == 37
    assert fast == decoding_every_lap(
        monkeypatch, lambda: run_digest(Sequencer(prog)))


@pytest.mark.parametrize("repeats", [20, 21])
def test_a_comparison_alternating_by_lap_copies_as_decoded(monkeypatch, skips,
                                                          repeats):
    # each lap branches on the comparison the lap before set and sets the
    # other one, so the state repeats every 2 laps; with an odd number
    # of laps left after the last whole block, the copies end one lap
    # into the block, on the other branch than the last decoded lap's
    prog = image([Instruction(Opcode.LOAD_REPEAT, value=repeats),
                  Instruction(Opcode.GOTO, addr=5, conditional=True),
                  Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=0),
                  play(0, 8),
                  Instruction(Opcode.GOTO, addr=7),
                  Instruction(Opcode.CMP, cmp_op=CmpOp.NEQ, mask=0),
                  play(8, 8),
                  Instruction(Opcode.REPEAT, addr=1)])
    seq = Sequencer(prog)
    fast = run_digest(seq)
    assert fast == decoding_every_lap(monkeypatch,
                                      lambda: run_digest(Sequencer(prog)))
    assert sum(skips) == seq.laps_copied
    assert repeats + 1 - seq.laps_copied == 6    # whatever the parity
    trace = Sequencer(prog).run_simple()
    assert np.array_equal(trace.analog_values(), interpret(prog)["analog"])


def test_lap_copies_count_as_modulator_commands(skips):
    # modloop's shape: per lap an increment, three frame updates on
    # three NCOs, one window over two plays and a marker pulse
    lap = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_0000_0000),
           mod(ModAction.UPDATE_FRAME, phase_word=0x5A00_0000_0000),
           mod(ModAction.UPDATE_FRAME, nco=0b0010, phase_word=0x1234),
           mod(ModAction.UPDATE_FRAME, nco=0b0100, phase_word=0x5678),
           mod(ModAction.MODULATE, nco=0, count=16), play(0, 8), play(8, 8),
           marker_pulse(3)]
    seq = Sequencer(image([Instruction(Opcode.WAIT),
                           Instruction(Opcode.LOAD_REPEAT, value=39), *lap,
                           Instruction(Opcode.REPEAT, addr=2)]),
                    EngineConfig(queue_depth=4))
    seq.run_simple(triggers=[1000])
    assert sum(skips) > 30                  # most laps were copies
    assert seq.modeng.pending_commands() == 5 * 40 + 1
    # the decoded laps are rows, the copies one chunk in each column
    for column in (seq.modeng.commands, seq.modeng.ticks,
                   seq.modeng.positions):
        assert len(column.chunks) == 1
        assert len(column.rows) == 5 * (40 - sum(skips)) + 1
    assert resolve_matches_the_reference(seq)


# -- affine lap fast-forward ------------------------------------------------
#
# A loop whose laps drain or fill the queues repeats no lap exactly: each
# tick moves by its own period.  Such laps copy with moves of their own,
# up to the last one whose start rules and queue room checks decide as
# the decoded lap's did.


def modulator_columns(seq):
    """seq's modulator table and its command columns as bytes."""
    columns = [col.tobytes() for col in seq.modeng.columns()]
    return (list(seq.modeng.table), *columns)


def test_equal_runs_give_equal_modulator_columns():
    # codes follow the commands' first appearance, not their object ids,
    # which differ between two sequencers
    for seed in range(10):
        prog, initial_cmp = random_program(
            np.random.default_rng(5000 + seed), max_repeat=20,
            increments=True)
        runs = []
        for _ in range(2):
            seq = Sequencer(prog, EngineConfig(initial_cmp=initial_cmp))
            seq.run_simple()
            runs.append(modulator_columns(seq))
        assert runs[0] == runs[1], seed
        first = np.unique(seq.modeng.columns()[0], return_index=True)[1]
        assert np.all(np.diff(first) > 0), seed


def lap_run(make, triggers=()):
    """(run_digest, modulator table and columns, value_digest) of a run
    of make(), and the laps it copied."""
    seq = make()
    digest = run_digest(seq, triggers)
    return (digest, *modulator_columns(seq),
            value_digest(seq.finalize())), seq.laps_copied


def modloop_program(half, laps, triggered):
    """modloop's loop: per lap an increment, three frame updates on
    three NCOs, one window over two plays of half samples each and a
    marker pulse; 9 instructions decode in 500 ticks, and the plays take
    10 * half.  triggered puts a WAIT before the loop."""
    lap = [mod(ModAction.SET_PHASE_INCREMENT, phase_word=0x0321_0000_0000),
           mod(ModAction.UPDATE_FRAME, phase_word=0x5A00_0000_0000),
           mod(ModAction.UPDATE_FRAME, nco=0b0010, phase_word=0x1234),
           mod(ModAction.UPDATE_FRAME, nco=0b0100, phase_word=0x5678),
           mod(ModAction.MODULATE, nco=0, count=2 * half), play(0, half),
           play(half, half), marker_pulse(3)]
    before = [Instruction(Opcode.WAIT)] if triggered else []
    return ProgramImage(loop(lap, laps - 1, before).words, BIG_WAVE)


def affine_runs_as_decoded(monkeypatch, skips, prog, depth, triggers):
    """The laps copied in a run of prog, and those copied with moves not
    all the period, after checking that the run equals decoding each
    lap."""
    def make():
        return Sequencer(prog, EngineConfig(queue_depth=depth), mod_cfg=SKEW)

    skips.clear()
    fast, copied = lap_run(make, triggers)
    assert fast == decoding_every_lap(monkeypatch,
                                      lambda: lap_run(make, triggers))[0]
    assert copied == sum(skips) + sum(skips.affine)
    return copied, sum(skips.affine)


# the laps each queue depth copies of the drain behind a trigger; the
# drain without one copies 396 at every depth
DRAINED = {4: 391, 8: 389, 16: 385, 64: 361}


@pytest.mark.parametrize("depth", [4, 8, 16, 64])
@pytest.mark.parametrize("triggered", [True, False])
def test_draining_laps_copy_as_decoded(monkeypatch, skips, depth, triggered):
    # 480 ticks of output a lap: a lead built up behind the WAIT drains
    # by 20 ticks a lap; once it is gone, every lap underruns
    prog = modloop_program(48, 400, triggered)
    copied, affine = affine_runs_as_decoded(monkeypatch, skips, prog, depth,
                                            [50_000] if triggered else [])
    assert copied == (DRAINED[depth] if triggered else 396)
    if triggered:
        assert affine > 0
        if depth == 64:     # modloop's queue: most of the drain is copied
            assert affine > 300


@pytest.mark.parametrize("depth", [4, 8, 16, 64])
def test_filling_laps_copy_until_the_queue_fills(monkeypatch, skips, depth):
    # 640 ticks of output a lap: the lead grows by 140 ticks a lap until
    # the waveform queue is full, then every lap waits for room
    prog = modloop_program(64, 300, triggered=False)
    copied, affine = affine_runs_as_decoded(monkeypatch, skips, prog, depth,
                                            [])
    trace = Sequencer(prog, EngineConfig(queue_depth=depth)).run_simple()
    assert any(e.kind == "queue_full" for e in trace.events)
    assert copied == 293 and affine > 0


def test_a_drain_stops_copying_where_its_slack_crosses_zero(monkeypatch,
                                                            skips):
    # the lead a queue of 16 holds after the WAIT lasts about 180 laps
    # of the drain, and the loop runs 400: copying every lap left would
    # carry the contiguous start rule past the lap where the stream
    # falls behind
    prog = modloop_program(48, 400, triggered=True)
    copied, affine = affine_runs_as_decoded(monkeypatch, skips, prog, 16,
                                            [50_000])
    seq = Sequencer(prog, EngineConfig(queue_depth=16), mod_cfg=SKEW)
    trace = seq.run_simple(triggers=[50_000])
    underruns = [e.tick for e in trace.events if e.kind == "underrun"]
    first = int(np.searchsorted(trace.analog.start, underruns[0]))
    assert 100 < first // 2 < 300        # the lap the stream falls behind
    assert affine > 100 and skips        # copied both sides of it
    assert 400 - seq.laps_copied < 20
    assert seq.laps_copied == copied == DRAINED[16]


def lapped_program():
    """Two loops on either side of a WAIT.  Each lap queues more runs
    than a queue of 4 holds, so it records queue_full events, whose
    until tick moves with each copy, and prefetches nine lines, one more
    than the associative half holds, so every PREFETCH fills a line."""
    body = [play(0, 8), play(0, 4000, ta=True), play(8, 8),
            play(0, 4000, ta=True),
            *[Instruction(Opcode.PREFETCH, addr=line * 128)
              for line in range(2, 11)]]
    instrs = [Instruction(Opcode.LOAD_REPEAT, value=40), *body,
              Instruction(Opcode.REPEAT, addr=1), Instruction(Opcode.WAIT)]
    top = len(instrs) + 1
    instrs += [Instruction(Opcode.LOAD_REPEAT, value=30), *body,
               Instruction(Opcode.REPEAT, addr=top)]
    return image(instrs)


def test_copied_laps_read_back_as_the_decoded_events(monkeypatch, skips):
    def run():
        seq = Sequencer(lapped_program(), EngineConfig(queue_depth=4))
        assert seq.run_until_blocked() == "need_trigger"
        at_block = seq.finalize()
        seq.deliver_trigger(seq.decode_tick)
        assert seq.run_until_blocked() == "halted"
        return seq, at_block, seq.finalize()

    seq, at_block, trace = run()
    assert len(skips) == 2              # each loop's laps were copied
    logs = (seq.events, seq.icache.events, seq.wavecache.events)
    assert [len(log.chunks) for log in logs] == [2, 2, 0]
    ref, ref_at_block, ref_trace = decoding_every_lap(monkeypatch, run)
    ref_logs = (ref.events, ref.icache.events, ref.wavecache.events)
    assert not any(log.chunks for log in ref_logs)
    assert [len(log) for log in logs] == [len(log) for log in ref_logs]
    # equal as Events, detail included: a copy's until moved with it
    assert trace.events == ref_trace.events
    assert {e.kind for e in trace.events} >= {"queue_full", "prefetch"}
    assert trace.stall_events() == ref_trace.stall_events()
    assert seq.cache_stall_events() == ref.cache_stall_events()
    assert seq.finalize().events == trace.events
    assert trace.events is trace.events          # built once, then kept
    # read only now, after the second loop added rows and a chunk to
    # the logs it was finalized from
    assert at_block.events == ref_at_block.events
    assert len(at_block.events) < len(trace.events)


def test_copied_laps_store_no_event_until_read(monkeypatch):
    expanded = []
    copies = events._copies

    def spy(*args):
        built = copies(*args)
        expanded.append(len(built))
        return built

    monkeypatch.setattr(events, "_copies", spy)
    seq = Sequencer(far_calls_program(repeats=249))
    trace = seq.run_simple()
    # every log the trace reads; the modulator's is a plain list
    stored = sum(len(getattr(log, "rows", log)) for log in trace.logs)
    assert expanded == []
    n_events = len(trace.events)
    assert expanded and stored < n_events / 10
    assert sum(len(log) for log in trace.logs) == n_events


def column_bytes(seq):
    """The bytes of seq's finished run columns: the waveform and marker
    runs and the modulator columns.  Each column built from its chunks
    equals the one built from its values one by one."""
    trace, eng = seq.finalize(), seq.modeng
    for e in seq.engines:
        for column in e.columns:
            assert np.array_equal(column.array(), np.array(list(column),
                                                           np.int64))
    code, *columns = eng.columns()
    assert [eng.table[c] for c in code.tolist()] == list(eng.commands)
    for built, column in zip(columns, (eng.ticks, eng.positions)):
        assert np.array_equal(built, np.array(list(column), np.int64))
    arrays = [trace.analog.start, trace.analog.n, seq.wf.addrs.array(),
              seq.wf.ta.array(), *eng.columns()]
    for ch, runs in sorted(trace.markers.items()):
        arrays += [np.array([ch]), runs.start, runs.n, runs.state, runs.last]
    return [a.tobytes() for a in arrays], list(eng.table)


@pytest.mark.parametrize("depth", [4, 64])
def test_chunked_columns_build_the_decoded_bytes(monkeypatch, depth):
    copied = 0
    for seed in range(40):
        prog, initial_cmp = random_program(np.random.default_rng(7000 + seed),
                                           max_repeat=300, increments=True)

        def run():
            seq = Sequencer(prog, EngineConfig(initial_cmp=initial_cmp,
                                               queue_depth=depth))
            seq.run_simple()
            return seq

        seq = run()
        assert column_bytes(seq) == decoding_every_lap(
            monkeypatch, lambda: column_bytes(run())), seed
        copied += any(e.starts.chunks for e in seq.engines)
    assert copied >= 10          # runs with copies kept as chunks


def test_a_loop_with_no_lap_left_compares_no_column(monkeypatch):
    # an outer loop calling a 4-lap inner loop: the inner loop's last
    # taken REPEAT leaves no lap to copy, so the lap bound, taken before
    # any comparison, spares every column comparison of its laps
    prog = image([Instruction(Opcode.LOAD_REPEAT, value=3000),
                  Instruction(Opcode.CALL, addr=4),
                  Instruction(Opcode.REPEAT, addr=1),
                  Instruction(Opcode.GOTO, addr=8),
                  Instruction(Opcode.LOAD_REPEAT, value=3), play(0, 8),
                  Instruction(Opcode.REPEAT, addr=5),
                  Instruction(Opcode.RETURN)])
    compared = []
    for cls in (Column, EventLog):
        def spy(self, *rows, moved=cls.moved):
            compared.append(rows)
            return moved(self, *rows)

        monkeypatch.setattr(cls, "moved", spy)
    seq = Sequencer(prog)
    fast = run_digest(seq)
    assert compared == [] and seq.decodes > 36_000
    assert fast == decoding_every_lap(monkeypatch,
                                      lambda: run_digest(Sequencer(prog)))


def probe_loop(laps):
    """laps laps of one 8-sample play and one marker pulse."""
    return loop([play(0, 8), marker_pulse(2)], laps - 1)


def test_copied_laps_take_memory_whatever_their_number(monkeypatch):
    # a 24-bit count runs in bounded memory: after the run the columns
    # hold the decoded laps and one chunk for the copies
    prog = probe_loop(300)
    assert run_digest(Sequencer(prog)) == decoding_every_lap(
        monkeypatch, lambda: run_digest(Sequencer(prog)))
    taken = []                  # the taken REPEATs decoded
    skip_laps = LapRecorder.skip_laps

    def counted(self, at):
        taken.append(at)
        skip_laps(self, at)

    monkeypatch.setattr(LapRecorder, "skip_laps", counted)

    def memory_after_run(laps):
        taken.clear()
        prog = probe_loop(laps)
        tracemalloc.start()
        try:
            seq = Sequencer(prog)
            assert seq.run_until_blocked() == "halted"
            memory = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # every lap is decoded (up to its taken REPEAT, or the last) or
        # copied
        assert seq.laps_copied == laps - len(taken) - 1
        assert seq.laps_copied > laps - 10
        return memory

    assert memory_after_run(1 << 20) - memory_after_run(1 << 16) < 1_000_000


def loop(body, repeats=30, before=()):
    """body run repeats + 1 times after the instructions before."""
    top = len(before) + 1
    return image([*before, Instruction(Opcode.LOAD_REPEAT, value=repeats),
                  *body, Instruction(Opcode.REPEAT, addr=top)])


def marker_pulse(count):
    return Instruction(Opcode.MARKER, Marker(
        MarkerAction.PLAY, channel=1, state=1, count=count, last_word=0b0011))


LOAD_3 = Instruction(Opcode.LOAD_REPEAT, value=3)
PREFETCHES = [Instruction(Opcode.PREFETCH, addr=line * 128)
              for line in (2, 3, 4)]
PAGES = np.stack([np.arange(32, dtype=np.int16),    # two 16-sample pages
                  np.zeros(32, dtype=np.int16)], axis=1)
PINGPONG = MemConfig(wave_mode="pingpong", wave_page_samples=16)


def swap_to(page):
    return Instruction(Opcode.WAVEFORM, Waveform(WfAction.PREFETCH, addr=page))


# copied: the laps copied with every move the period, and those copied
# with moves of their own
@pytest.mark.parametrize("prog, inputs, mem_cfg, copied", [
    # a WAIT or LOAD_CMP in the body needs an input every lap
    (loop([Instruction(Opcode.WAIT), play(0, 8)]),
     {"triggers": [1000 + 5000 * k for k in range(31)]}, None, (0, 0)),
    (loop([Instruction(Opcode.LOAD_CMP), play(0, 8)]),
     {"steering": [(1, 100 * k) for k in range(31)]}, None, (0, 0)),
    # the body reloads the repeat register: the loop never ends
    (loop([play(0, 8), LOAD_3]), {}, None, (0, 0)),
    # each lap returns out of the loop's frame and calls back into it
    (image([LOAD_3, Instruction(Opcode.CALL, addr=3),
            Instruction(Opcode.GOTO, addr=1), play(0, 8),
            Instruction(Opcode.REPEAT, addr=5), Instruction(Opcode.RETURN)]),
     {}, None, (0, 0)),
    # a marker-only body while the waveform stream sits finished
    (loop([marker_pulse(2)], repeats=300, before=[play(0, 8)]), {}, None,
     (0, 297)),
    # the marker stream falls further behind each lap until its queue
    # fills, while the waveform lead repeats from the first lap
    (loop([marker_pulse(20), play(0, 8)], repeats=60), {}, None, (0, 57)),
    # each lap's fills move the window, the bus and the associative half
    (ProgramImage(loop([play(0, 8), *PREFETCHES], repeats=60).words
                  + [encode(FILLER)] * (5 * 128), RAMP), {}, None, (0, 57)),
    # each lap swaps pages twice over the bus: the lap state, the active
    # page among it, repeats every second lap
    (ProgramImage(loop([play(0, 8), swap_to(1), play(0, 8), swap_to(0)],
                       repeats=40).words, PAGES), {}, PINGPONG, (33, 0)),
    # a SYNC fence restarts every stream each lap: the laps copy as a
    # block whose every move is the period, and with moves of their own
    # not at all
    (loop([play(0, 8), Instruction(Opcode.SYNC), marker_pulse(2)],
          repeats=60), {}, None, (57, 0)),
], ids=["wait", "load_cmp", "reload", "return_and_call", "marker_only",
        "marker_bound", "prefetching", "pingpong", "sync_fenced"])
def test_edge_loops_run_as_decoded(monkeypatch, skips, prog, inputs, mem_cfg,
                                   copied):
    def run():
        seq = Sequencer(prog, EngineConfig(queue_depth=4, max_decodes=3000),
                        mem_cfg=mem_cfg)
        try:
            return run_digest(seq, **inputs)
        except SimTrap:
            return seq.decodes, seq.pc, seq.decode_tick

    assert run() == decoding_every_lap(monkeypatch, run)
    assert (sum(skips), sum(skips.affine)) == copied


def test_every_column_a_lap_writes_is_copied():
    # a column added to an engine, the modulator or a log but left out
    # of LapRecorder.columns would miss every lap copy
    seq = Sequencer(image([play(0, 8)]))
    found = {}
    for obj in (*seq.engines, seq.modeng, seq.events, seq.icache.events,
                seq.wavecache.events):
        for value in [obj] if isinstance(obj, Column) else vars(obj).values():
            if isinstance(value, Column):
                found[id(value)] = value
    listed = [id(column) for column, _, _ in seq.laps.columns]
    assert all(listed.count(key) == 1 for key in found)
    assert sorted(listed) == sorted(found)


# -- planned prefetch hints ----------------------------------------------
#
# insert_prefetch_hints plans each REPEAT loop's far calls as one lap of
# lines: the hints change the cache's timing, never a value.


@pytest.mark.parametrize("seed", range(50))
def test_planned_hints_change_no_value(seed):
    prog, initial_cmp = random_program(np.random.default_rng(4000 + seed),
                                       pad=300)
    ref = interpret(prog, initial_cmp)
    for hinted in (prog, insert_prefetch_hints(prog)):
        trace = Sequencer(hinted, EngineConfig(
            initial_cmp=initial_cmp)).run_simple()
        assert np.array_equal(trace.analog_values(), ref["analog"])
        for ch in range(4):
            assert np.array_equal(trace.marker_levels(ch)[1],
                                  ref["markers"][ch])


def test_a_hint_at_a_loop_label_runs_every_lap():
    # a loop closed by a conditional GOTO, so the call's only block start
    # is the label the GOTO targets; eight PREFETCHes after the call
    # evict the callee's line every lap, which only a hint run on every
    # lap refills before the call
    far = 10 * 128
    body = [Instruction(Opcode.LOAD_CMP),
            Instruction(Opcode.CMP, cmp_op=CmpOp.EQ, mask=1),
            Instruction(Opcode.CALL, addr=far)]
    body += [Instruction(Opcode.PREFETCH, addr=(12 + k) * 128)
             for k in range(8)]
    body += [Instruction(Opcode.GOTO, addr=0, conditional=True), None]
    done = len(body) - 1
    body += [FILLER] * (far - len(body))
    body += [play(0, 8), Instruction(Opcode.RETURN)]
    body += [FILLER] * (20 * 128 - len(body))
    body[done] = Instruction(Opcode.GOTO, addr=len(body))
    seq = Sequencer(insert_prefetch_hints(image(body)))
    steering = [1] * 5 + [0]             # six laps
    laps = []                            # decode tick each lap starts at
    while (reason := seq.run_until_blocked()) != "halted":
        assert reason == "need_steering"
        laps.append(seq.decode_tick)
        seq.deliver_steering(steering.pop(0), 0)
    events = seq.finalize().events
    assert len(laps) == 6
    assert [e for e in events if e.kind == "miss" and e.tick >= laps[1]] == []
    refills = [e for e in events
               if e.kind == "prefetch" and e.detail["line"] == 10]
    assert len(refills) == 6


def test_a_two_line_callee_in_a_loop_stops_missing_after_lap_1(monkeypatch):
    sub = 10 * 128 - 2                  # its five words end in line 10
    body = [None]
    body += [FILLER] * (sub - len(body))
    body += [play(0, 8), play(8, 8), FILLER, FILLER,
             Instruction(Opcode.RETURN)]
    body += [FILLER] * (16 * 128 - len(body))
    body[0] = Instruction(Opcode.GOTO, addr=len(body))
    body += [Instruction(Opcode.LOAD_REPEAT, value=9), play(0, 8),
             Instruction(Opcode.CALL, addr=sub),
             Instruction(Opcode.REPEAT, addr=len(body) + 1)]
    prog = insert_prefetch_hints(image(body))
    assert sorted(t // 128 for _, t in prog.prefetch_manifest) == [9, 10]
    ends = []                           # decode tick at each taken REPEAT
    skip_laps = LapRecorder.skip_laps

    def spy(self, at):
        ends.append(self.seq.decode_tick)
        skip_laps(self, at)

    monkeypatch.setattr(LapRecorder, "skip_laps", spy)
    trace = Sequencer(prog).run_simple()
    late = [e for e in trace.events
            if e.kind in ("miss", "window_wait") and e.tick >= ends[0]]
    assert late == []
    assert len(trace.analog) == 10 * 3


def streamed_calls_program(repeats):
    """farcall at a small scale: after a WAIT, a loop calling six
    subroutines 3 lines apart whose entries each cross a line end, so a
    lap spans 12 lines, more than the associative half holds."""
    body = [Instruction(Opcode.WAIT), None]
    subs = []
    for s in range(6):
        body += [FILLER] * (128 * (3 * s + 2) - 2 - len(body))
        subs.append(len(body))
        body += [marker_pulse(2), play(0, 8), play(8, 8),
                 Instruction(Opcode.RETURN)]
    body += [FILLER] * (128 * 20 - len(body))
    body[1] = Instruction(Opcode.GOTO, addr=len(body))
    body.append(Instruction(Opcode.LOAD_REPEAT, value=repeats))
    body += [Instruction(Opcode.CALL, addr=subs[k * 5 % 6]) for k in range(6)]
    body.append(Instruction(Opcode.REPEAT, addr=len(body) - 6))
    return image(body)


def run_streamed_calls(prog):
    # a queue of 4 stops the decoder a few runs past the WAIT: the laps it
    # runs ahead of the trigger, behind a queued WAIT, are never copied
    return Sequencer(prog, EngineConfig(queue_depth=4))


@pytest.mark.parametrize("repeats", range(40, 45))
def test_a_bus_bound_loop_copies_blocks_of_laps(monkeypatch, repeats):
    prog = insert_prefetch_hints(streamed_calls_program(repeats))
    copies = []                         # (block length, laps copied)
    copy_laps = LapRecorder._copy_laps

    def spy(self, old, end, k, *args):
        before = self.seq.repeat_register
        copy_laps(self, old, end, k, *args)
        copies.append((k, before - self.seq.repeat_register))

    monkeypatch.setattr(LapRecorder, "_copy_laps", spy)

    def run():
        return run_digest(run_streamed_calls(prog), [1000])

    seq = run_streamed_calls(prog)
    fast = run_digest(seq, [1000])
    assert fast == decoding_every_lap(monkeypatch, run)
    (k,) = {k for k, _ in copies}
    # a lap takes 12 fills of 4,238 bus ticks, 16 ticks off the clock
    # grid, so the state repeats after 20 / gcd(16, 20) laps
    assert k == 5
    # the laps left after the last whole block are copied too, as the
    # block's first laps: the laps decoded do not depend on repeats
    assert seq.laps_copied == sum(laps for _, laps in copies)
    assert repeats + 1 - seq.laps_copied == 8


def test_a_bus_bound_loop_runs_at_the_bus_rate():
    laps, lines = 41, 12
    trace = run_streamed_calls(insert_prefetch_hints(
        streamed_calls_program(laps - 1))).run_simple(triggers=[1000])
    fill = Sdram().request(LINE_FILL_BYTES, 0) - SDRAM_LATENCY_TICKS
    duration = trace.analog_ticks()[-1] + ANALOG_SAMPLE_TICKS - 1000
    assert abs(duration / (laps * lines * fill) - 1) < 0.02
