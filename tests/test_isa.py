"""Encoding round-trip, strict decode, and program file format checks."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aps2sim import isa
from aps2sim.isa import (
    CmpOp,
    DecodeError,
    EncodeError,
    Instruction,
    Marker,
    MarkerAction,
    ModAction,
    Modulator,
    Opcode,
    ProgramImage,
    Waveform,
    WfAction,
    decode,
    encode,
)
from aps2sim.mem import MemConfig

addr24 = st.integers(0, (1 << 24) - 1)
count24 = st.integers(0, (1 << 24) - 1)
phase48 = st.integers(0, (1 << 48) - 1)


def waveform_instrs():
    play = st.builds(
        lambda a, c, ta: Instruction(Opcode.WAVEFORM,
                                     engine=Waveform(WfAction.PLAY, a, c, ta)),
        addr24, count24, st.booleans())
    prefetch = st.builds(
        lambda p: Instruction(Opcode.WAVEFORM,
                              engine=Waveform(WfAction.PREFETCH, addr=p)),
        addr24)
    bare = st.sampled_from([
        Instruction(Opcode.WAVEFORM, engine=Waveform(WfAction.WAIT)),
        Instruction(Opcode.WAVEFORM, engine=Waveform(WfAction.SYNC)),
    ])
    return st.one_of(play, prefetch, bare)


def marker_instrs():
    play = st.builds(
        lambda ch, state, c, last: Instruction(
            Opcode.MARKER,
            engine=Marker(MarkerAction.PLAY, ch, state, c, last)),
        st.integers(0, 3), st.integers(0, 1), count24, st.integers(0, 15))
    bare = st.builds(
        lambda ch, act: Instruction(Opcode.MARKER, engine=Marker(act, channel=ch)),
        st.integers(0, 3), st.sampled_from([MarkerAction.WAIT, MarkerAction.SYNC]))
    return st.one_of(play, bare)


def modulator_instrs():
    phase_cmds = st.builds(
        lambda act, mask, ph: Instruction(
            Opcode.MODULATOR,
            engine=Modulator(act, nco=mask,
                             phase_word=0 if act is ModAction.RESET_PHASE else ph)),
        st.sampled_from([ModAction.RESET_PHASE, ModAction.SET_PHASE_OFFSET,
                         ModAction.SET_PHASE_INCREMENT, ModAction.UPDATE_FRAME]),
        st.integers(0, 15), phase48)
    modulate = st.builds(
        lambda n, c: Instruction(Opcode.MODULATOR,
                                 engine=Modulator(ModAction.MODULATE, nco=n, count=c)),
        st.integers(0, isa.NUM_NCOS - 1), count24)
    bare = st.sampled_from([
        Instruction(Opcode.MODULATOR, engine=Modulator(ModAction.WAIT)),
        Instruction(Opcode.MODULATOR, engine=Modulator(ModAction.SYNC)),
    ])
    return st.one_of(phase_cmds, modulate, bare)


def control_instrs():
    return st.one_of(
        st.sampled_from([Instruction(op) for op in
                         (Opcode.WAIT, Opcode.SYNC, Opcode.LOAD_CMP, Opcode.RETURN)]),
        st.builds(lambda v: Instruction(Opcode.LOAD_REPEAT, value=v), count24),
        st.builds(lambda a: Instruction(Opcode.REPEAT, addr=a), addr24),
        st.builds(lambda a: Instruction(Opcode.PREFETCH, addr=a), addr24),
        st.builds(lambda op, a, c: Instruction(op, addr=a, conditional=c),
                  st.sampled_from([Opcode.GOTO, Opcode.CALL]), addr24, st.booleans()),
        st.builds(lambda o, m: Instruction(Opcode.CMP, cmp_op=o, mask=m),
                  st.sampled_from(list(CmpOp)), count24),
    )


def instructions():
    return st.one_of(waveform_instrs(), marker_instrs(), modulator_instrs(),
                     control_instrs())


@settings(max_examples=500)
@given(instructions())
def test_roundtrip(instr):
    word = encode(instr)
    assert 0 <= word < (1 << 64)
    assert decode(word) == instr


@settings(max_examples=500)
@given(st.integers(0, (1 << 64) - 1))
def test_fuzz_decode_never_misinterprets(word):
    try:
        instr = decode(word)
    except DecodeError:
        return
    assert encode(instr) == word


def test_unknown_opcode_rejected():
    with pytest.raises(DecodeError):
        decode(0xFF << 56)
    with pytest.raises(DecodeError):
        decode(0)


def test_reserved_bits_rejected():
    word = encode(Instruction(Opcode.SYNC))
    with pytest.raises(DecodeError):
        decode(word | 1)           # payload bits on a bare opcode
    with pytest.raises(DecodeError):
        decode(word | (1 << 48))   # flag bits on a bare opcode


@pytest.mark.parametrize("word", [
    0x03 << 56 | 0x07 << 48,                  # no MODULATOR action 7
    0x03 << 56 | 0x08 << 48,                  # MODULATOR flags bit 3
    0x03 << 56 | 0x46 << 48,                  # MODULATE nco index 4
    0x02 << 56 | 0x11 << 48,                  # marker WAIT with a state
    0x01 << 56 | 0x07 << 48,                  # waveform PREFETCH as TA pair
    0x01 << 56 | 0x02 << 48 | 1 << 24,        # waveform SYNC with an address
    0x09 << 56 | 0x04 << 48,                  # CMP flags bit 2
])
def test_reserved_bits_of_a_layout_rejected(word):
    with pytest.raises(DecodeError, match=f"word {word:#018x}"):
        decode(word)


def test_address_overflow_rejected():
    with pytest.raises(EncodeError):
        encode(Instruction(Opcode.GOTO, addr=1 << 24))
    with pytest.raises(EncodeError):
        encode(Instruction(Opcode.WAVEFORM,
                           engine=Waveform(WfAction.PLAY, addr=1 << 24, count=4)))


def test_stray_fields_rejected():
    with pytest.raises(EncodeError):
        encode(Instruction(Opcode.SYNC, addr=4))
    with pytest.raises(EncodeError):
        encode(Instruction(Opcode.REPEAT, addr=1, conditional=True))


@pytest.mark.parametrize("instr, match", [
    # stray fields: payload and Instruction fields the layout leaves out
    (Instruction(Opcode.WAVEFORM, Waveform(WfAction.PREFETCH, 1, count=2)),
     "WAVEFORM PREFETCH takes no count"),
    (Instruction(Opcode.WAVEFORM, Waveform(WfAction.PREFETCH, 1, ta=True)),
     "WAVEFORM PREFETCH takes no ta"),
    (Instruction(Opcode.WAVEFORM, Waveform(WfAction.PLAY, 0, 4), value=3),
     "WAVEFORM PLAY takes no value"),
    (Instruction(Opcode.MARKER, Marker(MarkerAction.WAIT, state=1)),
     "MARKER WAIT takes no state"),
    (Instruction(Opcode.MODULATOR, Modulator(ModAction.RESET_PHASE,
                                             phase_word=1)),
     "MODULATOR RESET_PHASE takes no phase_word"),
    (Instruction(Opcode.MODULATOR, Modulator(ModAction.SYNC, nco=1)),
     "MODULATOR SYNC takes no nco"),
    (Instruction(Opcode.SYNC, addr=4), "SYNC takes no addr"),
    (Instruction(Opcode.REPEAT, addr=1, conditional=True),
     "REPEAT takes no conditional"),
    (Instruction(Opcode.GOTO, Waveform(WfAction.WAIT)), "GOTO takes no engine"),
    (Instruction(Opcode.LOAD_REPEAT, cmp_op=CmpOp.EQ),
     "LOAD_REPEAT takes no cmp_op"),
    # overflow
    (Instruction(Opcode.GOTO, addr=1 << 24),
     "GOTO addr 16777216 does not fit in 24 bits"),
    (Instruction(Opcode.WAVEFORM, Waveform(WfAction.PLAY, count=-1)),
     "WAVEFORM PLAY count -1 does not fit in 24 bits"),
    (Instruction(Opcode.MARKER, Marker(MarkerAction.SYNC, channel=4)),
     "MARKER SYNC channel 4 does not fit in 2 bits"),
    (Instruction(Opcode.MODULATOR, Modulator(ModAction.MODULATE, nco=4)),
     "MODULATOR MODULATE nco 4 does not fit in 2 bits"),
    (Instruction(Opcode.MODULATOR, Modulator(ModAction.UPDATE_FRAME,
                                             phase_word=1 << 48)),
     "MODULATOR UPDATE_FRAME phase_word 281474976710656 does not fit in 48"),
    # a missing field, the wrong payload, or none
    (Instruction(Opcode.CMP), "CMP cmp_op None does not fit in 2 bits"),
    (Instruction(Opcode.WAVEFORM, Marker(MarkerAction.PLAY)),
     "WAVEFORM requires a Waveform payload"),
    (Instruction(Opcode.MODULATOR), "MODULATOR requires a Modulator payload"),
])
def test_encode_errors_name_the_opcode_and_the_field(instr, match):
    with pytest.raises(EncodeError, match=match):
        encode(instr)


ENGINE_ACTIONS = {Opcode.WAVEFORM: (Waveform, WfAction),
                  Opcode.MARKER: (Marker, MarkerAction),
                  Opcode.MODULATOR: (Modulator, ModAction)}


def test_the_layout_has_one_entry_per_opcode_and_action():
    # an opcode or action added without a layout fails here
    keys = {(op, None) for op in Opcode if op not in ENGINE_ACTIONS}
    for op, (_, actions) in ENGINE_ACTIONS.items():
        keys |= {(op, action) for action in actions}
    assert set(isa.LAYOUT) == keys
    assert {op: isa._PAYLOADS[op][0] for op in isa._PAYLOADS} \
        == {op: payload for op, (payload, _) in ENGINE_ACTIONS.items()}


def layout_name(key):
    return " ".join(k.name for k in key if k is not None)


@pytest.mark.parametrize("key", list(isa.LAYOUT), ids=layout_name)
def test_a_layout_names_fields_that_do_not_overlap(key):
    op, action = key
    payload, action_bits = isa._PAYLOADS.get(op, (None, 0))
    if payload is None:
        names = {f.name for f in fields(Instruction)} - {"op", "engine"}
    else:
        names = {f.name for f in fields(payload)} - {"action"}
        assert action < 1 << action_bits
    taken = 0xFF << 56 | ((1 << action_bits) - 1) << 48
    for name, low, width in isa.LAYOUT[key]:
        assert name in names
        bits = ((1 << width) - 1) << low
        assert bits >> 64 == 0 and bits & taken == 0, name
        taken |= bits


def test_phase_word_grid():
    for turns in (0.0, 0.25, 0.5, 0.75, 1.0 - 2**-48):
        w = isa.phase_word_from_turns(turns)
        assert 0 <= w < (1 << 48)
        assert isa.turns_from_phase_word(w) == pytest.approx(turns % 1.0, abs=2**-48)
    assert isa.phase_word_from_turns(1.25) == isa.phase_word_from_turns(0.25)


def _demo_image():
    instrs = [
        Instruction(Opcode.SYNC),
        Instruction(Opcode.WAIT),
        Instruction(Opcode.WAVEFORM, engine=Waveform(WfAction.PLAY, 0, 8)),
        Instruction(Opcode.GOTO, addr=1),
    ]
    wave = np.zeros((8, 2), dtype=np.int16)
    wave[:, 0] = np.arange(8) * 100
    return ProgramImage(words=[encode(i) for i in instrs], waveforms=wave)


def test_program_file_roundtrip(tmp_path):
    image = _demo_image()
    path = tmp_path / "prog.bin"
    isa.save_program(image, path)
    raw = path.read_bytes()
    assert raw[:8] == b"APS2SIM\0"
    back = isa.load_program(path)
    assert back.words == image.words
    assert np.array_equal(back.waveforms, image.waveforms)


def test_program_file_truncation(tmp_path):
    image = _demo_image()
    path = tmp_path / "prog.bin"
    isa.save_program(image, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:-3])
    with pytest.raises(DecodeError):
        isa.load_program(bad)
    bad.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(DecodeError):
        isa.load_program(bad)


def test_validate_catches_bad_targets():
    image = _demo_image()
    image.words.append(encode(Instruction(Opcode.GOTO, addr=999)))
    findings = isa.validate_program(image)
    assert any(f.severity == "error" and "target" in f.message for f in findings)


def test_validate_catches_waveform_overrun():
    image = _demo_image()
    image.words[2] = encode(Instruction(
        Opcode.WAVEFORM, engine=Waveform(WfAction.PLAY, addr=4, count=100)))
    findings = isa.validate_program(image)
    assert any("waveform memory" in f.message for f in findings)


def test_validate_warns_on_orphan_return():
    image = _demo_image()
    image.words.append(encode(Instruction(Opcode.RETURN)))
    findings = isa.validate_program(image)
    assert any(f.severity == "warning" and "RETURN" in f.message for f in findings)
    assert not isa.errors(findings)


def test_validate_checks_reads_against_the_pingpong_pages():
    image = _demo_image()                      # 8 samples, PLAY at pc 2
    cfg = MemConfig(wave_mode="pingpong", wave_page_samples=4)
    findings = isa.validate_program(image, cfg)
    assert [(f.severity, f.address) for f in findings] == [("error", 2)]
    assert "page boundary" in findings[0].message
    assert isa.validate_program(image) == []
    assert isa.validate_program(
        image, MemConfig(wave_mode="pingpong", wave_page_samples=8)) == []


def test_validate_checks_single_mode_memory_and_prefetch():
    image = _demo_image()
    image.words[3] = encode(Instruction(
        Opcode.WAVEFORM, engine=Waveform(WfAction.PREFETCH, addr=1)))
    cfg = MemConfig(wave_mode="single", wave_page_samples=2)
    findings = isa.validate_program(image, cfg)
    assert all(f.severity == "error" for f in findings)
    assert [f.address for f in findings] == [0, 2, 3]
    assert "single mode" in findings[0].message        # 8 > 2 pages of 2
    assert "PLAY [0, 8)" in findings[1].message
    assert "PREFETCH" in findings[2].message


def test_validate_reports_a_repeated_word_at_every_pc():
    bad = 0xFF << 56                           # no such opcode
    overrun = encode(Instruction(
        Opcode.WAVEFORM, engine=Waveform(WfAction.PLAY, addr=4, count=100)))
    image = _demo_image()
    image.words[1:1] = [bad, overrun, bad, overrun, bad, overrun]
    findings = isa.validate_program(image)
    assert [(f.severity, f.address) for f in findings] == [
        ("error", pc) for pc in range(1, 7)]
    assert all("unknown opcode" in f.message for f in findings[0::2])
    assert all("PLAY [4, 104)" in f.message for f in findings[1::2])
