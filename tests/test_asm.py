"""Assembler, disassembler, waveform library, and prefetch hint insertion."""

import numpy as np
import pytest

from aps2sim import asm, isa
from aps2sim.asm import AsmError, WaveformLibrary, assemble, disassemble
from aps2sim.isa import CmpOp, ModAction, Opcode, WfAction


def small_library():
    lib = WaveformLibrary()
    n = np.arange(16)
    lib.add("gauss", np.exp(-0.5 * ((n - 7.5) / 3.0) ** 2) * 0.9)
    lib.add("zero", [0.0])
    lib.add("square", 0.5 * np.ones(8) + 0.25j * np.ones(8))
    return lib


SOURCE = """\
; small smoke program
setup:
  SYNC
  WAIT
  MOD RESET_PHASE nco=0x3
  MOD SET_PHASE_INC nco=1 freq=10e6
loop:
  WAVEFORM PLAY gauss
  MOD MODULATE nco=0 count=16
  MARKER PLAY ch=2 state=1 count=3 last=0b1110
  LOAD_REPEAT 2
  REPEAT loop
  LOAD_CMP
  CMP = 0x1
  GOTO flip if
  GOTO done
flip:
  WAVEFORM PLAY square ta count=64
done:
  SYNC
"""


def test_assemble_basics():
    image = assemble(SOURCE, small_library())
    instrs = image.decode_all()
    assert instrs[0].op is Opcode.SYNC
    assert image.symbols["loop"] == 4
    play = instrs[4].engine
    assert play.action is WfAction.PLAY
    assert (play.addr, play.count) == image.wave_symbols["gauss"] == (0, 16)
    repeat = instrs[8]
    assert repeat.op is Opcode.REPEAT and repeat.addr == 4
    cond = instrs[11]
    assert cond.op is Opcode.GOTO and cond.conditional and cond.addr == 13
    ta = instrs[13].engine
    assert ta.ta and ta.count == 64 and ta.addr == image.wave_symbols["square"][0]


def test_freq_operand_quantizes_to_grid():
    image = assemble("MOD SET_PHASE_INC nco=1 freq=10e6\n")
    md = image.decode_all()[0].engine
    expected = isa.phase_word_from_turns(10e6 / 1.2e9)
    assert md.phase_word == expected
    # half a turn is exact on the grid
    image = assemble("MOD UPDATE_FRAME nco=1 phase=0.5\n")
    assert image.decode_all()[0].engine.phase_word == 1 << 47


def test_disassemble_roundtrip():
    lib = small_library()
    image = assemble(SOURCE, lib)
    text = disassemble(image)
    again = assemble(text, lib)
    assert again.words == image.words
    # and the second round is a fixed point
    assert disassemble(again) == text


def test_disassemble_raw_image_roundtrip():
    image = assemble(SOURCE, small_library())
    bare = isa.ProgramImage(words=list(image.words), waveforms=image.waveforms)
    text = disassemble(bare)
    assert assemble(text, None).words == image.words


@pytest.mark.parametrize("line,msg", [
    ("BOGUS 1", "unknown mnemonic"),
    ("GOTO nowhere", "unknown label"),
    ("WAVEFORM PLAY missing", "unknown waveform"),
    ("CMP ~ 1", "operator"),
    ("LOAD_REPEAT", "expects 1"),
    ("MARKER PLAY state=1 count=2", "ch="),
    ("MOD SET_PHASE_INC nco=1", "phase"),
    ("LOAD_REPEAT 0x1000000", "24 bits"),
])
def test_errors_carry_line_numbers(line, msg):
    src = "SYNC\n" + line + "\n"
    with pytest.raises(AsmError) as err:
        assemble(src, small_library())
    assert "line 2" in str(err.value)
    assert msg in str(err.value)


def test_duplicate_label_rejected():
    with pytest.raises(AsmError):
        assemble("a:\nSYNC\na:\nSYNC\n")


def test_library_quantization(tmp_path):
    lib = small_library()
    mem, offsets = lib.pack()
    assert mem.dtype == np.int16
    off, count = offsets["square"]
    assert np.all(mem[off:off + count, 0] == round(0.5 * 32768))
    assert np.all(mem[off:off + count, 1] == round(0.25 * 32768))
    path = tmp_path / "lib.wlb"
    lib.save(path)
    back = WaveformLibrary.load(path)
    assert list(back.entries) == list(lib.entries)
    mem2, offsets2 = back.pack()
    assert offsets2 == offsets
    assert np.array_equal(mem, mem2)


def test_library_rejects_full_scale():
    lib = WaveformLibrary()
    with pytest.raises(ValueError):
        lib.add("clip", [1.0])


def distant_call_program():
    # pad the main line so the subroutine lands 6 cache lines away
    pad = "\n".join("  WAVEFORM PLAY addr=0 count=8" for _ in range(40))
    src = f"""\
main:
  WAIT
{pad}
  CALL sub
  GOTO end
{"  WAVEFORM PLAY addr=0 count=8" * 0}
"""
    filler = "\n".join("  WAVEFORM PLAY addr=8 count=8" for _ in range(700))
    src += filler + "\nsub:\n  WAVEFORM PLAY addr=0 count=8\n  RETURN\nend:\n  SYNC\n"
    return src


def test_prefetch_hint_insertion_and_strip():
    lib = WaveformLibrary()
    lib.add("w", 0.1 * np.ones(16))
    src = distant_call_program()
    image = assemble(src, lib)

    hinted = asm.insert_prefetch_hints(image)
    assert len(hinted.words) == len(image.words) + 1
    decoded = hinted.decode_all()
    hints = [(pc, i) for pc, i in enumerate(decoded) if i.op is Opcode.PREFETCH]
    assert len(hints) == 1
    pc, hint = hints[0]
    assert hint.addr == hinted.symbols["sub"]
    call_pc = next(p for p, i in enumerate(decoded) if i.op is Opcode.CALL)
    assert pc < call_pc
    assert hinted.prefetch_manifest == [(pc, hint.addr)]
    assert not isa.errors(isa.validate_program(hinted))

    stripped = asm.strip_prefetch_hints(hinted)
    assert stripped.words == image.words
    assert stripped.symbols == image.symbols


def test_prefetch_insertion_is_idempotent_per_block():
    lib = WaveformLibrary()
    lib.add("w", 0.1 * np.ones(16))
    image = assemble(distant_call_program(), lib)
    hinted = asm.insert_prefetch_hints(image)
    again = asm.insert_prefetch_hints(hinted)
    # the hinted call is now covered by an existing PREFETCH in the block
    n_hints = sum(1 for i in again.decode_all() if i.op is Opcode.PREFETCH)
    assert n_hints == 2  # planner re-sees the call; block dedupe keeps one per pass


def test_each_hint_targets_its_call_target():
    # the first call jumps forward over the second call's block, so the
    # second block's hint moves the first call's target too
    filler = "\n".join("  CMP = 0" for _ in range(700))
    src = (f"  CALL far1\n  GOTO mid\n{filler}\nmid:\n  CALL far2\n"
           f"  GOTO end\n{filler}\nfar1:\n  RETURN\n{filler}\n"
           "far2:\n  RETURN\nend:\n  SYNC\n")
    image = assemble(src)
    hinted = asm.insert_prefetch_hints(image)
    decoded = hinted.decode_all()
    hints = [i.addr for i in decoded if i.op is Opcode.PREFETCH]
    calls = [i.addr for i in decoded if i.op is Opcode.CALL]
    assert hints == calls == [hinted.symbols["far1"], hinted.symbols["far2"]]
    assert [t for _, t in hinted.prefetch_manifest] == hints
    stripped = asm.strip_prefetch_hints(hinted)
    assert stripped.words == image.words
    assert stripped.symbols == image.symbols
