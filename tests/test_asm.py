"""Assembler, disassembler, waveform library, and prefetch hint insertion."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aps2sim import asm, isa
from aps2sim.asm import AsmError, WaveformLibrary, assemble, disassemble
from aps2sim.isa import CmpOp, ModAction, Opcode, WfAction
from aps2sim.mem import ASSOC_LINES
from oracle import random_program, reference_assemble


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


def test_every_cmp_operator_assembles():
    # "!=" is the operator, not an empty operand named "!"
    text = "".join(f"  CMP {sym} 0x5\n" for sym in isa.CMP_FROM_SYMBOL)
    instrs = assemble(text).decode_all()
    assert [i.cmp_op for i in instrs] == list(CmpOp)
    assert disassemble(assemble(text)) == text


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


def test_a_bad_phase_number_carries_its_line_number():
    with pytest.raises(AsmError, match="line 2: bad number 'abc'"):
        assemble("SYNC\nMOD SET_PHASE_INC nco=1 freq=abc\n")


def test_duplicate_label_rejected():
    with pytest.raises(AsmError):
        assemble("a:\nSYNC\na:\nSYNC\n")


def test_each_distinct_line_is_built_once(monkeypatch):
    calls = []
    build = asm._build

    def spy(mnemonic, bare, kv, no, *rest):
        calls.append(no)
        return build(mnemonic, bare, kv, no, *rest)

    monkeypatch.setattr(asm, "_build", spy)
    body = ["  WAVEFORM PLAY gauss", "  MOD MODULATE nco=0 count=16",
            "  MARKER PLAY ch=2 state=1 count=3 last=0b1110",
            "  GOTO top", "  CMP > 0x1"]
    src = "top:\n" + "\n".join(body * 1000) + "\n  GOTO top if\n"
    image = assemble(src, small_library())
    assert calls == [2, 3, 4, 5, 6, 5002]
    assert len(image.words) == 5001 and len(set(image.words)) == 6
    monkeypatch.undo()
    assert assemble(src, small_library()).words == image.words


def test_set_up_runs_once_per_distinct_line(monkeypatch):
    # 5,001 lines of six distinct raw lines, two of them one text: the
    # splitter sees each raw line once and the builder each text once,
    # both in order of first occurrence
    split, built = [], []
    split_line, build = asm._split_line, asm._build

    def split_spy(raw):
        split.append(raw)
        return split_line(raw)

    def build_spy(mnemonic, bare, kv, no, *rest):
        built.append(no)
        return build(mnemonic, bare, kv, no, *rest)

    monkeypatch.setattr(asm, "_split_line", split_spy)
    monkeypatch.setattr(asm, "_build", build_spy)
    body = ["  WAVEFORM PLAY gauss", "WAVEFORM PLAY gauss  ; same text",
            "  CMP > 0x1", "", "  GOTO top ; back"]
    src = "top:\n" + "\n".join(body * 1000) + "\n"
    image = assemble(src, small_library())
    assert split == ["top:"] + body
    assert built == [2, 4, 6]
    assert len(image.words) == 4000 and image.symbols == {"top": 0}


# source lines for the differential property: labels good and bad,
# instructions good and bad, and the separators str.splitlines knows
LABELS = ["a", "b", "loop", "_x9"] * 6 + ["1a", "", "a-b", "a:b"]
OPS = ["SYNC", "WAIT", "RETURN", "GOTO a", "CALL b if", "REPEAT loop",
       "PREFETCH _x9", "LOAD_REPEAT 3", "CMP = 0x1", "GOTO 3",
       "WAVEFORM PLAY gauss", "MARKER PLAY ch=1 count=2",
       "MOD MODULATE nco=1 count=8"] * 2 + [
    "GOTO nowhere", "BOGUS 1", "LOAD_REPEAT", "WAVEFORM PLAY missing",
    "a:SYNC", ":"]
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
              "\x85", "\u2028", "\u2029"]


@st.composite
def source_lines(draw):
    """Blank, comment-only, label-only or instruction lines, each with
    up to two labels, blanks around and a trailing comment."""
    names = [draw(st.sampled_from(LABELS))
             for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2])))]
    op = draw(st.sampled_from([""] * 4 + OPS))
    lead = draw(st.sampled_from(["", "  ", "\t"]))
    tail = draw(st.sampled_from(["", " ", "\t ", " ; note", ";x: y", ";"]))
    return lead + " ".join([f"{n}:" for n in names] + [op]) + tail


@st.composite
def sources(draw):
    """Lines drawn from a small pool, so lines repeat, each ended by a
    separator, the last one maybe by none."""
    pool = draw(st.lists(source_lines(), min_size=1, max_size=8))
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    ends = [draw(st.sampled_from(SEPARATORS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


def assembled(assembler, text):
    """An assembler's image as comparable values, or its error text."""
    try:
        image = assembler(text, small_library())
    except AsmError as exc:
        return str(exc)
    return image.words, image.symbols, image.wave_symbols


@settings(max_examples=400, deadline=None)
@given(sources())
def test_assemble_matches_the_line_by_line_reference(text):
    assert assembled(assemble, text) == assembled(reference_assemble, text)


def test_a_repeated_bad_line_reports_its_first_line():
    src = "SYNC\nWAIT\nGOTO nowhere\nSYNC\nWAIT\nSYNC\nGOTO nowhere\n"
    with pytest.raises(AsmError, match="line 3: unknown label 'nowhere'"):
        assemble(src)


def test_label_errors_come_before_build_errors():
    with pytest.raises(AsmError, match="line 4: duplicate label 'a'"):
        assemble("a:\nBOGUS\nSYNC\na:\nSYNC\n")


def test_repeated_forward_references_resolve():
    src = ("  CALL sub\n  GOTO end\n" * 300 + "sub:\n  RETURN\n"
           + "  CALL sub\n  GOTO end\n" * 300 + "end:\n  SYNC\n")
    image = assemble(src)
    sub, end = image.symbols["sub"], image.symbols["end"]
    assert (sub, end) == (600, 1201)
    targets = [i.addr for i in image.decode_all()
               if i.op in (Opcode.CALL, Opcode.GOTO)]
    assert targets == [sub, end] * 600


def test_disassembler_names_avoid_user_labels():
    # a user label L3 at 0 and an unnamed target at 3
    image = assemble("L3:\n  SYNC\n  GOTO 3\n  GOTO L3\n  SYNC\n")
    assert image.symbols == {"L3": 0}
    text = disassemble(image)
    again = assemble(text)
    assert again.words == image.words
    assert again.symbols == {"L3": 0, "_L3": 3}


def test_the_hint_pass_decodes_each_distinct_word_once(monkeypatch):
    lib = WaveformLibrary()
    lib.add("w", 0.1 * np.ones(16))
    image = assemble(distant_call_program(), lib)
    decoded = []
    decode = isa.decode

    def spy(word):
        decoded.append(word)
        return decode(word)

    monkeypatch.setattr(isa, "decode", spy)
    hinted = asm.insert_prefetch_hints(image)
    assert sorted(decoded) == sorted(set(image.words))
    decoded.clear()
    asm.strip_prefetch_hints(hinted)
    assert sorted(decoded) == sorted(set(hinted.words))


NO_ACTION = 0x03 << 56 | 0x07 << 48           # no MODULATOR action 7


@pytest.mark.parametrize("hint_pass", [asm.insert_prefetch_hints,
                                       asm.strip_prefetch_hints],
                         ids=["insert", "strip"])
@pytest.mark.parametrize("bad, message", [
    ((NO_ACTION, 1 << 64), f"word {NO_ACTION:#018x}: MODULATOR has no "
                           "action 7"),
    ((1 << 64, NO_ACTION), "word 0x10000000000000000 is not 64-bit"),
    ((-1, NO_ACTION), "word -0x1 is not 64-bit"),
], ids=["undecodable", "wide", "negative"])
def test_the_hint_passes_report_the_first_bad_word(hint_pass, bad, message):
    # the words are decoded before the array pass that finds the sites,
    # which could not hold a word outside 64 bits
    lib = WaveformLibrary()
    lib.add("w", 0.1 * np.ones(16))
    image = assemble(distant_call_program(), lib)
    words = list(image.words)
    words[10], words[-3] = bad
    with pytest.raises(isa.DecodeError, match=f"^{re.escape(message)}$"):
        hint_pass(dataclasses.replace(image, words=words))


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


@pytest.mark.parametrize("sample", [1j, np.nan, complex(0.5, np.nan),
                                    np.inf, -np.inf, 1j * np.inf, -1.0 - 1e-9])
def test_library_rejects_samples_outside_the_range(sample):
    lib = WaveformLibrary()
    with pytest.raises(ValueError, match=r"'clip' exceeds \[-1, 1\)"):
        lib.add("clip", [0.1, sample])
    assert lib.entries == {}


def test_library_takes_minus_one_as_full_scale():
    lib = WaveformLibrary()
    lib.add("floor", [-1.0, -1.0 - 1.0j, 0.5])
    mem, _ = lib.pack()
    assert mem.tolist() == [[-32768, 0], [-32768, -32768], [16384, 0]]


@pytest.mark.parametrize("cut, match", [
    (lambda raw: raw[:11], "ends inside its header"),       # in the counts
    (lambda raw: raw[:17], "ends inside its header"),       # in a name
    (lambda raw: raw[:-4], r"is \d+ bytes, expected \d+"),  # in the samples
    (lambda raw: raw + bytes(8), r"is \d+ bytes, expected \d+"),
], ids=["cut counts", "cut name", "cut samples", "trailing bytes"])
def test_library_load_checks_the_file_length(tmp_path, cut, match):
    path = tmp_path / "lib.wlb"
    small_library().save(path)
    bad = tmp_path / "bad.wlb"
    bad.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ValueError, match=match) as info:
        WaveformLibrary.load(bad)
    assert str(bad) in str(info.value)


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
    # the hinted call is now covered by the PREFETCH in its block
    assert same_image(again, hinted)


def same_image(a, b) -> bool:
    return ((a.words, a.symbols, a.prefetch_manifest)
            == (b.words, b.symbols, b.prefetch_manifest))


def streamed_calls_source(order, starts):
    """A loop over CALLs of subroutines in the given order; subroutine s
    (five words) starts at word starts[s], so one that starts within four
    words of a line end spans two lines."""
    lines, words = ["  WAIT", "  GOTO main"], 2
    for s, start in enumerate(starts):
        lines += ["  CMP = 0"] * (start - words)
        lines += [f"sub{s}:", "  WAVEFORM PLAY addr=0 count=8"]
        lines += ["  CMP = 0"] * 3 + ["  RETURN"]
        words = start + 5
    # main lies 5 lines past the last subroutine: every call is far
    lines += ["  CMP = 0"] * ((starts[-1] // 128 + 5) * 128 - words)
    lines += ["main:", "  LOAD_REPEAT 9", "loop:"]
    lines += [f"  CALL sub{s}" for s in order] + ["  REPEAT loop"]
    return "\n".join(lines) + "\n"


def test_a_long_lap_streams_its_lines_ahead_of_the_calls():
    # 7 subroutines 3 lines apart; sub1 and sub4 cross a line end, so a
    # lap spans 9 lines, one more than the associative half holds
    starts = [128 * (3 * s + 1) - (2 if s in (1, 4) else 0)
              for s in range(7)]
    order = [0, 3, 6, 2, 5, 1, 4]
    lib = WaveformLibrary()
    lib.add("w", 0.1 * np.ones(8))
    image = assemble(streamed_calls_source(order, starts), lib)
    hinted = asm.insert_prefetch_hints(image)
    decoded = hinted.decode_all()
    loop = hinted.symbols["loop"]
    line = isa.CACHE_LINE_INSTRUCTIONS
    lap = []                    # the lines of one lap, in call order
    for s in order:
        first = hinted.symbols[f"sub{s}"] // line
        lap += [first, first + 1] if s in (1, 4) else [first]
    assert len(lap) == 9
    # the preheader, before the label, prefetches the first eight
    pre = [i.addr // line for i in decoded[loop - ASSOC_LINES:loop]]
    assert pre == lap[:ASSOC_LINES]
    assert decoded[loop - ASSOC_LINES - 1].op is Opcode.LOAD_REPEAT
    # each call is followed by one hint per line it spans, for the lines
    # eight further on in the lap
    calls = [pc for pc in range(loop, len(decoded))
             if decoded[pc].op is Opcode.CALL]
    after = []
    for pc in calls:
        n = 1
        while decoded[pc + n].op is Opcode.PREFETCH:
            after.append(decoded[pc + n].addr // line)
            n += 1
    assert after == [lap[(k + ASSOC_LINES) % 9] for k in range(9)]
    assert len(hinted.prefetch_manifest) == ASSOC_LINES + 9
    assert same_image(asm.insert_prefetch_hints(hinted), hinted)
    stripped = asm.strip_prefetch_hints(hinted)
    assert (stripped.words, stripped.symbols) == (image.words, image.symbols)


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
    # the second hint stays behind the label mid, so the GOTO runs it
    mid = hinted.symbols["mid"]
    assert decoded[mid].op is Opcode.PREFETCH
    assert (decoded[2].op, decoded[2].addr) == (Opcode.GOTO, mid)
    assert [t for _, t in hinted.prefetch_manifest] == hints
    stripped = asm.strip_prefetch_hints(hinted)
    assert stripped.words == image.words
    assert stripped.symbols == image.symbols


# -- differential image check --------------------------------------------

def image_digest(*images) -> str:
    """sha256 prefix of the words, symbols and prefetch manifest of each
    image in turn."""
    h = hashlib.sha256()
    for image in images:
        h.update(np.asarray(image.words, dtype="<u8").tobytes())
        h.update(repr(sorted(image.symbols.items())).encode())
        h.update(repr(image.prefetch_manifest).encode())
    return h.hexdigest()[:16]


def padded_program(seed: int) -> isa.ProgramImage:
    return random_program(np.random.default_rng(4000 + seed), pad=300)[0]


@pytest.mark.parametrize("seed", range(50))
def test_random_image_roundtrips_through_the_disassembler(seed):
    image = padded_program(seed)
    assert assemble(disassemble(image)).words == image.words


# words, symbols and manifest of each image after insert_prefetch_hints
# and then strip_prefetch_hints, recorded with the loop-planning hint pass
HINTS_PINNED = {
    0: "f8e056c6503ffa46",
    1: "b2cda92b4d919481",
    2: "9d09bc1edb4d4a9b",
    3: "1f2d014bb533b2ae",
    4: "5ee92c37e9625260",
    5: "3e0ec124600b107b",
    6: "3a9dd62e72f59e45",
    7: "120bded5fe939350",
    8: "8807966a10f7842e",
    9: "8cb546660f71ffa1",
    10: "2cdbf79d71811424",
    11: "871cd4b9b5593c00",
    12: "c8d1f092395f6f05",
    13: "69bd4c180664d42a",
    14: "5b2b8c0346db178b",
    15: "12691813d28ccb87",
    16: "467069d0d97b0cee",
    17: "eb3cee939859c540",
    18: "fdb05b9017facdb5",
    19: "8591b0283bcb19e6",
    20: "752f2ea81fc42a55",
    21: "75b8c7846f3d6cb0",
    22: "d50b99257e6206d6",
    23: "980217aadf22c44a",
    24: "dac9f073fb867b14",
    25: "1e24b35d2b60f7f6",
    26: "cb3c63b46a8e1404",
    27: "ed87f076b710e333",
    28: "dcd2db94c41f94ab",
    29: "32611822bd8fc9da",
    30: "6f74b219369c01e8",
    31: "303a7b713e6c7d52",
    32: "e62ef37c15ab6816",
    33: "b31674ea278d09a9",
    34: "36c0186cd3c85d34",
    35: "56cb96efecd1161d",
    36: "e93ca8b0c6bb813f",
    37: "1c3518417ff72dca",
    38: "7c243f49f863daf7",
    39: "42d0518f7321d6a3",
    40: "eadeba0504ce3669",
    41: "672177142b7df1d8",
    42: "1a14d49c416aab6d",
    43: "4508cdbf2bf13afc",
    44: "126c7fd27a2650fc",
    45: "a94648953af5c5fc",
    46: "154f39c4546ff2cf",
    47: "60f4098f79920834",
    48: "dabc784d4ec52231",
    49: "0b7e7873f9cfae53",
}


@pytest.mark.parametrize("seed", range(50))
def test_a_second_hint_insertion_changes_nothing(seed):
    hinted = asm.insert_prefetch_hints(padded_program(seed))
    assert same_image(asm.insert_prefetch_hints(hinted), hinted)


@pytest.mark.parametrize("seed", sorted(HINTS_PINNED))
def test_hint_insertion_and_strip_are_pinned(seed):
    image = padded_program(seed)
    hinted = asm.insert_prefetch_hints(image)
    stripped = asm.strip_prefetch_hints(hinted)
    assert (stripped.words, stripped.symbols) == (image.words, image.symbols)
    assert image_digest(hinted, stripped) == HINTS_PINNED[seed]
