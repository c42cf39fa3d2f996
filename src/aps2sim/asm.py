"""Two-pass assembler, disassembler, and prefetch hint insertion.

Source dialect (.qasm2s): one instruction per line, labels as ``name:``,
comments from ``;`` to end of line.  Operands are bare words, label
references, or ``key=value`` pairs:

    loop:
      WAVEFORM PLAY gauss            ; name from the waveform library
      WAVEFORM PLAY zero ta count=1200
      MARKER PLAY ch=0 state=1 count=3 last=0b1110
      MOD SET_PHASE_INC nco=1 freq=10e6
      MOD MODULATE nco=1 count=48
      LOAD_REPEAT 2
      REPEAT loop
      LOAD_CMP
      CMP = 0x1
      GOTO flip if
      CALL sub
      PREFETCH sub

Integers accept 0x/0b prefixes.  Phases are given in turns (``phase=0.5``
is half a turn), NCO frequencies in Hz (``freq=``), or the raw 48-bit
fixed-point word (``phase_word=``) which is what the disassembler emits so
text -> image -> text -> image is exact.

Set-up costs scale with distinct lines, not program length: Python code
runs once per distinct line, label line or branch site, and each pass
over every line is a C-level builtin.  The per-line passes split the
text into lines and key them in a dict, flag the instruction lines, find
the label lines (``compress``) and count the instruction lines between
two of them (``sum``), find each distinct text's first line (one
``list.index`` sweep over the distinct lines in order) and gather the
words.  Per distinct line, ``_split_line`` takes
off the comment and the labels; per label line, pass 1 (``_labels``)
checks and places its labels.  Once every label is known, a line's word
depends on its text alone, label references included, so pass 2 builds
each distinct text once, at its first line, and later lines reuse the
word.  Label errors therefore come before build errors, and a bad line
is reported at its first occurrence.  The hint passes likewise decode
each distinct word once, find the branch and PREFETCH sites in one array
pass over the words (``_sites``), and visit only those sites.

Prefetch planning (``insert_prefetch_hints``): a far CALL is paid in
line fills over the serial SDRAM bus, so the hints keep that bus busy
ahead of the calls without evicting a line before it plays.  In a
REPEAT loop the lines that the far calls' entries span, in the body's
call order, are one lap.  The preheader prefetches the first
``mem.ASSOC_LINES`` of them, and each call j is followed by the hints
for as many lines as it spans, ``ASSOC_LINES`` lines further on in the
lap (wrapping into the next lap).  So a lap with more lines than the
associative half holds streams them at the bus rate, and the oldest
line, the one each fill evicts, has already played.  A far call outside
every loop is prefetched at the start of its basic block.
"""

from __future__ import annotations

import dataclasses
import struct
from bisect import bisect_right
from itertools import compress, count

import numpy as np

from . import isa
from .clocks import ANALOG_SAMPLE_HZ
from .isa import (
    OP_CALL,
    OP_GOTO,
    OP_PREFETCH,
    OP_REPEAT,
    OP_RETURN,
    OP_SYNC,
    OP_WAIT,
    TARGET_OPS,
    Instruction,
    Marker,
    MarkerAction,
    ModAction,
    Modulator,
    Opcode,
    ProgramImage,
    Waveform,
    WfAction,
)
from .mem import ASSOC_LINES, WINDOW_AHEAD, WINDOW_BEHIND

__all__ = [
    "AsmError",
    "WaveformLibrary",
    "assemble",
    "disassemble",
    "insert_prefetch_hints",
    "strip_prefetch_hints",
]


class AsmError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Waveform library

WLB_MAGIC = b"APS2WLB\0"
WLB_VERSION = 1


class WaveformLibrary:
    """Named complex waveforms, float in [-1, 1), packed to s16 on demand."""

    def __init__(self) -> None:
        self.entries: dict[str, np.ndarray] = {}

    def add(self, name: str, samples) -> None:
        arr = np.atleast_1d(np.asarray(samples, dtype=np.complex128))
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError(f"waveform {name!r} must be a nonempty 1-d array")
        # NaN fails both comparisons, so it is out of range too
        ok = (-1.0 <= arr.real) & (arr.real < 1.0) \
            & (-1.0 <= arr.imag) & (arr.imag < 1.0)
        if not ok.all():
            raise ValueError(f"waveform {name!r} exceeds [-1, 1): sample "
                             f"{arr[~ok][0]}")
        self.entries[name] = arr

    def pack(self) -> tuple[np.ndarray, dict[str, tuple[int, int]]]:
        """Concatenate entries into int16 I/Q memory; returns (mem, offsets)."""
        offsets: dict[str, tuple[int, int]] = {}
        pos = 0
        for name, arr in self.entries.items():
            offsets[name] = (pos, len(arr))
            pos += len(arr)
        if not self.entries:
            return np.zeros((0, 2), np.int16), offsets
        # (n, 2) I/Q pairs of every entry, quantized in one pass
        iq = np.concatenate(list(self.entries.values())).view(np.float64)
        mem = np.clip(np.round(iq.reshape(-1, 2) * 32768.0), -32768, 32767)
        return mem.astype(np.int16), offsets

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(WLB_MAGIC)
            fh.write(struct.pack("<HI", WLB_VERSION, len(self.entries)))
            for name, arr in self.entries.items():
                raw = name.encode()
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", len(arr)))
            for arr in self.entries.values():
                pairs = np.empty((len(arr), 2), dtype="<f4")
                pairs[:, 0] = arr.real
                pairs[:, 1] = arr.imag
                fh.write(pairs.tobytes())

    @classmethod
    def load(cls, path) -> "WaveformLibrary":
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:8] != WLB_MAGIC:
            raise ValueError(f"{path}: not a waveform library")
        try:
            version, count = struct.unpack_from("<HI", raw, 8)
            if version != WLB_VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            pos, names = 14, []
            for _ in range(count):      # (u16 length, name, u32 samples)
                (nlen,) = struct.unpack_from("<H", raw, pos)
                (slen,) = struct.unpack_from("<I", raw, pos + 2 + nlen)
                names.append((raw[pos + 2:pos + 2 + nlen].decode(), slen))
                pos += 6 + nlen
        except struct.error:
            raise ValueError(f"{path}: file of {len(raw)} bytes ends inside "
                             f"its header") from None
        need = pos + sum(8 * slen for _, slen in names)
        if len(raw) != need:
            raise ValueError(f"{path}: file is {len(raw)} bytes, expected {need}")
        lib = cls()
        for name, slen in names:
            pairs = np.frombuffer(raw, "<f4", 2 * slen, pos).reshape(-1, 2)
            lib.add(name, pairs[:, 0].astype(np.float64)
                    + 1j * pairs[:, 1].astype(np.float64))
            pos += 8 * slen
        return lib


# ---------------------------------------------------------------------------
# Parsing helpers

def _parse_int(tok: str, line_no: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(line_no, f"bad integer {tok!r}") from None


def _split_operands(tokens: list[str], line_no: int):
    """Separate key=value pairs from positional/flag tokens; the CMP
    operators = and != are positional."""
    kv: dict[str, str] = {}
    bare: list[str] = []
    for tok in tokens:
        if "=" in tok and not tok.startswith("=") and tok != "!=":
            key, _, val = tok.partition("=")
            if key in kv:
                raise AsmError(line_no, f"duplicate operand {key}=")
            kv[key] = val
        else:
            bare.append(tok)
    return bare, kv


def _phase_word(kv: dict[str, str], line_no: int) -> int:
    """Phase operand: phase= (turns), freq= (Hz), inc= (turns/sample), or raw."""
    given = [k for k in ("phase", "freq", "inc", "phase_word") if k in kv]
    if len(given) != 1:
        raise AsmError(line_no, "need exactly one of phase=/freq=/inc=/phase_word=")
    key = given[0]
    if key == "phase_word":
        return _parse_int(kv.pop(key), line_no)
    tok = kv.pop(key)
    try:
        val = float(tok)
    except ValueError:
        raise AsmError(line_no, f"bad number {tok!r}") from None
    if key == "freq":
        val = val / ANALOG_SAMPLE_HZ   # turns per analog sample
    return isa.phase_word_from_turns(val)


_MOD_NAMES = {
    "WAIT": ModAction.WAIT,
    "SYNC": ModAction.SYNC,
    "RESET_PHASE": ModAction.RESET_PHASE,
    "SET_PHASE_OFF": ModAction.SET_PHASE_OFFSET,
    "SET_PHASE_INC": ModAction.SET_PHASE_INCREMENT,
    "UPDATE_FRAME": ModAction.UPDATE_FRAME,
    "MODULATE": ModAction.MODULATE,
}
_MOD_CANON = {v: k for k, v in _MOD_NAMES.items()}


def _split_line(raw: str) -> tuple[list[str], str]:
    """One raw line's label names, in order, and its content: the text
    before any ``;`` comment, less the labels and surrounding blanks.  A
    name is not checked here; the label pass checks it at each line."""
    content = raw.partition(";")[0].strip()
    names = []
    while ":" in content:
        head = content.split(None, 1)[0]
        if not head.endswith(":"):
            break
        names.append(head[:-1])
        content = content[len(head):].strip()
    return names, content


def _labels(raws: list[str], names: dict[str, list[str]],
            flags: list[bool]) -> dict[str, int]:
    """Pass 1: each label's address, the number of instruction lines
    (flags) above its line.  Only the label lines are visited, and the
    instruction lines between two of them are counted in one sum."""
    labels: dict[str, int] = {}
    addr = done = 0
    for i in compress(count(), map(names.__contains__, raws)):
        addr += sum(flags[done:i])
        done = i
        for name in names[raws[i]]:
            if not name.isidentifier():
                raise AsmError(i + 1, f"bad label {name!r}")
            if name in labels:
                raise AsmError(i + 1, f"duplicate label {name!r}")
            labels[name] = addr
    return labels


def assemble(text: str, library: WaveformLibrary | None = None) -> ProgramImage:
    """Assemble source text against an optional waveform library."""
    raws = text.splitlines()
    names: dict[str, list[str]] = {}     # label line -> its label names
    lines: dict[str, str] = {}           # instruction line -> its text
    for raw in dict.fromkeys(raws):
        heads, line = _split_line(raw)
        if heads:
            names[raw] = heads
        if line:
            lines[raw] = line
    flags = list(map(lines.__contains__, raws))
    labels = _labels(raws, names, flags)
    if library is not None:
        wave_mem, wave_syms = library.pack()
    else:
        wave_mem = np.zeros((0, 2), np.int16)
        wave_syms = {}

    def resolve(tok: str, line_no: int) -> int:
        if tok in labels:
            return labels[tok]
        try:
            return int(tok, 0)
        except ValueError:
            raise AsmError(line_no, f"unknown label {tok!r}") from None

    # Pass 2: every label is known, so a line's word depends on its text
    # alone; each distinct text is built once, at its first line, which
    # the index scans find in one sweep over the distinct lines in order.
    word_of: dict[str, int] = {}
    word_at: dict[str, int] = {}
    at = 0
    for raw, line in lines.items():
        if line not in word_of:
            at = raws.index(raw, at)
            word_of[line] = _word(line, at + 1, resolve, wave_syms)
        word_at[raw] = word_of[line]
    return ProgramImage(words=list(map(word_at.__getitem__,
                                       compress(raws, flags))),
                        waveforms=wave_mem, symbols=labels,
                        wave_symbols=wave_syms)


def _word(line: str, no: int, resolve, wave_syms) -> int:
    """The word of one instruction line."""
    mnemonic, *tokens = line.split()
    bare, kv = _split_operands(tokens, no)
    try:
        word = isa.encode(_build(mnemonic.upper(), bare, kv, no, resolve,
                                 wave_syms))
    except isa.EncodeError as exc:
        raise AsmError(no, str(exc)) from None
    if kv:
        raise AsmError(no, f"unknown operands {sorted(kv)}")
    return word


def _build(mnemonic, bare, kv, no, resolve, wave_syms) -> Instruction:
    def need(n):
        if len(bare) != n:
            raise AsmError(no, f"{mnemonic} expects {n} operand(s), got {len(bare)}")

    if mnemonic in ("SYNC", "WAIT", "RETURN", "LOAD_CMP"):
        need(0)
        return Instruction(Opcode[mnemonic])
    if mnemonic == "LOAD_REPEAT":
        need(1)
        return Instruction(Opcode.LOAD_REPEAT, value=_parse_int(bare[0], no))
    if mnemonic in ("REPEAT", "PREFETCH"):
        need(1)
        return Instruction(Opcode[mnemonic], addr=resolve(bare[0], no))
    if mnemonic in ("GOTO", "CALL"):
        cond = False
        if bare and bare[-1].lower() == "if":
            cond = True
            bare = bare[:-1]
        if len(bare) != 1:
            raise AsmError(no, f"{mnemonic} expects a target")
        return Instruction(Opcode[mnemonic], addr=resolve(bare[0], no),
                           conditional=cond)
    if mnemonic == "CMP":
        if len(bare) != 2 or bare[0] not in isa.CMP_FROM_SYMBOL:
            raise AsmError(no, "CMP expects an operator (= != < >) and a mask")
        return Instruction(Opcode.CMP, cmp_op=isa.CMP_FROM_SYMBOL[bare[0]],
                           mask=_parse_int(bare[1], no))
    if mnemonic == "WAVEFORM":
        return _build_waveform(bare, kv, no, wave_syms)
    if mnemonic == "MARKER":
        return _build_marker(bare, kv, no)
    if mnemonic == "MOD":
        return _build_mod(bare, kv, no)
    raise AsmError(no, f"unknown mnemonic {mnemonic!r}")


def _build_waveform(bare, kv, no, wave_syms) -> Instruction:
    if not bare:
        raise AsmError(no, "WAVEFORM expects an action")
    action = bare[0].upper()
    rest = bare[1:]
    if action in ("WAIT", "SYNC"):
        if rest:
            raise AsmError(no, f"WAVEFORM {action} takes no operands")
        return Instruction(Opcode.WAVEFORM, engine=Waveform(WfAction[action]))
    if action == "PREFETCH":
        if "page" not in kv:
            raise AsmError(no, "WAVEFORM PREFETCH expects page=")
        page = _parse_int(kv.pop("page"), no)
        return Instruction(Opcode.WAVEFORM,
                           engine=Waveform(WfAction.PREFETCH, addr=page))
    if action != "PLAY":
        raise AsmError(no, f"unknown waveform action {action!r}")
    ta = False
    if rest and rest[-1].lower() == "ta":
        ta = True
        rest = rest[:-1]
    addr = count = None
    if rest:
        if len(rest) != 1:
            raise AsmError(no, "WAVEFORM PLAY expects one name")
        name = rest[0]
        if name not in wave_syms:
            raise AsmError(no, f"unknown waveform {name!r}")
        addr, count = wave_syms[name]
    if "addr" in kv:
        addr = _parse_int(kv.pop("addr"), no)
    if "count" in kv:
        count = _parse_int(kv.pop("count"), no)
    if addr is None or count is None:
        raise AsmError(no, "WAVEFORM PLAY needs a library name or addr=/count=")
    return Instruction(Opcode.WAVEFORM,
                       engine=Waveform(WfAction.PLAY, addr=addr, count=count, ta=ta))


def _build_marker(bare, kv, no) -> Instruction:
    if not bare:
        raise AsmError(no, "MARKER expects an action")
    action = bare[0].upper()
    if bare[1:]:
        raise AsmError(no, "MARKER operands must be key=value")
    if "ch" not in kv:
        raise AsmError(no, "MARKER expects ch=")
    channel = _parse_int(kv.pop("ch"), no)
    if action in ("WAIT", "SYNC"):
        return Instruction(Opcode.MARKER,
                           engine=Marker(MarkerAction[action], channel=channel))
    if action != "PLAY":
        raise AsmError(no, f"unknown marker action {action!r}")
    if "count" not in kv:
        raise AsmError(no, "MARKER PLAY expects count=")
    count = _parse_int(kv.pop("count"), no)
    state = _parse_int(kv.pop("state", "1"), no)
    default_last = 0b1111 if state else 0
    last = _parse_int(kv.pop("last", str(default_last)), no)
    return Instruction(Opcode.MARKER, engine=Marker(
        MarkerAction.PLAY, channel=channel, state=state, count=count,
        last_word=last))


def _build_mod(bare, kv, no) -> Instruction:
    if not bare or bare[0].upper() not in _MOD_NAMES:
        raise AsmError(no, f"MOD expects one of {sorted(_MOD_NAMES)}")
    action = _MOD_NAMES[bare[0].upper()]
    if bare[1:]:
        raise AsmError(no, "MOD operands must be key=value")
    if action in (ModAction.WAIT, ModAction.SYNC):
        return Instruction(Opcode.MODULATOR, engine=Modulator(action))
    nco = _parse_int(kv.pop("nco", "0"), no)
    if action is ModAction.MODULATE:
        if "count" not in kv:
            raise AsmError(no, "MODULATE expects count=")
        return Instruction(Opcode.MODULATOR, engine=Modulator(
            action, nco=nco, count=_parse_int(kv.pop("count"), no)))
    if action is ModAction.RESET_PHASE:
        return Instruction(Opcode.MODULATOR, engine=Modulator(action, nco=nco))
    return Instruction(Opcode.MODULATOR, engine=Modulator(
        action, nco=nco, phase_word=_phase_word(kv, no)))


# ---------------------------------------------------------------------------
# Disassembler

def disassemble(image: ProgramImage) -> str:
    """Image back to source text; reassembles to the identical word list."""
    instrs = image.decode_all()
    targets = {i.addr for i in instrs if i.op in TARGET_OPS}
    names = {addr: name for name, addr in image.symbols.items()}
    for addr in targets - names.keys():
        name = f"L{addr}"
        while name in image.symbols:   # a user label may be named L<n>
            name = "_" + name
        names[addr] = name
    wave_names = {span: name for name, span in image.wave_symbols.items()}

    out = []
    for pc, instr in enumerate(instrs):
        if pc in names:
            out.append(f"{names[pc]}:")
        out.append("  " + _format(instr, names.__getitem__, wave_names))
    if len(instrs) in names:
        out.append(f"{names[len(instrs)]}:")
    return "\n".join(out) + "\n"


def _format(instr: Instruction, label, wave_names) -> str:
    op = instr.op
    if op in (Opcode.SYNC, Opcode.WAIT, Opcode.RETURN, Opcode.LOAD_CMP):
        return op.name
    if op is Opcode.LOAD_REPEAT:
        return f"LOAD_REPEAT {instr.value}"
    if op in (Opcode.REPEAT, Opcode.PREFETCH):
        return f"{op.name} {label(instr.addr)}"
    if op in (Opcode.GOTO, Opcode.CALL):
        tail = " if" if instr.conditional else ""
        return f"{op.name} {label(instr.addr)}{tail}"
    if op is Opcode.CMP:
        return f"CMP {isa.CMP_SYMBOL[instr.cmp_op]} {instr.mask:#x}"
    if op is Opcode.WAVEFORM:
        wf = instr.engine
        if wf.action is WfAction.PLAY:
            ta = " ta" if wf.ta else ""
            name = wave_names.get((wf.addr, wf.count))
            if name and not wf.ta:
                return f"WAVEFORM PLAY {name}"
            return f"WAVEFORM PLAY addr={wf.addr} count={wf.count}{ta}"
        if wf.action is WfAction.PREFETCH:
            return f"WAVEFORM PREFETCH page={wf.addr}"
        return f"WAVEFORM {wf.action.name}"
    if op is Opcode.MARKER:
        mk = instr.engine
        if mk.action is MarkerAction.PLAY:
            return (f"MARKER PLAY ch={mk.channel} state={mk.state} "
                    f"count={mk.count} last={mk.last_word:#06b}")
        return f"MARKER {mk.action.name} ch={mk.channel}"
    md = instr.engine
    name = _MOD_CANON[md.action]
    if md.action in (ModAction.WAIT, ModAction.SYNC):
        return f"MOD {name}"
    if md.action is ModAction.MODULATE:
        return f"MOD MODULATE nco={md.nco} count={md.count}"
    if md.action is ModAction.RESET_PHASE:
        return f"MOD RESET_PHASE nco={md.nco:#x}"
    return f"MOD {name} nco={md.nco:#x} phase_word={md.phase_word:#x}"


# ---------------------------------------------------------------------------
# PREFETCH hints ahead of distant CALL sites.


_BLOCK_ENDS = frozenset({OP_GOTO, OP_CALL, OP_RETURN, OP_REPEAT, OP_WAIT,
                         OP_SYNC})
_LINE = isa.CACHE_LINE_INSTRUCTIONS


def _sites(words: list[int], table: dict[int, Instruction]) -> list[int]:
    """Address of every branch and PREFETCH: the words with a target,
    found in one array pass.  table holds every word decoded, so each
    word fits in 64 bits."""
    hit = [w for w, instr in table.items() if instr.op in TARGET_OPS]
    found = np.isin(np.fromiter(words, np.uint64, len(words)),
                    np.array(hit, np.uint64))
    return np.flatnonzero(found).tolist()


def _is_far(site: int, target: int) -> bool:
    """A CALL whose target line lies outside the sequential window
    around its site."""
    lines_ahead = target // _LINE - site // _LINE
    return not -WINDOW_BEHIND <= lines_ahead <= WINDOW_AHEAD


def _block_start(words: list[int], ends: set[int], labels: set[int],
                 pc: int) -> int:
    """Start of the basic block holding pc: previous label or the word
    after a flow change (a word in ends)."""
    start = pc
    while start > 0 and start not in labels and words[start - 1] not in ends:
        start -= 1
    return start


def _entry_end(words: list[int], ends: set[int], target: int) -> int:
    """The first block-ending word at or after target, or the last word:
    a callee's straight-line entry runs from target through it."""
    end, last = target, len(words) - 1
    while end < last and words[end] not in ends:
        end += 1
    return end


def _mover(points: list[int], shift: int):
    """Address map after shifting by `shift` every address at or above
    each of the sorted points: a -> a + shift * (points <= a)."""
    return lambda a: a + shift * bisect_right(points, a)


def _relocation(hints) -> tuple:
    """(word_at, target_at) for hints (position, before, ...) inserted in
    one pass.  Every hint goes before the word at its position, so a word
    moves up by the hints at or below it.  A branch target moves up by the
    hints below it and by those placed before its label (a loop's
    preheader); a hint placed at a label stays behind it, so a branch to
    the label runs the hint."""
    word_at = _mover(sorted(h[0] for h in hints), 1)
    target_at = _mover(sorted(h[0] + (not h[1]) for h in hints), 1)
    return word_at, target_at


def _moved_words(words: list[int], table: dict[int, Instruction],
                 sites: list[int], move) -> list[int]:
    """Words with the branch or PREFETCH target a of each site replaced
    by move(a); only a word whose target moves is re-encoded."""
    out = list(words)
    for pc in sites:
        instr = table[words[pc]]
        addr = move(instr.addr)
        if addr != instr.addr:
            out[pc] = isa.encode(dataclasses.replace(instr, addr=addr))
    return out


def _hint_sites(image: ProgramImage, table: dict[int, Instruction],
                sites: list[int]) -> tuple[list, list, list, dict]:
    """What the plan reads, in the image's own addresses: each backward
    REPEAT as (loop label, preheader block); each CALL as (site, target,
    index of the innermost loop holding it or None, start of its basic
    block outside every loop); each PREFETCH as (block, target); and the
    entry end of each call target.  A block is (start, False), and an
    empty preheader, one whose label follows a flow change, is (label,
    True)."""
    words = image.words
    ends = {w for w, instr in table.items() if instr.op in _BLOCK_ENDS}
    labels = set(image.symbols.values())
    labels.update(table[words[pc]].addr for pc in sites
                  if table[words[pc]].op is not OP_PREFETCH)

    def block(pc):
        return (_block_start(words, ends, labels, pc), False)

    repeats, calls, prefetches = [], [], []
    for pc in sites:
        instr = table[words[pc]]
        if instr.op is OP_REPEAT and instr.addr <= pc:
            repeats.append((instr.addr, pc))
        elif instr.op is OP_CALL and instr.addr < len(words):
            calls.append((pc, instr.addr))
        elif instr.op is OP_PREFETCH:
            prefetches.append((block(pc), instr.addr))
    loops = [(head, block(head - 1) if head and words[head - 1] not in ends
              else (head, True)) for head, _ in repeats]
    placed = []
    for site, target in calls:
        inside = [(end - head, j) for j, (head, end) in enumerate(repeats)
                  if head <= site <= end]
        placed.append((site, target, min(inside)[1] if inside else None,
                       None if inside else block(site)[0]))
    entry_ends = {target: _entry_end(words, ends, target)
                  for _, target in calls}
    return loops, placed, prefetches, entry_ends


def _plan(loops, calls, prefetches, entry_ends, word_at, target_at) -> list:
    """The hints wanted with the image relocated by word_at and
    target_at, each (position, before, block, call target, line offset):
    a PREFETCH of the offset-th line of the callee's entry, inserted at
    position (before its label if before), in the basic block block.  A
    line that a PREFETCH already fetches in the same block is covered
    and left out."""
    cover = {(block, target_at(addr) // _LINE) for block, addr in prefetches}
    wanted = []

    def want(pos, before, block, target, offset):
        key = (block, target_at(target) // _LINE + offset)
        if key not in cover:
            cover.add(key)
            wanted.append((pos, before, block, target, offset))

    def lines(target):
        return (word_at(entry_ends[target]) // _LINE
                - target_at(target) // _LINE + 1)

    bodies = [[] for _ in loops]
    for site, target, loop, start in calls:
        if not _is_far(word_at(site), target_at(target)):
            continue
        if loop is not None:
            bodies[loop].append((site, target))
            continue
        for offset in range(lines(target)):
            want(start, False, (start, False), target, offset)
    for (head, preheader), body in zip(loops, bodies):
        sizes = [lines(target) for _, target in body]
        lap = [(target, offset) for (_, target), n in zip(body, sizes)
               for offset in range(n)]
        for target, offset in lap[:ASSOC_LINES]:
            want(head, True, preheader, target, offset)
        if len(lap) <= ASSOC_LINES:
            continue
        # after call j, its own number of lines ASSOC_LINES further on
        ahead = ASSOC_LINES
        for (site, _), n in zip(body, sizes):
            for k in range(ahead, ahead + n):
                want(site + 1, False, (site + 1, False), *lap[k % len(lap)])
            ahead += n
    return wanted


def insert_prefetch_hints(image: ProgramImage) -> ProgramImage:
    """Insert PREFETCH hints that fill the associative cache half ahead
    of each distant CALL.

    A callee's entry is its target through its first block-ending word,
    and each line it spans gets a hint.  A far call in a REPEAT loop
    (the innermost one holding it) is planned along the loop's static
    call order: the lines of the far calls in its body, in order, are one
    lap.  The preheader, before the loop label, prefetches the first
    ``mem.ASSOC_LINES`` of them.  If a lap has more, call j is followed
    by one hint per line it spans, each for the line ``ASSOC_LINES``
    places further on in the lap (wrapping into the next lap).  So at
    most ``ASSOC_LINES`` lines are in flight or waiting, and the
    oldest-first victim of each fill is a line the lap has played.  A
    far call outside every loop gets its hints at the start of its basic
    block.  A hint at a label stays behind it, so a branch to the label
    runs the hint.

    Lines are counted in the relocated image.  The plan is redone with
    the relocation it implies until it adds nothing (a hint below a
    callee may move its entry across a line end); each pass only adds
    hints, of which there are finitely many, so it stops.  A PREFETCH of
    a line already in the block it would go to counts as cover, so a
    second insertion changes nothing.  Program semantics are unchanged;
    only the cache behaves differently.  Each distinct word is decoded
    once, and only the targeted sites (``isa.TARGET_OPS``) are visited
    after that.
    """
    words = image.words
    table = isa.decode_table(words)
    sites = _sites(words, table)
    analysis = _hint_sites(image, table, sites)
    planned: dict[tuple, None] = {}
    while True:
        word_at, target_at = _relocation(planned)
        fresh = [hint for hint in _plan(*analysis, word_at, target_at)
                 if hint not in planned]
        if not fresh:
            break
        planned.update(dict.fromkeys(fresh))

    # at one position, the hints before a label first, then in plan order
    hints = sorted(planned, key=lambda hint: (hint[0], not hint[1]))
    body = _moved_words(words, table, sites, target_at)
    out: list[int] = []
    manifest = [(word_at(s), target_at(t)) for s, t in image.prefetch_manifest]
    done = 0
    for pos, _, _, target, offset in hints:
        out += body[done:pos]
        done = pos
        addr = target_at(target)
        if offset:
            addr = (addr // _LINE + offset) * _LINE
        manifest.append((len(out), addr))
        out.append(isa.encode(Instruction(OP_PREFETCH, addr=addr)))
    out += body[done:]
    return ProgramImage(words=out, waveforms=image.waveforms,
                        symbols={n: target_at(a)
                                 for n, a in image.symbols.items()},
                        wave_symbols=dict(image.wave_symbols),
                        prefetch_manifest=sorted(manifest))


def strip_prefetch_hints(image: ProgramImage) -> ProgramImage:
    """Remove instruction-cache PREFETCH ops, fixing up branch targets."""
    words = image.words
    table = isa.decode_table(words)
    sites = _sites(words, table)
    hints = [pc for pc in sites if table[words[pc]].op is OP_PREFETCH]
    # an address moves down by the number of hints below it
    move = _mover([pc + 1 for pc in hints], -1)
    body = _moved_words(words, table, sites, move)
    out: list[int] = []
    done = 0
    for pc in hints:
        out += body[done:pc]
        done = pc + 1
    out += body[done:]
    return ProgramImage(words=out, waveforms=image.waveforms,
                        symbols={n: move(a) for n, a in image.symbols.items()},
                        wave_symbols=dict(image.wave_symbols))
