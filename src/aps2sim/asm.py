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

Set-up costs scale with distinct lines, not program length.  Pass 1
(``_scan``) records the labels and each instruction line's number and
stripped text.  Once every label is known, a line's word depends on its
text alone, label references included, so pass 2 builds each distinct
text once, at its first occurrence, and later occurrences reuse the
word.  Label errors therefore come before build errors, and a bad line
is reported at its first occurrence.  The hint passes likewise decode
each distinct word once and visit only the branch and PREFETCH sites.
"""

from __future__ import annotations

import dataclasses
import struct
from bisect import bisect_right

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
from .mem import WINDOW_AHEAD, WINDOW_BEHIND

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
        peak = max(np.abs(arr.real).max(), np.abs(arr.imag).max())
        if peak >= 1.0:
            raise ValueError(f"waveform {name!r} exceeds [-1, 1): peak {peak}")
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
        lib = cls()
        with open(path, "rb") as fh:
            if fh.read(8) != WLB_MAGIC:
                raise ValueError(f"{path}: not a waveform library")
            version, count = struct.unpack("<HI", fh.read(6))
            if version != WLB_VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            names = []
            for _ in range(count):
                (nlen,) = struct.unpack("<H", fh.read(2))
                name = fh.read(nlen).decode()
                (slen,) = struct.unpack("<I", fh.read(4))
                names.append((name, slen))
            for name, slen in names:
                pairs = np.frombuffer(fh.read(8 * slen), dtype="<f4").reshape(-1, 2)
                lib.add(name, pairs[:, 0].astype(np.float64)
                        + 1j * pairs[:, 1].astype(np.float64))
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


def _scan(text: str) -> tuple[dict[str, int], list[int], list[str]]:
    """Pass 1: labels, plus the line number and stripped text of every
    instruction line (its address is its index)."""
    labels: dict[str, int] = {}
    numbers: list[int] = []
    lines: list[str] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        content = raw.partition(";")[0].strip()
        while ":" in content:
            head = content.split(None, 1)[0]
            if not head.endswith(":"):
                break
            name = head[:-1]
            if not name.isidentifier():
                raise AsmError(no, f"bad label {name!r}")
            if name in labels:
                raise AsmError(no, f"duplicate label {name!r}")
            labels[name] = len(lines)
            content = content[len(head):].strip()
        if content:
            numbers.append(no)
            lines.append(content)
    return labels, numbers, lines


def assemble(text: str, library: WaveformLibrary | None = None) -> ProgramImage:
    """Assemble source text against an optional waveform library."""
    labels, numbers, lines = _scan(text)
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
    # alone; each distinct text is built once, at its first occurrence.
    word_of: dict[str, int] = {}
    for no, line in zip(numbers, lines):
        if line not in word_of:
            word_of[line] = _word(line, no, resolve, wave_syms)
    return ProgramImage(words=list(map(word_of.__getitem__, lines)),
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
    targets = {i.addr for i in instrs if i.op in _TARGETED}
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


_TARGETED = frozenset({OP_GOTO, OP_CALL, OP_REPEAT, OP_PREFETCH})
_BLOCK_ENDS = frozenset({OP_GOTO, OP_CALL, OP_RETURN, OP_REPEAT, OP_WAIT,
                         OP_SYNC})


def _sites(words: list[int], table: dict[int, Instruction]) -> list[int]:
    """Address of every branch and PREFETCH: the words with a target."""
    hit = {w for w, instr in table.items() if instr.op in _TARGETED}
    return [pc for pc, w in enumerate(words) if w in hit]


def _far_calls(words: list[int], table: dict[int, Instruction],
               sites: list[int]) -> list[tuple[int, int]]:
    """(call site, target) of every CALL among the sites whose target
    line lies outside the sequential window around the site."""
    line = isa.CACHE_LINE_INSTRUCTIONS
    far = []
    for pc in sites:
        instr = table[words[pc]]
        if instr.op is OP_CALL:
            lines_ahead = instr.addr // line - pc // line
            if not -WINDOW_BEHIND <= lines_ahead <= WINDOW_AHEAD:
                far.append((pc, instr.addr))
    return far


def _block_start(words: list[int], ends: set[int], labels: set[int],
                 pc: int) -> int:
    """Start of the basic block holding pc: previous label or the word
    after a flow change (a word in ends)."""
    start = pc
    while start > 0 and start not in labels and words[start - 1] not in ends:
        start -= 1
    return start


def _mover(points: list[int], shift: int):
    """Address map after shifting by `shift` every address at or above
    each of the sorted points: a -> a + shift * (points <= a)."""
    return lambda a: a + shift * bisect_right(points, a)


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


def insert_prefetch_hints(image: ProgramImage) -> ProgramImage:
    """Insert one PREFETCH per call region for each distant CALL target.

    Program semantics are unchanged; only the cache behaves differently.
    Each distinct word is decoded once, and only the targeted sites
    (GOTO, CALL, REPEAT, PREFETCH) are visited after that.  The image is
    relocated in one pass: an address a moves up by the number of hints
    inserted at or below a, and each hint targets its CALL target's new
    address.
    """
    words = image.words
    table = isa.decode_table(words)
    sites = _sites(words, table)
    ends = {w for w, instr in table.items() if instr.op in _BLOCK_ENDS}
    labels = set(image.symbols.values())
    labels.update(table[words[pc]].addr for pc in sites
                  if table[words[pc]].op is not OP_PREFETCH)
    inserts: list[tuple[int, int]] = []   # (insert position, target)
    seen: set[tuple[int, int]] = set()
    for site, target in reversed(_far_calls(words, table, sites)):
        pos = _block_start(words, ends, labels, site)
        key = (pos, target // isa.CACHE_LINE_INSTRUCTIONS)
        if key in seen:
            continue
        seen.add(key)
        inserts.append((pos, target))

    inserts.sort()                        # hints at one position by target
    move = _mover([pos for pos, _ in inserts], 1)
    body = _moved_words(words, table, sites, move)
    out: list[int] = []
    manifest = [(move(s), move(t)) for s, t in image.prefetch_manifest]
    done = 0
    for pos, target in inserts:
        out += body[done:pos]
        done = pos
        manifest.append((len(out), move(target)))
        out.append(isa.encode(Instruction(OP_PREFETCH, addr=move(target))))
    out += body[done:]
    return ProgramImage(words=out, waveforms=image.waveforms,
                        symbols={n: move(a) for n, a in image.symbols.items()},
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
