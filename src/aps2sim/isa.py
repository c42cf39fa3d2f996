"""Pulse sequencer instruction set: encoding, decoding, program images.

Every instruction packs into one little-endian 64-bit word:

      63      56 55      48 47                      24 23                 0
     +----------+----------+--------------------------+--------------------+
     |  opcode  |  flags   |  address field (24 bit)  |  count field (24)  |
     +----------+----------+--------------------------+--------------------+

The table ``LAYOUT`` is the layout: one entry per (opcode, action) says
where each field sits in the flags byte and the payload, and encode and
decode both read it.  An engine opcode (WAVEFORM, MARKER, MODULATOR)
keeps its action in the low bits of the flags byte.

Phase-carrying modulator instructions use the full 48-bit payload as an
unsigned phase word in units of 2**-48 turns, so every encodable phase is
exactly representable and round-trips bit for bit.

Decoding is strict: any bit that the layout does not list must be zero,
so decode(word) either returns an instruction with encode(instr) == word
or raises DecodeError.  Addresses are instruction addresses in the range
[0, 2**24); waveform addresses index complex sample pairs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from enum import IntEnum
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .mem import MemConfig

__all__ = [
    "Opcode",
    "WfAction",
    "MarkerAction",
    "ModAction",
    "CmpOp",
    "Waveform",
    "Marker",
    "Modulator",
    "Instruction",
    "EncodeError",
    "DecodeError",
    "encode",
    "decode",
    "decode_table",
    "ProgramImage",
    "Finding",
    "validate_program",
    "save_program",
    "load_program",
    "phase_word_from_turns",
    "turns_from_phase_word",
]

PHASE_BITS = 48
PHASE_MASK = (1 << PHASE_BITS) - 1

CACHE_LINE_INSTRUCTIONS = 128          # 1 kB line of 8-byte words
MAX_INSTRUCTIONS = 128_000_000         # deep memory, all instructions
MAX_WAVEFORM_POINTS = 256_000_000      # deep memory, all waveform points
SDRAM_BYTES = 1 << 30                  # shared between the two

NUM_MARKER_CHANNELS = 4
NUM_NCOS = 4


class Opcode(IntEnum):
    WAVEFORM = 0x01
    MARKER = 0x02
    MODULATOR = 0x03
    WAIT = 0x04
    SYNC = 0x05
    LOAD_REPEAT = 0x06
    REPEAT = 0x07
    LOAD_CMP = 0x08
    CMP = 0x09
    GOTO = 0x0A
    CALL = 0x0B
    RETURN = 0x0C
    PREFETCH = 0x0D


class WfAction(IntEnum):
    PLAY = 0
    WAIT = 1
    SYNC = 2
    PREFETCH = 3    # waveform cache page, index in the address field


class MarkerAction(IntEnum):
    PLAY = 0
    WAIT = 1
    SYNC = 2


class ModAction(IntEnum):
    WAIT = 0
    SYNC = 1
    RESET_PHASE = 2
    SET_PHASE_OFFSET = 3
    SET_PHASE_INCREMENT = 4
    UPDATE_FRAME = 5
    MODULATE = 6


class CmpOp(IntEnum):
    EQ = 0
    NEQ = 1
    LT = 2
    GT = 3


CMP_SYMBOL = {CmpOp.EQ: "=", CmpOp.NEQ: "!=", CmpOp.LT: "<", CmpOp.GT: ">"}
CMP_FROM_SYMBOL = {v: k for k, v in CMP_SYMBOL.items()}

# Members bound once as module globals for the per-instruction paths
# (encode and decode here, the sequencer and the modulator): on CPython
# 3.11 reading a member through its enum class costs ten global reads.
OP_WAVEFORM = Opcode.WAVEFORM
OP_MARKER = Opcode.MARKER
OP_MODULATOR = Opcode.MODULATOR
OP_WAIT = Opcode.WAIT
OP_SYNC = Opcode.SYNC
OP_LOAD_REPEAT = Opcode.LOAD_REPEAT
OP_REPEAT = Opcode.REPEAT
OP_LOAD_CMP = Opcode.LOAD_CMP
OP_CMP = Opcode.CMP
OP_GOTO = Opcode.GOTO
OP_CALL = Opcode.CALL
OP_RETURN = Opcode.RETURN
OP_PREFETCH = Opcode.PREFETCH
WF_PLAY = WfAction.PLAY
WF_WAIT = WfAction.WAIT
WF_SYNC = WfAction.SYNC
WF_PREFETCH = WfAction.PREFETCH
MK_PLAY = MarkerAction.PLAY
MK_WAIT = MarkerAction.WAIT
MK_SYNC = MarkerAction.SYNC
MOD_WAIT = ModAction.WAIT
MOD_SYNC = ModAction.SYNC
MOD_RESET_PHASE = ModAction.RESET_PHASE
MOD_SET_PHASE_OFFSET = ModAction.SET_PHASE_OFFSET
MOD_SET_PHASE_INCREMENT = ModAction.SET_PHASE_INCREMENT
MOD_UPDATE_FRAME = ModAction.UPDATE_FRAME
MOD_MODULATE = ModAction.MODULATE
CMP_EQ = CmpOp.EQ
CMP_NEQ = CmpOp.NEQ
CMP_LT = CmpOp.LT
CMP_GT = CmpOp.GT

# the opcodes whose addr field is a target (asm reads this set too)
TARGET_OPS = frozenset({OP_GOTO, OP_CALL, OP_REPEAT, OP_PREFETCH})


class EncodeError(ValueError):
    """Instruction cannot be represented in the 64-bit format."""


class DecodeError(ValueError):
    """64-bit word is not a valid instruction."""


@dataclass(frozen=True, slots=True)
class Waveform:
    """Payload dispatched to the waveform engine."""

    action: WfAction
    addr: int = 0       # sample address (page index for PREFETCH)
    count: int = 0      # samples to play
    ta: bool = False    # time/amplitude pair: hold one sample count times


@dataclass(frozen=True, slots=True)
class Marker:
    """Payload dispatched to one of the marker engines."""

    action: MarkerAction
    channel: int = 0
    state: int = 0
    count: int = 0       # marker words of 4 samples each
    last_word: int = 0   # 4-bit pattern of the final word, bit3 first in time


@dataclass(frozen=True, slots=True)
class Modulator:
    """Payload dispatched to the modulation engine."""

    action: ModAction
    nco: int = 0         # mask for phase commands, NCO index for MODULATE
    phase_word: int = 0  # unsigned, units of 2**-48 turns
    count: int = 0       # analog samples, MODULATE only


@dataclass(frozen=True, slots=True)
class Instruction:
    op: Opcode
    engine: Waveform | Marker | Modulator | None = None
    addr: int = 0               # GOTO/CALL/REPEAT/PREFETCH target
    value: int = 0              # LOAD_REPEAT payload
    cmp_op: CmpOp | None = None
    mask: int = 0               # CMP payload
    conditional: bool = False   # GOTO/CALL only


def phase_word_from_turns(turns: float) -> int:
    """Quantize a phase in turns (1 turn = 2 pi) onto the 48-bit grid."""
    return round((turns % 1.0) * (1 << PHASE_BITS)) & PHASE_MASK


def turns_from_phase_word(word: int) -> float:
    return (word & PHASE_MASK) / (1 << PHASE_BITS)


# The word layout, one entry per (opcode, action): each field as (name,
# low bit, width), a field of the payload for an engine opcode and of the
# Instruction for the others.  An engine opcode's action fills the low
# bits of the flags byte (_PAYLOADS gives how many).  Every bit a layout
# does not list is reserved and must be zero, and every field it does not
# list must keep its default.
_TARGET = ("addr", 24, 24)
_PHASE = (("nco", 52, 4), ("phase_word", 0, PHASE_BITS))    # NCO mask
LAYOUT = {
    (OP_WAVEFORM, WF_PLAY): (("ta", 50, 1), ("addr", 24, 24), ("count", 0, 24)),
    (OP_WAVEFORM, WF_WAIT): (),
    (OP_WAVEFORM, WF_SYNC): (),
    (OP_WAVEFORM, WF_PREFETCH): (_TARGET,),                   # page index
    (OP_MARKER, MK_PLAY): (("channel", 50, 2), ("state", 52, 1),
                           ("last_word", 24, 4), ("count", 0, 24)),
    (OP_MARKER, MK_WAIT): (("channel", 50, 2),),
    (OP_MARKER, MK_SYNC): (("channel", 50, 2),),
    (OP_MODULATOR, MOD_WAIT): (),
    (OP_MODULATOR, MOD_SYNC): (),
    (OP_MODULATOR, MOD_RESET_PHASE): (("nco", 52, 4),),
    (OP_MODULATOR, MOD_SET_PHASE_OFFSET): _PHASE,
    (OP_MODULATOR, MOD_SET_PHASE_INCREMENT): _PHASE,
    (OP_MODULATOR, MOD_UPDATE_FRAME): _PHASE,
    (OP_MODULATOR, MOD_MODULATE): (("nco", 52, 2), ("count", 0, 24)),  # index
    (OP_WAIT, None): (),
    (OP_SYNC, None): (),
    (OP_LOAD_REPEAT, None): (("value", 0, 24),),
    (OP_REPEAT, None): (_TARGET,),
    (OP_LOAD_CMP, None): (),
    (OP_CMP, None): (("cmp_op", 48, 2), ("mask", 0, 24)),
    (OP_GOTO, None): (("conditional", 48, 1), _TARGET),
    (OP_CALL, None): (("conditional", 48, 1), _TARGET),
    (OP_RETURN, None): (),
    (OP_PREFETCH, None): (_TARGET,),
}
# engine opcode -> its payload class and the width of its action
_PAYLOADS = {OP_WAVEFORM: (Waveform, 2), OP_MARKER: (Marker, 2),
             OP_MODULATOR: (Modulator, 3)}
# the fields that decode to a member of a tuple rather than an int
_DECODED = {"ta": (False, True), "conditional": (False, True),
            "cmp_op": tuple(CmpOp)}


class _Layout:
    """One LAYOUT entry, compiled once: the word's opcode and action bits,
    the mask of its reserved bits, and a getter on the Instruction for
    each field it lists and for each field that keeps its default."""

    __slots__ = ("op", "payload", "action", "label", "word", "reserved",
                 "fields", "strays")

    def __init__(self, op: Opcode, action, spec) -> None:
        payload, action_bits = _PAYLOADS.get(op, (None, 0))
        self.op, self.payload, self.action = op, payload, action
        self.label = op.name if action is None else f"{op.name} {action.name}"
        self.word = op << 56 | (action or 0) << 48
        defined = (0xFF00 | (1 << action_bits) - 1) << 48
        for _, low, width in spec:
            defined |= (1 << width) - 1 << low
        self.reserved = (1 << 64) - 1 & ~defined
        path = "" if payload is None else "engine."
        self.fields = tuple((attrgetter(path + name), name, low,
                             (1 << width) - 1, _DECODED.get(name))
                            for name, low, width in spec)
        listed = {"op", *(path + name for name, _, _ in spec)}
        defaults = [(f.name, f.default) for f in fields(Instruction)]
        if payload is not None:
            listed |= {"engine", "engine.action"}
            defaults += [(path + f.name, f.default) for f in fields(payload)]
        self.strays = tuple((attrgetter(name), name.rpartition(".")[2], default)
                            for name, default in defaults if name not in listed)

    def pack(self, instr: Instruction) -> int:
        word = self.word
        for get, name, low, mask, _ in self.fields:
            value = get(instr)
            if value is None or not 0 <= value <= mask:
                raise EncodeError(f"{self.label} {name} {value!r} does not "
                                  f"fit in {mask.bit_length()} bits")
            word |= value << low
        for get, name, default in self.strays:
            if get(instr) != default:
                raise EncodeError(f"{self.label} takes no {name}")
        return word

    def unpack(self, word: int) -> Instruction:
        if word & self.reserved:
            raise DecodeError(f"word {word:#018x} has reserved bits set")
        values = {name: word >> low & mask if cast is None
                  else cast[word >> low & mask]
                  for _, name, low, mask, cast in self.fields}
        if self.payload is None:
            return Instruction(self.op, **values)
        return Instruction(self.op, self.payload(self.action, **values))


_LAYOUTS = {key: _Layout(*key, spec) for key, spec in LAYOUT.items()}
# decode finds a layout by the word's opcode byte and action bits: _KEEP
# maps the opcode byte to the mask of the top 16 bits that keeps them
_BY_HIGH = {layout.word >> 48: layout for layout in _LAYOUTS.values()}
_KEEP = {int(op): 0xFF00 | (1 << _PAYLOADS.get(op, (None, 0))[1]) - 1
         for op in Opcode}


def encode(instr: Instruction) -> int:
    """Pack an instruction into its 64-bit word, validating all fields."""
    op = instr.op
    payload = _PAYLOADS.get(op)
    if payload is None:
        layout = _LAYOUTS.get((op, None))
    elif isinstance(instr.engine, payload[0]):
        layout = _LAYOUTS.get((op, instr.engine.action))
    else:
        raise EncodeError(f"{op.name} requires a {payload[0].__name__} payload")
    if layout is None:
        raise EncodeError(f"no layout for {instr!r}")
    return layout.pack(instr)


def decode(word: int) -> Instruction:
    """Unpack a 64-bit word; strict, so stray bits raise DecodeError."""
    if not 0 <= word < (1 << 64):
        raise DecodeError(f"word {word:#x} is not 64-bit")
    high = word >> 48
    keep = _KEEP.get(high >> 8)
    if keep is None:
        raise DecodeError(f"unknown opcode byte {high >> 8:#04x}")
    layout = _BY_HIGH.get(high & keep)
    if layout is None:
        raise DecodeError(f"word {word:#018x}: {Opcode(high >> 8).name} has "
                          f"no action {high & keep & 0xFF}")
    return layout.unpack(word)


def decode_table(words) -> dict[int, Instruction]:
    """Each distinct word decoded once, in order of first occurrence, so
    the first bad word in program order raises."""
    return {w: decode(w) for w in dict.fromkeys(words)}


# ---------------------------------------------------------------------------
# Program images and the on-disk binary format.

MAGIC = b"APS2SIM\0"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sHII")


@dataclass
class ProgramImage:
    """Linked program: instruction words plus packed waveform memory.

    waveforms is an (N, 2) int16 array of I/Q pairs.  symbols and
    wave_symbols map label / waveform names to addresses for debugging and
    disassembly; they are not part of the binary format.  prefetch_manifest
    records (site address, target address) pairs for inserted cache hints.
    """

    words: list[int]
    waveforms: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 2), dtype=np.int16))
    symbols: dict[str, int] = field(default_factory=dict)
    wave_symbols: dict[str, tuple[int, int]] = field(default_factory=dict)
    prefetch_manifest: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.waveforms = np.asarray(self.waveforms, dtype=np.int16).reshape(-1, 2)

    def decode_all(self) -> list[Instruction]:
        """Every word decoded, each distinct word once: equal words share
        one (frozen) Instruction."""
        return list(map(decode_table(self.words).__getitem__, self.words))


@dataclass(frozen=True)
class Finding:
    severity: str   # "error" or "warning"
    address: int
    message: str


def validate_program(image: ProgramImage,
                     mem_cfg: MemConfig | None = None) -> list[Finding]:
    """Static checks: decodability, branch targets, waveform bounds.

    Given the memory config, waveform reads are also checked against
    its cache mode, as the waveform cache would check them at run time.
    """
    findings: list[Finding] = []
    n = len(image.words)
    nwave = len(image.waveforms)
    if n > MAX_INSTRUCTIONS:
        findings.append(Finding("error", 0, f"{n} instructions exceed deep memory"))
    if nwave > MAX_WAVEFORM_POINTS:
        findings.append(Finding("error", 0, f"{nwave} waveform points exceed deep memory"))
    if n * 8 + nwave * 4 > SDRAM_BYTES:
        findings.append(Finding("error", 0, "combined image exceeds 1 GB deep memory"))
    mode = page = None
    if mem_cfg is not None:
        mode, page = mem_cfg.wave_mode, mem_cfg.wave_page_samples
        if mode == "single" and nwave > 2 * page:
            findings.append(Finding(
                "error", 0, f"waveform memory of {nwave} exceeds the "
                f"{2 * page} samples of single mode"))

    has_call = False
    returns: list[int] = []
    # each distinct word decoded once: its instruction or the error text
    decoded: dict[int, Instruction | str] = {}
    for pc, word in enumerate(image.words):
        instr = decoded.get(word)
        if instr is None:
            try:
                instr = decode(word)
            except DecodeError as exc:
                instr = str(exc)
            decoded[word] = instr
        if isinstance(instr, str):
            findings.append(Finding("error", pc, instr))
            continue
        op = instr.op
        if op in TARGET_OPS:
            # a branch to one past the last instruction halts cleanly
            if instr.addr > n or (op is OP_PREFETCH and instr.addr >= n):
                findings.append(Finding(
                    "error", pc, f"{op.name} target {instr.addr} beyond program end"))
            if op is OP_CALL:
                has_call = True
        elif op is OP_RETURN:
            returns.append(pc)
        elif op is OP_WAVEFORM:
            wf = instr.engine
            if wf.action is WF_PLAY:
                if wf.count == 0:
                    findings.append(Finding("error", pc, "PLAY with zero count"))
                end = wf.addr + (1 if wf.ta else wf.count)
                if end > nwave:
                    findings.append(Finding(
                        "error", pc,
                        f"PLAY [{wf.addr}, {end}) beyond waveform memory of {nwave}"))
                if mode == "pingpong" and end > page:
                    findings.append(Finding(
                        "error", pc, f"PLAY [{wf.addr}, {end}) crosses the "
                        f"{page}-sample page boundary in ping-pong mode"))
                if mode == "single" and end > 2 * page:
                    findings.append(Finding(
                        "error", pc, f"PLAY [{wf.addr}, {end}) beyond the "
                        f"{2 * page} samples of single mode"))
            elif wf.action is WF_PREFETCH and mode == "single":
                findings.append(Finding(
                    "error", pc, "waveform PREFETCH is invalid in single mode"))
        elif op is OP_MARKER:
            mk = instr.engine
            if mk.action is MK_PLAY and mk.count == 0:
                findings.append(Finding("error", pc, "marker PLAY with zero count"))
        elif op is OP_MODULATOR:
            md = instr.engine
            if md.action is MOD_MODULATE and md.count == 0:
                findings.append(Finding("warning", pc, "MODULATE with zero count"))
    if returns and not has_call:
        for pc in returns:
            findings.append(Finding(
                "warning", pc, "RETURN with no CALL site anywhere in the program"))
    return findings


def errors(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings if f.severity == "error"]


def save_program(image: ProgramImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(image.words),
                              len(image.waveforms)))
        fh.write(np.asarray(image.words, dtype="<u8").tobytes())
        fh.write(image.waveforms.astype("<i2").tobytes())


def load_program(path) -> ProgramImage:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise DecodeError("program file truncated before header")
    magic, version, n_instr, n_wave = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DecodeError(f"unsupported format version {version}")
    need = _HEADER.size + 8 * n_instr + 4 * n_wave
    if len(raw) != need:
        raise DecodeError(f"program file is {len(raw)} bytes, expected {need}")
    words = np.frombuffer(raw, dtype="<u8", count=n_instr,
                          offset=_HEADER.size)
    waves = np.frombuffer(raw, dtype="<i2", count=2 * n_wave,
                          offset=_HEADER.size + 8 * n_instr)
    return ProgramImage(words=[int(w) for w in words],
                        waveforms=waves.reshape(-1, 2).copy())

