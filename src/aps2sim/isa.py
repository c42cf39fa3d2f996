"""Pulse sequencer instruction set: encoding, decoding, program images.

Every instruction packs into one little-endian 64-bit word:

      63      56 55      48 47                      24 23                 0
     +----------+----------+--------------------------+--------------------+
     |  opcode  |  flags   |  address field (24 bit)  |  count field (24)  |
     +----------+----------+--------------------------+--------------------+

The flags byte is opcode specific:

    WAVEFORM    bit1..0 action (PLAY/WAIT/SYNC/PREFETCH), bit2 TA pair
    MARKER      bit1..0 action (PLAY/WAIT/SYNC), bit3..2 channel, bit4 state
    MODULATOR   bit2..0 action, bit7..4 NCO mask (NCO index for MODULATE)
    GOTO/CALL   bit0 conditional on the comparison result
    CMP         bit1..0 comparison operator

Phase-carrying modulator instructions use the full 48-bit payload as an
unsigned phase word in units of 2**-48 turns, so every encodable phase is
exactly representable and round-trips bit for bit.

Decoding is strict: any bit that the opcode does not define must be zero,
so decode(word) either returns an instruction with encode(instr) == word
or raises DecodeError.  Addresses are instruction addresses in the range
[0, 2**24); waveform addresses index complex sample pairs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
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

ADDR_BITS = 24
COUNT_BITS = 24
PHASE_BITS = 48
ADDR_MASK = (1 << ADDR_BITS) - 1
COUNT_MASK = (1 << COUNT_BITS) - 1
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

_ENGINE_OPS = frozenset({OP_WAVEFORM, OP_MARKER, OP_MODULATOR})
_BARE_OPS = frozenset({OP_WAIT, OP_SYNC, OP_LOAD_CMP, OP_RETURN})
_BRANCH_OPS = frozenset({OP_GOTO, OP_CALL})
# the opcodes whose addr field is a target (asm reads this set too)
TARGET_OPS = frozenset({OP_GOTO, OP_CALL, OP_REPEAT, OP_PREFETCH})
_MOD_BARE = frozenset({MOD_WAIT, MOD_SYNC})


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


def _check_field(name: str, value: int, bits: int) -> int:
    if not 0 <= value < (1 << bits):
        raise EncodeError(f"{name} {value:#x} does not fit in {bits} bits")
    return value


def encode(instr: Instruction) -> int:
    """Pack an instruction into its 64-bit word, validating all fields."""
    op = instr.op
    flags = 0
    payload = 0

    if op is OP_WAVEFORM:
        wf = instr.engine
        if not isinstance(wf, Waveform):
            raise EncodeError("WAVEFORM requires a Waveform payload")
        flags = int(wf.action) | (int(bool(wf.ta)) << 2)
        if wf.action is WF_PLAY:
            payload = (_check_field("waveform addr", wf.addr, ADDR_BITS) << COUNT_BITS) \
                | _check_field("waveform count", wf.count, COUNT_BITS)
        elif wf.action is WF_PREFETCH:
            if wf.ta:
                raise EncodeError("waveform PREFETCH cannot be a TA pair")
            payload = _check_field("waveform page", wf.addr, ADDR_BITS) << COUNT_BITS
            if wf.count:
                raise EncodeError("waveform PREFETCH takes no count")
        else:
            if wf.addr or wf.count or wf.ta:
                raise EncodeError(f"waveform {wf.action.name} takes no payload")
    elif op is OP_MARKER:
        mk = instr.engine
        if not isinstance(mk, Marker):
            raise EncodeError("MARKER requires a Marker payload")
        _check_field("marker channel", mk.channel, 2)
        _check_field("marker state", mk.state, 1)
        flags = int(mk.action) | (mk.channel << 2) | (mk.state << 4)
        if mk.action is MK_PLAY:
            payload = (_check_field("marker last word", mk.last_word, 4) << COUNT_BITS) \
                | _check_field("marker count", mk.count, COUNT_BITS)
        elif mk.count or mk.last_word or mk.state:
            raise EncodeError(f"marker {mk.action.name} takes no payload")
    elif op is OP_MODULATOR:
        md = instr.engine
        if not isinstance(md, Modulator):
            raise EncodeError("MODULATOR requires a Modulator payload")
        _check_field("nco field", md.nco, 4)
        flags = int(md.action) | (md.nco << 4)
        if md.action is MOD_MODULATE:
            if md.nco >= NUM_NCOS:
                raise EncodeError(f"MODULATE nco index {md.nco} out of range")
            if md.phase_word:
                raise EncodeError("MODULATE carries a count, not a phase")
            payload = _check_field("modulate count", md.count, COUNT_BITS)
        elif md.action in _MOD_BARE:
            if md.nco or md.phase_word or md.count:
                raise EncodeError(f"modulator {md.action.name} takes no payload")
        else:
            if md.count:
                raise EncodeError(f"modulator {md.action.name} takes no count")
            payload = _check_field("phase word", md.phase_word, PHASE_BITS)
            if md.action is MOD_RESET_PHASE and md.phase_word:
                raise EncodeError("RESET_PHASE takes no phase word")
    elif op in _BARE_OPS:
        pass
    elif op is OP_LOAD_REPEAT:
        payload = _check_field("repeat value", instr.value, COUNT_BITS)
    elif op is OP_REPEAT or op is OP_PREFETCH:
        payload = _check_field("target address", instr.addr, ADDR_BITS) << COUNT_BITS
    elif op in _BRANCH_OPS:
        flags = int(bool(instr.conditional))
        payload = _check_field("target address", instr.addr, ADDR_BITS) << COUNT_BITS
    elif op is OP_CMP:
        if instr.cmp_op is None:
            raise EncodeError("CMP requires a comparison operator")
        flags = int(instr.cmp_op)
        payload = _check_field("cmp mask", instr.mask, COUNT_BITS)
    else:  # pragma: no cover - Opcode is closed
        raise EncodeError(f"unhandled opcode {op!r}")

    _check_stray(instr, op)
    return (int(op) << 56) | (flags << 48) | payload


def _check_stray(instr: Instruction, op: Opcode) -> None:
    """Reject payload fields that do not belong to the opcode."""
    if op not in _ENGINE_OPS and instr.engine is not None:
        raise EncodeError(f"{op.name} takes no engine payload")
    if op not in TARGET_OPS and instr.addr:
        raise EncodeError(f"{op.name} takes no address")
    if op is not OP_LOAD_REPEAT and instr.value:
        raise EncodeError(f"{op.name} takes no value")
    if op is not OP_CMP and (instr.cmp_op is not None or instr.mask):
        raise EncodeError(f"{op.name} takes no comparison payload")
    if op not in _BRANCH_OPS and instr.conditional:
        raise EncodeError(f"{op.name} cannot be conditional")


def decode(word: int) -> Instruction:
    """Unpack a 64-bit word; strict, so stray bits raise DecodeError."""
    if not 0 <= word < (1 << 64):
        raise DecodeError(f"word {word:#x} is not 64-bit")
    op_bits = (word >> 56) & 0xFF
    flags = (word >> 48) & 0xFF
    addr = (word >> COUNT_BITS) & ADDR_MASK
    count = word & COUNT_MASK
    phase = word & PHASE_MASK
    try:
        op = Opcode(op_bits)
    except ValueError:
        raise DecodeError(f"unknown opcode byte {op_bits:#04x}") from None

    try:
        if op is OP_WAVEFORM:
            instr = Instruction(op, engine=Waveform(
                action=WfAction(flags & 0x3), addr=addr, count=count,
                ta=bool(flags & 0x4)))
        elif op is OP_MARKER:
            instr = Instruction(op, engine=Marker(
                action=MarkerAction(flags & 0x3), channel=(flags >> 2) & 0x3,
                state=(flags >> 4) & 0x1, count=count, last_word=addr))
        elif op is OP_MODULATOR:
            action = ModAction(flags & 0x7)
            nco = (flags >> 4) & 0xF
            if action is MOD_MODULATE:
                instr = Instruction(op, engine=Modulator(action, nco=nco, count=count))
            else:
                instr = Instruction(op, engine=Modulator(action, nco=nco, phase_word=phase))
        elif op is OP_LOAD_REPEAT:
            instr = Instruction(op, value=count)
        elif op is OP_REPEAT or op is OP_PREFETCH:
            instr = Instruction(op, addr=addr)
        elif op in _BRANCH_OPS:
            instr = Instruction(op, addr=addr, conditional=bool(flags & 0x1))
        elif op is OP_CMP:
            instr = Instruction(op, cmp_op=CmpOp(flags & 0x3), mask=count)
        else:
            instr = Instruction(op)
        reencoded = encode(instr)
    except ValueError as exc:
        raise DecodeError(f"word {word:#018x}: {exc}") from None
    if reencoded != word:
        raise DecodeError(f"word {word:#018x} has reserved bits set")
    return instr


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

