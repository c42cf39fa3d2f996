"""Seeded benchmark workloads for aps2sim and the checks on their output.

Each workload is ``.qasm2s`` source text, a ``WaveformLibrary``, the
engine configs and the trigger schedule, all generated from one seed.
The generator also predicts what a correct run must produce: the exact
number of analog and marker samples, and the analog values, either in
closed form from its own parameters (``modloop``, ``shots``) or from the
program-order reference interpreter in ``tests/oracle.py``
(``farcall``).  A second seed changes the values, never the sample
counts.

Why these three (one workload per part of the model that dominates):

* ``modloop``: thousands of short modulated runs in a loop that fits one
  instruction-cache line, so per-run cost in ``engine.finalize`` and the
  ``mod`` layer dominates and the caches do almost nothing.
* ``farcall``: a main loop calling 16 subroutines spread over 8 lines
  each, far more than the instruction cache holds; control flow, misses,
  prefetches and underruns dominate, and there are no modulator commands.
  It is the only workload that goes through ``insert_prefetch_hints``.
* ``shots``: triggered shots with one page-long modulated readout, a
  waveform-page swap and a long TA idle each; few, very long runs, so the
  ``mod`` and export layers pay per sample, and trigger latency and page
  swap stalls exist only here.

The modelled caches start warm, as ``aps2sim.mem`` specifies.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
for _sub in ("tests", "src"):       # src ends up first on the path
    _p = str(ROOT / _sub)
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np  # noqa: E402

from aps2sim.asm import WaveformLibrary  # noqa: E402
from aps2sim.clocks import ANALOG_SAMPLE_TICKS, SEQ_CLOCK_TICKS  # noqa: E402
from aps2sim.isa import PHASE_BITS  # noqa: E402
from aps2sim.mem import MemConfig, page_fill_ticks  # noqa: E402
from aps2sim.mod import ModConfig  # noqa: E402
from oracle import interpret  # noqa: E402

NAMES = ("modloop", "farcall", "shots")

# Closed-form values are compared per I and Q component within this
# absolute tolerance.  The simulator accumulates NCO phase piecewise in
# float64 over up to ~10^6 samples; the accumulated rounding stays below
# 1e-8 turns, far inside this bound, while any wrong sample, phase
# latch or mixer term is off by orders of magnitude more.
VALUE_TOL = 1e-6

FULL_SCALE = 32768


@dataclass
class Workload:
    """One generated workload: program inputs plus what a run must give."""

    name: str
    source: str
    library: WaveformLibrary
    triggers: list[int]
    hints: bool                           # run insert_prefetch_hints
    n_analog: int                         # predicted analog samples
    n_markers: dict[int, int]             # predicted samples per channel
    mem_kwargs: dict = field(default_factory=dict)
    mod_kwargs: dict = field(default_factory=dict)
    # (image, analog_ticks) -> expected analog values, markers by channel
    expect: Callable | None = None
    value_tol: float = VALUE_TOL          # 0 demands exact equality

    def configs(self) -> tuple[MemConfig, ModConfig]:
        """Fresh configs for each Sequencer, which may adjust them."""
        return MemConfig(**self.mem_kwargs), ModConfig(**self.mod_kwargs)


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build workload ``name`` from ``seed``; ``scale`` shrinks it for tests."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return _BUILDERS[name](np.random.default_rng(seed), scale)


# ---------------------------------------------------------------------------
# helpers


def _iq(rng: np.random.Generator, n: int, amp: float) -> np.ndarray:
    """Random complex samples exactly representable as s16 pairs."""
    top = int(amp * FULL_SCALE)
    raw = rng.integers(-top, top + 1, size=(n, 2))
    return (raw[:, 0] + 1j * raw[:, 1]) / FULL_SCALE


def _word(rng: np.random.Generator, lo: float, hi: float) -> int:
    """A 48-bit phase word for a phase drawn from [lo, hi) turns."""
    return int(rng.uniform(lo, hi) * (1 << PHASE_BITS))


def _turns(word: int) -> float:
    return word / (1 << PHASE_BITS)


def _mixer(rng: np.random.Generator) -> dict:
    """A small seeded amplitude/phase imbalance and DC offset."""
    a, b, c, d = rng.uniform(-0.04, 0.04, size=4)
    return {"mixer_matrix": (1.0 + a, b, c, 1.0 + d),
            "dc_offset_i": float(rng.uniform(-0.01, 0.01)),
            "dc_offset_q": float(rng.uniform(-0.01, 0.01))}


def apply_mixer(z: np.ndarray, mod_kwargs: dict) -> np.ndarray:
    """Reference mixer correction: 2x2 matrix, DC offset, s16 clip."""
    a, b, c, d = mod_kwargs.get("mixer_matrix", (1.0, 0.0, 0.0, 1.0))
    i = a * z.real + b * z.imag + mod_kwargs.get("dc_offset_i", 0.0)
    q = c * z.real + d * z.imag + mod_kwargs.get("dc_offset_q", 0.0)
    top = (FULL_SCALE - 1) / FULL_SCALE
    return np.clip(i, -1.0, top) + 1j * np.clip(q, -1.0, top)


def _marker_run(count: int, state: int, last: int) -> np.ndarray:
    levels = np.full(4 * count, state, dtype=np.uint8)
    levels[-4:] = [(last >> (3 - bit)) & 1 for bit in range(4)]
    return levels


def _start_trigger(rng: np.random.Generator, parked: int) -> list[int]:
    """One start trigger, after the decoder has parked at the first WAIT.

    Output then starts from the same sequencer state for every seed, so
    the seed moves simulated time only by the few-thousand-tick jitter.
    """
    return [parked + int(rng.integers(0, 4_000))]


# ---------------------------------------------------------------------------
# modloop


def _modloop(rng, scale) -> Workload:
    laps = max(2, int(4000 * scale))
    half = 48
    pulse_a, pulse_b = _iq(rng, half, 0.6), _iq(rng, half, 0.6)
    inc = _word(rng, 0.01, 0.05)              # 12-60 MHz intermediate freq
    frame = _word(rng, 0.0, 1.0)
    spectators = [_word(rng, 0.0, 1.0) for _ in range(2)]
    last = int(rng.integers(0, 16))
    mod_kwargs = _mixer(rng)
    triggers = _start_trigger(rng, parked=50_000)

    lib = WaveformLibrary()
    lib.add("pa", pulse_a)
    lib.add("pb", pulse_b)
    # Two spectator frame updates (virtual Z on other qubits) make a lap
    # decode slightly slower than it plays, so every lap ends in a short
    # underrun and output_gap_ticks measures decode pacing.
    source = f"""
    WAIT
    LOAD_REPEAT {laps - 1}
lap:
    MOD SET_PHASE_INC nco=0x1 phase_word={inc:#x}
    MOD UPDATE_FRAME nco=0x1 phase_word={frame:#x}
    MOD UPDATE_FRAME nco=0x2 phase_word={spectators[0]:#x}
    MOD UPDATE_FRAME nco=0x4 phase_word={spectators[1]:#x}
    MOD MODULATE nco=0 count={2 * half}
    WAVEFORM PLAY pa
    WAVEFORM PLAY pb
    MARKER PLAY ch=0 state=1 count=3 last={last:#06b}
    REPEAT lap
"""
    lap_pulse = np.concatenate([pulse_a, pulse_b])
    lap_marker = _marker_run(3, 1, last)

    def expect(image, ticks):
        lap_idx = np.arange(len(ticks)) // (2 * half)
        # NCO 0 free-runs from the first sample; lap k carries k+1 frame
        # updates (each latches just before its lap's first sample).
        phase = (_turns(inc) * (ticks - ticks[0]) / ANALOG_SAMPLE_TICKS
                 + (lap_idx + 1) * _turns(frame) % 1.0)
        z = np.tile(lap_pulse, laps) * np.exp(2j * np.pi * phase)
        return apply_mixer(z, mod_kwargs), {0: np.tile(lap_marker, laps)}

    return Workload("modloop", source, lib, triggers, hints=False,
                    n_analog=laps * 2 * half,
                    n_markers={0: laps * len(lap_marker)},
                    mod_kwargs=mod_kwargs, expect=expect)


# ---------------------------------------------------------------------------
# farcall

LINE = 128
SUB_LINES = 8          # each subroutine owns 8 cache lines (1 k instructions)
N_SUBS = 16
PULSE_LENGTHS = (8, 16, 24, 32)


def _farcall(rng, scale) -> Workload:
    laps = max(1, int(250 * scale))
    spacing = max(1, round(SUB_LINES * scale))
    lib = WaveformLibrary()
    for n in PULSE_LENGTHS:
        lib.add(f"p{n}", _iq(rng, n, 0.9))
    # The layout, pulse lengths and call order are fixed, so cache
    # behaviour and simulated timing are the same for every seed; the
    # seed draws the pulse shapes and marker words.  Consecutive calls
    # go 5 subroutines (40 lines) apart.
    order = [(5 * k) % N_SUBS for k in range(N_SUBS)]
    lasts = rng.integers(0, 16, size=N_SUBS)
    triggers = _start_trigger(rng, parked=500_000)

    # engine-level waits start the sequence without queueing a modulator
    # command, so the modulation pass has nothing to do on this workload
    lines = ["    WAVEFORM WAIT"]
    lines += [f"    MARKER WAIT ch={ch}" for ch in range(4)]
    lines.append("    GOTO main")
    per_lap_analog = 0
    per_lap_markers = {ch: 0 for ch in range(4)}
    for s in range(N_SUBS):
        # pad with code this program never runs (a routine library the
        # main loop does not use) so subroutine s starts on line 8*s + 1
        target = (spacing * s + 1) * LINE
        while len(lines) < target:
            n = PULSE_LENGTHS[len(lines) % len(PULSE_LENGTHS)]
            lines.append(f"    WAVEFORM PLAY p{n}")
        lines.append(f"sub{s}:")
        lines.append(f"    MARKER PLAY ch={s % 4} state=1 count=2 "
                     f"last={lasts[s]:#06b}")
        for j in range(3):
            n = PULSE_LENGTHS[(s + j) % len(PULSE_LENGTHS)]
            lines.append(f"    WAVEFORM PLAY p{n}")
            per_lap_analog += n
        lines.append("    RETURN")
        per_lap_markers[s % 4] += 8
    lines.append("main:")
    lines.append(f"    LOAD_REPEAT {laps - 1}")
    lines.append("loop:")
    lines.extend(f"    CALL sub{s}" for s in order)
    lines.append("    REPEAT loop")
    source = "\n".join(lines) + "\n"

    def expect(image, ticks):
        ref = interpret(image, max_steps=50_000_000)
        return ref["analog"], ref["markers"]

    return Workload("farcall", source, lib, triggers, hints=True,
                    n_analog=laps * per_lap_analog,
                    n_markers={ch: laps * n
                               for ch, n in per_lap_markers.items() if n},
                    expect=expect, value_tol=0.0)


# ---------------------------------------------------------------------------
# shots

PAGE = 16384           # waveform cache page, samples
PAGES = 4              # distinct readout pages cycled in deep memory


def _shots(rng, scale) -> Workload:
    n_shots = max(2, int(40 * scale))
    page = max(64, int(PAGE * scale) // 64 * 64)
    readout = page - 8                 # last samples of each page are idle
    idle = max(64, int(50_000 * scale))
    inc = _word(rng, 0.01, 0.05)
    mod_kwargs = _mixer(rng)
    mem_kwargs = {"wave_mode": "pingpong", "wave_page_samples": page}

    lib = WaveformLibrary()
    pages = []
    for k in range(PAGES):
        body = np.zeros(page, dtype=np.complex128)
        body[:readout] = _iq(rng, readout, 0.6)
        lib.add(f"page{k}", body)
        pages.append(body[:readout])

    lines = [f"    MOD SET_PHASE_INC nco=0x1 phase_word={inc:#x}"]
    for k in range(n_shots):
        lines += [
            "    WAIT",
            "    MOD RESET_PHASE nco=0x1",
            f"    MOD MODULATE nco=0 count={readout}",
            f"    WAVEFORM PLAY addr=0 count={readout}",
            f"    MARKER PLAY ch=1 state=1 count={readout // 4}",
            f"    WAVEFORM PREFETCH page={(k + 1) % PAGES}",
            f"    WAVEFORM PLAY addr={page - 1} count={idle} ta",
        ]
    source = "\n".join(lines) + "\n"

    # Triggers leave room for the page fill and the idle play, plus a
    # seeded margin, so each shot starts from an idle output.
    period = (page_fill_ticks(MemConfig(**mem_kwargs))
              + ANALOG_SAMPLE_TICKS * idle + 20 * SEQ_CLOCK_TICKS)
    triggers = []
    t = int(rng.integers(1_000, 5_000))
    for _ in range(n_shots):
        triggers.append(t)
        t += period + int(rng.integers(0, 4_000))

    shot_len = readout + idle

    def expect(image, ticks):
        z = np.zeros(len(ticks), dtype=np.complex128)
        for k in range(n_shots):
            lo = k * shot_len
            rel = (ticks[lo:lo + readout] - ticks[lo]) / ANALOG_SAMPLE_TICKS
            # RESET_PHASE latches on the shot's first readout sample
            z[lo:lo + readout] = (pages[k % PAGES]
                                  * np.exp(2j * np.pi * _turns(inc) * rel))
        gate = np.ones(readout, dtype=np.uint8)
        return apply_mixer(z, mod_kwargs), {1: np.tile(gate, n_shots)}

    return Workload("shots", source, lib, triggers, hints=False,
                    n_analog=n_shots * shot_len,
                    n_markers={1: n_shots * readout},
                    mem_kwargs=mem_kwargs, mod_kwargs=mod_kwargs,
                    expect=expect)


_BUILDERS = {"modloop": _modloop, "farcall": _farcall, "shots": _shots}
