"""Common tick clock for every hardware model in the package.

All timing is integer ticks of a single virtual clock chosen so that every
clock domain in the stack has an integer period:

    tick        = 1/6 ns          (6 GHz)
    sequencer   = 20 ticks        (300 MHz instruction dispatch)
    analog      = 5 ticks         (1.2 GS/s DAC sample, also marker sample)

Nanoseconds are ticks/6 exactly; keep ticks everywhere and convert only at
report boundaries.
"""

from __future__ import annotations

__all__ = [
    "TICKS_PER_NS",
    "SEQ_CLOCK_TICKS",
    "ANALOG_SAMPLE_TICKS",
    "PIPELINE_TICKS",
    "ANALOG_SAMPLE_HZ",
    "ns_to_ticks",
    "align_up",
]

TICKS_PER_NS = 6
SEQ_CLOCK_TICKS = 20
ANALOG_SAMPLE_TICKS = 5

# engine dispatch to first output sample, fixed in the gateware; the NCO
# rotation stage sits this far ahead of the output plane
PIPELINE_TICKS = 9 * SEQ_CLOCK_TICKS

ANALOG_SAMPLE_HZ = 1.2e9


def ns_to_ticks(ns: float) -> int:
    """Convert nanoseconds to the nearest integer tick count."""
    return round(ns * TICKS_PER_NS)


def align_up(tick: int, period: int) -> int:
    """Round tick up to the next multiple of period (identity if aligned)."""
    return -(-tick // period) * period
