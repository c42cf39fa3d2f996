"""Value-stream agreement between the simulator and the reference route.

Random structured programs (loops, calls, conditionals, modulation
windows) must produce identical ordered sample values under the pipelined
engine, which decodes ahead into the engine queues, with the modelled
instruction cache or an ideal one, and under the naive program-order
interpreter.  Timing is allowed to differ; values and their order are
not.
"""

import numpy as np
import pytest

from aps2sim.engine import EngineConfig, Sequencer
from aps2sim.mem import MemConfig

from oracle import interpret, random_program


def engine_streams(image, initial_cmp):
    seq = Sequencer(image, EngineConfig(initial_cmp=initial_cmp))
    trace = seq.run_simple()
    markers = {ch: trace.marker_levels(ch)[1] for ch in range(4)}
    return trace.analog_values(), markers


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_agree_with_the_reference(seed):
    rng = np.random.default_rng(1000 + seed)
    image, initial_cmp = random_program(rng)
    ref = interpret(image, initial_cmp)

    analog, markers = engine_streams(image, initial_cmp)
    assert np.array_equal(analog, ref["analog"]), "engine run diverges"
    for ch in range(4):
        assert np.array_equal(markers[ch], ref["markers"][ch])


@pytest.mark.parametrize("seed", [3, 11, 17])
def test_decoder_modes_do_not_change_values(seed):
    rng = np.random.default_rng(2000 + seed)
    image, initial_cmp = random_program(rng)

    base, _ = engine_streams(image, initial_cmp)
    seq = Sequencer(image, EngineConfig(initial_cmp=initial_cmp),
                    mem_cfg=MemConfig(ideal=True))
    ideal = seq.run_simple().analog_values()
    assert np.array_equal(base, ideal)
