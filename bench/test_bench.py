"""The benchmark's own checks, on workloads shrunk to run in a second."""

import json

import numpy as np
import pytest

import run
import workloads

SMALL = 0.05


def one_op(w):
    seq, image, _ = run.setup(w)
    return run.operation(seq, w), image


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_check(name):
    w = workloads.make(name, 7, scale=SMALL)
    seq, image, _ = run.setup(w)
    checker = run.Checker(w, image)
    assert checker.problems(run.operation(seq, w)) == []
    # a second operation must repeat the first one's timing exactly
    again = run.operation(run.new_sequencer(w, image), w)
    assert checker.problems(again) == []


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_repeats_and_new_seed_changes_values(name):
    first, _ = one_op(workloads.make(name, 3, scale=SMALL))
    same, _ = one_op(workloads.make(name, 3, scale=SMALL))
    other, _ = one_op(workloads.make(name, 4, scale=SMALL))
    triggers = workloads.make(name, 3, scale=SMALL).triggers
    assert (run.simulated(first.ticks, triggers)
            == run.simulated(same.ticks, triggers))
    assert np.array_equal(first.ticks, same.ticks)
    assert np.array_equal(first.values, same.values)

    assert len(other.values) == len(first.values)
    assert ({ch: len(v) for ch, v in other.markers.items()}
            == {ch: len(v) for ch, v in first.markers.items()})
    assert not np.array_equal(other.values, first.values)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_sample_counts_as_a_failed_operation(name):
    w = workloads.make(name, 5, scale=SMALL)
    seq, image, _ = run.setup(w)
    tally = run.Tally(run.Checker(w, image))
    assert tally.run(lambda: run.operation(seq, w)) is not None

    def corrupted():
        out = run.operation(run.new_sequencer(w, image), w)
        out.values[len(out.values) // 2] += 1e-3
        return out

    assert tally.run(corrupted) is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_every_benchmark_metric_is_emitted_with_its_unit():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    w = workloads.make("shots", 2, scale=SMALL)
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        report, _, tally = run.run_workload(w, 0.0, trace)
        assert tally.failed == 0
        assert ({m["name"]: m["unit"] for m in spec[key]}
                == {name: v["unit"] for name, v in report.items()})
