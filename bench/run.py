#!/usr/bin/env python3
"""Benchmark of aps2sim: simulator speed on the host and modelled timing.

One run builds a workload from its seed, runs it through the public API,
checks every operation's output and prints each metric by name with its
unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload modloop --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 25 --out bench/results.json

``--trace 0`` reports the end-to-end metrics: host throughput from an
untraced pass, set-up time, and peak memory from a separate
``tracemalloc`` pass of one operation.  ``--trace 1`` reports per-layer
self times and counters from a traced pass, and the tracing overhead.
``--all`` runs both for every workload and writes the numbers with the
run metadata to ``--out``.  The exit code is non-zero when any output
check fails.

Host time is wall time of this process, scaled to a reference host
speed: a fixed probe (``calibrate.py``) is timed between operations and
each set-up and operation time is multiplied by
``calibrate.REFERENCE_S / probe seconds``, which cancels the drift of a
shared host.  Metrics are medians over the run; the unscaled median
rate is printed beside them.  Simulated time is ticks of the
modelled hardware (1 tick = 1/6 ns), taken from ``analog_ticks()`` and
the trigger list the benchmark supplied.  The model has not been
validated against hardware: the benchmark reports agreement with its own
reference checks, not an error figure.

One operation is ``Sequencer.run_simple(triggers=...)`` followed by
reading the whole trace out (``analog_values()``, ``analog_ticks()`` and
``marker_levels(ch)`` for every channel), all inside the timed region.
The load is a closed loop: one process, one thread, the next operation
starting when the previous one ends, after one untimed warm-up.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, so the closed loop is one
# thread; the setting is recorded in the run metadata.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__" and not (ROOT / "src" / "aps2sim").is_dir():
    sys.exit(f"bench: no aps2sim sources under {ROOT / 'src'}")

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from aps2sim.asm import assemble, insert_prefetch_hints  # noqa: E402
from aps2sim.clocks import (  # noqa: E402
    ANALOG_SAMPLE_TICKS, SEQ_CLOCK_TICKS, TICKS_PER_NS, align_up)
from aps2sim.engine import Sequencer  # noqa: E402
from aps2sim.isa import NUM_MARKER_CHANNELS, ProgramImage  # noqa: E402
from aps2sim.mod import MixerCorrector, ModEngine  # noqa: E402

VALIDATION = ("The aps2sim model has not been validated against hardware; "
              "these figures report agreement with the benchmark's own "
              "reference checks, not an error against hardware.")

END_TO_END = {
    "samples_per_s": "samples/s",     # host: analog samples / op time
    "decodes_per_s": "instr/s",       # host: Sequencer.decodes / op time
    "setup_s": "s",                   # host: text -> Sequencer(...)
    "peak_mem_mb": "MB",              # host: tracemalloc peak of one op
    "sim_us": "us",                   # simulated: tick 0 to last sample end
    "output_gap_ticks": "ticks",      # simulated: idle between samples
    "trigger_latency_ticks": "ticks",  # simulated: p50 edge -> sample
}

PER_LAYER = {
    "engine.decode_s": "s",
    "engine.decodes": "count",
    "engine.finalize_s": "s",
    "engine.analog_runs": "count",
    "engine.events": "count",
    "engine.trigger_s": "s",
    "mem.icache_s": "s",
    "mem.icache_reads": "count",
    "mem.icache_misses": "count",
    "mem.icache_hit_ratio": "ratio",
    "mem.icache_prefetches": "count",
    "mem.icache_events": "count",
    "mem.stall_ticks": "ticks",
    "mem.wave_s": "s",
    "mem.swap_stall_ticks": "ticks",
    "mod.resolve_s": "s",
    "mod.commands": "count",
    "mod.mixer_s": "s",
    "mod.mixer_calls": "count",
    "mod.saturations": "count",
    "asm.assemble_s": "s",
    "asm.hints_s": "s",
    "asm.hints_inserted": "count",
    "isa.decode_all_s": "s",
    "export.values_s": "s",
    "export.ticks_s": "s",
    "export.markers_s": "s",
    "trace.overhead_s": "s",
}

MIN_OPS = 3              # timed operations per pass, however long they take
SETUP_SHARE = 0.25       # most of a pass timed set-ups may take


# ---------------------------------------------------------------------------
# one set-up, one operation


def setup(w: workloads.Workload, tracer: Tracer | None = None):
    """Source text -> image -> Sequencer; returns (seq, image, seconds)."""
    span = tracer.span if tracer else _no_span
    t0 = perf_counter()
    with span("asm.assemble"):
        image = assemble(w.source, w.library)
    if w.hints:
        with span("asm.hints"):
            image = insert_prefetch_hints(image)
    seq = new_sequencer(w, image)
    return seq, image, perf_counter() - t0


def new_sequencer(w: workloads.Workload, image: ProgramImage) -> Sequencer:
    mem_cfg, mod_cfg = w.configs()
    return Sequencer(image, mem_cfg=mem_cfg, mod_cfg=mod_cfg)


def _no_span(name):
    return nullcontext()


@dataclass
class Output:
    seconds: float
    decodes: int
    values: np.ndarray
    ticks: np.ndarray
    markers: dict[int, np.ndarray]     # channel -> levels
    trace: object
    layers: dict | None = None         # per-layer metrics, traced pass


def operation(seq: Sequencer, w: workloads.Workload,
              tracer: Tracer | None = None) -> Output:
    """One timed operation: run, then read the whole trace out."""
    span = tracer.span if tracer else _no_span
    t0 = perf_counter()
    trace = seq.run_simple(triggers=w.triggers)
    with span("export.values"):
        values = trace.analog_values()
    with span("export.ticks"):
        ticks = trace.analog_ticks()
    with span("export.markers"):
        markers = {ch: trace.marker_levels(ch)[1]
                   for ch in range(NUM_MARKER_CHANNELS)}
    seconds = perf_counter() - t0
    return Output(seconds, seq.decodes, values, ticks, markers, trace)


# ---------------------------------------------------------------------------
# simulated metrics and output checks


def simulated(ticks: np.ndarray, triggers: list[int]) -> dict:
    """Modelled timing from sample ticks and the scheduled triggers."""
    edges = np.array([align_up(t, SEQ_CLOCK_TICKS) for t in triggers],
                     dtype=np.int64)
    step = np.diff(ticks) - ANALOG_SAMPLE_TICKS
    gap_at = np.flatnonzero(step > 0)
    # a gap holding a scheduled trigger edge is waiting, not a stall
    holds_edge = (np.searchsorted(edges, ticks[gap_at], side="right")
                  < np.searchsorted(edges, ticks[gap_at + 1], side="right"))
    first = np.searchsorted(ticks, edges)
    latencies = sorted(int(ticks[i] - e) for i, e in zip(first, edges)
                       if i < len(ticks))
    return {
        "sim_us": (int(ticks[-1]) + ANALOG_SAMPLE_TICKS)
        / (1000 * TICKS_PER_NS),
        "output_gap_ticks": int(step[gap_at[~holds_edge]].sum()),
        "latencies": latencies,
    }


def latency_summary(latencies: list[int]) -> dict:
    """p50 and the highest percentile with at least ten shots beyond it."""
    n = len(latencies)
    out = {"trigger_latency_ticks": float(statistics.median(latencies)),
           "shots": n}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        rank = math.ceil(pct / 100 * n)          # nearest-rank percentile
        out[f"trigger_latency_p{pct}_ticks"] = latencies[rank - 1]
    return out


class Checker:
    """Checks each operation against the generator's predictions.

    The run's first checked operation fixes the reference timing; every
    later one must repeat it exactly.  Expected values come from the
    workload's closed form or the reference interpreter.
    """

    def __init__(self, w: workloads.Workload, image: ProgramImage):
        self.w = w
        self.image = image
        self.ticks = None
        self.sim = None
        self.decodes = None
        self.expected = None

    def problems(self, out: Output) -> list[str]:
        w = self.w
        found = []
        if len(out.values) != w.n_analog or len(out.ticks) != w.n_analog:
            found.append(f"{len(out.values)} analog samples, "
                         f"predicted {w.n_analog}")
        for ch, levels in out.markers.items():
            if len(levels) != w.n_markers.get(ch, 0):
                found.append(f"{len(levels)} samples on marker {ch}, "
                             f"predicted {w.n_markers.get(ch, 0)}")
        if found:
            return found
        sim = simulated(out.ticks, w.triggers)
        if self.ticks is None:
            self.ticks, self.sim = out.ticks.copy(), sim
            self.decodes = out.decodes
            self.expected = w.expect(self.image, out.ticks)
        elif (sim != self.sim or out.decodes != self.decodes
              or not np.array_equal(out.ticks, self.ticks)):
            found.append("simulated timing differs between operations")
        values, markers = self.expected
        if w.value_tol == 0:
            if not np.array_equal(out.values, values):
                found.append("analog values differ from the reference")
        else:
            err = max(np.max(np.abs(out.values.real - values.real)),
                      np.max(np.abs(out.values.imag - values.imag)))
            if not err <= w.value_tol:
                found.append(f"analog values off by {err:.3g} "
                             f"(tolerance {w.value_tol:g})")
        for ch, levels in markers.items():
            if not np.array_equal(out.markers[ch], levels):
                found.append(f"marker {ch} levels differ from the reference")
        return found


class Tally:
    """Operations attempted and failed; a raise or a failed check fails."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def run(self, fn) -> Output | None:
        """Run one operation; returns its output if it passed."""
        self.attempted += 1
        try:
            out = fn()
            found = self.checker.problems(out)
        except Exception:      # any failure counts against the run
            traceback.print_exc()
            self.failed += 1
            return None
        if found:
            print(f"check failed: {'; '.join(found)}", file=sys.stderr)
            self.failed += 1
            return None
        return out


# ---------------------------------------------------------------------------
# passes


def _loop(seconds: float):
    """Yield until the pass has run `seconds` and at least MIN_OPS times."""
    end = perf_counter() + seconds
    n = 0
    while n < MIN_OPS or perf_counter() < end:
        yield n
        n += 1


def _timed(seq: Sequencer, w: workloads.Workload,
           tracer: Tracer | None = None):
    def fn():
        gc.collect()
        return operation(seq, w, tracer)
    return fn


def end_to_end(w: workloads.Workload, seconds: float):
    """Untraced pass, then the tracemalloc pass; returns metrics, tally.

    Timed set-ups are spread over the pass: an operation gets a fresh
    set-up while set-ups have taken under SETUP_SHARE of the pass so far,
    else a new Sequencer for the image.  The host-speed probe runs before
    the first and after each operation; each set-up and operation is
    scaled by the mean of the probes on either side of it.
    """
    gc.collect()
    seq, image, _ = setup(w)
    tally = Tally(Checker(w, image))
    tally.run(_timed(seq, w))                       # warm-up, untimed
    probes = [calibrate.probe()]
    setups, times, raw = [], [], []
    start, spent = perf_counter(), 0.0
    for _ in _loop(seconds):
        gc.collect()
        took = None
        if spent <= SETUP_SHARE * (perf_counter() - start):
            seq, _, took = setup(w)
            spent += took
        else:
            seq = new_sequencer(w, image)
        out = tally.run(_timed(seq, w))
        probes.append(calibrate.probe())
        scale = calibrate.REFERENCE_S / statistics.mean(probes[-2:])
        if took is not None:
            setups.append(took * scale)
        if out is not None:
            times.append(out.seconds * scale)
            raw.append(out.seconds)

    peak = []

    def traced_memory():
        seq = new_sequencer(w, image)
        gc.collect()
        tracemalloc.start()
        try:
            out = operation(seq, w)
            peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out
    tally.run(traced_memory)

    checker = tally.checker
    if not times or not peak or checker.sim is None:
        return {}, tally, {}
    lat = latency_summary(checker.sim["latencies"])
    # every checked operation produced these same counts
    samples, decodes = w.n_analog, checker.decodes
    op_s = statistics.median(times)
    metrics = {
        "samples_per_s": samples / op_s,
        "decodes_per_s": decodes / op_s,
        "setup_s": statistics.median(setups),
        "peak_mem_mb": peak[0] / 1e6,
        "sim_us": checker.sim["sim_us"],
        "output_gap_ticks": checker.sim["output_gap_ticks"],
        "trigger_latency_ticks": lat.pop("trigger_latency_ticks"),
    }
    extra = dict(lat, error_rate=tally.failed / tally.attempted,
                 samples_per_s_unscaled=samples / statistics.median(raw),
                 probe_s=statistics.median(probes),
                 timed_ops=len(times))
    return metrics, tally, extra


def _stall(event) -> int:
    """Stall ticks of a cache event or an engine fetch_stall event."""
    if hasattr(event, "stall"):
        return event.stall
    return event.detail.get("ticks", 0)


LAYER_SPANS = {                 # metric -> spans whose self time it sums
    "engine.decode_s": ("engine.decode",),
    "engine.finalize_s": ("engine.finalize",),
    "engine.trigger_s": ("engine.trigger",),
    "mem.icache_s": ("mem.icache.read", "mem.icache.prefetch"),
    "mem.wave_s": ("mem.wave.read", "mem.wave.prefetch", "mem.wave.swap"),
    "mod.resolve_s": ("mod.resolve",),
    "mod.mixer_s": ("mod.mixer",),
    "export.values_s": ("export.values",),
    "export.ticks_s": ("export.ticks",),
    "export.markers_s": ("export.markers",),
}
LAYER_CALLS = {                 # metric -> span whose call count it is
    "mem.icache_reads": "mem.icache.read",
    "mem.icache_prefetches": "mem.icache.prefetch",
    "mod.mixer_calls": "mod.mixer",
}


def traced_operation(w: workloads.Workload, image: ProgramImage) -> Output:
    """One operation with spans around each layer's entry points."""
    tracer = Tracer()
    seq = new_sequencer(w, image)
    tracer.wrap_instance("engine.decode", seq, "run_until_blocked")
    tracer.wrap_instance("engine.trigger", seq, "deliver_trigger")
    tracer.wrap_instance("engine.finalize", seq, "finalize")
    icache = getattr(seq, "icache", None)
    tracer.wrap_instance("mem.icache.read", icache, "read_instruction")
    tracer.wrap_instance("mem.icache.prefetch", icache, "prefetch_line")
    wavecache = getattr(seq, "wavecache", None)
    tracer.wrap_instance("mem.wave.read", wavecache, "read")
    tracer.wrap_instance("mem.wave.prefetch", wavecache, "begin_prefetch")
    tracer.wrap_instance("mem.wave.swap", wavecache, "complete_swap")
    gc.collect()
    with tracer.patch_class("mod.resolve", ModEngine, "resolve"), \
            tracer.patch_class("mod.mixer", MixerCorrector, "apply"):
        out = operation(seq, w, tracer)

    layers = {}
    for metric, names in LAYER_SPANS.items():
        if not tracer.missing.intersection(names):
            layers[metric] = sum(tracer.self_s[n] for n in names)
    for metric, name in LAYER_CALLS.items():
        if name not in tracer.missing:
            layers[metric] = tracer.calls[name]
    trace = out.trace
    counters = {
        "engine.decodes": lambda: seq.decodes,
        "engine.analog_runs": lambda: len(trace.analog),
        "engine.events": lambda: len(trace.events),
        "mem.icache_misses": lambda: seq.icache.misses,
        "mem.icache_hit_ratio": lambda: seq.icache.hits / max(
            1, seq.icache.hits + seq.icache.misses),
        "mem.icache_events": lambda: len(seq.icache.events),
        "mem.stall_ticks": lambda: sum(
            _stall(e) for e in seq.cache_stall_events()),
        "mem.swap_stall_ticks": lambda: sum(
            e.stall for e in seq.wavecache.stall_events()),
        "mod.commands": lambda: seq.modeng.pending_commands(),
        "mod.saturations": lambda: trace.saturations,
    }
    for metric, read in counters.items():
        try:
            layers[metric] = read()
        except AttributeError:          # counter gone: report it absent
            pass
    out.layers = layers
    return out


def traced_setup(w: workloads.Workload) -> dict:
    tracer = Tracer()
    with tracer.patch_class("isa.decode_all", ProgramImage, "decode_all"):
        gc.collect()
        _, image, _ = setup(w, tracer)
    layers = {"asm.assemble_s": tracer.self_s["asm.assemble"],
              "asm.hints_s": tracer.self_s["asm.hints"],
              "asm.hints_inserted": len(image.prefetch_manifest)}
    if "isa.decode_all" not in tracer.missing:
        layers["isa.decode_all_s"] = tracer.self_s["isa.decode_all"]
    return layers


def per_layer(w: workloads.Workload, seconds: float):
    """Traced pass, alternating with untraced operations for the overhead."""
    setups = [traced_setup(w) for _ in range(3)]
    seq, image, _ = setup(w)
    tally = Tally(Checker(w, image))
    tally.run(_timed(seq, w))                       # warm-up, untimed
    plain, traced = [], []
    for i in _loop(seconds):
        if i % 2:
            out = tally.run(lambda: traced_operation(w, image))
            if out is not None:
                traced.append(out)
        else:
            out = tally.run(_timed(new_sequencer(w, image), w))
            if out is not None:
                plain.append(out.seconds)
    if not traced or not plain:
        return {}, tally
    metrics = {}
    for rows in (setups, [o.layers for o in traced]):
        for name in rows[0]:
            metrics[name] = statistics.median(r[name] for r in rows)
    metrics["trace.overhead_s"] = (
        statistics.median(o.seconds for o in traced)
        - statistics.median(plain))
    return {k: metrics[k] for k in PER_LAYER if k in metrics}, tally


# ---------------------------------------------------------------------------
# reporting


def metadata(seed: int, seconds: float) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, 1 process, 1 thread, 1 untimed warm-up",
        "validation": VALIDATION,
    }


def run_workload(w: workloads.Workload, seconds: float, trace: bool):
    """One pass over one workload; returns (report, extra, tally)."""
    name = w.name
    if trace:
        metrics, tally = per_layer(w, seconds)
        units, extra = PER_LAYER, {}
    else:
        metrics, tally, extra = end_to_end(w, seconds)
        units = END_TO_END
    missing = [m for m in units if m not in metrics]
    report = {m: {"value": metrics[m], "unit": units[m]}
              for m in units if m in metrics}
    for m, v in report.items():
        print(f"{name} {m} = {v['value']:.6g} {v['unit']}")
    for m, v in extra.items():
        print(f"{name} {m} = {v:.6g}")
    if missing:
        print(f"{name} absent: {', '.join(missing)}")
    return report, extra, tally


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=workloads.NAMES)
    which.add_argument("--all", action="store_true",
                       help="every workload, both passes; writes --out")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / "bench" / "results.json")
    args = ap.parse_args(argv)

    meta = metadata(args.seed, args.seconds)
    print("# meta " + json.dumps(meta))
    if args.all:
        results, e2e_reports = {}, {}
        attempted = failed = 0
        for name in workloads.NAMES:
            w = workloads.make(name, args.seed)
            e2e, extra, t0 = run_workload(w, args.seconds, False)
            layers, _, t1 = run_workload(w, args.seconds, True)
            results[name] = {"end_to_end": e2e, "extra": extra,
                             "per_layer": layers,
                             "attempted": t0.attempted + t1.attempted,
                             "failed": t0.failed + t1.failed}
            e2e_reports[name] = e2e
            attempted += t0.attempted + t1.attempted
            failed += t0.failed + t1.failed
        args.out.write_text(json.dumps(
            {"meta": meta, "workloads": results}, indent=1) + "\n")
        print(f"wrote {args.out}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": e2e_reports}))
        return 1 if failed else 0

    report, _, tally = run_workload(workloads.make(args.workload, args.seed),
                                    args.seconds, bool(args.trace))
    print(json.dumps({"correct": tally.failed == 0 and bool(report),
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": report}))
    return 1 if tally.failed or not report else 0


if __name__ == "__main__":
    sys.exit(main())
