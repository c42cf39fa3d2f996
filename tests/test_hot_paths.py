"""Tooling guard: the per-instruction paths stay cheap.

On CPython 3.11 reading an enum member through its class, as in
``Opcode.WAVEFORM``, costs about ten reads of a module global, and a
config ``@property`` is a Python call; the decode loop would pay either
thousands of times per run.  So the members are bound once as module
globals (``isa.OP_*``, ``WF_*``, ``MK_*``, ``MOD_*``, ``CMP_*`` and
``events.EV_*``).  The fixed timing is module constants
(``clocks.PIPELINE_TICKS``, ``mem.HIT_LATENCY_TICKS`` and the like), read
as globals, and no config class derives a value in a property any more.
This check fails on any function of the hot paths that reads a member
through its enum class or a config property, so a property added back
is caught where a hot path reads it.  A second check keeps ``np.unique``
out of the per-block sample paths (``trace._Rotation.rotate``,
``trace._held``, ``MixerCorrector.apply`` and the read-out's
``trace._expand``) and out of the grouping of runs (``trace._keys``,
``trace._groups_among`` and ``trace._groups``).  A third keeps the
per-PLAY queue room check on a plain list after laps are copied: every
run it can read is a row of the start column, never a value a chunk
stands for, and the dispatch column's rows stay parallel to the
starts'.  A fourth keeps every copy
of a column on one int step, which needs each layer that records
events, the waveform engine with its underruns among them, to keep its
own log.  A fifth keeps one lap copy path: ``laps.py`` calls
``_copy_laps`` and the state restore once each, so a second path beside
the first adds a call site.  Every module of the package is either
listed here or named cold, so a new module cannot slip past the first
check.
"""

import ast
import inspect
import pkgutil
import textwrap
from collections import Counter

import numpy as np
import pytest

import aps2sim
from aps2sim import asm, column, engine, events, isa, laps, mem, mod, trace
from aps2sim.asm import insert_prefetch_hints
from aps2sim.clocks import PIPELINE_TICKS
from aps2sim.engine import EngineConfig, Sequencer
from aps2sim.isa import (Instruction, Marker, MarkerAction, ModAction,
                         Modulator, Opcode, ProgramImage, Waveform, WfAction,
                         encode)
from aps2sim.laps import LapRecorder

from oracle import random_program

ENUMS = {"Opcode", "WfAction", "MarkerAction", "ModAction", "CmpOp",
         "EventKind"}

# functions, and classes whose every method but a constructor, that run
# per decoded instruction, engine command or modulator command, or per
# modulator command chunk, copied event, NCO or output block; and set-up's
# per-line and per-word passes (asm._split_line and asm._build run once per
# distinct line, so they are not here)
HOT = {
    asm: ["_labels", "assemble", "_sites", "_is_far", "_block_start",
          "_entry_end", "_mover", "_relocation", "_moved_words",
          "_hint_sites", "_plan", "insert_prefetch_hints",
          "strip_prefetch_hints"],
    engine: ["Sequencer", "_StreamEngine", "WaveformEngine", "MarkerEngine",
             "_compare"],
    laps: ["LapRecorder", "_steady", "_kept", "_state_key", "_restore",
           "_lap_key", "_affine_laps"],
    trace: ["_mix", "_held", "_phases", "_keys", "_groups_among", "_groups",
            "_Rotation", "_ramps", "_expand"],
    mem: ["InstructionCache", "WaveformCache"],
    events: ["EventLog", "_copies"],
    column: ["Column"],
    mod: ["ModEngine", "_nco_states", "MixerCorrector"],
    isa: ["encode", "_Layout", "decode", "decode_table",
          "ProgramImage.decode_all", "validate_program"],
}
CONSTRUCTORS = {"__init__", "reset"}     # read the configs once, by design
COLD = {"clocks"}        # tick constants and helpers: no enum or config


def config_properties(module) -> set[str]:
    """@property names of the config classes the module defines or
    imports at run time."""
    names = set()
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__name__.endswith("Config"):
            names |= {n for n, v in vars(obj).items()
                      if isinstance(v, property)}
    return names


def hot_functions():
    for module, names in HOT.items():
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)
            if inspect.isfunction(obj):
                yield module, name, obj
                continue
            for attr, fn in vars(obj).items():
                if inspect.isfunction(fn) and attr not in CONSTRUCTORS:
                    yield module, f"{name}.{attr}", fn


def slow_reads(source: str, properties: set[str]) -> list[str]:
    """Every Enum.MEMBER read and every read of a name in properties."""
    found = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ENUMS:
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
        elif node.attr in properties:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


# a hot path reads the configs it is handed, not only those its module
# imports (the lap code reads the sequencer's)
PROPERTIES = set().union(*map(config_properties, HOT))
CASES = [(f"{m.__name__}.{name}", fn, PROPERTIES)
         for m, name, fn in hot_functions()]


@pytest.mark.parametrize("fn, properties", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_hot_path_reads_no_enum_member_or_config_property(fn, properties):
    assert slow_reads(inspect.getsource(fn), properties) == []


# per output block, numpy 2's hash-based np.unique costs about eight times
# a sort and a neighbour mask on a block's few thousand cut points; and
# np.unique(axis=0) over the runs' key columns costs many times the sort
# of one 64-bit mix that groups them
BLOCK_PATHS = [trace._Rotation.rotate, trace._held, mod.MixerCorrector.apply,
               trace._groups, trace._keys, trace._groups_among,
               trace._expand]


def unique_calls(source: str) -> list[str]:
    """Every call of a function named unique."""
    return [f"line {node.lineno}" for node in ast.walk(
        ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "unique"
            or getattr(node.func, "id", None) == "unique")]


@pytest.mark.parametrize("fn", BLOCK_PATHS, ids=lambda fn: fn.__qualname__)
def test_block_path_calls_no_unique(fn):
    assert unique_calls(inspect.getsource(fn)) == []


def test_the_unique_guard_sees_a_call():
    source = '''
    def f(cut):
        return np.unique(cut)
    '''
    assert unique_calls(source) == ["line 3"]


class FixtureConfig:
    """A config class with a derived value, as the guard would see one;
    the package's configs have none left."""

    gap_clocks = 2

    @property
    def gap_ticks(self) -> int:
        return 20 * self.gap_clocks


def test_the_guard_sees_both_kinds_of_read():
    source = '''
    def f(self, op):
        if op is Opcode.WAVEFORM:
            return self.cfg.gap_ticks
    '''
    module = type(engine)("fixture")
    module.FixtureConfig = FixtureConfig
    assert config_properties(module) == {"gap_ticks"}
    assert slow_reads(source, config_properties(module)) == [
        "line 3: Opcode.WAVEFORM", "line 4: .gap_ticks"]


def test_every_hot_name_exists():
    assert len(CASES) > 40
    assert {"aps2sim.engine.Sequencer._execute",
            "aps2sim.engine.Sequencer.run_until_blocked",
            "aps2sim.engine._StreamEngine.deliver_trigger",
            "aps2sim.mem.InstructionCache.read_instruction",
            "aps2sim.mod.ModEngine.resolve",
            "aps2sim.mod._nco_states",
            "aps2sim.trace._ramps",
            "aps2sim.trace._Rotation.rotate",
            "aps2sim.trace._mix",
            "aps2sim.trace._held",
            "aps2sim.trace._phases",
            "aps2sim.trace._keys",
            "aps2sim.trace._groups",
            "aps2sim.trace._groups_among",
            "aps2sim.trace._expand",
            "aps2sim.laps.LapRecorder.skip_laps",
            "aps2sim.laps.LapRecorder._repeat",
            "aps2sim.laps.LapRecorder._moves",
            "aps2sim.laps._affine_laps",
            "aps2sim.mod.MixerCorrector.apply",
            "aps2sim.column.Column.repeat",
            "aps2sim.column.Column.moved",
            "aps2sim.column.Column.copy",
            "aps2sim.column.Column.array",
            "aps2sim.column.Column._expand",
            "aps2sim.column.Column._moved",
            "aps2sim.events.EventLog._moved",
            "aps2sim.events._copies",
            "aps2sim.isa.decode",
            "aps2sim.isa._Layout.pack",
            "aps2sim.isa._Layout.unpack",
            "aps2sim.asm.assemble",
            "aps2sim.asm.insert_prefetch_hints"} <= {c[0] for c in CASES}


def test_every_module_is_hot_or_named_cold():
    modules = {m.name for m in pkgutil.iter_modules(aps2sim.__path__)}
    hot = {module.__name__.rpartition(".")[2] for module in HOT}
    assert not hot & COLD
    assert modules == hot | COLD


def test_a_column_appends_through_its_rows_own_method():
    # the decode loop appends per run and per command: no Python call
    col = column.Column()
    assert col.append.__self__ is col.rows
    assert col.append == col.rows.append


def modloop_shaped(depth):
    """A sequencer of modloop's loop, 400 laps behind a WAIT: per lap an
    increment, three frame updates, one window over two 48-sample plays
    and a marker pulse."""
    mod = [Modulator(ModAction.SET_PHASE_INCREMENT, nco=1, phase_word=3 << 40),
           *[Modulator(ModAction.UPDATE_FRAME, nco=1 << k, phase_word=k + 1)
             for k in range(3)],
           Modulator(ModAction.MODULATE, nco=0, count=96)]
    lap = [*(Instruction(Opcode.MODULATOR, md) for md in mod),
           *(Instruction(Opcode.WAVEFORM, Waveform(WfAction.PLAY, addr=a,
                                                   count=48))
             for a in (0, 48)),
           Instruction(Opcode.MARKER, Marker(MarkerAction.PLAY, channel=1,
                                             state=1, count=3,
                                             last_word=0b0011))]
    words = [encode(i) for i in (Instruction(Opcode.WAIT),
                                 Instruction(Opcode.LOAD_REPEAT, value=399),
                                 *lap, Instruction(Opcode.REPEAT, addr=2))]
    return Sequencer(ProgramImage(words, np.zeros((96, 2), np.int16)),
                     EngineConfig(queue_depth=depth))


@pytest.mark.parametrize("depth", [4, 8, 64])
def test_runs_not_started_by_the_decode_tick_are_rows(monkeypatch, depth):
    checked = []
    skip_laps = LapRecorder.skip_laps

    def checking(self, at):
        seq = self.seq
        copied = seq.laps_copied
        skip_laps(self, at)
        if seq.laps_copied == copied:
            return
        for e in seq.engines:
            rows = e.starts.rows
            assert type(rows) is list
            # the rows after the last chunk end with every run not
            # started by the decode tick
            tail = rows[e.starts.chunks[-1][0]:] if e.starts.chunks else rows
            starts = e.starts.array()
            waiting = starts[starts > seq.decode_tick].tolist()
            assert tail[len(tail) - len(waiting):] == waiting
            assert len(waiting) <= depth
            # the dispatch ticks are copied alike: row for row, chunk for
            # chunk, parallel to the starts
            dispatches = e.dispatches
            assert len(dispatches.rows) == len(rows)
            assert [c[:3] + c[4:] for c in dispatches.chunks] \
                == [c[:3] + c[4:] for c in e.starts.chunks]
            # and each copy moved on with its run: no run starts before
            # the pipeline after its dispatch
            assert (dispatches.array() + PIPELINE_TICKS <= starts).all()
        checked.append(sum(len(e.starts.chunks) for e in seq.engines))

    monkeypatch.setattr(LapRecorder, "skip_laps", checking)
    seq = modloop_shaped(depth)
    seq.run_simple(triggers=[50_000])
    assert seq.laps_copied > 300 and checked[-1] > 0   # copies as chunks


def test_every_copied_column_moves_by_one_int(monkeypatch):
    # every row of a column a lap writes moves at one rate, so each copy
    # and each lap comparison takes one int step: the waveform engine
    # logs its underruns apart, moved with its runs, while the
    # sequencer's fetch stalls move with the decode tick
    steps = []
    repeat = column.Column.repeat

    def repeating(self, lo, hi, step, count, keep=0):
        steps.append(step)
        repeat(self, lo, hi, step, count, keep)

    def comparing(moved):
        def spy(self, lo, mid, hi, step):
            steps.append(step)
            return moved(self, lo, mid, hi, step)
        return spy

    monkeypatch.setattr(column.Column, "repeat", repeating)
    for cls in (column.Column, events.EventLog):
        monkeypatch.setattr(cls, "moved", comparing(cls.moved))

    def copied_underruns(seq):
        """Whether laps copied underruns, each into the waveform engine's
        log; checks the steps of the run."""
        assert all(type(step) is int for step in steps)
        steps.clear()
        assert all(e.kind != "underrun" for e in seq.events)
        log = seq.wf.events
        assert all(e.kind == "underrun" for e in log)
        return bool(log.chunks)

    seq = modloop_shaped(4)
    seq.run_simple(triggers=[50_000])
    assert seq.laps_copied > 300 and copied_underruns(seq)
    runs = []
    for seed in range(100):
        prog, initial_cmp = random_program(np.random.default_rng(3000 + seed),
                                           max_repeat=40, pad=300)
        for hinted in (prog, insert_prefetch_hints(prog)):
            seq = Sequencer(hinted, EngineConfig(initial_cmp=initial_cmp))
            seq.run_simple()
            runs.append(copied_underruns(seq))
    assert sum(runs) >= 70        # 79 of the 200 runs copy underruns


def call_sites(source: str) -> Counter:
    """How many calls in source name each function, as f() or obj.f()."""
    calls = Counter()
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Call):
            func = node.func
            calls[getattr(func, "attr", getattr(func, "id", None))] += 1
    return calls


def test_laps_are_copied_and_restored_in_one_place():
    calls = call_sites(inspect.getsource(laps))
    assert calls["_copy_laps"] == calls["_restore"] == 1


def test_the_call_site_check_sees_a_second_copy_path():
    calls = call_sites("""
        def repeat(self):
            self._copy_laps(1)
            _restore(2)

        def repeat_again(self):
            self._copy_laps(3)
        """)
    assert (calls["_copy_laps"], calls["_restore"]) == (2, 1)
