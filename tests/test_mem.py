"""Cache timing: window pacing, associative fills, page ping-pong."""

import math

import numpy as np
import pytest

from aps2sim import mem
from aps2sim.mem import CacheError, InstructionCache, MemConfig, Sdram, WaveformCache

LINE = 128


def make_icache(n_lines=64, cfg=None):
    cfg = cfg or MemConfig()
    words = list(range(n_lines * LINE))
    return InstructionCache(cfg, words, Sdram()), cfg


@pytest.mark.parametrize("field, value", [
    ("wave_page_samples", 0), ("wave_mode", "linear")])
def test_mem_config_rejects_a_bad_value(field, value):
    with pytest.raises(ValueError, match=f"MemConfig.{field}"):
        MemConfig(**{field: value})


def test_sdram_latency_plus_bandwidth():
    sdram = Sdram()
    # independent arithmetic: 200 ns latency then 1024 bytes at 1.45 GB/s
    expect = 1200 + math.ceil(1024 * 6e9 / 1.45e9)
    assert sdram.request(1024, 0) == expect
    # a queued burst pipelines behind the first: spacing is burst only
    second = sdram.request(1024, 0)
    assert second - expect == math.ceil(1024 * 6e9 / 1.45e9)


def test_page_fill_time_matches_budget():
    cfg = MemConfig()
    ticks = mem.page_fill_ticks(cfg)
    fill_us = ticks / 6000.0
    assert 180 * 0.9 <= fill_us <= 180 * 1.1


def test_sequential_walk_zero_stalls_at_play_rate():
    cache, _ = make_icache(n_lines=16)
    # instruction consumed every 2 sequencer clocks, the waveform play rate
    tick = 0
    for addr in range(16 * LINE):
        _, avail = cache.read_instruction(addr, tick)
        assert avail <= tick + 40, f"stall at addr {addr}"
        tick += 40
    # hits are counted, not logged; no miss or late fill occurred
    assert list(cache.events) == []
    assert cache.hits == 16 * LINE and cache.misses == 0


def test_far_jump_misses_then_window_recentre():
    cache, _ = make_icache(n_lines=64)
    word, avail = cache.read_instruction(0, 0)
    assert word == 0 and avail == mem.HIT_LATENCY_TICKS
    # jump far outside the window
    target = 40 * LINE + 5
    _, avail = cache.read_instruction(target, 1000)
    assert avail > 1000 + mem.HIT_LATENCY_TICKS
    assert cache.misses == 1
    # the miss is recorded as a cause; the stall is the caller's to record
    assert [(e.kind, e.ticks) for e in cache.events] == [("miss", 0)]
    # once re-centered, the same line is a plain hit
    _, avail2 = cache.read_instruction(target + 1, avail)
    assert avail2 == avail + mem.HIT_LATENCY_TICKS


def test_backward_loop_within_window_hits():
    cache, _ = make_icache(n_lines=16)
    tick = 0
    for addr in range(3 * LINE + 8):          # advance into line 3
        _, avail = cache.read_instruction(addr, tick)
        tick = max(tick + 40, avail)
    _, avail = cache.read_instruction(1 * LINE + 4, tick)   # 2 lines back
    assert avail == tick + mem.HIT_LATENCY_TICKS
    assert cache.misses == 0


def test_associative_round_robin_and_dup():
    cache, _ = make_icache(n_lines=64)
    lines = [20, 30, 40, 45, 50, 55, 58, 60]
    tick = 0
    for ln in lines:
        cache.prefetch_line(ln * LINE, tick)
    # wait for all fills, then every line hits
    tick = cache.sdram.busy_until + 10
    for ln in lines:
        _, avail = cache.read_instruction(ln * LINE + 3, tick)
        assert avail == tick + mem.HIT_LATENCY_TICKS
    assert cache.misses == 0
    # duplicate prefetch is a no-op
    before = dict(cache.assoc)
    cache.prefetch_line(30 * LINE, tick)
    assert cache.assoc == before
    assert cache.events[-1].kind == "prefetch_dup"
    # ninth distinct line evicts the oldest fill, line 20
    cache.prefetch_line(62 * LINE, tick)
    assert 20 not in cache.assoc and 62 in cache.assoc


def test_resident_range_is_the_line_of_the_next_plain_hit():
    cache, _ = make_icache(n_lines=64)
    assert not cache.resident                  # nothing read yet
    cache.read_instruction(5, 0)               # the warm window base
    assert cache.resident == range(0, LINE)
    # a filled window line beyond the base re-centres without a miss
    cache.read_instruction(2 * LINE, 100)
    assert cache.resident == range(2 * LINE, 3 * LINE)
    assert cache.misses == 0
    # a far miss re-centres the window on a line still filling
    cache.read_instruction(40 * LINE, 200)
    assert not cache.resident
    # an associative line is resident once filled, not while filling
    cache.prefetch_line(20 * LINE, 300)
    cache.read_instruction(20 * LINE, 300)
    assert [e.kind for e in cache.events][-1] == "assoc_wait"
    assert not cache.resident
    done = cache.assoc[20]
    cache.read_instruction(20 * LINE + 1, done)
    assert cache.resident == range(20 * LINE, 21 * LINE)
    # PREFETCHes that evict other lines keep it; evicting it resets it
    for ln in range(50, 57):
        cache.prefetch_line(ln * LINE, done)
    assert cache.resident == range(20 * LINE, 21 * LINE)
    cache.prefetch_line(60 * LINE, done)       # round-robin slot 0: line 20
    assert 20 not in cache.assoc and not cache.resident


def test_every_line_of_an_ideal_cache_is_resident():
    cache, _ = make_icache(n_lines=4, cfg=MemConfig(ideal=True))
    assert cache.resident == range(4 * LINE)


def test_prefetch_hides_call_miss():
    cfg = MemConfig()
    cache, _ = make_icache(n_lines=64, cfg=cfg)
    cache.prefetch_line(40 * LINE, 0)
    lead = mem.Sdram().request(mem.LINE_FILL_BYTES, 0) + 100
    _, avail = cache.read_instruction(40 * LINE, lead)
    assert avail == lead + mem.HIT_LATENCY_TICKS
    assert [e.kind for e in cache.events] == ["prefetch"]


def waveform_mem(pages=4, page=256):
    n = pages * page
    arr = np.zeros((n, 2), dtype=np.int16)
    arr[:, 0] = np.arange(n) % 4096
    return arr


def test_single_mode_reads_and_traps():
    cfg = MemConfig(wave_mode="single", wave_page_samples=256)
    cache = WaveformCache(cfg, waveform_mem(pages=2), Sdram())
    data = cache.read(10, 4, 0)
    assert list(data[:, 0]) == [10, 11, 12, 13]
    with pytest.raises(CacheError):
        cache.read(510, 8, 0)
    with pytest.raises(CacheError):
        cache.begin_prefetch(1, 0)


def test_pingpong_swap_timing():
    cfg = MemConfig(wave_mode="pingpong", wave_page_samples=256)
    cache = WaveformCache(cfg, waveform_mem(pages=4), Sdram())
    assert cache.read(0, 2, 0)[0, 0] == 0
    cache.begin_prefetch(2, 0)
    fill_done = cache.slots[1][1]
    assert fill_done > 0
    # early swap stalls until the fill lands
    swapped_at = cache.complete_swap(100)
    assert swapped_at == fill_done
    assert cache.events[-1].kind == "swap_stall"
    assert cache.events[-1].ticks == fill_done - 100
    assert cache.read(0, 2, swapped_at)[0, 0] == 512
    # next prefetch and a patient swap does not stall
    cache.begin_prefetch(3, swapped_at)
    done2 = cache.slots[0][1]
    assert cache.complete_swap(done2 + 5) == done2 + 5
    assert cache.events[-1].kind == "page_swap"
    assert cache.read(0, 2, done2 + 5)[0, 0] == 768


def test_pingpong_page_bound_trap():
    cfg = MemConfig(wave_mode="pingpong", wave_page_samples=256)
    cache = WaveformCache(cfg, waveform_mem(pages=4), Sdram())
    with pytest.raises(CacheError):
        cache.read(250, 10, 0)
