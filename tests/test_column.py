"""The chunked column every copied lap is stored in (aps2sim.column)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aps2sim.column import Column
from aps2sim.events import Event, EventKind, EventLog


def column(*rows):
    col = Column()
    for row in rows:
        col.append(row)
    return col


def check_reads(col):
    """Every read of col agrees with its expansion into values."""
    values = list(col)
    assert len(values) == len(col)
    assert [col[i] for i in range(-len(col), len(col))] == values * 2
    assert col.array().tolist() == values
    for i in (len(col), -len(col) - 1):
        with pytest.raises(IndexError):
            col[i]


def test_copies_expand_in_order_each_moved_on_by_its_step():
    col = column(0, 10, 20)
    col.repeat(1, 3, 100, 3)           # rows 1..3, three more times
    col.append(400)
    assert (len(col), len(col.rows), col.copies) == (10, 4, 6)
    assert list(col) == [0, 10, 20, 110, 120, 210, 220, 310, 320, 400]
    check_reads(col)


def test_a_count_one_chunk_copies_part_of_a_block_once():
    # the laps left after whole blocks: the block's first rows copied
    # once more, as far on as the copy after the last block
    col = column(5, 10, 15)
    col.repeat(0, 3, 20, 2)
    col.repeat(0, 1, 60, 1)
    assert [len(col.chunks), len(col)] == [2, 10]
    assert list(col) == [5, 10, 15, 25, 30, 35, 45, 50, 55, 65]
    check_reads(col)


def test_a_step_of_zero_repeats_the_rows_themselves():
    marks = [object(), object()]
    col = column(*marks)
    col.repeat(0, 2, 0, 3)
    assert list(col) == marks * 4 and col[5] is marks[1]
    # objects are built into an array through their codes
    assert col.array(np.array([7, 8])).tolist() == [7, 8] * 4


def test_kept_copies_are_rows_and_the_rest_one_chunk():
    col = column(0, 1, 2)
    col.repeat(1, 3, 10, 5, keep=3)    # two copies hold three values
    assert col.chunks == [(3, 1, 3, 10, 3)]
    assert col.rows == [0, 1, 2, 41, 42, 51, 52]
    assert list(col) == [0, 1, 2, 11, 12, 21, 22, 31, 32, 41, 42, 51, 52]
    check_reads(col)
    col.repeat(5, 7, 10, 2, keep=100)  # fewer values than keep: all rows
    assert len(col.chunks) == 1 and col.rows[-4:] == [61, 62, 71, 72]
    check_reads(col)


def test_a_copy_stays_independent_of_later_records():
    col = column(0, 10)
    col.repeat(0, 2, 100, 2)
    snapshot = col.copy()
    col.append(500)
    col.repeat(2, 3, 1, 3)
    assert list(snapshot) == [0, 10, 100, 110, 200, 210]
    assert list(col)[:6] == list(snapshot) and len(col) == 10
    check_reads(snapshot)
    check_reads(col)


def test_a_copy_over_a_chunk_is_a_value_error():
    col = column(0, 10, 20)
    col.repeat(1, 3, 100, 2)
    col.append(30)
    with pytest.raises(ValueError, match="spans the chunk after row 3"):
        col.repeat(2, 4, 5, 1)         # rows 2 and 3, the copies between
    with pytest.raises(ValueError, match="beyond the 4 rows"):
        col.repeat(3, 5, 5, 1)
    col.repeat(3, 4, 5, 1)             # the row after the chunk
    col.repeat(0, 3, 5, 1)             # the rows before it
    assert len(col.chunks) == 3
    check_reads(col)


def test_an_empty_copy_records_nothing():
    col = column(0, 10)
    col.repeat(1, 1, 100, 4)
    col.repeat(0, 2, 100, 0)
    assert not col.chunks and len(col) == 2
    assert col.array().dtype == np.int64 and Column().array().shape == (0,)


def test_moved_reads_what_repeat_records():
    # copies kept as rows, where moved can read them
    col = column(0, 10, 20)
    col.repeat(0, 3, 100, 1, keep=3)
    assert col.moved(0, 3, 6, 100)
    assert not col.moved(0, 3, 6, 99)
    assert col.moved(3, 3, 3, 7)       # two empty ranges


def test_a_zero_step_compares_rows_of_any_kind():
    marks = [object(), object()]
    col = column(*marks, *marks, marks[0], object())
    assert col.moved(0, 2, 4, 0)
    assert not col.moved(2, 4, 6, 0)


def test_ranges_of_unequal_length_are_not_moved():
    col = column(0, 10, 20, 30, 40)
    assert not col.moved(0, 2, 5, 20)
    assert not col.moved(0, 3, 5, 0)
    assert not col.moved(1, 1, 2, 10)


def test_a_moved_range_beyond_the_rows_is_a_value_error():
    col = column(0, 10, 20)
    col.repeat(1, 3, 100, 2)
    col.append(30)
    with pytest.raises(ValueError, match="beyond the 4 rows"):
        col.moved(2, 4, 6, 0)
    with pytest.raises(ValueError, match="beyond the 4 rows"):
        col.moved(-1, 0, 1, 0)
    with pytest.raises(ValueError, match="spans the chunk after row 3"):
        col.moved(2, 3, 4, 10)         # rows 2 and 3, the copies between
    assert col.moved(0, 1, 2, 10)      # the rows before the chunk


def test_an_event_log_compares_events_by_tick():
    log = EventLog()
    for tick in (0, 30, 100, 130):
        log.append(Event(tick, EventKind.UNDERRUN, 20, {"engine": "w"}))
    assert log.moved(0, 2, 4, 100)
    assert not log.moved(0, 2, 4, 90)
    # a field besides the tick differs: not the events moved on
    log.append(Event(200, EventKind.UNDERRUN, 20, {"engine": "w"}))
    log.append(Event(300, EventKind.UNDERRUN, 21, {"engine": "w"}))
    assert not log.moved(4, 5, 6, 100)


def test_an_event_log_moves_a_queue_full_until_with_its_tick():
    # moved reads what a copy records: the until tick moved on too
    log = EventLog()
    log.append(Event(100, EventKind.QUEUE_FULL, 0,
                     {"engine": "waveform", "until": 140}))
    log.append(Event(120, EventKind.FETCH_STALL, 20))
    log.repeat(0, 2, 500, 1, keep=2)
    assert log.rows[2].detail["until"] == 640
    assert log.moved(0, 2, 4, 500)


TICKS = st.integers(-10_000, 10_000)
EVENTS = st.one_of(
    st.builds(lambda tick, wait: Event(tick, EventKind.QUEUE_FULL, 0, {
        "engine": "waveform", "until": tick + wait}), TICKS,
        st.integers(0, 500)),
    st.builds(lambda tick, ticks: Event(tick, EventKind.FETCH_STALL, ticks),
              TICKS, st.integers(1, 100)),
    st.builds(lambda tick, ticks: Event(tick, EventKind.UNDERRUN, ticks,
                                        {"engine": "waveform"}),
              TICKS, st.integers(1, 100)))
NONZERO = st.integers(-50, 50).filter(bool)


def changed_int(value, data):
    return value + data.draw(NONZERO)


def changed_event(event, data):
    """event with one of its tick, ticks or until tick changed."""
    fields = ["tick", "ticks"]
    if event.kind is EventKind.QUEUE_FULL:
        fields.append("until")
    field, d = data.draw(st.sampled_from(fields)), data.draw(NONZERO)
    if field == "until":
        return event._replace(detail={**event.detail,
                                      "until": event.detail["until"] + d})
    return event._replace(**{field: getattr(event, field) + d})


@pytest.mark.parametrize("cls, rows, changed", [
    (Column, TICKS, changed_int), (EventLog, EVENTS, changed_event)],
    ids=["column", "event_log"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_moved_is_true_on_what_repeat_appends_and_only_on_it(cls, rows,
                                                             changed, data):
    before = data.draw(st.lists(rows, max_size=4))
    template = data.draw(st.lists(rows, min_size=1, max_size=6))
    step = data.draw(TICKS)
    col = cls()
    for row in before + template:
        col.append(row)
    lo, mid = len(before), len(before) + len(template)
    col.repeat(lo, mid, step, 1, keep=mid - lo)
    hi = len(col.rows)
    assert hi == mid + len(template)
    assert col.moved(lo, mid, hi, step)
    j = data.draw(st.integers(lo, hi - 1))
    col.rows[j] = changed(col.rows[j], data)
    assert not col.moved(lo, mid, hi, step)
