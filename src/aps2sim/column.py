"""One column of a run's record: decoded rows and copied chunks.

The lap fast-forward (``laps.LapRecorder.skip_laps``) appends copies of
decoded laps to every column a lap writes, all listed once in
``LapRecorder.columns``: the stream engines' runs (start tick, dispatch
tick, count, waveform address, TA flag, marker state and last word), the
modulator's commands (command, dispatch tick, dispatch position) and the
event logs (``events.EventLog``).  A ``Column`` keeps such a copy as one
chunk, (at, lo, hi, step, count): rows lo..hi again count times, after
the first ``at`` rows, copy c (from 1) moved on by c × step.  The step
is one int: every row of a column moves at the same rate, and a step of
0 repeats the rows unchanged.  So copying m laps costs the template's
time and memory, not m times it.  ``moved``, the reading twin of
``repeat``, compares a lap's rows with the lap's before.

Decoded values are rows of a plain list, and ``append`` is that list's
own bound method, so the decode loop pays what appending to a list
does.  A copy may also keep its last copies as rows (``keep``): the
stream engines keep their last ``queue_depth`` runs so, since no more
runs than that are ever queued, the queue room check and the lap code
read only rows.  Every index the lap code keeps is a row index.

``array`` builds the whole column as one int64 array, each chunk by one
outer add; iteration expands it into values, and indexing builds only
the value it returns.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Column"]


class Column:
    """Values in order: decoded rows, and chunks of copies among them
    (module docstring).  ``len()`` counts every copy."""

    __slots__ = ("rows", "append", "chunks", "copies")

    def __init__(self):
        self.rows: list = []
        self.append = self.rows.append
        # (at, lo, hi, step, count): rows[lo:hi] again count times,
        # copy c moved on by c * step, after rows[:at]
        self.chunks: list[tuple] = []
        self.copies = 0                  # values the chunks stand for

    def __len__(self) -> int:
        return len(self.rows) + self.copies

    def __iter__(self):
        return iter(self._expand() if self.chunks else self.rows)

    def __getitem__(self, i: int):
        """Value i, built alone if a chunk holds it."""
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"value {i} of a column of {n}")
        done = 0                          # chunk values before i's place
        for at, lo, hi, step, count in self.chunks:
            if i < at + done:
                break
            if i < at + done + (hi - lo) * count:
                c, j = divmod(i - at - done, hi - lo)
                return self._moved(self.rows[lo + j:lo + j + 1], step,
                                   c + 1, c + 2)[0]
            done += (hi - lo) * count
        return self.rows[i - done]

    def repeat(self, lo: int, hi: int, step: int, count: int,
               keep: int = 0) -> None:
        """Record rows lo..hi again count times, copy c moved on by
        c * step.  The last copies that hold at least keep values are
        appended as rows, the others as one chunk.  Raises ValueError if
        lo..hi is not a range of rows, or a chunk lies inside it: the
        rows there are not the values."""
        self._check(lo, hi)
        n = hi - lo
        if not n or count <= 0:
            return
        rows = min(count, -(-keep // n))
        chunked = count - rows
        if chunked:
            self.chunks.append((len(self.rows), lo, hi, step, chunked))
            self.copies += n * chunked
        if rows:
            self.rows += self._moved(self.rows[lo:hi], step, chunked + 1,
                                     count + 1)

    def moved(self, lo: int, mid: int, hi: int, step: int) -> bool:
        """Whether rows mid..hi are rows lo..mid moved on by step, the
        rows repeat(lo, mid, step, 1) records; False if the two ranges
        differ in length.  Raises ValueError as repeat does if lo..hi is
        not a range of rows."""
        self._check(lo, hi)
        rows = self.rows
        was, now = rows[lo:mid], rows[mid:hi]
        return len(was) == len(now) and (
            not was or self._moved(was, step, 1, 2) == now)

    def _check(self, lo: int, hi: int) -> None:
        """Raise ValueError unless rows lo..hi are values: a range of
        rows with no chunk inside it."""
        if not 0 <= lo <= hi <= len(self.rows):
            raise ValueError(f"range {lo}..{hi} beyond the "
                             f"{len(self.rows)} rows")
        for at, *_ in reversed(self.chunks):
            if at <= lo:
                break
            if at < hi:
                raise ValueError(f"range {lo}..{hi} spans the chunk "
                                 f"after row {at}")

    def copy(self) -> Column:
        """A snapshot: later records to this column do not change it."""
        column = type(self)()
        column.rows += self.rows
        column.chunks += self.chunks
        column.copies = self.copies
        return column

    def array(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Every value as one int64 array, each chunk built by one outer
        add; rows is the rows as an array, np.array(self.rows) unless
        given (a column of objects passes their codes)."""
        if rows is None:
            rows = np.array(self.rows, np.int64)
        if not self.chunks:
            return rows
        parts, done = [], 0
        for at, lo, hi, step, count in self.chunks:
            parts.append(rows[done:at])
            parts.append((np.arange(1, count + 1)[:, None] * step
                          + rows[lo:hi]).ravel())
            done = at
        parts.append(rows[done:])
        return np.concatenate(parts)

    def _expand(self) -> list:
        """Every value, each chunk built in its place."""
        rows, out, done = self.rows, [], 0
        for at, lo, hi, step, count in self.chunks:
            out += rows[done:at]
            out += self._moved(rows[lo:hi], step, 1, count + 1)
            done = at
        out += rows[done:]
        return out

    def _moved(self, template: list, step, first: int, stop: int) -> list:
        """Copies first..stop - 1 of template, copy c moved on by
        c * step; a step of 0 repeats the rows themselves."""
        if not step:
            return template * (stop - first)
        return (np.arange(first, stop)[:, None] * step
                + np.array(template, np.int64)).ravel().tolist()
