"""Self-time spans around calls into the simulator's layers.

The traced pass wraps public entry points from outside the package:
bound methods on the instances the benchmark built, or class attributes
for objects built inside the package, restored when the pass ends.  A
span's self time is its duration minus the time its child spans cover,
so a layer's time is what it spent itself, net of the layers it called.
Spans are aggregated per name as they close; no span list is kept.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.missing: set[str] = set()     # entry points not found
        self._stack: list[list[float]] = []   # [start, child seconds]

    @contextmanager
    def span(self, name: str):
        self._stack.append([perf_counter(), 0.0])
        try:
            yield
        finally:
            start, child = self._stack.pop()
            dur = perf_counter() - start
            self.self_s[name] += dur - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += dur

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def wrap_instance(self, name: str, obj, attr: str) -> None:
        """Shadow obj.attr with a traced call for the life of obj."""
        fn = getattr(obj, attr, None)
        if fn is None:
            self.missing.add(name)
            return
        setattr(obj, attr, self.wrap(name, fn))

    @contextmanager
    def patch_class(self, name: str, cls, attr: str):
        """Trace every call of cls.attr while the block runs."""
        fn = cls.__dict__.get(attr)
        if fn is None:
            self.missing.add(name)
            yield
            return
        setattr(cls, attr, self.wrap(name, fn))
        try:
            yield
        finally:
            setattr(cls, attr, fn)
