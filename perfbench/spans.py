"""Spans around calls into the program, recorded from the benchmark's side.

`Patches` swaps a module or class attribute for a wrapper and puts the
original back on `restore`. `Tracer` keeps every span (name, start, end,
parent, phase) in memory; `run.py` writes them out when the run ends. A
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable


class Patches:
    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace owner.attr with make(original); (class|static)methods stay what they were."""
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, phase]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrapper(self, name: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(index)

            return traced

        return make

    def totals(self, phase: str) -> dict[str, list[float]]:
        """name -> [total seconds, self seconds, calls] over the spans of `phase`."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, span_phase) in enumerate(self.spans):
            if span_phase == phase:
                entry = out[name]
                entry[0] += (end - start) / 1e9
                entry[1] += (end - start - child_ns[i]) / 1e9
                entry[2] += 1
        return out

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                record = {"name": name, "start_ns": start - origin, "end_ns": end - origin, "parent": parent, "phase": phase}
                fh.write(json.dumps(record) + "\n")
