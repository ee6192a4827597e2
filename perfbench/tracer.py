"""Outside-in tracer: spans around calls into difflink's public callables.

The tracer never edits difflink's source. It replaces a callable at every
module attribute that binds it (``difflink.records.extract_h_hop``,
``difflink.bench.precompute_dataset``, ...), so a caller inside the package
that looks the name up through its module globals enters the wrapper.
Methods are wrapped on their class. Patches are installed only for the
duration of a traced unit of work and removed afterwards, so untraced work
runs the original code with no wrapper in the way.

Spans are kept in memory as (name, start, end, parent, run_id, attrs) and
written out when the benchmark ends. Self time and call counts are derived
from them afterwards.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for the wrappers it installs; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._targets: list[tuple] = []   # (owner, attr, span name, observe)
        self._stack: list[int] = []
        self._run_id = ""

    # -- registration ---------------------------------------------------
    def add_function(self, package, name: str, observe=None) -> None:
        """Trace ``package.<name>`` at every module attribute bound to it.

        A name the package no longer exports is recorded as absent.
        """
        target = getattr(package, name, None)
        if target is None or not callable(target):
            self.absent.append(name)
            return
        span_name = f"{target.__module__.rsplit('.', 1)[-1]}.{target.__name__}"
        prefix = package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._add_target(module, attr, span_name, observe)

    def add_method(self, cls, attr: str, span_name: str, observe=None) -> None:
        """Trace ``cls.<attr>`` (absent when the class no longer has it)."""
        if cls is None or attr not in vars(cls):
            self.absent.append(span_name)
            return
        self._add_target(cls, attr, span_name, observe)

    def _add_target(self, owner, attr, span_name, observe) -> None:
        if not any(o is owner and a == attr for o, a, _, _ in self._targets):
            self._targets.append((owner, attr, span_name, observe))

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (a phase or a unit)."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrapper(self, original, span_name: str, observe):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                self.spans[idx].attrs = observe(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, run_id: str):
        """Patch every registered target for one traced unit of work."""
        originals = []
        self._run_id = run_id
        try:
            for owner, attr, span_name, observe in self._targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, span_name, observe))
            with self.span("unit"):
                yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "run_id": s.run_id, "attrs": s.attrs}))
                fh.write("\n")


def self_times(spans: list[Span], excluded=lambda name: True) -> list[float]:
    """Each span's duration minus the time of its outermost descendants
    whose name ``excluded`` accepts; by default, of its direct children.

    Spans come from one thread and nest properly, so the outermost
    excluded descendants of a span are disjoint and their covered part is
    the sum of their durations. An excluded span's time is taken off every
    ancestor up to and including the nearest excluded one.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if not excluded(s.name):
            continue
        parent = s.parent
        while parent is not None:
            covered[parent] += s.duration
            if excluded(spans[parent].name):
                break
            parent = spans[parent].parent
    return [s.duration - c for s, c in zip(spans, covered)]
