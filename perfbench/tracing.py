"""In-memory span tracing from outside the package.

A traced run swaps timing wrappers onto the public names the callers look
up at call time (``windmpc.experiment.step``, ``windmpc.control.condense``,
``ActiveSetSolver.solve``, ...) and restores them afterwards, so nothing
under ``src/`` changes. Private helpers (``ActiveSetSolver._phase1`` and
the like) stay unwrapped; their cost shows as the self time of the public
call around them.
"""

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    error: str | None    # exception class name when the call raised


class Tracer:
    """Records nested spans and boundary counts of one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, None))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index, error=None):
        span = self.spans[index]
        span.end = perf_counter()
        span.error = error
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(counts, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(index, type(exc).__name__)
                raise
            self._close(index)
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def write(self, path):
        """One tab-separated line per span: name, start, end, parent, error."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\terror\n")
            for s in self.spans:
                fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t"
                         f"{s.error or ''}\n")


@contextmanager
def patched(tracer, targets):
    """Install ``tracer.wrap`` on each (owner, attribute, span name, observe).

    The original attributes come back on exit, also when the body raises.
    """
    saved = []
    try:
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, observe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def by_name(spans):
    """{name: ([durations], [self times], [error names])} in span order."""
    selfs = self_times(spans)
    out = defaultdict(lambda: ([], [], []))
    for s, own in zip(spans, selfs):
        durations, own_times, errors = out[s.name]
        durations.append(s.end - s.start)
        own_times.append(own)
        errors.append(s.error)
    return dict(out)
