"""In-memory span tracer that wraps library functions from outside.

A span is one call of a wrapped function: its name, start and end (seconds
on the `perf_counter` clock), the index of the span that was open when it
started, and the index of the outermost open span, which is the operation
(one solve, one annealing run or one episode) that the call belongs to.
Spans stay in a list until the run writes them out.

Wrapping replaces the attribute where the caller looks the function up, so
`env.compile_masks` and `solvers.compile_masks` are traced separately even
though both name the same function of `stackfp.masks`.
"""

import contextlib
import functools
import json
import time

# positions inside one span record
NAME, START, END, PARENT, OP, CHILD_S, ERROR = range(7)


class MissingSpanError(RuntimeError):
    """A wrapped attribute no longer exists in the library."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.active = True

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        op = self._open[0] if self._open else idx
        self.spans.append([name, time.perf_counter(), None, parent, op, 0.0, None])
        self._open.append(idx)
        return idx

    def _exit(self, idx: int, error: str | None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._open.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span around a block of the benchmark's own code."""
        if not self.active:
            yield
            return
        idx = self._enter(name)
        try:
            yield
        except BaseException as exc:
            self._exit(idx, type(exc).__name__)
            raise
        self._exit(idx, None)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record nothing (used for output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, kwargs, result)`
        runs once the call returns normally."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(idx, type(exc).__name__)
                raise
            tracer._exit(idx, None)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, sites):
        """Wrap every (name, owner, attribute, after) site for the duration.

        Raises MissingSpanError before wrapping anything if an attribute is
        gone, so a refactor that renames or inlines a traced function fails
        the run instead of reporting a zero for it."""
        for name, owner, attr, _ in sites:
            if not hasattr(owner, attr):
                raise MissingSpanError(
                    f"{owner.__name__}.{attr} no longer exists; span {name!r} "
                    f"in perfbench/bench.py must follow the library")
        saved = []
        try:
            for name, owner, attr, after in sites:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds (total
        minus the time covered by child spans)."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span[END] is None:
                continue
            agg = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = span[END] - span[START]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - span[CHILD_S]
        return out

    def has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write_jsonl(self, path) -> None:
        """One JSON array per span: [id, name, start, end, parent, op,
        error], times in seconds from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end",
                                            "parent", "op", "error"]}) + "\n")
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps([idx, s[NAME], round(s[START] - t0, 7),
                                     round(s[END] - t0, 7), s[PARENT], s[OP],
                                     s[ERROR]]) + "\n")
