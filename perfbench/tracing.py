"""Timing hooks that observe the program from outside.

The benchmark never edits the program.  It replaces module attributes
(functions, and methods on classes) with wrappers inside its own process
and restores the originals when a block ends.  Two recorders exist:

* `StepClock`, the untraced recorder: clock reads at entry and exit of
  the estimator and at each per-epoch log callback, and optionally a
  speed probe before each estimator call;
* `Tracer`, the traced recorder: one span per wrapped call with its name,
  start, end, parent span and operation id, plus exact counts taken from
  argument shapes at the same boundary.  Spans stay in memory and are
  written out once, when the run ends.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

PROBE_ROUNDS = 15    # rounds of small NumPy calls in one speed probe


def speed_probe():
    """Seconds a fixed run of small NumPy calls takes now (about 0.2-0.4 ms).

    The benchmark's CPUs are shared: another tenant on the same core slows
    the program's Python-bound code by up to 2x, for seconds at a time.  A
    probe run next to each timed call measures how fast the CPU is at that
    moment.  Its calls are the kind that dominate the program's small
    steps (random draws, a cumulative product, a comparison, a cast and a
    reduction to a Python float), which slow down alike; a pure-Python
    loop slows down less than they do.  The probe runs cold, right after
    the program's previous call, as the program's own calls do: a probe
    warmed up by a first, untimed run tracked the slowdown less well.
    """
    start = clock()
    rng = np.random.default_rng(0)
    for _ in range(PROBE_ROUNDS):
        v = rng.random(16)
        z = (rng.random(16) < np.cumprod(v)).astype(np.float64)
        float(z.sum())
    return clock() - start


@contextmanager
def patched(replacements):
    """Set each (owner, attribute, value) for the block, then restore."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class StepClock:
    """Entry/exit clock reads of one function plus epoch-end clock reads.

    With `probe`, each call first runs `speed_probe`; `start` is read
    before the probe and `entry` after it, so the probe can be left out of
    every interval.  Without it, start and entry are two adjacent reads.
    """

    def __init__(self, probe=False):
        self.probe = probe
        self.calls = []       # (start, entry, exit) per estimator call, in order
        self.probes = []      # probe seconds per call, when probing
        self.epoch_ends = []  # clock read at each log callback

    def wrap(self, fn):
        calls, probes, probe = self.calls, self.probes, self.probe

        def timed(*args, **kwargs):
            start = clock()
            if probe:
                probes.append(speed_probe())
            entry = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                calls.append((start, entry, clock()))
        return timed

    def log(self, _line):
        self.epoch_ends.append(clock())


class FirstCall(Exception):
    """Raised by `stop_at_first_call` with the clock read of the call."""


def stop_at_first_call(_fn):
    """A stand-in that aborts the caller at its first call (set-up probe)."""
    def probe(*_args, **_kwargs):
        raise FirstCall(clock())
    return probe


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent  # index into Tracer.spans, or -1 for a root
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "attrs": self.attrs or {}}


class Tracer:
    """Span recorder.  `enabled` may be switched between top-level calls."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self.op = "setup"     # operation id shared by the spans of one op
        self.epoch_ends = []
        self.epoch_traced = []  # whether spans were on during each epoch
        self._stack = []

    def wrap(self, name, fn, namer=None, on_enter=None, on_exit=None):
        """Wrap fn so each call records a span.

        namer(args) may pick the span name per call; on_enter(args) runs
        before the call; on_exit(span, args, kwargs, result) may attach
        counts to span.attrs after it.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            span = Span(namer(args) if namer else name,
                        stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result
        return traced

    def log(self, _line):
        self.epoch_traced.append(self.enabled)
        self.epoch_ends.append(clock())

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")
