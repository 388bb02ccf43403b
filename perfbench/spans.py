"""Span tracer for the benchmark's traced run.

Each kamkit function of interest is wrapped at the name its caller looks
up (``kamkit.kam.solve_homological``, ``kamkit.hamiltonian.poisson``,
``Polynomial.mul`` on the class, ...), so the program under test is not
edited.  A span records its name, its parent span, its start and end, and
optional operand sizes; spans stay in memory and are reduced to per-layer
metrics when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder that patches attributes and restores them."""

    def __init__(self):
        # one record per span: [name, parent index or -1, t0, t1, sizes]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span (``setup`` or ``run``) around a block."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, sizes=None):
        """``fn`` recorded as span ``name``; ``sizes(args, result)`` gives
        the span's operand sizes as a dict."""
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(rec)
            if sizes is not None:
                rec[4] = sizes(args, out)
            return out
        return traced

    def counter(self, name: str, fn):
        """``fn`` counted under ``name`` without a span (hot, tiny calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ---------------------------------------------------------
    def patch(self, owner, attr: str, name: str, sizes=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, sizes))

    def patch_counter(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.counter(name, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction --------------------------------------------------------
    def _self_times(self) -> list[float]:
        own = [t1 - t0 for _, _, t0, t1, _ in self.spans]
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                own[parent] -= t1 - t0
        return own

    def table(self) -> dict:
        """name -> {"total", "self", "calls", "durations", "sizes",
        "parents"}, summed over that name's spans."""
        own = self._self_times()
        out: dict = {}
        for i, (name, parent, t0, t1, sizes) in enumerate(self.spans):
            row = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0,
                                        "durations": [],
                                        "sizes": defaultdict(int),
                                        "parents": defaultdict(int)})
            row["total"] += t1 - t0
            row["self"] += own[i]
            row["calls"] += 1
            row["durations"].append(t1 - t0)
            row["parents"][self.spans[parent][0] if parent >= 0 else None] += 1
            if sizes:
                for key, val in sizes.items():
                    row["sizes"][key] += val
        return out

    def subtree_self(self, root_index: int) -> tuple[float, float]:
        """(sum of self times, most negative self time) under one root."""
        own = self._self_times()
        inside = [False] * len(self.spans)
        total, worst = 0.0, 0.0
        for i, (_, parent, _, _, _) in enumerate(self.spans):
            inside[i] = i == root_index or (parent >= 0 and inside[parent])
            if inside[i]:
                total += own[i]
                worst = min(worst, own[i])
        return total, worst


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
