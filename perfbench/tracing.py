"""Instruments for the benchmark: plain pass-through and traced.

Workloads bind every library function they call, every walk-on-spheres
domain, every callable residual and every boundary-graph polynomial
through an instrument object when they are built.  `Plain` hands the
library objects back untouched, so an untraced pass runs exactly the
library code.  `Traced` returns wrappers that record a span around each
call into a hopfsurf module and count the work done inside:

* a domain wrapper counts `distance` calls, rows and live rows (rows whose
  walk moved since the previous call) and times the distance itself;
* a counting callable counts evaluations of a caller-supplied residual;
* a `RealPoly2` subclass counts and times polynomial evaluations.

Nothing in hopfsurf is patched; the wrappers only see what the library
does with the inputs it was handed.  The wrappers pass values through
unchanged, so a traced pass must produce outputs bit-identical to an
untraced one; the runner checks that.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from hopfsurf.poly import RealPoly2


class Plain:
    """Untraced instruments: every factory returns its argument."""

    Poly = RealPoly2

    def fn(self, name: str, f: Callable, on_result=None) -> Callable:
        return f

    def counted(self, name: str, f: Callable) -> Callable:
        return f

    def domain(self, kind: str, d):
        return d


class _Open:
    __slots__ = ("ident", "start", "child_s")

    def __init__(self, ident: int, start: float):
        self.ident, self.start, self.child_s = ident, start, 0.0


@dataclass
class Tally:
    """Exact counts and accumulated times of one traced pass."""

    counts: dict = field(default_factory=lambda: defaultdict(int))
    busy_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    # (id, parent id or -1, name, start, end) per closed span
    spans: list = field(default_factory=list)


_FAILED = object()


class Traced:
    """Instruments that record spans and counts into `self.tally`."""

    def __init__(self):
        self.tally = Tally()
        self._stack: list[_Open] = []
        self._next_id = 0
        self.Poly = _counting_poly(self)

    def reset(self) -> Tally:
        """Start a new pass; returns the tally of the previous one."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        done, self.tally = self.tally, Tally()
        return done

    # -- spans --------------------------------------------------------------

    def fn(self, name: str, f: Callable, on_result=None) -> Callable:
        """Wrap `f` in a span; `on_result(tally, args, result, seconds)`
        books counts read off a successful call's result."""
        calls_key, failed_key = name + ".calls", name + ".failed"

        def traced(*args, **kw):
            self._next_id += 1
            node = _Open(self._next_id, perf_counter())
            self._stack.append(node)
            result = _FAILED
            try:
                result = f(*args, **kw)
                return result
            except Exception:
                self.tally.counts[failed_key] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                dur = end - node.start
                own = dur - node.child_s
                t = self.tally
                t.counts[calls_key] += 1
                t.busy_s[name] += dur
                t.self_s[name] += own
                if self._stack:
                    parent = self._stack[-1]
                    parent.child_s += dur
                    t.spans.append((node.ident, parent.ident, name,
                                    node.start, end))
                else:
                    t.spans.append((node.ident, -1, name, node.start, end))
                if on_result is not None and result is not _FAILED:
                    on_result(t, args, result, own)
        return traced

    def inner(self, name: str, dt: float) -> None:
        """Book one unit of work, taking `dt` seconds, done inside the
        innermost open span."""
        self.tally.counts[name] += 1
        self.tally.busy_s[name] += dt
        self.tally.self_s[name] += dt
        if self._stack:
            self._stack[-1].child_s += dt

    def overhead(self, dt: float) -> None:
        """Book instrumentation time so that no layer's self time holds it."""
        if self._stack:
            self._stack[-1].child_s += dt

    # -- instrumented inputs ------------------------------------------------

    def counted(self, name: str, f: Callable) -> Callable:
        def counting(*args, **kw):
            self.tally.counts[name] += 1
            return f(*args, **kw)
        return counting

    def domain(self, kind: str, d):
        return CountingDomain(d, kind, self)


class CountingDomain:
    """Walk-on-spheres domain wrapper counting distance calls and rows.

    A row is live when its position differs from the same row of the
    previous call: the walk moved since then, or a new block started.
    Comparing positions needs a copy per call, which is why this runs in
    the traced pass only; that cost is booked as instrumentation time.
    """

    def __init__(self, inner, kind: str, tracer: Traced):
        self.inner = inner
        self.kind = kind
        self._tracer = tracer
        self._prev = None

    def distance(self, x: np.ndarray) -> np.ndarray:
        t0 = perf_counter()
        d = self.inner.distance(x)
        t1 = perf_counter()
        prev = self._prev
        if prev is not None and prev.shape == x.shape:
            live = int(np.count_nonzero((x != prev).any(axis=-1)))
        else:
            live = len(x)
        self._prev = np.array(x, copy=True)
        c = self._tracer.tally.counts
        c["robin.distance_rows"] += len(x)
        c["robin.live_rows"] += live
        c[f"robin.{self.kind}.distance_rows"] += len(x)
        self._tracer.tally.busy_s[f"robin.{self.kind}.distance"] += t1 - t0
        self._tracer.inner("robin.distance", t1 - t0)
        self._tracer.overhead(perf_counter() - t1)
        return d

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.inner.project(x)


def _counting_poly(tracer: Traced) -> type:
    """A RealPoly2 subclass whose evaluations are counted and timed."""

    class CountingPoly(RealPoly2):
        def eval(self, x: float, y: float) -> float:
            t0 = perf_counter()
            v = RealPoly2.eval(self, x, y)
            tracer.inner("poly.eval", perf_counter() - t0)
            return v

    return CountingPoly



# -- counts read off results (the `on_result` hooks of Traced.fn) ------------


def book_walks(t: Tally, args, est, self_s: float) -> None:
    """robin_constant: walks by domain kind and their self time."""
    kind = getattr(args[0], "kind", "unwrapped")
    t.counts["robin.walks"] += est.n_walks
    t.counts[f"robin.{kind}.walks"] += est.n_walks
    t.counts["robin.escaped_walks"] += est.escaped_walks
    t.counts["robin.truncated_walks"] += est.truncated_walks
    t.busy_s[f"robin.{kind}.robin_constant_self"] += self_s


def book_samples(t: Tally, args, rep, self_s: float) -> None:
    """verify_nemirovskii_quotient: forward plus backward samples."""
    t.counts["domains.verify_samples"] += rep.n_forward + rep.n_backward


def book_values(t: Tally, args, fib, self_s: float) -> None:
    """fiber_set: fiber values produced."""
    t.counts["flows.fiber_set.values"] += len(fib)
