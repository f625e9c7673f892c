"""Bucketed calendar-queue (event-wheel) scheduler for the system tier.

The discrete-event simulators used to run on a ``heapq`` of
``(when, tie, fn, args)`` tuples: every ``schedule`` paid a tie-counter
draw, a 4-tuple allocation, an ``*args`` pack and an O(log n) sift, and
every pop paid the mirror-image sift plus an unpack.  uqSim and
CloudNativeSim both make the same point about microservice-graph
simulation: the scheduler must be cheap before anything built on it can
scale.  This module replaces the heap with a classic **event wheel**:

* events land in FIFO **buckets** keyed by their quantized timestamp
  (``int(when * 1/width)``; the width is a power of two, so the
  quantization is exact float arithmetic and an event can never land
  one bucket off a boundary);
* the wheel covers ``n_buckets`` consecutive buckets from the cursor;
  events scheduled past that horizon go to a small **overflow heap**
  and are migrated bucket-by-bucket as the cursor admits their window;
* a bucket is *stable-sorted by timestamp* when the cursor reaches it,
  so equal-time events fire in insertion order - the exact tie-break
  contract of the old heap (its tie counter) without paying for a
  counter per event.

Ordering is bit-identical to the heap, which is kept as a differential
witness behind ``REPRO_WHEEL=0``.  The argument sketch:

* across buckets, time order is bucket order (exact quantization);
* within a bucket, Python's stable sort keyed on the timestamp alone
  preserves append order for ties;
* an overflow event is migrated into its bucket at the moment the
  bucket becomes admissible, *before* any direct insert can target
  that bucket (direct inserts to it were themselves overflow until
  then) - so migrated-then-appended order is insertion order (the
  overflow heap carries its own tie counter for ties *within* it);
* events scheduled into the bucket currently being drained are
  placed by ``bisect_right`` on the timestamp: after every queued
  equal-time event (FIFO) and never before the drain index.

:class:`WheelSimulator` is built in the closure style of the streaming
timing engine (PR 3): ``schedule1``/``run`` are closures sharing the
wheel state through cells, so the per-event hot path does no
self-attribute loads at all.

``Simulator`` is the factory the simulators instantiate: it returns a
:class:`WheelSimulator` unless ``REPRO_WHEEL=0`` selects the
:class:`HeapSimulator` witness.  Both expose the same interface:
``schedule(when, fn, *args)`` fires ``fn(when, *args)``, and
``schedule1(when, fn, arg)`` is the allocation-free fast path for the
one-argument callbacks that dominate the hot loops (station batch
completions and flush timers).

``max_events`` arms a bounded-progress guard: instead of spinning
forever on a pathological schedule (a retry storm, or a future
self-rescheduling callback bug), ``run`` raises a diagnosable
:class:`SimulationLimitError` naming the hottest callback owner.
Accounting is O(1) per event (a counter keyed on the callback object);
owner names are resolved only on the overflow diagnostic path.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from ..sanitize import check, sanitizer_enabled

__all__ = [
    "HeapSimulator",
    "SimulationLimitError",
    "Simulator",
    "WheelSimulator",
    "wheel_enabled",
]


def wheel_enabled() -> bool:
    """True unless ``REPRO_WHEEL=0`` (re-read per call, so tests and
    CLIs can flip the scheduler without re-importing modules)."""
    return os.environ.get("REPRO_WHEEL", "1") != "0"


class SimulationLimitError(RuntimeError):
    """The event-count ceiling was hit: the simulation is (probably)
    stuck in a self-rescheduling loop, e.g. an unbounded retry storm."""


_key0 = itemgetter(0)


class _Greatest:
    """Compares greater than anything (used as a bisect probe pad so a
    ``(when, _GREATEST)`` probe tuple sorts after every equal-``when``
    entry without ordering the callback objects themselves)."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_GREATEST = _Greatest()


class _Args:
    """Boxed argument tuple for the rare zero- or multi-argument
    schedule call (so the common one-argument event never packs a
    tuple): a boxed ``args`` fires ``fn(when, *args)``."""

    __slots__ = ("args",)

    def __init__(self, args: tuple):
        self.args = args


def _check_geometry(width_us: float, n_buckets: int) -> float:
    if n_buckets & (n_buckets - 1):
        raise ValueError(f"n_buckets must be a power of two, "
                         f"got {n_buckets}")
    inv = 1.0 / width_us
    if width_us * inv != 1.0:
        raise ValueError(f"width_us must be a power of two, "
                         f"got {width_us}")
    return inv


class Simulator:
    """Deterministic event-loop factory.

    ``Simulator(...)`` returns a :class:`WheelSimulator` (the event
    wheel) unless ``REPRO_WHEEL=0`` selects the :class:`HeapSimulator`
    differential witness.  Both fire ``fn(when, *args)`` per event,
    break equal-time ties by insertion order, and honor ``max_events``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if cls is Simulator:
            cls = WheelSimulator if wheel_enabled() else HeapSimulator
        return object.__new__(cls)

    # -- shared diagnostics --------------------------------------------
    @staticmethod
    def _owner_name(fn: Callable) -> str:
        fn = getattr(fn, "__wrapped__", fn)
        owner = getattr(fn, "__self__", None)
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            return f"station {name!r}"
        return getattr(fn, "__qualname__", repr(fn))

    def _raise_limit(self, fired: Counter, limit: int, now: float,
                     n_queued: int) -> None:
        by_owner: Counter = Counter()
        for fn, hits in fired.items():
            by_owner[self._owner_name(fn)] += hits
        hot, hits = by_owner.most_common(1)[0]
        raise SimulationLimitError(
            f"simulation exceeded {limit} events at "
            f"t={now:.1f}us with {n_queued} still queued; "
            f"hottest callback: {hot} ({hits} of {limit} events). "
            f"Likely an unbounded retry/reschedule loop.")


class WheelSimulator(Simulator):
    """Event-wheel simulator: the default scheduler of the system tier.

    The wheel state (buckets, cursor, live bucket, counts) lives in
    closure cells shared by ``schedule1`` and ``run``; the instance
    attributes are just the bound entry points.  An event is
    ``(when, fn, arg)`` and fires as ``fn(when, arg)`` - or
    ``fn(when, *arg.args)`` when ``arg`` is a boxed :class:`_Args`.
    """

    __slots__ = ("now", "max_events", "schedule", "schedule1", "run",
                 "pending")

    def __init__(self, max_events: Optional[int] = None,
                 width_us: float = 64.0, n_buckets: int = 512):
        inv = _check_geometry(width_us, n_buckets)
        width = width_us
        n = n_buckets
        mask = n - 1
        buckets: List[list] = [[] for _ in range(n)]
        overflow: list = []
        cursor = 0
        count = 0
        live: Optional[list] = None
        now = 0.0
        otie = 0
        san = sanitizer_enabled()
        outer = self
        self.now = 0.0
        self.max_events = max_events

        def schedule1(when: float, fn: Callable, arg) -> None:
            nonlocal count, otie
            if san:
                check(when >= now,
                      "simulator: event scheduled into the past "
                      "(%f before now=%f)", when, now)
            b = int(when * inv)
            d = b - cursor
            if d > 0:
                if d < n:
                    buckets[b & mask].append((when, fn, arg))
                else:
                    otie += 1
                    heappush(overflow, (when, otie, (when, fn, arg)))
                    return
            elif live is not None:
                # mid-drain insert into the live bucket: bisect on a
                # (time, GREATEST) probe lands after every queued
                # equal-time event (FIFO) and - because all
                # already-fired entries carry times <= now - never
                # before the drain point.  The probe keeps the C tuple
                # comparison on the leading floats, no key= callback.
                # A past-time schedule (invalid; the sanitizer rejects
                # it) is clamped to fire at ``now``.
                key = when if when >= now else now
                live.insert(bisect_right(live, (key, _GREATEST)),
                            (when, fn, arg))
            else:
                buckets[cursor & mask].append((when, fn, arg))
            count += 1

        def schedule(when: float, fn: Callable, *args) -> None:
            if len(args) == 1:
                schedule1(when, fn, args[0])
            else:
                schedule1(when, fn, _Args(args))

        def admit() -> None:
            nonlocal count
            horizon = (cursor + n) * width
            while overflow and overflow[0][0] < horizon:
                when, _tie, entry = heappop(overflow)
                buckets[int(when * inv) & mask].append(entry)
                count += 1

        def open_bucket() -> Optional[list]:
            nonlocal cursor
            while True:
                if count:
                    buck = buckets[cursor & mask]
                    if buck:
                        return buck
                    cursor += 1
                    if overflow:
                        admit()
                elif overflow:
                    # jump-ahead: land the cursor straight on the next
                    # overflow event's bucket instead of rotating
                    # through the empty span
                    b = int(overflow[0][0] * inv)
                    if b > cursor:
                        cursor = b
                    admit()
                    if san:
                        check(count > 0,
                              "event wheel: admission after a cursor "
                              "jump landed no events")
                else:
                    return None

        def run(max_events: Optional[int] = None) -> None:
            nonlocal cursor, count, live, now
            limit = (max_events if max_events is not None
                     else outer.max_events)
            if limit is not None or san:
                run_guarded(limit)
                return
            while True:
                buck = open_bucket()
                if buck is None:
                    outer.now = now
                    return
                if len(buck) > 1:
                    buck.sort(key=_key0)
                live = buck
                # the bucket may grow mid-drain: same-window schedules
                # are insorted at or past the iterator position, and
                # the for-loop picks them up in timestamp order
                for e in buck:
                    when = e[0]
                    now = when
                    arg = e[2]
                    if arg.__class__ is _Args:
                        outer.now = when
                        e[1](when, *arg.args)
                    else:
                        e[1](when, arg)
                count -= len(buck)
                buck.clear()
                live = None
                cursor += 1
                if overflow:
                    admit()

        def run_guarded(limit: Optional[int]) -> None:
            """The bounded/sanitized event loop: identical firing order
            to the fast loop, plus O(1)-per-event accounting for the
            ``max_events`` diagnostic and the sanitizer invariants."""
            nonlocal cursor, count, live, now
            fired: Counter = Counter()
            fired_n = 0
            while True:
                buck = open_bucket()
                if buck is None:
                    outer.now = now
                    return
                if len(buck) > 1:
                    buck.sort(key=_key0)
                if san:
                    c = cursor
                    for e in buck:
                        check(int(e[0] * inv) == c,
                              "event wheel: entry at t=%f drained from "
                              "bucket %d (its own is %d)",
                              e[0], c, int(e[0] * inv))
                live = buck
                i = 0
                while i < len(buck):
                    e = buck[i]
                    i += 1
                    when = e[0]
                    if san:
                        check(when >= now,
                              "simulator: time ran backwards "
                              "(%f after %f)", when, now)
                    now = when
                    outer.now = when
                    if limit is not None:
                        fired_n += 1
                        if fired_n > limit:
                            outer._raise_limit(
                                fired, limit, when,
                                count - i + len(overflow))
                        fired[e[1]] += 1
                    arg = e[2]
                    if arg.__class__ is _Args:
                        e[1](when, *arg.args)
                    else:
                        e[1](when, arg)
                count -= len(buck)
                buck.clear()
                live = None
                cursor += 1
                if overflow:
                    admit()

        def pending() -> int:
            """Events still queued (approximate while a bucket is
            mid-drain: already-fired entries of the live bucket are
            included until the bucket retires)."""
            return count + len(overflow)

        self.schedule1 = schedule1
        self.schedule = schedule
        self.run = run
        self.pending = pending


class HeapSimulator(Simulator):
    """The pre-wheel ``heapq`` event loop, kept as the differential
    witness behind ``REPRO_WHEEL=0``: entries ``(when, tie, fn, arg)``
    pop in ``(when, tie)`` order, so equal-time events fire in
    insertion order - the contract the wheel reproduces."""

    __slots__ = ("now", "max_events", "_events", "_tie", "_san")

    def __init__(self, max_events: Optional[int] = None):
        self._events: List[Tuple[float, int, Callable, object]] = []
        self._tie = 0
        self.now = 0.0
        self.max_events = max_events
        self._san = sanitizer_enabled()

    def schedule1(self, when: float, fn: Callable, arg) -> None:
        if self._san:
            check(when >= self.now,
                  "simulator: event scheduled into the past "
                  "(%f before now=%f)", when, self.now)
        self._tie += 1
        heappush(self._events, (when, self._tie, fn, arg))

    def schedule(self, when: float, fn: Callable, *args) -> None:
        if len(args) == 1:
            self.schedule1(when, fn, args[0])
        else:
            self.schedule1(when, fn, _Args(args))

    def pending(self) -> int:
        return len(self._events)

    def run(self, max_events: Optional[int] = None) -> None:
        limit = max_events if max_events is not None else self.max_events
        if limit is not None:
            self._run_bounded(limit)
            return
        events = self._events
        pop = heappop
        san = self._san
        while events:
            when, _t, fn, arg = pop(events)
            if san:
                check(when >= self.now,
                      "simulator: time ran backwards (%f after %f)",
                      when, self.now)
            self.now = when
            if arg.__class__ is _Args:
                fn(when, *arg.args)
            else:
                fn(when, arg)

    def _run_bounded(self, limit: int) -> None:
        events = self._events
        pop = heappop
        san = self._san
        fired: Counter = Counter()
        n = 0
        while events:
            when, _t, fn, arg = pop(events)
            if san:
                check(when >= self.now,
                      "simulator: time ran backwards (%f after %f)",
                      when, self.now)
            n += 1
            if n > limit:
                self.now = when
                self._raise_limit(fired, limit, when, len(events))
            fired[fn] += 1
            self.now = when
            if arg.__class__ is _Args:
                fn(when, *arg.args)
            else:
                fn(when, arg)
