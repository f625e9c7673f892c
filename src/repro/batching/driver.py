"""RPU driver: batch-granularity context switching and grouped I/O
wakeups (paper Section III-B5, first paragraph).

On the RPU either all threads of a batch run or the whole batch is
switched out.  When the batch blocks on I/O, the driver *groups* the
arriving completion interrupts and wakes the whole batch once, so
lockstep execution resumes with a full active mask.  The ablation
("eager" wakeup, one context switch per interrupt as a per-thread OS
would do) shows why grouping matters: a 32-thread batch would otherwise
pay up to 32 context switches per I/O phase.

The model is a small deterministic scheduler over batches composed of
compute and I/O phases; it reports makespan, context switches and core
utilization, and is exercised by the ``examples/design_space.py``
follow-ups and the unit tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..sanitize import check, sanitizer_enabled


@dataclass(frozen=True)
class ComputePhase:
    """Lockstep execution for ``duration_us`` on the core."""

    duration_us: float


@dataclass(frozen=True)
class IoPhase:
    """Each thread issues an I/O with its own completion latency."""

    latencies_us: Tuple[float, ...]

    @property
    def last_completion(self) -> float:
        return max(self.latencies_us)


Phase = Union[ComputePhase, IoPhase]


@dataclass
class BatchTask:
    """One batch: alternating compute / I/O phases."""

    bid: int
    phases: List[Phase]
    finished_at: float = 0.0


@dataclass
class DriverStats:
    makespan_us: float
    context_switches: int
    busy_us: float
    interrupts: int

    @property
    def utilization(self) -> float:
        return self.busy_us / self.makespan_us if self.makespan_us else 0.0


class RpuDriver:
    """Schedules batches on one RPU core.

    ``wake_policy``:

    * ``"grouped"`` - the paper's policy: the driver holds completion
      interrupts and makes the batch runnable once ALL of its threads'
      I/O has completed (one context switch in, full active mask).
    * ``"eager"`` - ablation: every interrupt wakes the batch to handle
      it (a context switch per interrupt, as with per-thread wakeups).
    """

    def __init__(self, context_switch_us: float = 2.0,
                 interrupt_handling_us: float = 0.5,
                 wake_policy: str = "grouped"):
        if wake_policy not in ("grouped", "eager"):
            raise ValueError(f"unknown wake policy {wake_policy!r}")
        self.context_switch_us = context_switch_us
        self.interrupt_handling_us = interrupt_handling_us
        self.wake_policy = wake_policy

    def run(self, tasks: Sequence[BatchTask]) -> DriverStats:
        now = 0.0
        busy = 0.0
        switches = 0
        interrupts = 0
        san = sanitizer_enabled()
        last_pop = 0.0

        #: batches ready to run: (ready_time, bid, task, phase_index).
        #: ``(ready_time, bid)`` is unique (a batch is queued at most
        #: once), so the heap never compares the tasks and pops ready
        #: batches in ``(ready_time, bid)`` order.
        ready: List[Tuple[float, int, BatchTask, int]] = \
            [(0.0, t.bid, t, 0) for t in tasks]
        heapq.heapify(ready)
        running: Optional[int] = None  # last batch id on the core

        while ready:
            ready_time, bid, task, idx = heapq.heappop(ready)
            if san:
                # wake times are always pushed at or after `now`, so
                # ready-queue pops must be time-monotonic
                check(ready_time >= last_pop,
                      "driver: ready-time regression (%f after %f)",
                      ready_time, last_pop)
                last_pop = ready_time
            now = max(now, ready_time)
            if running != bid:
                now += self.context_switch_us
                switches += 1
                running = bid

            # execute phases until the batch blocks or finishes
            while idx < len(task.phases):
                phase = task.phases[idx]
                if isinstance(phase, ComputePhase):
                    now += phase.duration_us
                    busy += phase.duration_us
                    idx += 1
                    continue
                # I/O phase: block the batch
                interrupts += len(phase.latencies_us)
                if self.wake_policy == "grouped":
                    # one wakeup when the slowest completion arrives,
                    # plus a single batched interrupt-handling slot
                    wake = now + phase.last_completion \
                        + self.interrupt_handling_us
                    heapq.heappush(ready, (wake, bid, task, idx + 1))
                else:
                    # eager: the batch is woken per interrupt to handle
                    # it; each wake costs a switch + handling time.
                    # Model the cost as serialized switch-in + handling
                    # at each completion; the batch only proceeds after
                    # the last.
                    wake = now + phase.last_completion
                    extra = (len(phase.latencies_us) - 1)
                    per_wake = self.context_switch_us \
                        + self.interrupt_handling_us
                    heapq.heappush(ready, (wake + extra * per_wake, bid,
                                           task, idx + 1))
                    switches += extra
                idx = -1  # mark blocked
                break
            if idx >= len(task.phases):
                task.finished_at = now
            running = None if idx == -1 else running

        if san:
            check(busy <= now + 1e-9,
                  "driver: busy %f exceeds makespan %f", busy, now)
            for t in tasks:
                check(t.finished_at <= now + 1e-9,
                      "driver: batch %d finished at %f after makespan %f",
                      t.bid, t.finished_at, now)
        return DriverStats(makespan_us=now, context_switches=switches,
                           busy_us=busy, interrupts=interrupts)


def make_io_batch(bid: int, compute_us: float, io_us: Sequence[float],
                  post_compute_us: float = 0.0) -> BatchTask:
    """Convenience constructor: compute, block on I/O, finish up."""
    phases: List[Phase] = [ComputePhase(compute_us),
                           IoPhase(tuple(io_us))]
    if post_compute_us:
        phases.append(ComputePhase(post_compute_us))
    return BatchTask(bid=bid, phases=phases)
