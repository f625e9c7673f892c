"""Trace collection: turn executor runs into event streams for timing.

Two consumption styles share the same executors:

* :class:`ListSink` materializes a run's events (tests and fuzzing;
  ``CoreModel.run`` over ``ListSink`` streams is the test-side oracle
  of the per-instruction event protocol);
* :class:`TimingSink` streams events straight into an in-progress
  :class:`~repro.timing.core.CoreRun`, the one way ``run_chip`` times a
  run.

:class:`SoloRunner` solo-executes a population over one shared memory
image; lockstep batches go through :func:`repro.core.run.run_batch`.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.events import StepSink
from ..engine.lockstep import SoloExecutor
from ..engine.memory import MemoryImage
from ..engine.thread import ThreadState
from ..memsys.alloc import BaseAllocator, SimrAwareAllocator
from ..workloads.base import Microservice, Request
from .core import CoreRun, Event


class ListSink(StepSink):
    """Materializes the step stream of one run as a list of events."""

    def __init__(self):
        self.events: List[Event] = []

    def on_step(self, pc, inst, active, addrs, outcomes) -> None:
        self.events.append(
            (pc, inst, active, tuple(addrs),
             tuple(outcomes) if outcomes else None)
        )


class TimingSink(StepSink):
    """Feeds executor steps straight into one :class:`CoreRun` context.

    The borrowed ``addrs``/``outcomes`` sequences are safe to pass
    through: ``CoreRun.feed`` either consumes them synchronously
    (single-context runs) or copies them into its buffer.
    """

    def __init__(self, run: CoreRun, ctx: int = 0):
        self.ctx = ctx
        # single-context runs process synchronously, so the sink can
        # call the processing closure directly and skip the feed() hop
        self._feed = run._process if run._bufs is None else run.feed

    def on_step(self, pc, inst, active, addrs, outcomes) -> None:
        self._feed(self.ctx, pc, inst, active, addrs, outcomes)

    def on_done(self) -> None:
        """No-op: a context's stream ends with its executor run, and
        ``CoreRun.finish`` processes whatever is buffered."""


class SoloRunner:
    """Solo-executes a service's requests over one shared memory image.

    Request ``i`` is served by worker ``i % pool_size``, whose stack and
    heap arena are reused (freed and reallocated) between requests,
    giving consecutive CPU threads the warm-cache behaviour the paper
    notes.  Requests must be run in population order - the shared
    memory image and allocator make each request's trace depend on its
    predecessors.
    """

    def __init__(
        self,
        service: Microservice,
        allocator: Optional[BaseAllocator] = None,
        max_steps: int = 2_000_000,
        pool_size: int = 1,
    ):
        self.service = service
        self.mem = MemoryImage()
        self.allocator = (allocator if allocator is not None
                          else SimrAwareAllocator())
        self.shared = service.shared_setup(self.mem, self.allocator)
        self.max_steps = max_steps
        self.pool_size = pool_size

    def run_request(self, i: int, request: Request,
                    sink: Optional[StepSink]) -> None:
        worker = i % self.pool_size
        t = ThreadState(worker)
        self.service.setup_thread(t, request, self.mem, self.allocator,
                                  self.shared)
        SoloExecutor(self.service.program, sink=sink,
                     max_steps=self.max_steps).run(t, self.mem)
        self.allocator.free_all(worker)
