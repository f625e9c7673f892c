"""Discrete-event queueing simulator for microservice graphs (uqsim role).

Models the paper's end-to-end User scenario (Fig. 3 / Fig. 22):

    client -> WebServer -> User -> McRouter -> Memcached
                                                  \\-> Storage (miss)

Each tier is a multi-server station with deterministic service times.
Stations may *batch*: requests wait for ``batch_size`` arrivals or a
``batch_timeout_us``, then are served together.  A server is occupied
for ``occupancy_us`` per dispatch (the pipelined initiation interval,
which sets throughput) while the batch's *latency* is ``latency_us`` -
this decouples an RPU tier's 5x throughput from its 1.2x service
latency, as in the paper's uqsim configuration.

At the memcached tier, misses continue to millisecond-scale storage.
Without *batch splitting* the hit requests of a batch wait at the
reconvergence point until their batch's misses return from storage
(Fig. 17a); with splitting (Section III-B5) hits complete immediately.

This module holds the stations and the scenario's configuration; the
pipeline itself is :class:`repro.system.resilience.ResilientEndToEnd`,
which :func:`run_end_to_end` runs with every policy off and no faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..sanitize import check, sanitizer_enabled
from .scheduler import SimulationLimitError, Simulator  # noqa: F401


@dataclass(slots=True)
class Job:
    jid: int
    arrival_us: float
    blocks: bool = False  # misses memcached -> storage path
    done_us: float = 0.0
    #: logical request id (several attempt-Jobs of one retried/hedged
    #: request share it); -1 means "same as jid"
    rid: int = -1
    #: API/request class (drives batch-aware routing and the SIMT
    #: divergence cost of mixed-class batches in the fleet tier)
    api_id: int = 0
    #: attempt number of this Job for its logical request (0 = primary)
    attempt: int = 0
    #: True for a hedge duplicate launched by the resilience layer
    hedge: bool = False
    #: set by the fault injector: this attempt failed at ``fail_site``
    failed: bool = False
    fail_site: str = ""

    @property
    def latency_us(self) -> float:
        return self.done_us - self.arrival_us


class Station:
    """Multi-server station with optional request batching."""

    __slots__ = (
        "sim", "name", "latency_us", "occupancy_us", "_pipelined",
        "servers", "batch_size", "batch_timeout_us", "infinite",
        "_free_at", "_pending", "_pending_dones", "_timeout_at",
        "dispatched_batches", "dispatched_jobs", "arrived_jobs",
        "failed_jobs", "dropped_jobs", "busy_us", "faults",
        "batch_cost", "_san", "_sched1", "_schedc",
        "open_jobs", "open_groups",
    )

    def __init__(self, sim: Simulator, name: str, latency_us: float,
                 servers: int, occupancy_us: Optional[float] = None,
                 batch_size: int = 1, batch_timeout_us: float = 50.0,
                 infinite: bool = False):
        self.sim = sim
        self.name = name
        self.latency_us = latency_us
        #: server occupancy per *request* in a dispatch (pipelined
        #: initiation interval); a partially-filled batch only occupies
        #: the server for its actual fill
        self.occupancy_us = occupancy_us if occupancy_us is not None else latency_us
        #: pipelined stations decouple occupancy from latency; on a
        #: non-pipelined station the server is the request's execution
        #: context, so serialized overheads (latency spikes) occupy it
        self._pipelined = occupancy_us is not None
        self.servers = servers
        self.batch_size = batch_size
        self.batch_timeout_us = batch_timeout_us
        self.infinite = infinite
        self._free_at = [0.0] * (0 if infinite else servers)
        #: queued jobs and their completion callbacks, parallel lists
        #: (cheaper to slice at dispatch than a list of pairs)
        self._pending: List[Job] = []
        self._pending_dones: List[Callable] = []
        self._timeout_at: Optional[float] = None
        self.dispatched_batches = 0
        self.dispatched_jobs = 0
        self.arrived_jobs = 0
        #: jobs that failed fast because the station was down / in-flight
        self.failed_jobs = 0
        #: jobs individually dropped out of their dispatch
        self.dropped_jobs = 0
        #: total server-occupancy time actually dispatched (for the
        #: system energy model); stragglers are charged their real time
        self.busy_us = 0.0
        #: optional :class:`repro.system.faults.FaultInjector`; when
        #: None (the default) dispatching takes the exact pre-fault
        #: fast path
        self.faults = None
        #: optional SIMT batch-cost hook ``fn(group) -> multiplier``
        #: applied to both latency and occupancy of a dispatch (e.g.
        #: the fleet tier's divergence penalty for mixed-API batches);
        #: when None (the default) dispatch arithmetic is untouched
        self.batch_cost: Optional[Callable[[List[Job]], float]] = None
        self._san = sanitizer_enabled()
        #: locally-bound scheduler fast paths: every Station event is
        #: either ``fn(t)`` (flush timers) or ``fn(t, jobs)`` (batch
        #: completions), so the variadic ``schedule`` never runs hot
        self._sched1 = sim.schedule1
        #: sanitize-only occupancy conservation: dispatched jobs /
        #: groups whose completion event has not fired yet.  Completion
        #: scheduling goes through ``_schedc``, which is the plain
        #: scheduler fast path unless the sanitizer is armed.
        self.open_jobs = 0
        self.open_groups = 0
        self._schedc = self._sched_done if self._san else sim.schedule1

    def arrive(self, now: float, job: Job,
               done: Callable[[float, List[Job]], None]) -> None:
        """``done(t, jobs)`` fires once for the whole dispatched batch."""
        self.arrived_jobs += 1
        bs = self.batch_size
        if bs == 1:
            # unbatched stations never queue: dispatch straight through
            # without touching the pending list or the timeout machinery
            self._dispatch_one(now, job, done)
            return
        pending = self._pending
        pending.append(job)
        self._pending_dones.append(done)
        if len(pending) < bs:
            # the common case: the batch is still filling; it must
            # always have a pending flush or it would be stranded
            if self._timeout_at is None:
                deadline = now + self.batch_timeout_us
                self._timeout_at = deadline
                self._sched1(deadline, self._flush, None)
            return
        self._dispatch(now)
        if pending and self._timeout_at is None:
            deadline = now + self.batch_timeout_us
            self._timeout_at = deadline
            self._sched1(deadline, self._flush, None)

    def arrive_many(self, now: float, jobs: Sequence[Job],
                    done: Callable[[float, List[Job]], None]) -> None:
        """Arrive several jobs sharing one completion callback.

        Exactly equivalent to calling :meth:`arrive` once per job (same
        dispatch grouping, same timeout arming order), minus the
        per-job call overhead - routing callbacks fan whole batches
        into the next tier, so this is the hot entry point.
        """
        n = len(jobs)
        self.arrived_jobs += n
        if self.batch_size == 1:
            if (n > 1 and self.infinite and self.faults is None
                    and self.batch_cost is None):
                # every job of an unbatched infinite station dispatched
                # at the same instant starts now and finishes together:
                # complete the whole group through one event (the jobs
                # were consecutive events before, so firing order is
                # unchanged), with per-job dispatch accounting
                self.dispatched_batches += n
                self.dispatched_jobs += n
                self.busy_us += self.occupancy_us * n
                self._schedc(now + self.latency_us, done, list(jobs))
                return
            for job in jobs:
                self._dispatch_one(now, job, done)
            return
        pending = self._pending
        dones = self._pending_dones
        bs = self.batch_size
        timeout = self.batch_timeout_us
        schedule = self._sched1
        for job in jobs:
            pending.append(job)
            dones.append(done)
            if len(pending) >= bs:
                self._dispatch(now)
            if pending and self._timeout_at is None:
                deadline = now + timeout
                self._timeout_at = deadline
                schedule(deadline, self._flush, None)

    def _dispatch_one(self, now: float, job: Job, done: Callable) -> None:
        if self.faults is not None:
            self._serve_group_faulty(now, [job], done)
            return
        bc = self.batch_cost
        if bc is None:
            occ = self.occupancy_us
            lat = self.latency_us
        else:
            m = bc([job])
            occ = self.occupancy_us * m
            lat = self.latency_us * m
        if self.infinite:
            start = now
        else:
            free = self._free_at
            server = 0
            best = free[0]
            for s in range(1, len(free)):
                if free[s] < best:
                    best = free[s]
                    server = s
            start = best if best > now else now
            free[server] = start + occ
        finish = start + lat
        self.dispatched_batches += 1
        self.dispatched_jobs += 1
        self.busy_us += occ
        self._schedc(finish, done, [job])

    def _arm_timeout(self, now: float) -> None:
        """A partial batch must always have a pending flush, or its
        requests would be stranded when no further arrivals come."""
        if (self._pending and self.batch_size > 1
                and self._timeout_at is None):
            deadline = now + self.batch_timeout_us
            self._timeout_at = deadline
            self._sched1(deadline, self._flush, None)

    def _flush(self, now: float, _arg=None) -> None:
        self._timeout_at = None
        if self._pending:
            self._dispatch(now)
        self._arm_timeout(now)

    def _dispatch(self, now: float) -> None:
        pending = self._pending
        dones = self._pending_dones
        bs = self.batch_size
        while pending:
            n = len(pending)
            if n < bs:
                if self._timeout_at is not None:
                    break  # wait for more arrivals or the timeout
                # timed-out partial batch: drain everything in place
                group = pending[:]
                pending.clear()
                done = dones[0]
                if self._san:
                    self._check_dones(dones, n, done)
                dones.clear()
            else:
                n = bs
                group = pending[:bs]
                del pending[:bs]
                done = dones[0]
                if self._san:
                    self._check_dones(dones, n, done)
                del dones[:bs]
            if self.faults is not None:
                self._serve_group_faulty(now, group, done)
                if n < bs:
                    break
                continue
            bc = self.batch_cost
            if bc is None:
                occ = self.occupancy_us
                lat = self.latency_us
            else:
                m = bc(group)
                occ = self.occupancy_us * m
                lat = self.latency_us * m
            if self.infinite:
                start = now
            else:
                free = self._free_at
                server = 0
                best = free[0]
                for s in range(1, len(free)):
                    if free[s] < best:
                        best = free[s]
                        server = s
                start = best if best > now else now
                free[server] = start + occ * n
            finish = start + lat
            self.dispatched_batches += 1
            self.dispatched_jobs += n
            self.busy_us += occ * n
            self._schedc(finish, done, group)
            if n < bs:
                break

    def _check_dones(self, dones: List[Callable], n: int,
                     done: Callable) -> None:
        # a batch completes through exactly one callback; mixed
        # callbacks would silently drop the other jobs' routing
        for d in dones[:n]:
            check(d is done,
                  "station %s: mixed completion callbacks in "
                  "one dispatched batch", self.name)

    def _sched_done(self, when: float, done: Callable,
                    group: List[Job]) -> None:
        """Sanitized completion scheduling (``_schedc`` when
        ``REPRO_SANITIZE=1``): every dispatched group stays *open* until
        its callback fires exactly once, so occupancy conservation can
        be audited - the busy-server census of a sequential unbatched
        station can never exceed its open dispatches, including across
        outage kill/restore boundaries, and a drained station must end
        with zero open work.  The wrapper changes no event time or
        ordering, so sanitized runs stay byte-identical."""
        self.open_jobs += len(group)
        self.open_groups += 1

        def fire(t: float, jobs: List[Job], _done=done) -> None:
            n = len(jobs)
            check(self.open_jobs >= n and self.open_groups >= 1,
                  "station %s: completion of %d jobs fired with only "
                  "%d jobs / %d groups open (double completion?)",
                  self.name, n, self.open_jobs, self.open_groups)
            self.open_jobs -= n
            self.open_groups -= 1
            if (not self.infinite and not self._pipelined
                    and self.batch_size == 1):
                # sequential unbatched stations release each server
                # reservation no later than the group completes (killed
                # in-flight work frees it at the onset), so any server
                # still busy past ``t`` belongs to an open dispatch
                busy = 0
                for f in self._free_at:
                    if f > t:
                        busy += 1
                check(busy <= self.open_groups,
                      "station %s: %d busy servers exceed %d open "
                      "dispatches at t=%.3f", self.name, busy,
                      self.open_groups, t)
            _done(t, jobs)

        # the event-limit diagnostics must keep naming the wrapped
        # callback (or its owning station), not this sanitize shim
        fire.__wrapped__ = done
        self._sched1(when, fire, group)

    def _serve_group_faulty(self, now: float, group: List[Job],
                            done: Callable) -> None:
        """Dispatch one group through the fault injector.

        Semantics: a dispatch attempted while the station is down fails
        fast (no server time consumed); dropped requests leave the
        batch and fail fast; survivors are served with the injector's
        latency multiplier/spike, and an outage *beginning* during the
        service interval kills the in-flight work at its onset.
        Failed jobs complete through the same ``done`` callback with
        ``job.failed`` set, so routing layers can divert them.
        """
        inj = self.faults
        n = len(group)
        self.dispatched_batches += 1
        self.dispatched_jobs += n
        outage_end, drops, mult, extra = inj.plan(self.name, now, group)
        detect = now + inj.cfg.detect_us
        if outage_end is not None:
            for j in group:
                j.failed = True
                j.fail_site = self.name
            self.failed_jobs += n
            self._schedc(detect, done, group)
            return
        if drops:
            dropped = set(id(j) for j in drops)
            group = [j for j in group if id(j) not in dropped]
            for j in drops:
                j.failed = True
                j.fail_site = self.name
            self.dropped_jobs += len(drops)
            self._schedc(detect, done, list(drops))
            if not group:
                return
        if self.batch_cost is not None:
            mult *= self.batch_cost(group)
        occ = self.occupancy_us * mult
        occ_total = occ * len(group)
        if not self._pipelined:
            # on a non-pipelined station the server *is* the execution
            # context, so a latency spike (GC pause, CPU contention)
            # stalls the server for its duration; only a pipelined
            # station can absorb the spike outside its initiation
            # interval.  Utilization/busy accounting must reflect this,
            # or degraded runs under-report server-busy time.
            occ_total += extra
        if self.infinite:
            start = now
            server = -1
            free = self._free_at
        else:
            free = self._free_at
            server = 0
            best = free[0]
            for s in range(1, len(free)):
                if free[s] < best:
                    best = free[s]
                    server = s
            start = best if best > now else now
            free[server] = start + occ_total
        finish = start + self.latency_us * mult + extra
        # an outage beginning any time between the dispatch decision and
        # the would-be completion kills the (queued or in-flight) work
        onset = inj.outage_onset(self.name, now, finish) \
            if inj.has_outages else None
        if onset is not None:
            # the server worked up to the onset: charge the truncated
            # busy time and release the rest of the reservation (the
            # dead server's queue drains elsewhere after detection)
            served = min(onset, start + occ_total) - start
            if served < 0.0:
                served = 0.0
            if server >= 0:
                free[server] = start + served
            self.busy_us += served
            for j in group:
                j.failed = True
                j.fail_site = self.name
            self.failed_jobs += len(group)
            inj.stats.inflight_failures += len(group)
            self._schedc(max(now, onset) + inj.cfg.detect_us, done,
                         group)
            return
        self.busy_us += occ_total
        self._schedc(finish, done, group)

    def backlog_us(self, now: float) -> float:
        """How far behind the earliest-free server is (the load-shedding
        signal: time a new dispatch would wait for a server)."""
        if not self._free_at:
            return 0.0
        return max(0.0, min(self._free_at) - now)

    @property
    def queue_depth(self) -> int:
        """Requests waiting in the batching queue right now."""
        return len(self._pending)

    @property
    def utilization_horizon(self) -> float:
        return max(self._free_at) if self._free_at else 0.0


@dataclass
class EndToEndConfig:
    """Fig. 22 scenario parameters (paper Section V-B)."""

    web_us: float = 10.0
    user_us: float = 100.0
    mcrouter_us: float = 20.0
    memcached_us: float = 25.0
    storage_us: float = 1000.0
    network_us: float = 60.0
    memcached_hit_rate: float = 0.9
    #: effective service instances per tier across the 3 machines;
    #: calibrated so the CPU system saturates around 15 kQPS as in
    #: Fig. 22 (the paper does not publish uqsim's exact multiplicity)
    cpu_tier_servers: int = 2
    rpu: bool = False
    #: from the chip-level experiments (paper: 5x throughput, 1.2x
    #: latency at the same power budget)
    rpu_throughput_gain: float = 5.0
    rpu_latency_factor: float = 1.2
    batch_size: int = 32
    batch_timeout_us: float = 50.0
    batch_split: bool = False


@dataclass
class EndToEndResult:
    offered_qps: float
    completed: int
    avg_latency_us: float
    p50_us: float
    p99_us: float

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.offered_qps/1000:6.1f} kQPS  avg {self.avg_latency_us:8.1f} us  "
                f"p99 {self.p99_us:8.1f} us")


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample value such that at
    least ``q`` of the distribution lies at or below it - the
    ``ceil(q * n)``-th order statistic (1-indexed), clamped to the
    sample.  (``int(q * n)`` would index one *past* the nearest rank:
    the p99 of 100 samples must be the 99th value, not the maximum, and
    the median of an even-length sample is the lower of the two middle
    values under nearest-rank.)"""
    if not values:
        return 0.0
    s = sorted(values)
    rank = math.ceil(q * len(s))  # 1-indexed nearest rank
    return s[min(len(s) - 1, max(0, rank - 1))]


def run_end_to_end(cfg: EndToEndConfig, qps: float, n_requests: int = 4000,
                   seed: int = 1) -> EndToEndResult:
    """Simulate the User scenario at offered load ``qps``: the
    resilient pipeline with every policy off and no faults."""
    from .resilience import ResilienceConfig, ResilientEndToEnd

    r = ResilientEndToEnd(cfg, ResilienceConfig(), seed=seed).run(
        qps, n_requests)
    return EndToEndResult(offered_qps=qps, completed=r.completed,
                          avg_latency_us=r.avg_latency_us,
                          p50_us=r.p50_us, p99_us=r.p99_us)


def saturation_sweep(cfg: EndToEndConfig, qps_points: Sequence[float],
                     n_requests: int = 3000) -> List[EndToEndResult]:
    """Latency-vs-load curve (one Fig. 22 series)."""
    return [run_end_to_end(cfg, q, n_requests) for q in qps_points]


def max_throughput_kqps(results: Sequence[EndToEndResult],
                        qos_limit_us: float = 2500.0) -> float:
    """Highest offered load whose p99 meets the QoS limit."""
    best = 0.0
    for r in results:
        if r.completed > 0 and r.p99_us <= qos_limit_us:
            best = max(best, r.offered_qps)
    return best / 1000.0
