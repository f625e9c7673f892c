"""Resilience policies over the faulty end-to-end simulation.

Runs the paper's Fig. 22 User scenario (web -> user -> mcrouter ->
memcached -> storage-on-miss) on a cluster with injected faults
(:mod:`repro.system.faults`) and layers client-side resilience on top:

* **deadlines** - each request carries ``deadline_us``; an unresolved
  request is counted *violated* when it expires;
* **retry with exponential backoff + deterministic jitter** - a failed
  attempt re-enters the front of the pipeline after
  ``retry_backoff_us * backoff_mult**k`` (jittered by a seeded hash),
  so retries *re-enter the batch queues* and perturb batch formation -
  the SIMR interaction the sweep measures;
* **hedged requests** - if the primary attempt has not resolved after
  ``hedge_after_us``, a duplicate is launched; first completion wins
  and the loser is drained through the stations (never cancelled
  mid-flight, so the no-leak invariant is checkable);
* **load shedding** - a request arriving while the entry tier is more
  than ``shed_backlog_us`` behind is rejected immediately;
* **circuit breaker** - ``breaker_threshold`` consecutive failures at
  one station fail subsequent attempts fast for
  ``breaker_cooldown_us`` instead of queueing into a dead machine;
* **graceful degradation** - a memcached miss whose storage visit
  fails (or is breaker-blocked) can complete *degraded* with a
  recorded quality penalty instead of failing the request.

Conservation contract (sanitizer-checked under ``REPRO_SANITIZE=1``,
and always summarized in the result): every injected request resolves
exactly once as completed, shed, or violated; every launched attempt -
including hedge losers and post-resolution stragglers - is accounted
exactly once; per-request retries/hedges never exceed their budgets.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Optional

from ..sanitize import check, sanitizer_enabled
from .faults import FaultConfig, FaultInjector
from .queueing import (
    EndToEndConfig,
    Job,
    Simulator,
    Station,
    _percentile,
)
from .seeding import stream_u

#: request outcomes (exactly one per injected request)
DONE, SHED, VIOLATED = "done", "shed", "violated"

#: simple tier power model for the system-level requests/joule metric:
#: a fully-occupied tier server burns DYNAMIC_W, every provisioned tier
#: server leaks STATIC_W for the whole run, and the (shared, remote)
#: storage backend is charged dynamic-only at a lower rate.
DYNAMIC_W = 20.0
STATIC_W = 8.0
STORAGE_DYNAMIC_W = 4.0


@dataclass(frozen=True)
class ResilienceConfig:
    """Client-side policy knobs (defaults = every policy off)."""

    deadline_us: float = math.inf
    max_retries: int = 0
    retry_backoff_us: float = 300.0
    backoff_mult: float = 2.0
    #: backoff is multiplied by ``1 + jitter_frac * u`` with ``u`` a
    #: seeded per-(request, attempt) hash - deterministic jitter
    jitter_frac: float = 0.5
    hedge_after_us: float = math.inf
    max_hedges: int = 1
    #: shed arrivals when the entry tier is this far behind (0 = off)
    shed_backlog_us: float = 0.0
    #: consecutive failures at one station that open its breaker (0 = off)
    breaker_threshold: int = 0
    breaker_cooldown_us: float = 5_000.0
    #: complete a request whose storage leg failed, at a quality penalty
    degrade_storage: bool = False
    quality_penalty: float = 0.25
    seed: int = 23


class CircuitBreaker:
    """Consecutive-failure breaker, one state per station name."""

    def __init__(self, threshold: int, cooldown_us: float):
        self.threshold = threshold
        self.cooldown_us = cooldown_us
        self._fails: Dict[str, int] = {}
        self._open_until: Dict[str, float] = {}
        self.opened = 0

    def allow(self, name: str, now: float) -> bool:
        return now >= self._open_until.get(name, 0.0)

    def failure(self, name: str, now: float) -> None:
        if self.threshold <= 0:
            return
        n = self._fails.get(name, 0) + 1
        if n >= self.threshold:
            self._open_until[name] = now + self.cooldown_us
            self._fails[name] = 0
            self.opened += 1
        else:
            self._fails[name] = n

    def success(self, name: str) -> None:
        if self._fails.get(name):
            self._fails[name] = 0


@dataclass
class ResilientResult:
    """One resilient end-to-end run (metrics the sweep reports)."""

    offered_qps: float
    n_requests: int
    completed: int
    shed: int
    violated: int
    degraded: int
    retries: int
    hedges: int
    hedge_wins: int
    failed_attempts: int
    breaker_opens: int
    avg_latency_us: float
    p50_us: float
    p99_us: float
    p999_us: float
    goodput_kqps: float
    energy_j: float
    requests_per_joule: float
    quality: float
    fault_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def goodput_frac(self) -> float:
        return self.completed / self.n_requests if self.n_requests else 0.0


def system_energy_joules(tiers: List[Station], storage: Station,
                         horizon_us: float) -> float:
    """Busy-time dynamic energy + provisioned static energy (joules)."""
    dyn = sum(st.busy_us for st in tiers) * 1e-6 * DYNAMIC_W
    dyn += storage.busy_us * 1e-6 * STORAGE_DYNAMIC_W
    static = sum(st.servers for st in tiers) * horizon_us * 1e-6 * STATIC_W
    return dyn + static


class ResilientEndToEnd:
    """Fig. 22 pipeline + fault injector + resilience policies.

    With every policy off and no faults this is the plain User path
    that :func:`repro.system.queueing.run_end_to_end` reports, so the
    hot callbacks branch on what the policy turns on instead of paying
    for it: without an injector or a breaker no attempt can fail, and
    routing skips the failure scan and the breaker bookkeeping.
    """

    def __init__(self, cfg: EndToEndConfig, policy: ResilienceConfig,
                 faults: Optional[FaultConfig] = None, seed: int = 1,
                 max_events: Optional[int] = None):
        self.cfg = cfg
        self.policy = policy
        #: consumed only while precomputing the arrival schedule in
        #: :meth:`run`, before the event loop starts; event callbacks
        #: use keyed-hash draws (interleaving independence - the same
        #: contract as :mod:`repro.system.faults`)
        self.rng = random.Random(seed)
        self.sim = Simulator(max_events=max_events)
        self.injector: Optional[FaultInjector] = None
        if faults is not None and faults.enabled:
            self.injector = FaultInjector(faults)

        if cfg.rpu:
            lat = cfg.rpu_latency_factor
            gain = cfg.rpu_throughput_gain

            def tier(name: str, t_us: float) -> Station:
                # per-request pipelined occupancy = 1/gain of the CPU's
                return Station(self.sim, name, t_us * lat,
                               cfg.cpu_tier_servers,
                               occupancy_us=t_us / gain,
                               batch_size=cfg.batch_size,
                               batch_timeout_us=cfg.batch_timeout_us)
        else:
            def tier(name: str, t_us: float) -> Station:
                return Station(self.sim, name, t_us, cfg.cpu_tier_servers)

        self.user_st = tier("user", cfg.user_us)
        self.mcrouter_st = tier("mcrouter", cfg.mcrouter_us)
        self.memcached_st = tier("memcached", cfg.memcached_us)
        self.storage_st = Station(self.sim, "storage", cfg.storage_us,
                                  servers=0, infinite=True)
        self.stations = [self.user_st, self.mcrouter_st,
                         self.memcached_st, self.storage_st]
        if self.injector is not None:
            self.injector.attach(*self.stations)

        self.breaker = CircuitBreaker(policy.breaker_threshold,
                                      policy.breaker_cooldown_us)
        self._breaker_on = policy.breaker_threshold > 0
        self._may_fail = self.injector is not None or self._breaker_on
        self._hedge_on = policy.hedge_after_us != math.inf
        #: admission runs the shed check or arms a deadline
        self._gated = (policy.shed_backlog_us > 0
                       or policy.deadline_us != math.inf)
        self._web_us = cfg.web_us
        self._network_us = cfg.network_us
        #: per-request lifecycle, one list per field indexed by the
        #: request id (allocated in :meth:`run`): the hot path builds no
        #: per-request object
        self.arrival_us: List[float] = []
        self.blocks: List[bool] = []
        #: DONE, SHED or VIOLATED once resolved, else None
        self.outcome: List[Optional[str]] = []
        #: attempts launched so far (the next attempt's number)
        self.attempts: List[int] = []
        self.req_retries: List[int] = []
        self.req_hedges: List[int] = []
        #: attempts currently in the pipeline (primary + live hedges); a
        #: request may only resolve VIOLATED once this reaches zero
        self.inflight: List[int] = []
        #: retry relaunches scheduled but not yet fired; while one is
        #: pending, further attempt failures must not burn more budget
        self.backoffs: List[int] = []
        #: latencies of the DONE requests in resolution order (the order
        #: the mean sums them in), and tallies of the other outcomes
        self.latencies: List[float] = []
        self.shed = 0
        self.violated = 0
        self.hedge_wins = 0
        self.failed_attempts = 0
        self.degraded_completions = 0
        self._jid = 0
        self._n_requests = 0
        self._split = cfg.batch_split or not cfg.rpu
        self._san = sanitizer_enabled()
        self._horizon_us = 0.0
        # one stable bound-callback object per station: a batched
        # station dispatches a whole group through a single callback
        # and sanitizes on callback *identity*, so every arrival must
        # share the same object (attribute access would mint new ones)
        self._cb_after_user = self._after_user
        self._cb_after_mcrouter = self._after_mcrouter
        self._cb_after_memcached = self._after_memcached
        # the injector reschedules itself once per request
        self._cb_inject = self._inject

    # -- deterministic jitter ------------------------------------------
    def _u(self, rid: int, k: int) -> float:
        return stream_u(self.policy.seed, rid, k)

    # -- attempt lifecycle ---------------------------------------------
    def _launch(self, t: float, rid: int, hedge: bool = False) -> None:
        self._jid += 1
        # positional: a keyword call costs twice as much on this path
        # (jid, arrival_us, blocks, done_us, rid, api_id, attempt, hedge)
        job = Job(self._jid, self.arrival_us[rid], self.blocks[rid], 0.0,
                  rid, 0, self.attempts[rid], hedge)
        self.attempts[rid] += 1
        self.inflight[rid] += 1
        if self._hedge_on and not hedge:
            self.sim.schedule1(t + self.policy.hedge_after_us,
                               self._maybe_hedge, rid)
        self.user_st.arrive(t, job, self._cb_after_user)

    def _maybe_hedge(self, now: float, rid: int) -> None:
        if (self.outcome[rid] is None
                and self.req_hedges[rid] < self.policy.max_hedges):
            self.req_hedges[rid] += 1
            self._launch(now, rid, hedge=True)

    def _relaunch(self, now: float, rid: int) -> None:
        self.backoffs[rid] -= 1
        # the request may have been resolved (deadline) while backing off
        if self.outcome[rid] is None:
            self._launch(now, rid)

    def _attempt_failed(self, now: float, job: Job) -> None:
        self.failed_attempts += 1
        site = job.fail_site
        if ":" not in site:  # breaker fail-fasts don't re-feed the breaker
            self.breaker.failure(site, now)
        rid = job.rid
        self.inflight[rid] -= 1
        if self.outcome[rid] is not None:
            return
        if self.backoffs[rid]:
            # a retry is already scheduled for this request: an outage
            # onset that killed the primary and its hedge in one batch
            # must not burn a second slice of the retry budget
            return
        pol = self.policy
        k = self.req_retries[rid]
        if k < pol.max_retries:
            self.req_retries[rid] = k + 1
            back = (pol.retry_backoff_us * pol.backoff_mult ** k
                    * (1.0 + pol.jitter_frac * self._u(rid, k)))
            t = now + back
            if t < self.arrival_us[rid] + pol.deadline_us:
                self.backoffs[rid] += 1
                self.sim.schedule1(t, self._relaunch, rid)
                return
        if self.inflight[rid] == 0:
            # budget exhausted and nothing else racing: give up now.
            # With a sibling attempt still in the pipeline (a hedge),
            # the request stays open - that attempt may yet complete.
            self._resolve(now, rid, VIOLATED)

    def _resolve(self, t: float, rid: int, outcome: str) -> None:
        """Resolve an open request SHED or VIOLATED (DONE resolves in
        :meth:`_finish`)."""
        if self._san:
            check(self.outcome[rid] is None,
                  "resilience: request %d resolved twice (%s then %s)",
                  rid, self.outcome[rid], outcome)
        self.outcome[rid] = outcome
        if outcome is SHED:
            self.shed += 1
        else:
            self.violated += 1
        # measurement horizon: last *resolution*, not sim drain time
        # (deadline timers and hedge losers tick on harmlessly after
        # the final request has resolved and must not dilute goodput)
        if t > self._horizon_us:
            self._horizon_us = t

    def _deadline(self, now: float, rid: int) -> None:
        if self.outcome[rid] is None:
            self._resolve(now, rid, VIOLATED)

    # -- pipeline routing ----------------------------------------------
    def _survivors(self, now: float, jobs: List[Job],
                   nxt: str) -> List[Job]:
        """The attempts of ``jobs`` that may enter station ``nxt``:
        failed ones go to the retry logic, and an open breaker at
        ``nxt`` fails the rest fast."""
        ok = []
        for j in jobs:
            if j.failed:
                self._attempt_failed(now, j)
            else:
                ok.append(j)
        if ok and self._breaker_on and not self.breaker.allow(nxt, now):
            for j in ok:
                j.failed = True
                j.fail_site = nxt + ":breaker"
                self._attempt_failed(now, j)
            return []
        return ok

    def _after_user(self, now: float, jobs: List[Job]) -> None:
        if self._may_fail:
            jobs = self._survivors(now, jobs, "mcrouter")
            if not jobs:
                return
        self.mcrouter_st.arrive_many(now, jobs, self._cb_after_mcrouter)

    def _after_mcrouter(self, now: float, jobs: List[Job]) -> None:
        if self._may_fail:
            jobs = self._survivors(now, jobs, "memcached")
            if not jobs:
                return
        self.memcached_st.arrive_many(now, jobs, self._cb_after_memcached)

    def _finish(self, now: float, jobs: List[Job],
                degraded: bool = False) -> None:
        """Attempts leave the pipeline at ``now`` and reach the client
        one network hop later; the first to succeed resolves its
        request DONE, later ones are hedge losers or stragglers."""
        done_at = now + self._network_us
        outcome = self.outcome
        inflight = self.inflight
        breaker_on = self._breaker_on
        for j in jobs:
            if j.failed:
                self._attempt_failed(now, j)
                continue
            if breaker_on:
                br = self.breaker
                br.success("user")
                br.success("mcrouter")
                br.success("memcached")
                if j.blocks and not degraded:
                    br.success("storage")
            rid = j.rid
            inflight[rid] -= 1
            if outcome[rid] is not None:
                continue  # hedge loser / post-deadline straggler
            outcome[rid] = DONE
            self.latencies.append(done_at - j.arrival_us)
            if done_at > self._horizon_us:
                self._horizon_us = done_at
            if degraded:
                self.degraded_completions += 1
            if j.hedge:
                self.hedge_wins += 1

    def _storage_leg(self, now: float, misses: List[Job],
                     done: Callable) -> None:
        """Route a miss sub-batch to storage, honoring breaker/degrade."""
        if self._breaker_on and not self.breaker.allow("storage", now):
            if self.policy.degrade_storage:
                # skip the dead downstream: serve stale at a penalty
                done(now, misses, True)
                return
            for j in misses:
                j.failed = True
                j.fail_site = "storage:breaker"
            done(now, misses, False)
            return
        self.storage_st.arrive_many(
            now, misses, lambda t, js: self._after_storage(t, js, done))

    def _after_storage(self, now: float, jobs: List[Job],
                       done: Callable) -> None:
        if self.policy.degrade_storage:
            failed = [j for j in jobs if j.failed]
            okay = [j for j in jobs if not j.failed]
            if okay:
                done(now, okay, False)
            if failed:
                for j in failed:  # degrade instead of failing the attempt
                    j.failed = False
                    j.fail_site = ""
                done(now, failed, True)
            return
        done(now, jobs, False)

    def _after_memcached(self, now: float, jobs: List[Job]) -> None:
        hits: List[Job] = []
        misses: List[Job] = []
        for j in jobs:
            if j.failed:
                self._attempt_failed(now, j)
            elif j.blocks:
                misses.append(j)
            else:
                hits.append(j)
        if not misses:
            if hits:
                self._finish(now, hits)
            return
        if self._split:
            # fast sub-batch continues past the reconvergence point
            if hits:
                self._finish(now, hits)
            self._storage_leg(now, misses, self._finish)
            return
        # lockstep without splitting: hits wait for the batch's misses
        remaining = {"n": len(misses)}

        def on_storage(t: float, js: List[Job], deg: bool) -> None:
            self._finish(t, js, deg)
            remaining["n"] -= len(js)
            if remaining["n"] == 0 and hits:
                self._finish(t, hits)

        self._storage_leg(now, misses, on_storage)

    # -- driving --------------------------------------------------------
    def _inject(self, now: float, i: int) -> None:
        # each arrival schedules the next, so the scheduler only ever
        # holds in-flight work instead of the whole arrival schedule
        nxt = i + 1
        if nxt < self._n_requests:
            self.sim.schedule1(self.arrival_us[nxt], self._cb_inject, nxt)
        if self._gated:
            pol = self.policy
            if (pol.shed_backlog_us > 0
                    and self.user_st.backlog_us(now) > pol.shed_backlog_us):
                self._resolve(now, i, SHED)
                return
            if pol.deadline_us != math.inf:
                self.sim.schedule1(now + pol.deadline_us, self._deadline, i)
        self._launch(now + self._web_us + self._network_us, i)

    def run(self, qps: float, n_requests: int = 2000) -> ResilientResult:
        self._san = sanitizer_enabled()
        n = self._n_requests = n_requests
        inter_us = 1e6 / qps
        hit_rate = self.cfg.memcached_hit_rate
        rnd = self.rng.random
        log = math.log
        # the whole arrival schedule is drawn *before* the event loop,
        # so no event callback ever consumes shared RNG state.  The draw
        # order is gap, then per request [blocks, gap]; each
        # ``expovariate(1.0)`` is exactly ``-log(1 - random())``, so the
        # sequence is one run of uniform draws: even indices are
        # arrival gaps, odd indices are hit/miss draws
        raw = [rnd() for _ in range(2 * n)]
        self.arrival_us = list(accumulate(
            -log(1.0 - u) * inter_us for u in raw[0::2]))
        self.blocks = [u >= hit_rate for u in raw[1::2]]
        self.outcome = [None] * n
        self.attempts = [0] * n
        self.req_retries = [0] * n
        self.req_hedges = [0] * n
        self.inflight = [0] * n
        self.backoffs = [0] * n
        if n > 0:
            self.sim.schedule1(self.arrival_us[0], self._cb_inject, 0)
        self.sim.run()

        lats = self.latencies
        n_done = len(lats)
        if self._san:
            self._sanitize(n, n_done)
        # the mean sums in resolution order; the percentiles read the
        # sorted sample
        avg = sum(lats) / n_done if n_done else 0.0
        lats = sorted(lats)
        makespan_us = max(self._horizon_us, 1e-9)
        energy = system_energy_joules(
            [self.user_st, self.mcrouter_st, self.memcached_st],
            self.storage_st, makespan_us)
        n_degraded = self.degraded_completions
        quality = 0.0
        if n_done:
            quality = (n_done - n_degraded * self.policy.quality_penalty) \
                / n_done
        inj = self.injector
        fault_stats = {}
        if inj is not None:
            fault_stats = {
                "outage_failures": inj.stats.outage_failures,
                "inflight_failures": inj.stats.inflight_failures,
                "drops": inj.stats.drops,
                "stragglers": inj.stats.stragglers,
                "spikes": inj.stats.spikes,
            }
        return ResilientResult(
            offered_qps=qps,
            n_requests=n,
            completed=n_done,
            shed=self.shed,
            violated=self.violated,
            degraded=n_degraded,
            retries=sum(self.req_retries),
            hedges=sum(self.req_hedges),
            hedge_wins=self.hedge_wins,
            failed_attempts=self.failed_attempts,
            breaker_opens=self.breaker.opened,
            avg_latency_us=avg,
            p50_us=_percentile(lats, 0.50),
            p99_us=_percentile(lats, 0.99),
            p999_us=_percentile(lats, 0.999),
            goodput_kqps=n_done / makespan_us * 1e3,
            energy_j=energy,
            requests_per_joule=n_done / energy if energy > 0 else 0.0,
            quality=quality,
            fault_stats=fault_stats,
        )

    def _sanitize(self, n: int, completed: int) -> None:
        """The conservation invariants of the resilience layer."""
        check(completed + self.shed + self.violated == n,
              "resilience: %d requests but %d completed + %d shed + %d "
              "violated", n, completed, self.shed, self.violated)
        done = self.outcome.count(DONE)
        check(done == completed,
              "resilience: %d requests resolved DONE but %d latencies "
              "recorded", done, completed)
        pol = self.policy
        for rid in range(n):
            check(self.req_retries[rid] <= pol.max_retries,
                  "resilience: request %d used %d retries (budget %d)",
                  rid, self.req_retries[rid], pol.max_retries)
            check(self.req_hedges[rid] <= pol.max_hedges,
                  "resilience: request %d used %d hedges (budget %d)",
                  rid, self.req_hedges[rid], pol.max_hedges)
            # every launched attempt - hedge losers and stragglers
            # included - is accounted exactly once
            check(self.inflight[rid] == 0,
                  "resilience: request %d drained with %d attempts "
                  "still in flight - a job leaked (hedge cancellation?)",
                  rid, self.inflight[rid])
            check(self.backoffs[rid] == 0,
                  "resilience: request %d drained with %d backoff "
                  "relaunches still pending", rid, self.backoffs[rid])
        for lat in self.latencies:
            check(lat >= 0.0,
                  "resilience: a request finished %f us before arriving",
                  -lat)
        for st in self.stations:
            check(not st._pending,
                  "resilience: station %s stranded %d jobs",
                  st.name, len(st._pending))
            check(st.dispatched_jobs == st.arrived_jobs,
                  "resilience: station %s dispatched %d of %d arrivals",
                  st.name, st.dispatched_jobs, st.arrived_jobs)
            check(st.open_jobs == 0 and st.open_groups == 0,
                  "resilience: station %s drained with %d jobs / %d "
                  "groups still open", st.name, st.open_jobs,
                  st.open_groups)


def run_resilient(cfg: EndToEndConfig, policy: ResilienceConfig,
                  faults: Optional[FaultConfig] = None, qps: float = 10000,
                  n_requests: int = 2000, seed: int = 1,
                  max_events: Optional[int] = None) -> ResilientResult:
    """Convenience wrapper: one resilient end-to-end run."""
    return ResilientEndToEnd(cfg, policy, faults, seed=seed,
                             max_events=max_events).run(qps, n_requests)
