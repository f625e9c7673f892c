"""Generic microservice-graph simulation (the full Fig. 3 topology).

``resilience.ResilientEndToEnd`` (behind ``queueing.run_end_to_end``)
hard-codes the paper's Fig. 22 User path; this module generalizes to
arbitrary service graphs so the whole social-network application of
Fig. 3 can be driven end to end:

    web -> {user | post | search}
    post   -> uniqueid + text + urlshort   (parallel fan-out, join)
    search -> 8 leaf shards                (parallel fan-out, join)
    user   -> mcrouter -> memcached (-> storage on miss)

Each node is a batched/batchable Station; edges either *route* (pick
one child by probability) or *fan out* (visit all children in parallel
and join on the slowest).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sanitize import check, sanitizer_enabled
from .faults import FaultConfig, FaultInjector
from .queueing import EndToEndResult, Job, Simulator, Station, _percentile
from .resilience import ResilienceConfig
from .seeding import PrefixStream, stream_u


@dataclass
class GraphNode:
    """One service tier."""

    name: str
    service_us: float
    servers: int = 1
    #: route: pick one child by weight; fanout: visit all and join
    route: List[Tuple[str, float]] = field(default_factory=list)
    fanout: List[str] = field(default_factory=list)
    #: optional per-visit side branch probability (e.g. storage miss)
    miss_to: Optional[str] = None
    miss_rate: float = 0.0


@dataclass
class GraphConfig:
    nodes: Dict[str, GraphNode]
    entry: str
    network_us: float = 60.0
    rpu: bool = False
    rpu_throughput_gain: float = 5.0
    rpu_latency_factor: float = 1.2
    batch_size: int = 32
    batch_timeout_us: float = 50.0


def social_network_graph(rpu: bool = False) -> GraphConfig:
    """The Fig. 3 application with the paper's Fig. 22 latency scales."""
    nodes = {
        "web": GraphNode("web", 10.0, servers=2,
                         route=[("user", 0.3), ("post", 0.4),
                                ("search", 0.3)]),
        "user": GraphNode("user", 100.0, route=[("mcrouter", 1.0)]),
        "mcrouter": GraphNode("mcrouter", 20.0,
                              route=[("memcached", 1.0)]),
        "memcached": GraphNode("memcached", 25.0, miss_to="storage",
                               miss_rate=0.1),
        "storage": GraphNode("storage", 1000.0, servers=10_000),
        "post": GraphNode("post", 60.0,
                          fanout=["uniqueid", "text", "urlshort"]),
        "uniqueid": GraphNode("uniqueid", 15.0),
        "text": GraphNode("text", 40.0),
        "urlshort": GraphNode("urlshort", 20.0),
        "search": GraphNode("search", 50.0,
                            fanout=[f"shard{i}" for i in range(8)]),
        **{f"shard{i}": GraphNode(f"shard{i}", 80.0) for i in range(8)},
    }
    return GraphConfig(nodes=nodes, entry="web", rpu=rpu)


class GraphSimulation:
    """Drives jobs through a GraphConfig at an offered load.

    ``faults`` attaches a :class:`~repro.system.faults.FaultInjector`
    to every station; ``resilience`` arms the retry/deadline subset of
    :class:`~repro.system.resilience.ResilienceConfig` at the request
    level (a failed attempt re-enters the entry tier's batch queue
    after exponential backoff with deterministic jitter; an unresolved
    request past its deadline, or out of retries, counts as violated).
    With both left at None the simulation is bit-identical to the
    pre-fault-layer behaviour.

    Randomness: the arrival schedule is drawn from one seeded RNG
    *before* the event loop starts (a fixed draw sequence), while every
    in-simulation decision - routing, miss branches, retry jitter - is
    a pure keyed-hash function of stable identifiers (request id,
    attempt, node name) via :mod:`repro.system.seeding`.  No RNG state
    is consumed inside event callbacks, so results are independent of
    event interleaving: adding a replica, changing a batch timeout, or
    one request retrying cannot perturb any other request's draws.
    (Each attempt visits a node at most once - the continuation table
    is a per-node ``{jid: continuation}`` dict - so
    ``(node, rid, attempt)`` uniquely identifies a routing decision.)

    Hot-path layout: each node's completion callback is *compiled* in
    :meth:`_make_after` - the routing table (children + cumulative
    weights), the miss branch and the per-node
    :class:`~repro.system.seeding.PrefixStream` draws are baked into
    one closure per node, so serving a job does no routing-table
    walks, repr-hashing or closure allocation on the common path (the
    only per-job closure left is the miss continuation, taken at
    ``miss_rate``).
    """

    __slots__ = ("cfg", "seed", "rng", "sim", "injector", "resilience",
                 "violated", "_rstates", "_jidc", "stations", "finished",
                 "_conts", "_afters", "_vbund")

    def __init__(self, cfg: GraphConfig, seed: int = 1,
                 faults: Optional[FaultConfig] = None,
                 resilience: Optional[ResilienceConfig] = None):
        self.cfg = cfg
        self.seed = seed
        #: used only for the upfront arrival schedule (drawn before the
        #: event loop runs), never inside event callbacks
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.injector: Optional[FaultInjector] = None
        if faults is not None and faults.enabled:
            self.injector = FaultInjector(faults)
        self.resilience = resilience
        self.violated = 0
        self._rstates: Dict[int, dict] = {}
        self._jidc = itertools.count()
        self.stations: Dict[str, Station] = {}
        for name, node in cfg.nodes.items():
            if cfg.rpu and node.servers < 1000:
                self.stations[name] = Station(
                    self.sim, name,
                    node.service_us * cfg.rpu_latency_factor,
                    node.servers,
                    occupancy_us=node.service_us / cfg.rpu_throughput_gain,
                    batch_size=cfg.batch_size,
                    batch_timeout_us=cfg.batch_timeout_us,
                )
            else:
                self.stations[name] = Station(
                    self.sim, name, node.service_us, node.servers,
                    infinite=node.servers >= 1000,
                )
        if self.injector is not None:
            self.injector.attach(*self.stations.values())
        self.finished: List[Job] = []
        #: per-node ``{jid: continuation}`` tables: a Station fires one
        #: callback per dispatched *batch*, so each job's onward path
        #: is looked up here rather than captured per-arrival
        self._conts: Dict[str, Dict[int, Callable[[float], None]]] = \
            {name: {} for name in cfg.nodes}
        #: one completion callback per station, shared by every arrival
        #: (a batch dispatches through a single callback; per-arrival
        #: closures would be both slower and wrong for batches)
        self._afters = {name: self._make_after(node)
                        for name, node in cfg.nodes.items()}
        self._rebind_visits()

    def _rebind_visits(self) -> None:
        """Per-node ``(conts, arrive, after)`` bundles: one dict lookup
        per visit instead of three (subclasses that replace the station
        layer rebuild this after rewiring)."""
        self._vbund = {name: (self._conts[name], st.arrive,
                              self._afters[name])
                       for name, st in self.stations.items()}

    def _make_after(self, node: GraphNode):
        """Compile one node's completion callback.

        Everything per-node-constant - the continuation table, the
        routing children with their cumulative weights, the miss branch
        and the keyed draw streams - is bound into the closure; the
        draws themselves are bit-identical to the ``stream_u`` calls
        they replace (:class:`~repro.system.seeding.PrefixStream`).
        """
        name = node.name
        conts = self._conts[name]
        visit = self._visit
        net = self.cfg.network_us

        if node.route:
            children = [c for c, _w in node.route]
            cum: List[float] = []
            acc = 0.0
            for _c, w in node.route:
                acc += w
                cum.append(acc)
            total = sum(w for _c, w in node.route)
            n_children = len(children)
            last = children[-1]
            route_u = PrefixStream(self.seed, "route", name).u2

            def downstream(t: float, job: Job, rid: int, done) -> None:
                x = route_u(rid, job.attempt) * total
                for k in range(n_children):
                    if x < cum[k]:
                        visit(t + net, children[k], job, done)
                        return
                visit(t + net, last, job, done)
        elif node.fanout:
            fanout = list(node.fanout)
            nf = len(fanout)

            def downstream(t: float, job: Job, rid: int, done) -> None:
                cell = [nf]

                def join(tt: float) -> None:
                    cell[0] -= 1
                    if not cell[0]:
                        done(tt)

                for child in fanout:
                    visit(t + net, child, job, join)
        else:
            def downstream(t: float, job: Job, rid: int, done) -> None:
                done(t)

        miss_to = node.miss_to
        if miss_to:
            miss_rate = node.miss_rate
            miss_u = PrefixStream(self.seed, "miss", name).u2

            def serve_one(t: float, job: Job) -> None:
                done = conts.pop(job.jid)
                rid = job.rid if job.rid >= 0 else job.jid
                if miss_u(rid, job.attempt) < miss_rate:
                    # the side branch resumes this node's downstream
                    # path when it completes (the only remaining
                    # per-job closure, taken at miss_rate)
                    def cont(tt: float, job=job, rid=rid,
                             done=done) -> None:
                        downstream(tt, job, rid, done)

                    visit(t + net, miss_to, job, cont)
                else:
                    downstream(t, job, rid, done)
        else:
            def serve_one(t: float, job: Job) -> None:
                downstream(t, job,
                           job.rid if job.rid >= 0 else job.jid,
                           conts.pop(job.jid))

        if self.injector is None:
            def after(t: float, jobs: List[Job]) -> None:
                for j in jobs:
                    serve_one(t, j)
            return after

        attempt_failed = self._attempt_failed

        def after(t: float, jobs: List[Job]) -> None:
            for j in jobs:
                if j.failed:
                    conts.pop(j.jid)
                    attempt_failed(t, j)
                else:
                    serve_one(t, j)
        return after

    # -- fault/resilience request lifecycle ----------------------------
    def _attempt_failed(self, now: float, job: Job) -> None:
        """A fault killed this attempt somewhere in the graph: retry
        from the entry tier (re-entering its batch queue) or give up.
        The attempt's other fan-out legs keep draining harmlessly -
        their join continuation checks the resolved flag."""
        state = self._rstates[job.rid]
        if state["resolved"]:
            return
        if job.attempt < state["retries"]:
            # a sibling fan-out leg of this attempt already triggered
            # its retry (or this is a stale older attempt): one failed
            # attempt, one retry - otherwise each failed leg would
            # spawn its own duplicate attempt, and a stale leg could
            # burn the retry budget out from under the live attempt
            return
        res = self.resilience
        if res is not None and state["retries"] < res.max_retries:
            k = state["retries"]
            state["retries"] += 1
            u = stream_u(res.seed, job.rid, k)
            back = (res.retry_backoff_us * res.backoff_mult ** k
                    * (1.0 + res.jitter_frac * u))
            self.sim.schedule(now + back, self._start_attempt, state)
            return
        state["resolved"] = True
        self.violated += 1

    def _make_job(self, state: dict) -> Job:
        """Build one attempt-Job (subclass hook: the fleet tier stamps
        the request's API class here for batch-aware routing)."""
        return Job(jid=next(self._jidc), arrival_us=state["arrival"],
                   rid=state["rid"], attempt=state["retries"])

    def _start_attempt(self, now: float, state: dict) -> None:
        if state["resolved"]:  # deadline fired while backing off
            return
        job = self._make_job(state)

        def finish(tt: float, j: Job = job, s: dict = state) -> None:
            if s["resolved"]:
                return
            s["resolved"] = True
            j.done_us = tt + self.cfg.network_us
            self.finished.append(j)

        self._visit(now, self.cfg.entry, job, finish)

    def _deadline(self, now: float, state: dict) -> None:
        if not state["resolved"]:
            state["resolved"] = True
            self.violated += 1

    # ------------------------------------------------------------------
    def _visit(self, now: float, node_name: str, job: Job,
               done: Callable[[float], None]) -> None:
        conts, arrive, after = self._vbund[node_name]
        conts[job.jid] = done
        arrive(now, job, after)

    # ------------------------------------------------------------------
    def run(self, qps: float, n_requests: int = 2000) -> EndToEndResult:
        inter_us = 1e6 / qps
        resilient = self.injector is not None or self.resilience is not None
        t = 0.0
        for i in range(n_requests):
            t += self.rng.expovariate(1.0) * inter_us
            if resilient:
                state = {"rid": i, "arrival": t, "retries": 0,
                         "resolved": False}
                self._rstates[i] = state
                res = self.resilience
                if res is not None and res.deadline_us != math.inf:
                    self.sim.schedule(t + res.deadline_us, self._deadline,
                                      state)
                self.sim.schedule(t, self._start_attempt, state)
                continue
            job = Job(jid=i, arrival_us=t)

            def finish(tt: float, j: Job = job) -> None:
                j.done_us = tt + self.cfg.network_us
                self.finished.append(j)

            self.sim.schedule(t, self._visit, self.cfg.entry, job, finish)
        self.sim.run()
        if resilient and sanitizer_enabled():
            check(len(self.finished) + self.violated == n_requests,
                  "graph: %d requests but %d finished + %d violated",
                  n_requests, len(self.finished), self.violated)
            check(all(s["resolved"] for s in self._rstates.values()),
                  "graph: unresolved request states after drain")
        lats = [j.latency_us for j in self.finished]
        return EndToEndResult(
            offered_qps=qps,
            completed=len(self.finished),
            avg_latency_us=sum(lats) / len(lats) if lats else 0.0,
            p50_us=_percentile(lats, 0.50),
            p99_us=_percentile(lats, 0.99),
        )


def run_graph(cfg: GraphConfig, qps: float, n_requests: int = 2000,
              seed: int = 1, faults: Optional[FaultConfig] = None,
              resilience: Optional[ResilienceConfig] = None
              ) -> EndToEndResult:
    """Convenience wrapper: simulate ``cfg`` at ``qps`` offered load."""
    return GraphSimulation(cfg, seed=seed, faults=faults,
                           resilience=resilience).run(qps, n_requests)
