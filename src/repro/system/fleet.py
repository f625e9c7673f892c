"""Fleet tier: replicated service graphs behind load balancers.

SIMR's headline requests/joule is measured on one chip; the pitch is
*data-center* efficiency.  This module turns one service graph
(:mod:`repro.system.graph`) into a fleet cell: every tier gets N
replica stations, requests are spread by a pluggable load balancer,
an autoscaler grows/shrinks the active replica set on queue backlog,
and per-replica busy/provisioned time rolls up through
:mod:`repro.energy.cluster` to rack and cluster watts.

The SIMT-specific piece is **batch-aware routing**: an RPU tier's
efficiency comes from batching *same-API* requests (paper Fig. 4/11);
a balancer that interleaves API classes onto one replica fills its
batches with divergent work.  We model that cost with the
:attr:`~repro.system.queueing.Station.batch_cost` hook - a dispatch
serving ``k`` distinct API classes pays ``1 + penalty * (k - 1)`` on
both latency and occupancy - and provide three balancers:

* ``round_robin`` - classic, class-blind;
* ``least_loaded`` - backlog-greedy, class-blind;
* ``batch_aware`` - routes a request to replica ``api_id % active``
  so each replica's batches stay single-class, spilling to the
  least-loaded replica when the affinity target is backlogged;
* ``adaptive`` - batch-aware with an *online-learned* affinity map:
  it counts API classes per adaptation window and re-ranks classes by
  observed popularity, so the hottest class always owns replica 0 even
  as the request mix drifts (a static ``api_id % n`` map goes stale
  when the mix shifts mid-run).  With health-checked failover, a
  replica ejection decays the learned map back to identity and reopens
  the adaptation window (``affinity_decay``): the stale ranks were
  learned against the pre-ejection replica set and a retry-storm
  window, and re-learning fresh is what recovers the post-fault tail.

Determinism: a fleet shard is a pure function of its configuration.
Arrival schedules come from keyed streams (:mod:`.arrivals`), routing
and fault draws are keyed hashes (:mod:`.seeding`, :mod:`.faults`),
and balancer state evolves inside one deterministic event loop - so
serial and ``--jobs`` runs are bit-identical, and unchanged shards are
persistent-store hits.

Rack-scoped faults: replica ``r`` of every tier lives in rack
``r // rack_size``; with faults enabled the injector's ``scope`` maps
each replica station to its rack domain, so one outage takes down the
whole rack's replicas at once.

Zones and failover: an optional :class:`~repro.system.zones.ZoneConfig`
groups racks into availability zones - correlated fail-stop windows
and brownouts per zone (:mod:`.zones`).  With ``health_check`` on, the
balancers route around unhealthy replicas: ``unhealthy_after``
consecutive attempt failures eject a replica from the routable set
until its outage ends (or a probe interval passes), and re-admission
is probational.  Tail-latency autoscaling
(``autoscale_signal="p99"``) grows/shrinks the active set on the
windowed p99 instead of queue backlog - brownouts inflate service
times without queue growth, which the backlog signal cannot see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..energy.cluster import ClusterEnergy, ClusterPowerModel, rollup_cluster
from ..sanitize import check, sanitizer_enabled
from .arrivals import TrafficShape, generate_arrivals
from .faults import FaultConfig, FaultInjector
from .graph import GraphConfig, GraphSimulation, social_network_graph
from .queueing import Job, Station, _percentile
from .resilience import ResilienceConfig
from .seeding import PrefixStream
from .zones import ZoneConfig, zone_domain

BALANCERS = ("round_robin", "least_loaded", "batch_aware", "adaptive")


def fleet_social_graph(rpu: bool = True) -> GraphConfig:
    """The Fig. 3 application sized for fleet experiments: the web
    front tier does real work (template render + auth, ~80us) instead
    of the 10us stub, so its batching efficiency - where all three API
    classes mix - is a first-order term in cluster energy."""
    cfg = social_network_graph(rpu=rpu)
    cfg.nodes["web"].service_us = 80.0
    return cfg


#: named graph factories (fleet configs identify graphs by name so the
#: whole shard task stays hashable/serializable for the store)
GRAPHS: Dict[str, Callable[[], GraphConfig]] = {
    "fleet_rpu": lambda: fleet_social_graph(rpu=True),
    "fleet_cpu": lambda: fleet_social_graph(rpu=False),
    "social_rpu": lambda: social_network_graph(rpu=True),
    "social_cpu": lambda: social_network_graph(rpu=False),
}


@dataclass(frozen=True)
class FleetConfig:
    """One fleet cell's knobs (frozen: part of the store identity)."""

    #: provisioned replicas per service tier
    replicas: int = 3
    balancer: str = "batch_aware"
    #: batching at the replica stations (RPU-style tiers); the fleet
    #: default window is wider than the single-graph 50us because a
    #: balancer splits each tier's arrival stream ``replicas`` ways -
    #: batches need a realistic chance to fill per replica
    batch_size: int = 16
    batch_timeout_us: float = 200.0
    #: latency/occupancy multiplier per *extra* API class in a batch
    divergence_penalty: float = 0.5
    #: batch-aware routing spills off its affinity replica when that
    #: replica's backlog exceeds this
    affinity_spill_us: float = 200.0
    #: replicas per rack (rack overhead power + rack-scoped outages)
    rack_size: int = 2
    # -- autoscaling ---------------------------------------------------
    autoscale: bool = False
    autoscale_interval_us: float = 2_000.0
    scale_up_backlog_us: float = 300.0
    scale_down_backlog_us: float = 40.0
    min_active: int = 1
    #: autoscaling signal: ``"queue"`` (mean backlog of the active
    #: replicas) or ``"p99"`` (windowed tail latency of requests that
    #: finished since the last tick - sees brownout degradation that
    #: never shows up as queue growth)
    autoscale_signal: str = "queue"
    p99_target_us: float = 2_500.0
    # -- health-checked failover ---------------------------------------
    #: eject replicas from the routable set after consecutive failures
    health_check: bool = False
    #: consecutive attempt failures before a replica is marked unhealthy
    unhealthy_after: int = 3
    #: failure-streak decay window, minimum ejection span, and the
    #: probation probe interval, all in one knob
    health_probe_us: float = 2_000.0
    #: adaptive balancer: re-rank the API-affinity map every window
    adapt_interval_us: float = 2_000.0
    #: adaptive balancer: drop the learned affinity map whenever a
    #: replica is ejected.  The map's ranks were learned modulo the
    #: pre-ejection routable set - and the window that just closed was
    #: polluted by the dying replica's retry storm - so routing on the
    #: stale map steers the hottest classes into arbitrary survivors
    #: for up to a full adaptation window.  Decaying to the identity
    #: map and reopening the window re-learns against the shrunken set
    #: immediately, which is what recovers the tail (recovery p99)
    #: after a fault.  Only meaningful with ``health_check`` and the
    #: ``adaptive`` balancer.
    affinity_decay: bool = True


class ReplicaSet:
    """One tier's replicas + the active-prefix the balancer routes to.

    ``active_server_us`` integrates (active replicas x servers each)
    over time - the static-energy term autoscaling is able to shrink.
    """

    __slots__ = ("name", "stations", "servers_each", "active", "rr",
                 "active_server_us", "_last_t", "infinite",
                 "routable", "fail_streak", "last_fail_us", "down_until",
                 "ejections", "api_counts", "api_map", "next_adapt_us")

    def __init__(self, name: str, stations: List[Station],
                 servers_each: int, active: int, infinite: bool):
        self.name = name
        self.stations = stations
        self.servers_each = servers_each
        self.active = active
        self.rr = 0
        self.active_server_us = 0.0
        self._last_t = 0.0
        self.infinite = infinite
        #: the stations the balancer routes to: the active prefix minus
        #: replicas currently marked unhealthy (never any without
        #: health checks)
        self.routable: List[Station] = stations[:active]
        # -- health-checked failover state (inert unless health_check) --
        self.fail_streak = [0] * len(stations)
        self.last_fail_us = [-1e18] * len(stations)
        #: per-replica ejection horizon; 0.0 = healthy
        self.down_until = [0.0] * len(stations)
        self.ejections = 0
        # -- adaptive-balancer state ------------------------------------
        self.api_counts: Dict[int, int] = {}
        #: API class -> popularity rank (0 = hottest); identity before
        #: the first adaptation window closes
        self.api_map: Dict[int, int] = {}
        self.next_adapt_us = 0.0

    def note(self, now: float) -> None:
        """Integrate provisioned-server time up to ``now``."""
        if not self.infinite:
            self.active_server_us += (self.active * self.servers_each
                                      * (now - self._last_t))
        self._last_t = now

    def set_active(self, now: float, n: int) -> None:
        if n != self.active:
            self.note(now)
            self.active = n
            self.rebuild_routable(now)

    def rebuild_routable(self, now: float) -> None:
        down = self.down_until
        self.routable = [st for i, st in enumerate(self.stations)
                         if i < self.active and down[i] <= now]


class FleetSimulation(GraphSimulation):
    """A single fleet cell (one shard of a sharded fleet run)."""

    __slots__ = ("fleet", "shard", "replica_sets", "batch_stats",
                 "scale_ups", "scale_downs", "_tick_until",
                 "_last_violation_us", "_pick_fn", "_entry_route",
                 "zones", "_sites", "_p99_seen")

    def __init__(self, graph_cfg: GraphConfig, fleet: FleetConfig,
                 seed: int = 1, faults: Optional[FaultConfig] = None,
                 resilience: Optional[ResilienceConfig] = None,
                 shard: int = 0, zones: Optional[ZoneConfig] = None):
        if fleet.balancer not in BALANCERS:
            raise ValueError(f"unknown balancer {fleet.balancer!r}; "
                             f"expected one of {BALANCERS}")
        # the parent wires the simulator, continuation tables, retry
        # machinery and singleton stations; the fleet replaces the
        # station layer below with replica sets.  `fleet` must be set
        # before super().__init__ because the parent's _make_after
        # closures call self._visit, whose picker is built from it.
        self.fleet = fleet
        self._pick_fn = self._make_picker(fleet)
        super().__init__(graph_cfg, seed=seed, resilience=resilience)
        self.shard = shard
        self.replica_sets: Dict[str, ReplicaSet] = {}
        self.batch_stats = {"batches": 0, "mixed": 0, "classes": 0}
        self.scale_ups = 0
        self.scale_downs = 0
        self._tick_until = 0.0
        #: latest time a request actually resolved by violation (the
        #: billing window must cover it; resolved requests' leftover
        #: deadline timers must NOT extend it)
        self._last_violation_us = 0.0
        self.zones = zones if zones is not None and zones.enabled else None
        self._p99_seen = 0
        cost_hook = None
        if fleet.divergence_penalty > 0.0:
            cost_hook = self._make_batch_cost()
        scope: Dict[str, str] = {}
        zone_scope: Dict[str, str] = {}
        start_active = fleet.replicas
        if fleet.autoscale:
            start_active = max(1, min(fleet.replicas, fleet.min_active))
        for name, node in graph_cfg.nodes.items():
            infinite = node.servers >= 1000
            n_rep = 1 if infinite else fleet.replicas
            stations: List[Station] = []
            for r in range(n_rep):
                st_name = f"{name}@{r}" if n_rep > 1 else name
                if infinite:
                    st = Station(self.sim, st_name, node.service_us,
                                 node.servers, infinite=True)
                elif graph_cfg.rpu:
                    st = Station(
                        self.sim, st_name,
                        node.service_us * graph_cfg.rpu_latency_factor,
                        node.servers,
                        occupancy_us=(node.service_us
                                      / graph_cfg.rpu_throughput_gain),
                        batch_size=fleet.batch_size,
                        batch_timeout_us=fleet.batch_timeout_us)
                else:
                    st = Station(self.sim, st_name, node.service_us,
                                 node.servers)
                if cost_hook is not None and st.batch_size > 1:
                    st.batch_cost = cost_hook
                rack = r // fleet.rack_size
                scope[st_name] = f"s{shard}/rack{rack}"
                if self.zones is not None:
                    zone_scope[st_name] = zone_domain(
                        shard, self.zones.zone_of_rack(rack))
                stations.append(st)
            self.replica_sets[name] = ReplicaSet(
                name, stations, node.servers,
                1 if infinite else start_active, infinite)
        # replace the parent's singleton-station injector wiring with a
        # rack-scoped (and optionally zone-scoped) one over the replicas
        self.injector = None
        if (faults is not None and faults.enabled) \
                or self.zones is not None:
            # a zone-only run still needs an injector; the default
            # FaultConfig has every rate at zero, so only the merged
            # zone windows / brownouts act
            self.injector = FaultInjector(
                faults if faults is not None else FaultConfig(),
                scope=scope, zones=self.zones,
                zone_scope=zone_scope or None)
            for rs in self.replica_sets.values():
                self.injector.attach(*rs.stations)
        #: station name -> (replica set, index) for failure attribution
        self._sites: Dict[str, tuple] = {}
        if fleet.health_check:
            for rs in self.replica_sets.values():
                for i, st in enumerate(rs.stations):
                    self._sites[st.name] = (rs, i)
        self._afters = {name: self._make_after(node)
                        for name, node in graph_cfg.nodes.items()}
        self._rebind_visits()
        # precompiled entry-class table: children's cumulative weights
        # + the entry node's keyed route stream (same draw the router
        # makes, so routing stays consistent with the class the
        # balancer saw)
        entry = graph_cfg.nodes[graph_cfg.entry]
        if entry.route:
            cum: List[float] = []
            acc = 0.0
            for _c, w in entry.route:
                acc += w
                cum.append(acc)
            total = sum(w for _c, w in entry.route)
            self._entry_route = (
                PrefixStream(seed, "route", entry.name).u2, cum, total)
        else:
            self._entry_route = None

    def _rebind_visits(self) -> None:
        try:
            rsets = self.replica_sets
        except AttributeError:
            # parent __init__ runs before the replica layer exists; the
            # real bundles are built at the end of our own __init__
            self._vbund = {}
            return
        self._vbund = {name: (rsets[name], self._conts[name],
                              self._afters[name])
                       for name in self.cfg.nodes}

    # -- SIMT divergence cost ------------------------------------------
    def _make_batch_cost(self):
        pen = self.fleet.divergence_penalty
        stats = self.batch_stats

        def cost(group: List[Job]) -> float:
            k = len({j.api_id for j in group})
            stats["batches"] += 1
            stats["classes"] += k
            if k > 1:
                stats["mixed"] += 1
            return 1.0 + pen * (k - 1)

        return cost

    # -- request classes -----------------------------------------------
    def _entry_api(self, rid: int, attempt: int) -> int:
        """The request's API class: the index of the entry tier's
        routed child.  Computed with the *same* keyed draw the entry
        node's compiled router will make, so routing stays consistent
        with the class the balancer saw."""
        if self._entry_route is None:
            return 0
        route_u, cum, total = self._entry_route
        x = route_u(rid, attempt) * total
        for k in range(len(cum)):
            if x < cum[k]:
                return k
        return len(cum) - 1

    def _make_job(self, state: dict) -> Job:
        job = super()._make_job(state)
        job.api_id = self._entry_api(state["rid"], state["retries"])
        return job

    # -- load balancing ------------------------------------------------
    @staticmethod
    def _least_of(lst: List[Station], n: int, now: float) -> Station:
        """Least-loaded of ``lst[:n]``: the smallest (backlog, queue
        depth), earliest station on ties."""
        best = lst[0]
        b = min(best._free_at) - now
        best_key = (b if b > 0.0 else 0.0, len(best._pending))
        for i in range(1, n):
            st = lst[i]
            b = min(st._free_at) - now
            key = (b if b > 0.0 else 0.0, len(st._pending))
            if key < best_key:
                best = st
                best_key = key
        return best

    def _make_picker(self, fleet: FleetConfig):
        """Compile the balancer into one closure (no per-job string
        compares or method dispatch; backlog reads inlined).  It routes
        over ``rs.routable``: the active prefix minus ejected replicas,
        which is the whole active prefix unless health checks eject.
        When every replica is ejected the full active prefix is used:
        traffic fails fast there and the retry layer keeps probing for
        recovery."""
        balancer = fleet.balancer
        least_of = self._least_of
        spill = fleet.affinity_spill_us
        adapt = fleet.adapt_interval_us

        if balancer == "round_robin":
            def pick(rs: ReplicaSet, now: float, job: Job) -> Station:
                lst = rs.routable
                n = len(lst)
                if n == 0:
                    lst = rs.stations
                    n = rs.active
                if n <= 1:
                    return lst[0]
                st = lst[rs.rr % n]
                rs.rr += 1
                return st
            return pick
        if balancer == "least_loaded":
            def pick(rs: ReplicaSet, now: float, job: Job) -> Station:
                lst = rs.routable
                n = len(lst)
                if n == 0:
                    lst = rs.stations
                    n = rs.active
                if n <= 1:
                    return lst[0]
                return least_of(lst, n, now)
            return pick
        if balancer == "batch_aware":
            def pick(rs: ReplicaSet, now: float, job: Job) -> Station:
                lst = rs.routable
                n = len(lst)
                if n == 0:
                    lst = rs.stations
                    n = rs.active
                if n <= 1:
                    return lst[0]
                st = lst[job.api_id % n]
                # backlog_us(st) <= spill, with the max(0, .) clamp
                # folded into the comparison; a backlogged affinity
                # target spills (same-class traffic keeps downstream
                # batches pure anyway)
                if spill >= 0.0 and min(st._free_at) - now <= spill:
                    return st
                return least_of(lst, n, now)
            return pick

        def pick(rs: ReplicaSet, now: float, job: Job) -> Station:
            # adaptive
            c = job.api_id
            counts = rs.api_counts
            counts[c] = counts.get(c, 0) + 1
            if now >= rs.next_adapt_us:
                # close the window: re-rank classes by observed
                # popularity (count desc, class id tie-break) so the
                # affinity map tracks the drifting mix
                ranked = sorted(counts, key=lambda k: (-counts[k], k))
                rs.api_map = {k: i for i, k in enumerate(ranked)}
                counts.clear()
                rs.next_adapt_us = now + adapt
            lst = rs.routable
            n = len(lst)
            if n == 0:
                lst = rs.stations
                n = rs.active
            if n <= 1:
                return lst[0]
            st = lst[rs.api_map.get(c, c) % n]
            if spill >= 0.0 and min(st._free_at) - now <= spill:
                return st
            return least_of(lst, n, now)
        return pick

    def _pick(self, rs: ReplicaSet, now: float, job: Job) -> Station:
        return self._pick_fn(rs, now, job)

    # -- health-checked failover ---------------------------------------
    def _attempt_failed(self, now: float, job: Job) -> None:
        if self._sites:
            self._note_failure(now, job.fail_site)
        super()._attempt_failed(now, job)

    def _note_failure(self, now: float, site: str) -> None:
        """One attempt failed at ``site``: advance the replica's
        failure streak (decayed if it was quiet for a probe interval)
        and eject it from the routable set at the threshold.  Ejection
        lasts a probe interval - or until the replica's known outage
        window ends, when the injector can say - and re-admission is
        probational: the streak restarts from zero, so a still-sick
        replica is re-ejected after ``unhealthy_after`` more failures.
        """
        hit = self._sites.get(site)
        if hit is None:
            return
        rs, idx = hit
        fl = self.fleet
        if now - rs.last_fail_us[idx] > fl.health_probe_us:
            rs.fail_streak[idx] = 0
        rs.fail_streak[idx] += 1
        rs.last_fail_us[idx] = now
        if rs.fail_streak[idx] < fl.unhealthy_after \
                or rs.down_until[idx] > now:
            return
        until = now + fl.health_probe_us
        inj = self.injector
        if inj is not None:
            end = inj.outage_end(site, now)
            if end is not None and end > until:
                until = end
        rs.down_until[idx] = until
        rs.ejections += 1
        rs.rebuild_routable(now)
        if fl.affinity_decay and fl.balancer == "adaptive":
            # the learned ranks index the routable set that just
            # shrank (and the closing window counted the ejected
            # replica's retry storm): decay to the identity map and
            # reopen a full window so affinity re-learns against the
            # survivors instead of misrouting until the stale window
            # expires
            rs.api_map = {}
            rs.api_counts.clear()
            rs.next_adapt_us = now + fl.adapt_interval_us
        self.sim.schedule1(until, self._readmit, (rs, idx))

    def _readmit(self, now: float, arg: tuple) -> None:
        rs, idx = arg
        if rs.down_until[idx] > now:
            return  # re-ejected with a later horizon; that event readmits
        rs.down_until[idx] = 0.0
        rs.fail_streak[idx] = 0
        rs.rebuild_routable(now)

    def _deadline(self, now: float, state: dict) -> None:
        unresolved = not state["resolved"]
        super()._deadline(now, state)
        if unresolved:
            self._last_violation_us = max(self._last_violation_us, now)

    def _visit(self, now: float, node_name: str, job: Job,
               done: Callable[[float], None]) -> None:
        rs, conts, after = self._vbund[node_name]
        conts[job.jid] = done
        self._pick_fn(rs, now, job).arrive(now, job, after)

    # -- autoscaling ---------------------------------------------------
    def _autoscale_tick(self, now: float) -> None:
        fl = self.fleet
        if fl.autoscale_signal == "p99":
            self._p99_scale(now, fl)
        else:
            for rs in self.replica_sets.values():
                if rs.infinite:
                    continue
                backlog = sum(rs.stations[i].backlog_us(now)
                              for i in range(rs.active)) / rs.active
                if backlog > fl.scale_up_backlog_us \
                        and rs.active < fl.replicas:
                    rs.set_active(now, rs.active + 1)
                    self.scale_ups += 1
                elif backlog < fl.scale_down_backlog_us \
                        and rs.active > fl.min_active:
                    rs.set_active(now, rs.active - 1)
                    self.scale_downs += 1
        if now + fl.autoscale_interval_us <= self._tick_until:
            self.sim.schedule(now + fl.autoscale_interval_us,
                              self._autoscale_tick)

    def _p99_scale(self, now: float, fl: FleetConfig) -> None:
        """Tail-latency autoscaling: p99 of the requests that finished
        since the last tick.  Catches brownout degradation - inflated
        service times with no queue growth - which the backlog signal
        is structurally blind to."""
        fin = self.finished
        lats = [j.latency_us for j in fin[self._p99_seen:]]
        self._p99_seen = len(fin)
        if not lats:
            return
        p99 = _percentile(lats, 0.99)
        if p99 > fl.p99_target_us:
            for rs in self.replica_sets.values():
                if not rs.infinite and rs.active < fl.replicas:
                    rs.set_active(now, rs.active + 1)
                    self.scale_ups += 1
        elif p99 < 0.5 * fl.p99_target_us:
            for rs in self.replica_sets.values():
                if not rs.infinite and rs.active > fl.min_active:
                    rs.set_active(now, rs.active - 1)
                    self.scale_downs += 1

    # -- driving -------------------------------------------------------
    def run_arrivals(self, arrivals: Sequence[float],
                     horizon_us: float) -> dict:
        """Simulate this cell over a precomputed arrival schedule and
        return the shard payload (mergeable, store-friendly)."""
        fl = self.fleet
        resilient = self.injector is not None or self.resilience is not None
        n = len(arrivals)
        for i, t in enumerate(arrivals):
            if resilient:
                state = {"rid": i, "arrival": t, "retries": 0,
                         "resolved": False}
                self._rstates[i] = state
                res = self.resilience
                if res is not None and res.deadline_us != math.inf:
                    self.sim.schedule1(t + res.deadline_us,
                                       self._deadline, state)
                self.sim.schedule1(t, self._start_attempt, state)
                continue
            job = Job(jid=next(self._jidc), arrival_us=t,
                      api_id=self._entry_api(i, 0))

            def finish(tt: float, j: Job = job) -> None:
                j.done_us = tt + self.cfg.network_us
                self.finished.append(j)

            self.sim.schedule(t, self._visit, self.cfg.entry, job, finish)
        # note: with rid unset the entry draw keys on jid == i, so
        # _entry_api(i, 0) above matches the router's own draw
        self._tick_until = arrivals[-1] if arrivals else 0.0
        if fl.autoscale and n > 0:
            self.sim.schedule(fl.autoscale_interval_us,
                              self._autoscale_tick)
        self.sim.run()
        # billing window: the horizon, extended by work that spills
        # past it (late completions, requests abandoned at deadline) -
        # but not by leftover deadline timers of resolved requests,
        # which are bookkeeping events on an already-idle cluster
        end = max(horizon_us, self._last_violation_us)
        if self.finished:
            end = max(end, max(j.done_us for j in self.finished))
        busy_us = 0.0
        storage_busy_us = 0.0
        fault_failures = 0
        for rs in self.replica_sets.values():
            rs.note(end)
            for st in rs.stations:
                if rs.infinite:
                    storage_busy_us += st.busy_us
                else:
                    busy_us += st.busy_us
                fault_failures += st.failed_jobs + st.dropped_jobs
        if sanitizer_enabled():
            if resilient:
                check(len(self.finished) + self.violated == n,
                      "fleet: %d requests but %d finished + %d violated",
                      n, len(self.finished), self.violated)
            else:
                check(len(self.finished) == n,
                      "fleet: %d requests but %d finished",
                      n, len(self.finished))
            for rs in self.replica_sets.values():
                for st in rs.stations:
                    check(not st._pending,
                          "fleet: station %s stranded %d jobs",
                          st.name, len(st._pending))
                    check(st.open_jobs == 0 and st.open_groups == 0,
                          "fleet: station %s drained with %d jobs / %d "
                          "groups still in flight", st.name,
                          st.open_jobs, st.open_groups)
        active_server_us = sum(rs.active_server_us
                               for rs in self.replica_sets.values())
        n_racks = math.ceil(fl.replicas / max(1, fl.rack_size))
        n_zones = 0
        if self.zones is not None:
            n_zones = math.ceil(n_racks
                                / max(1, self.zones.racks_per_zone))
        return {
            "n": n,
            "completed": len(self.finished),
            "violated": self.violated,
            "latencies": [j.latency_us for j in self.finished],
            "busy_us": busy_us,
            "storage_busy_us": storage_busy_us,
            "active_server_us": active_server_us,
            "n_racks": n_racks,
            "horizon_us": end,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "batches": self.batch_stats["batches"],
            "mixed_batches": self.batch_stats["mixed"],
            "sum_classes": self.batch_stats["classes"],
            "fault_failures": fault_failures,
            "n_zones": n_zones,
            "ejections": sum(rs.ejections
                             for rs in self.replica_sets.values()),
        }


# ----------------------------------------------------------------------
# sharded fleet engine
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetShardTask:
    """Everything identifying one shard's simulation (store key)."""

    graph: str
    fleet: FleetConfig
    shape: TrafficShape
    horizon_us: float
    shard: int
    n_shards: int
    seed: int
    faults: Optional[FaultConfig] = None
    resilience: Optional[ResilienceConfig] = None
    zones: Optional[ZoneConfig] = None


#: modules whose source participates in the shard-result fingerprint
_FP_MODULES = (
    "repro.system.fleet",
    "repro.system.scheduler",
    "repro.system.arrivals",
    "repro.system.graph",
    "repro.system.queueing",
    "repro.system.faults",
    "repro.system.resilience",
    "repro.system.seeding",
    "repro.system.zones",
    "repro.energy.cluster",
)


def run_fleet_shard(task: FleetShardTask) -> dict:
    """Simulate one shard (pure function of the task)."""
    graph_cfg = GRAPHS[task.graph]()
    arrivals = generate_arrivals(task.shape, task.horizon_us, task.seed,
                                 shard=task.shard,
                                 n_shards=task.n_shards)
    sim = FleetSimulation(graph_cfg, task.fleet, seed=task.seed,
                          faults=task.faults, resilience=task.resilience,
                          shard=task.shard, zones=task.zones)
    return sim.run_arrivals(arrivals, task.horizon_us)


def shard_store_key(task: FleetShardTask) -> tuple:
    """Logical store key of one shard (the task's full identity)."""
    return (repr(task),)


def _run_shard_cached(task: FleetShardTask) -> dict:
    """Worker entry: shard simulation through the persistent store."""
    from .. import store

    fp = store.source_fingerprint(_FP_MODULES)
    key = shard_store_key(task)
    hit = store.lookup("fleet_shard", fp, key)
    if hit is not store.MISS and not store.verify_enabled():
        return hit
    value = run_fleet_shard(task)
    if hit is not store.MISS:  # REPRO_CACHE_VERIFY=1 hit
        if hit != value:
            raise store.CacheVerifyError(
                f"stored fleet shard diverges from recompute for "
                f"shard {task.shard}/{task.n_shards} "
                f"({task.graph}, {task.fleet.balancer})")
    else:
        store.record("fleet_shard", fp, key, value)
    return value


@dataclass
class FleetResult:
    """Merged fleet run: request metrics + cluster power roll-up."""

    n_requests: int
    completed: int
    violated: int
    offered_qps: float
    avg_latency_us: float
    p50_us: float
    p99_us: float
    energy: ClusterEnergy
    requests_per_joule: float
    avg_watts: float
    carbon_g: float
    scale_ups: int
    scale_downs: int
    #: fraction of dispatched batches that mixed API classes
    mixed_batch_frac: float
    #: mean distinct API classes per dispatched batch
    mean_classes: float
    fault_failures: int
    #: replicas ejected by health checks (0 without health_check)
    ejections: int
    #: availability zones across all shards (0 without a zone layer)
    n_zones: int
    shards: int

    @property
    def goodput_frac(self) -> float:
        return self.completed / self.n_requests if self.n_requests else 0.0


def merge_shards(payloads: Sequence[dict], horizon_us: float,
                 power: ClusterPowerModel = ClusterPowerModel()
                 ) -> FleetResult:
    """Roll shard payloads up to one cluster-level result."""
    lats: List[float] = []
    for p in payloads:
        lats.extend(p["latencies"])
    n = sum(p["n"] for p in payloads)
    completed = sum(p["completed"] for p in payloads)
    end = max([p["horizon_us"] for p in payloads] + [horizon_us])
    n_zones = sum(p.get("n_zones", 0) for p in payloads)
    energy = rollup_cluster(
        busy_us=sum(p["busy_us"] for p in payloads),
        storage_busy_us=sum(p["storage_busy_us"] for p in payloads),
        active_server_us=sum(p["active_server_us"] for p in payloads),
        n_racks=sum(p["n_racks"] for p in payloads),
        horizon_us=end, model=power, n_zones=n_zones)
    batches = sum(p["batches"] for p in payloads)
    return FleetResult(
        n_requests=n,
        completed=completed,
        violated=sum(p["violated"] for p in payloads),
        offered_qps=n / end * 1e6 if end > 0 else 0.0,
        avg_latency_us=sum(lats) / len(lats) if lats else 0.0,
        p50_us=_percentile(lats, 0.50),
        p99_us=_percentile(lats, 0.99),
        energy=energy,
        requests_per_joule=(completed / energy.facility_j
                            if energy.facility_j > 0 else 0.0),
        avg_watts=energy.avg_watts,
        carbon_g=energy.carbon_g(power),
        scale_ups=sum(p["scale_ups"] for p in payloads),
        scale_downs=sum(p["scale_downs"] for p in payloads),
        mixed_batch_frac=(sum(p["mixed_batches"] for p in payloads)
                          / batches if batches else 0.0),
        mean_classes=(sum(p["sum_classes"] for p in payloads)
                      / batches if batches else 0.0),
        fault_failures=sum(p["fault_failures"] for p in payloads),
        ejections=sum(p.get("ejections", 0) for p in payloads),
        n_zones=n_zones,
        shards=len(payloads),
    )


def run_fleet(shape: TrafficShape, horizon_us: float,
              fleet: FleetConfig = FleetConfig(),
              graph: str = "fleet_rpu", shards: int = 4, seed: int = 1,
              faults: Optional[FaultConfig] = None,
              resilience: Optional[ResilienceConfig] = None,
              zones: Optional[ZoneConfig] = None,
              power: ClusterPowerModel = ClusterPowerModel(),
              jobs: Optional[int] = None) -> FleetResult:
    """Run a sharded fleet: ``shards`` independent cells each carrying
    ``1/shards`` of the offered load, simulated through ``parallel_map``
    (bit-identical serial vs ``--jobs``) with per-shard store caching.
    """
    from ..experiments.common import parallel_map

    tasks = [FleetShardTask(graph=graph, fleet=fleet, shape=shape,
                            horizon_us=horizon_us, shard=s,
                            n_shards=shards, seed=seed, faults=faults,
                            resilience=resilience, zones=zones)
             for s in range(shards)]
    payloads = parallel_map(_run_shard_cached, tasks, jobs=jobs)
    return merge_shards(payloads, horizon_us, power=power)
