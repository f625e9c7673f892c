"""Fleet tier: arrival generators, balancers, rack-scoped faults,
determinism (serial vs ``--jobs``), and the cluster power roll-up."""

import math

import pytest

from repro.energy.cluster import ClusterPowerModel, rollup_cluster
from repro.experiments.common import (FleetUnit, dedup_units,
                                      execute_work_unit)
from repro.system import (
    BALANCERS,
    FaultConfig,
    FleetConfig,
    FleetShardTask,
    FleetSimulation,
    ResilienceConfig,
    TrafficShape,
    fleet_social_graph,
    generate_arrivals,
    merge_shards,
    run_fleet,
    run_fleet_shard,
)

HORIZON = 40_000.0


class TestTrafficShape:
    def test_flat_rate_everywhere(self):
        s = TrafficShape(base_qps=1000.0)
        assert s.rate_at(0.0) == s.rate_at(123_456.7) == 1000.0
        assert s.peak_qps() == 1000.0
        assert s.mean_qps(1e6) == pytest.approx(1000.0)

    def test_diurnal_bounds_and_peak_envelope(self):
        s = TrafficShape(base_qps=1000.0, diurnal_amplitude=0.4,
                         diurnal_period_us=10_000.0)
        rates = [s.rate_at(t * 100.0) for t in range(200)]
        assert min(rates) == pytest.approx(600.0, rel=1e-3)
        assert max(rates) == pytest.approx(1400.0, rel=1e-3)
        assert all(r <= s.peak_qps() for r in rates)

    def test_flash_window_is_half_open(self):
        s = TrafficShape(base_qps=100.0, flash_at_us=1000.0,
                         flash_duration_us=500.0, flash_mult=3.0)
        assert s.rate_at(999.9) == 100.0
        assert s.rate_at(1000.0) == 300.0
        assert s.rate_at(1499.9) == 300.0
        assert s.rate_at(1500.0) == 100.0
        assert s.peak_qps() == 300.0

    def test_overdriven_diurnal_clamps_at_zero(self):
        s = TrafficShape(base_qps=100.0, diurnal_amplitude=1.5,
                         diurnal_period_us=1000.0)
        assert min(s.rate_at(t * 10.0) for t in range(200)) == 0.0

    def test_mean_integrates_the_flash(self):
        s = TrafficShape(base_qps=100.0, flash_at_us=0.0,
                         flash_duration_us=500.0, flash_mult=3.0)
        # flash covers half the window: mean = (300 + 100) / 2
        assert s.mean_qps(1000.0) == pytest.approx(200.0, rel=0.01)


class TestGenerateArrivals:
    def test_pure_function_of_identity(self):
        s = TrafficShape(base_qps=20_000.0, diurnal_amplitude=0.3,
                         diurnal_period_us=20_000.0)
        a = generate_arrivals(s, HORIZON, seed=3, shard=1, n_shards=4)
        b = generate_arrivals(s, HORIZON, seed=3, shard=1, n_shards=4)
        assert a == b and len(a) > 0

    def test_shards_and_seeds_draw_distinct_streams(self):
        s = TrafficShape(base_qps=20_000.0)
        base = generate_arrivals(s, HORIZON, seed=3, shard=0, n_shards=2)
        assert generate_arrivals(s, HORIZON, 3, shard=1, n_shards=2) != base
        assert generate_arrivals(s, HORIZON, 4, shard=0, n_shards=2) != base

    def test_sorted_within_horizon(self):
        s = TrafficShape(base_qps=50_000.0, flash_at_us=10_000.0,
                         flash_duration_us=5_000.0, flash_mult=2.0)
        ts = generate_arrivals(s, HORIZON, seed=1)
        assert ts == sorted(ts)
        assert all(0.0 <= t < HORIZON for t in ts)

    def test_rate_matches_the_shape(self):
        s = TrafficShape(base_qps=50_000.0)
        n = len(generate_arrivals(s, 200_000.0, seed=7))
        # Poisson(10_000): 5 sigma is +-500
        assert abs(n - 10_000) < 500

    def test_shard_split_conserves_total_rate(self):
        s = TrafficShape(base_qps=50_000.0)
        total = sum(len(generate_arrivals(s, 200_000.0, 7, shard=k,
                                          n_shards=4))
                    for k in range(4))
        assert abs(total - 10_000) < 500

    def test_flash_concentrates_arrivals(self):
        s = TrafficShape(base_qps=20_000.0, flash_at_us=10_000.0,
                         flash_duration_us=10_000.0, flash_mult=3.0)
        ts = generate_arrivals(s, 40_000.0, seed=2)
        inside = sum(1 for t in ts if 10_000.0 <= t < 20_000.0)
        outside = len(ts) - inside
        # equal spans at 3x the rate: inside ~ (3/1) * outside... but
        # outside covers 3 spans; compare per-us densities instead
        assert inside / 10_000.0 > 2.0 * (outside / 30_000.0)

    def test_degenerate_inputs(self):
        s = TrafficShape(base_qps=1000.0)
        assert generate_arrivals(s, 0.0, seed=1) == []
        assert generate_arrivals(TrafficShape(base_qps=0.0), HORIZON,
                                 seed=1) == []
        with pytest.raises(ValueError):
            generate_arrivals(s, HORIZON, seed=1, n_shards=0)


def _sim(replicas=3, balancer="batch_aware", faults=None, shard=0, **kw):
    return FleetSimulation(fleet_social_graph(),
                           FleetConfig(replicas=replicas,
                                       balancer=balancer, **kw),
                           seed=2, faults=faults, shard=shard)


class TestFleetSimulation:
    def test_unknown_balancer_rejected(self):
        with pytest.raises(ValueError, match="balancer"):
            _sim(balancer="random")

    def test_replicated_and_shared_stations(self):
        sim = _sim(replicas=3)
        assert len(sim.replica_sets["web"].stations) == 3
        assert sim.replica_sets["web"].stations[0].name == "web@0"
        # the storage backend is an infinite pool: one shared station
        assert len(sim.replica_sets["storage"].stations) == 1
        assert sim.replica_sets["storage"].infinite

    def test_batch_aware_keeps_batches_single_class(self):
        shape = TrafficShape(base_qps=60_000.0)
        arrivals = generate_arrivals(shape, HORIZON, seed=2)
        sim = _sim(balancer="batch_aware")
        p = sim.run_arrivals(arrivals, HORIZON)
        assert p["completed"] == p["n"] == len(arrivals)
        assert p["mixed_batches"] == 0

    def test_round_robin_mixes_classes(self):
        shape = TrafficShape(base_qps=60_000.0)
        arrivals = generate_arrivals(shape, HORIZON, seed=2)
        p = _sim(balancer="round_robin").run_arrivals(arrivals, HORIZON)
        assert p["mixed_batches"] > 0

    def test_rack_scoped_outage_windows(self):
        faults = FaultConfig(outage_rate_per_s=10.0,
                             horizon_us=500_000.0)
        sim = _sim(replicas=4, faults=faults, rack_size=2)
        inj = sim.injector
        rack0 = inj.windows_for("web@0")
        assert len(rack0) > 0
        # same rack (replicas 0 and 1), any tier: one shared schedule
        assert inj.windows_for("web@1") == rack0
        assert inj.windows_for("user@0") == rack0
        # the other rack fails on its own schedule
        assert inj.windows_for("web@2") != rack0
        assert inj.windows_for("web@3") == inj.windows_for("web@2")

    def test_outage_schedules_differ_across_shards(self):
        faults = FaultConfig(outage_rate_per_s=10.0,
                             horizon_us=500_000.0)
        a = _sim(replicas=2, faults=faults, shard=0)
        b = _sim(replicas=2, faults=faults, shard=1)
        assert (a.injector.windows_for("web@0")
                != b.injector.windows_for("web@0"))

    def test_autoscale_tracks_load_and_saves_server_time(self):
        shape = TrafficShape(base_qps=60_000.0, diurnal_amplitude=0.6,
                             diurnal_period_us=HORIZON / 2.0)
        arrivals = generate_arrivals(shape, HORIZON, seed=2)
        fixed = _sim(replicas=4).run_arrivals(arrivals, HORIZON)
        auto = _sim(replicas=4, autoscale=True).run_arrivals(
            generate_arrivals(shape, HORIZON, seed=2), HORIZON)
        assert auto["scale_ups"] > 0
        assert auto["active_server_us"] < fixed["active_server_us"]
        assert auto["completed"] == auto["n"]


class TestRunFleet:
    SHAPE = TrafficShape(base_qps=80_000.0)

    def _run(self, balancer="batch_aware", jobs=1, **kw):
        return run_fleet(self.SHAPE, HORIZON,
                         fleet=FleetConfig(replicas=3, balancer=balancer),
                         shards=2, seed=4, jobs=jobs, **kw)

    def test_serial_and_parallel_runs_are_identical(self):
        assert self._run(jobs=1) == self._run(jobs=3)

    def test_conservation_and_rollup(self):
        r = self._run()
        assert r.completed == r.n_requests > 0
        assert r.goodput_frac == 1.0
        assert r.shards == 2
        e = r.energy
        assert e.dynamic_j > 0 and e.static_j > 0 and e.rack_j > 0
        assert e.facility_j == pytest.approx(e.it_j * e.pue)
        assert r.avg_watts == pytest.approx(
            e.facility_j / (e.horizon_us * 1e-6))
        assert r.requests_per_joule == pytest.approx(
            r.completed / e.facility_j)

    def test_batch_aware_beats_round_robin_on_requests_per_joule(self):
        ba = self._run(balancer="batch_aware")
        rr = self._run(balancer="round_robin")
        assert ba.n_requests == rr.n_requests  # equal offered load
        assert ba.mixed_batch_frac < rr.mixed_batch_frac
        assert ba.requests_per_joule > rr.requests_per_joule

    def test_resolved_deadline_timers_do_not_extend_billing(self):
        r = self._run(
            resilience=ResilienceConfig(deadline_us=500_000.0,
                                        max_retries=1))
        assert r.violated == 0
        # every request resolves shortly after the horizon; the idle
        # 500ms deadline tail must not be billed
        assert r.energy.horizon_us < HORIZON + 50_000.0

    def test_rack_outages_kill_and_retries_recover_some(self):
        faults = FaultConfig(outage_rate_per_s=8.0,
                             outage_min_us=2_000.0,
                             outage_max_us=6_000.0)
        r = self._run(
            faults=faults,
            resilience=ResilienceConfig(deadline_us=60_000.0,
                                        max_retries=2))
        assert r.fault_failures > 0
        assert r.completed + r.violated == r.n_requests
        assert r.goodput_frac > 0.5


class TestMergeShards:
    def _payload(self, **kw):
        p = {"n": 10, "completed": 10, "violated": 0,
             "latencies": [100.0] * 10, "busy_us": 1e6,
             "storage_busy_us": 0.0, "active_server_us": 2e6,
             "n_racks": 1, "horizon_us": 1e6, "scale_ups": 0,
             "scale_downs": 0, "batches": 10, "mixed_batches": 2,
             "sum_classes": 12, "fault_failures": 0}
        p.update(kw)
        return p

    def test_sums_and_ratios(self):
        r = merge_shards([self._payload(), self._payload(n=20,
                                                        completed=18,
                                                        violated=2)],
                         horizon_us=1e6)
        assert r.n_requests == 30 and r.completed == 28
        assert r.offered_qps == pytest.approx(30.0)
        assert r.mixed_batch_frac == pytest.approx(4 / 20)
        assert r.mean_classes == pytest.approx(24 / 20)
        assert r.energy.n_racks == 2

    def test_rollup_cluster_terms(self):
        m = ClusterPowerModel(dynamic_w=10.0, static_w=2.0,
                              storage_dynamic_w=4.0, rack_overhead_w=50.0,
                              pue=2.0)
        e = rollup_cluster(busy_us=1e6, storage_busy_us=5e5,
                           active_server_us=2e6, n_racks=3,
                           horizon_us=1e6, model=m)
        assert e.dynamic_j == pytest.approx(10.0 + 2.0)
        assert e.static_j == pytest.approx(4.0)
        assert e.rack_j == pytest.approx(150.0)
        assert e.facility_j == pytest.approx(2.0 * (12.0 + 4.0 + 150.0))
        assert e.carbon_g(m) == pytest.approx(
            e.facility_j / 3.6e6 * m.carbon_g_per_kwh)


class TestFleetWorkUnits:
    def _task(self, shard=0):
        return FleetShardTask(graph="fleet_rpu", fleet=FleetConfig(),
                              shape=TrafficShape(base_qps=30_000.0),
                              horizon_us=10_000.0, shard=shard,
                              n_shards=1, seed=5)

    def test_units_dedup_by_task_not_cost(self):
        a = FleetUnit(task=self._task(), cost=1.0)
        b = FleetUnit(task=self._task(), cost=9.0)
        c = FleetUnit(task=self._task(shard=1), cost=1.0)
        assert dedup_units([a, b, c]) == [a, c]

    def test_execute_work_unit_runs_fleet_shards(self):
        # dispatches on type and fills the store; recomputing through
        # the cached path must agree with the direct simulation
        from repro.system.fleet import _run_shard_cached

        task = self._task()
        execute_work_unit(FleetUnit(task=task))
        assert _run_shard_cached(task) == run_fleet_shard(task)

    def test_sweep_declares_the_tasks_run_fleet_executes(self):
        from repro.experiments import fleet_sweep

        units = fleet_sweep.work_units(0.1)
        tasks = {u.task for u in units}
        assert len(units) == len(tasks)  # no duplicate declarations
        for cell in fleet_sweep._cells(0.1):
            for t in fleet_sweep._cell_tasks(cell):
                assert t in tasks


class TestHealthCheckedFailover:
    """Replica ejection / probational readmission and the failover
    pickers (the zone integration itself is in test_system_zones)."""

    def _sim(self, balancer="batch_aware", **fleet_kw):
        from repro.system import ZoneConfig
        from repro.system.fleet import GRAPHS

        fleet = FleetConfig(replicas=4, rack_size=2, balancer=balancer,
                            health_check=True, unhealthy_after=2,
                            health_probe_us=1_000.0, **fleet_kw)
        zones = ZoneConfig(racks_per_zone=1,
                           planned=((0, 10_000.0, 20_000.0),),
                           horizon_us=HORIZON)
        sim = FleetSimulation(GRAPHS["fleet_rpu"](), fleet, seed=5,
                              resilience=ResilienceConfig(
                                  deadline_us=60_000.0, max_retries=2),
                              shard=0, zones=zones)
        return sim

    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_without_faults_health_checks_change_no_route(self, balancer):
        """Nothing is ejected without faults, so the routable set stays
        the active prefix - also while autoscaling moves it - and every
        balancer routes exactly as with health checks off."""
        shape = TrafficShape(base_qps=60_000.0, diurnal_amplitude=0.6,
                             diurnal_period_us=HORIZON)

        def run(health_check):
            return run_fleet(shape, HORIZON, graph="fleet_rpu",
                             fleet=FleetConfig(replicas=4,
                                               balancer=balancer,
                                               autoscale=True,
                                               health_check=health_check),
                             shards=1, seed=6, jobs=1)

        plain = run(False)
        assert plain.scale_ups > 0 and plain.scale_downs > 0
        assert run(True) == plain

    def test_streak_ejects_at_threshold_and_extends_to_outage_end(self):
        sim = self._sim()
        rs = next(iter(sim.replica_sets.values()))
        site = rs.stations[0].name
        sim._note_failure(11_000.0, site)
        assert rs.fail_streak[0] == 1
        assert rs.down_until[0] == 0.0  # below threshold: still in
        sim._note_failure(11_010.0, site)
        # ejected until the *outage end*, not just one probe interval
        assert rs.down_until[0] == 20_000.0
        assert rs.ejections == 1
        assert rs.stations[0] not in rs.routable
        assert len(rs.routable) == rs.active - 1

    def test_quiet_period_decays_the_streak(self):
        sim = self._sim()
        rs = next(iter(sim.replica_sets.values()))
        site = rs.stations[0].name
        sim._note_failure(1_000.0, site)
        sim._note_failure(5_000.0, site)  # > probe interval later
        assert rs.fail_streak[0] == 1  # decayed, restarted
        assert rs.down_until[0] == 0.0

    def test_readmission_is_probational(self):
        sim = self._sim()
        rs = next(iter(sim.replica_sets.values()))
        site = rs.stations[0].name
        sim._note_failure(11_000.0, site)
        sim._note_failure(11_010.0, site)
        sim._readmit(20_000.0, (rs, 0))
        assert rs.down_until[0] == 0.0
        assert rs.fail_streak[0] == 0
        assert rs.stations[0] in rs.routable

    def test_stale_readmit_event_is_ignored(self):
        sim = self._sim()
        rs = next(iter(sim.replica_sets.values()))
        rs.down_until[0] = 30_000.0
        rs.rebuild_routable(25_000.0)
        sim._readmit(25_000.0, (rs, 0))  # an older event firing early
        assert rs.down_until[0] == 30_000.0
        assert rs.stations[0] not in rs.routable

    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_no_picker_routes_to_an_ejected_replica(self, balancer):
        from repro.system.queueing import Job

        sim = self._sim(balancer=balancer)
        rs = next(iter(sim.replica_sets.values()))
        rs.down_until[0] = 1e18
        rs.rebuild_routable(0.0)
        dead = rs.stations[0]
        for i in range(60):
            job = Job(jid=i, arrival_us=float(i), api_id=i % 3)
            assert sim._pick(rs, float(i), job) is not dead

    @pytest.mark.parametrize("balancer", BALANCERS)
    def test_all_ejected_falls_back_to_active_prefix(self, balancer):
        from repro.system.queueing import Job

        sim = self._sim(balancer=balancer)
        rs = next(iter(sim.replica_sets.values()))
        for i in range(len(rs.stations)):
            rs.down_until[i] = 1e18
        rs.rebuild_routable(0.0)
        assert rs.routable == []
        job = Job(jid=1, arrival_us=0.0, api_id=1)
        st = sim._pick(rs, 0.0, job)
        assert st in rs.stations[:rs.active]


class TestAdaptiveBalancer:
    def test_relearns_the_affinity_map_as_the_mix_drifts(self):
        from repro.system.fleet import GRAPHS
        from repro.system.queueing import Job

        fleet = FleetConfig(replicas=4, balancer="adaptive",
                            adapt_interval_us=100.0,
                            affinity_spill_us=1e9)
        sim = FleetSimulation(GRAPHS["fleet_rpu"](), fleet, seed=5)
        rs = next(iter(sim.replica_sets.values()))
        # window 1: class 7 dominates -> it should map to rank 0
        for i in range(20):
            sim._pick(rs, 1.0 + i * 0.01, Job(jid=i, arrival_us=0.0,
                                              api_id=7 if i else 3))
        sim._pick(rs, 200.0, Job(jid=99, arrival_us=0.0, api_id=3))
        assert rs.api_map[7] == 0 and rs.api_map[3] == 1
        # window 2: the mix flips to class 3 -> ranks swap at the next
        # boundary
        for i in range(20):
            sim._pick(rs, 210.0 + i * 0.01, Job(jid=200 + i,
                                                arrival_us=0.0,
                                                api_id=3 if i else 7))
        sim._pick(rs, 400.0, Job(jid=300, arrival_us=0.0, api_id=7))
        assert rs.api_map[3] == 0 and rs.api_map[7] == 1

    def test_adaptive_keeps_fleet_batches_pure_on_steady_mix(self):
        shape = TrafficShape(base_qps=40_000.0)
        adaptive = run_fleet(shape, HORIZON, graph="fleet_rpu",
                             fleet=FleetConfig(replicas=3,
                                               balancer="adaptive"),
                             shards=2, seed=5)
        blind = run_fleet(shape, HORIZON, graph="fleet_rpu",
                          fleet=FleetConfig(replicas=3,
                                            balancer="round_robin"),
                          shards=2, seed=5)
        assert adaptive.mixed_batch_frac < blind.mixed_batch_frac
        assert adaptive.completed == adaptive.n_requests


class TestAffinityDecay:
    """Ejection-triggered affinity-map decay (``affinity_decay``).

    When the adaptive balancer's concentrated rank-0 replica dies
    mid-window, the learned map was ranked against the pre-ejection
    replica set and a window polluted by the dying replica's retry
    storm.  Decaying to the identity map and reopening the adaptation
    window on each ejection re-learns against the survivors instead of
    waiting out the stale window - which is what recovers the
    post-fault tail.
    """

    #: six API classes with popularity scrambled against class id, so
    #: the learned ranks and the identity map route differently; the
    #: hottest class ("d", rank 0) is affinitized to replica 0 - the
    #: one the planned zone outage kills
    _WEIGHTS = [("a", 0.10), ("b", 0.15), ("c", 0.08), ("d", 0.40),
                ("e", 0.07), ("f", 0.20)]

    def _graph(self):
        from repro.system.graph import GraphConfig, GraphNode

        nodes = {"front": GraphNode("front", 40.0, servers=1,
                                    route=list(self._WEIGHTS))}
        for name, _w in self._WEIGHTS:
            nodes[name] = GraphNode(name, 30.0, servers=1000)
        return GraphConfig(nodes=nodes, entry="front", rpu=True)

    def _fleet(self, decay):
        return FleetConfig(replicas=4, rack_size=1, balancer="adaptive",
                           health_check=True, unhealthy_after=2,
                           health_probe_us=1_000.0,
                           adapt_interval_us=2_000.0,
                           affinity_spill_us=200.0,
                           affinity_decay=decay)

    def _recovery_p99(self, decay, seed):
        from repro.system import ZoneConfig
        from repro.system.queueing import _percentile

        horizon = 60_000.0
        out_start = 10_000.0
        zones = ZoneConfig(racks_per_zone=1,
                           planned=((0, out_start, 30_000.0),),
                           horizon_us=horizon)
        arrivals = generate_arrivals(TrafficShape(base_qps=16_000.0),
                                     horizon, seed, shard=0, n_shards=1)
        sim = FleetSimulation(
            self._graph(), self._fleet(decay), seed=seed, zones=zones,
            shard=0, resilience=ResilienceConfig(deadline_us=50_000.0,
                                                 max_retries=3))
        sim.run_arrivals(arrivals, horizon)
        assert sum(rs.ejections for rs in sim.replica_sets.values()) > 0
        recovery = [j.latency_us for j in sim.finished
                    if j.arrival_us >= out_start]
        return _percentile(recovery, 0.99)

    def test_ejection_decays_map_and_reopens_window(self):
        from repro.system.fleet import GRAPHS
        from repro.system.queueing import Job

        for decay in (True, False):
            fleet = self._fleet(decay)
            sim = FleetSimulation(GRAPHS["fleet_rpu"](), fleet, seed=5)
            sim._sites = {}
            rs = next(iter(sim.replica_sets.values()))
            sim._sites[rs.stations[0].name] = (rs, 0)
            # learn a non-trivial map, then close the window
            for i in range(20):
                sim._pick(rs, 1.0 + i * 0.01,
                          Job(jid=i, arrival_us=0.0,
                              api_id=7 if i else 3))
            sim._pick(rs, 2_500.0, Job(jid=99, arrival_us=0.0, api_id=3))
            assert rs.api_map == {7: 0, 3: 1}
            # two failures eject replica 0
            sim._note_failure(3_000.0, rs.stations[0].name)
            sim._note_failure(3_010.0, rs.stations[0].name)
            assert rs.ejections == 1
            if decay:
                assert rs.api_map == {}  # identity until re-learned
                assert rs.api_counts == {}
                assert rs.next_adapt_us == pytest.approx(
                    3_010.0 + self._fleet(decay).adapt_interval_us)
            else:
                assert rs.api_map == {7: 0, 3: 1}  # stale map kept

    def test_decay_improves_recovery_p99(self):
        """The regression pin: across four deterministic traffic draws,
        decaying the map on ejection strictly improves the p99 of every
        request arriving at or after the outage, and never hurts on any
        single draw."""
        seeds = (1, 3, 5, 8)
        with_decay = [self._recovery_p99(True, s) for s in seeds]
        without = [self._recovery_p99(False, s) for s in seeds]
        for on, off, seed in zip(with_decay, without, seeds):
            assert on < off, (seed, on, off)
        assert sum(with_decay) / len(seeds) < sum(without) / len(seeds)


class TestP99Autoscale:
    def test_p99_signal_scales_up_under_a_brownout(self):
        from repro.system import ZoneConfig

        zones = ZoneConfig(racks_per_zone=1,
                           planned_brownout=((1, 10_000.0, 30_000.0),),
                           brownout_mult=8.0, horizon_us=HORIZON)
        fleet = FleetConfig(replicas=6, rack_size=2, autoscale=True,
                            autoscale_signal="p99", min_active=4,
                            autoscale_interval_us=2_000.0,
                            p99_target_us=2_500.0)
        r = run_fleet(TrafficShape(base_qps=30_000.0), HORIZON,
                      graph="fleet_rpu", fleet=fleet, shards=1, seed=5,
                      zones=zones)
        assert r.scale_ups > 0
        assert r.completed == r.n_requests

    def test_p99_signal_idles_without_pressure(self):
        fleet = FleetConfig(replicas=6, rack_size=2, autoscale=True,
                            autoscale_signal="p99", min_active=4,
                            autoscale_interval_us=2_000.0,
                            p99_target_us=1e9)
        r = run_fleet(TrafficShape(base_qps=30_000.0), HORIZON,
                      graph="fleet_rpu", fleet=fleet, shards=1, seed=5)
        assert r.scale_ups == 0
