"""Resilience policies: conservation, retry/hedge/shed/breaker/degrade
behaviour and determinism, under the sanitizer where it matters."""

import dataclasses

import pytest

from repro.system import (
    CircuitBreaker,
    EndToEndConfig,
    FaultConfig,
    ResilienceConfig,
    run_end_to_end,
    run_resilient,
)

CPU = EndToEndConfig(rpu=False)
RPU = EndToEndConfig(rpu=True, batch_split=True)

#: a fault mix exercising every injection class
FAULTY = FaultConfig(
    seed=11, outage_rate_per_s=4.0, outage_min_us=2_000.0,
    outage_max_us=8_000.0, straggler_prob=0.02, straggler_mult=6.0,
    spike_prob=0.02, spike_us=600.0, drop_prob=0.02,
)


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


class TestNoFaultParity:
    def test_matches_plain_pipeline_exactly(self):
        """With no faults and no policy, the resilient runner is the
        plain User path: ``run_end_to_end`` reports its numbers to the
        bit (the mean sums latencies in resolution order)."""
        for cfg, qps in ((CPU, 6000.0), (RPU, 30000.0)):
            plain = run_end_to_end(cfg, qps, n_requests=600, seed=3)
            res = run_resilient(cfg, ResilienceConfig(), None, qps=qps,
                                n_requests=600, seed=3)
            assert res.completed == plain.completed == 600
            assert res.p50_us == plain.p50_us
            assert res.p99_us == plain.p99_us
            assert res.avg_latency_us == plain.avg_latency_us

    def test_no_fault_no_policy_is_lossless(self):
        res = run_resilient(RPU, ResilienceConfig(), None, qps=30000,
                            n_requests=500)
        assert res.shed == res.violated == res.degraded == 0
        assert res.retries == res.hedges == res.failed_attempts == 0
        assert res.quality == 1.0
        assert res.requests_per_joule > 0


class TestConservation:
    @pytest.mark.parametrize("cfg,qps", [(CPU, 7000.0), (RPU, 35000.0)])
    @pytest.mark.parametrize("policy", [
        ResilienceConfig(deadline_us=60_000.0),
        ResilienceConfig(deadline_us=60_000.0, max_retries=3),
        ResilienceConfig(deadline_us=60_000.0, max_retries=2,
                         hedge_after_us=2_500.0),
        ResilienceConfig(deadline_us=60_000.0, max_retries=2,
                         hedge_after_us=2_500.0, shed_backlog_us=2_500.0,
                         breaker_threshold=5, breaker_cooldown_us=4_000.0,
                         degrade_storage=True),
    ])
    def test_every_request_resolves_exactly_once(self, sanitized, cfg,
                                                 qps, policy):
        """The sanitizer enforces the conservation contract in-run:
        completed + shed + violated == n, attempts never leak, budgets
        hold, stations drain.  This just has to not raise."""
        res = run_resilient(cfg, policy, FAULTY, qps=qps, n_requests=800,
                            seed=5, max_events=2_000_000)
        assert res.completed + res.shed + res.violated == 800

    def test_hedge_losers_are_not_leaked(self, sanitized):
        """Hedged duplicates drain through the stations and are
        accounted; the attempts-launched == attempts-accounted check
        would trip on any cancellation leak."""
        pol = ResilienceConfig(deadline_us=60_000.0,
                               hedge_after_us=300.0, max_hedges=1)
        res = run_resilient(CPU, pol, FAULTY, qps=6000, n_requests=600,
                            seed=5, max_events=2_000_000)
        assert res.hedges > 0  # the aggressive trigger actually fired


class TestPolicies:
    def test_faults_cost_goodput_without_a_policy(self):
        none = ResilienceConfig(deadline_us=60_000.0)
        clean = run_resilient(CPU, none, None, qps=6000, n_requests=800)
        faulty = run_resilient(CPU, none, FAULTY, qps=6000, n_requests=800,
                               seed=5, max_events=2_000_000)
        assert clean.goodput_frac == 1.0
        assert faulty.goodput_frac < 0.97

    def test_retry_recovers_goodput_at_energy_cost(self):
        none = ResilienceConfig(deadline_us=60_000.0)
        retry = ResilienceConfig(deadline_us=60_000.0, max_retries=3)
        base = run_resilient(CPU, none, FAULTY, qps=6000, n_requests=800,
                             seed=5, max_events=2_000_000)
        rec = run_resilient(CPU, retry, FAULTY, qps=6000, n_requests=800,
                            seed=5, max_events=2_000_000)
        assert rec.completed > base.completed
        assert rec.retries > 0

    def test_hedging_wins_races_against_stragglers(self):
        slow = FaultConfig(seed=11, straggler_prob=0.08,
                           straggler_mult=10.0)
        pol = ResilienceConfig(deadline_us=100_000.0,
                               hedge_after_us=1_500.0)
        res = run_resilient(CPU, pol, slow, qps=4000, n_requests=800,
                            seed=5, max_events=2_000_000)
        assert res.hedges > 0 and res.hedge_wins > 0
        none = run_resilient(CPU, ResilienceConfig(deadline_us=100_000.0),
                             slow, qps=4000, n_requests=800, seed=5,
                             max_events=2_000_000)
        assert res.p999_us < none.p999_us  # the hedge's whole point

    def test_shedding_bounds_the_backlog(self, sanitized):
        pol = ResilienceConfig(deadline_us=60_000.0,
                               shed_backlog_us=200.0)
        res = run_resilient(CPU, pol, None, qps=25_000, n_requests=800)
        assert res.shed > 0  # over the knee: must refuse some arrivals
        assert res.completed + res.shed + res.violated == 800

    def test_breaker_opens_under_persistent_outages(self):
        heavy = FaultConfig(seed=11, outage_rate_per_s=20.0,
                            outage_min_us=5_000.0, outage_max_us=20_000.0)
        pol = ResilienceConfig(deadline_us=80_000.0, max_retries=3,
                               breaker_threshold=3,
                               breaker_cooldown_us=4_000.0)
        res = run_resilient(CPU, pol, heavy, qps=6000, n_requests=800,
                            seed=5, max_events=4_000_000)
        assert res.breaker_opens > 0

    def test_degradation_trades_quality_for_goodput(self, sanitized):
        """With storage knocked out, degrade-mode completes requests at
        a quality penalty that strict mode fails."""
        storage_out = FaultConfig(seed=11, outage_rate_per_s=40.0,
                                  outage_min_us=10_000.0,
                                  outage_max_us=40_000.0,
                                  stations=frozenset({"storage"}))
        base = ResilienceConfig(deadline_us=60_000.0, max_retries=1)
        deg = dataclasses.replace(base, degrade_storage=True,
                                  breaker_threshold=3,
                                  breaker_cooldown_us=10_000.0)
        strict = run_resilient(CPU, base, storage_out, qps=6000,
                               n_requests=800, seed=5,
                               max_events=4_000_000)
        soft = run_resilient(CPU, deg, storage_out, qps=6000,
                             n_requests=800, seed=5,
                             max_events=4_000_000)
        assert soft.degraded > 0
        assert soft.quality < 1.0
        assert soft.completed > strict.completed

    def test_deadline_violations_counted(self):
        tight = ResilienceConfig(deadline_us=900.0)  # below the pipeline
        res = run_resilient(CPU, tight, None, qps=2000, n_requests=300)
        assert res.violated > 0
        assert res.completed + res.violated == 300


class TestDeterminism:
    def test_same_seed_same_result(self):
        pol = ResilienceConfig(deadline_us=60_000.0, max_retries=2,
                               hedge_after_us=2_500.0)
        a = run_resilient(RPU, pol, FAULTY, qps=35_000, n_requests=600,
                          seed=7, max_events=2_000_000)
        b = run_resilient(RPU, pol, FAULTY, qps=35_000, n_requests=600,
                          seed=7, max_events=2_000_000)
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_different_seed_differs(self):
        pol = ResilienceConfig(deadline_us=60_000.0, max_retries=2)
        a = run_resilient(CPU, pol, FAULTY, qps=6000, n_requests=600,
                          seed=7, max_events=2_000_000)
        b = run_resilient(CPU, pol, FAULTY, qps=6000, n_requests=600,
                          seed=8, max_events=2_000_000)
        assert dataclasses.asdict(a) != dataclasses.asdict(b)


class TestCircuitBreaker:
    def test_opens_after_threshold_and_cools_down(self):
        br = CircuitBreaker(threshold=3, cooldown_us=100.0)
        for _ in range(2):
            br.failure("s", 0.0)
        assert br.allow("s", 0.0)  # below threshold
        br.failure("s", 10.0)
        assert br.opened == 1
        assert not br.allow("s", 50.0)
        assert br.allow("s", 110.0)  # cooled down

    def test_success_resets_the_streak(self):
        br = CircuitBreaker(threshold=3, cooldown_us=100.0)
        br.failure("s", 0.0)
        br.failure("s", 0.0)
        br.success("s")
        br.failure("s", 0.0)
        br.failure("s", 0.0)
        assert br.opened == 0 and br.allow("s", 0.0)

    def test_zero_threshold_never_opens(self):
        br = CircuitBreaker(threshold=0, cooldown_us=100.0)
        for _ in range(100):
            br.failure("s", 0.0)
        assert br.opened == 0 and br.allow("s", 0.0)


class TestConcurrentKillAccounting:
    """Regression pin: an outage onset killing the primary *and* its
    hedge in the same event batch must burn exactly one retry.  The
    old ``_attempt_failed`` charged the retry budget per failure, so
    the second concurrent kill either double-spent the budget or
    resolved the request VIOLATED while a backoff (or a live sibling
    attempt) was still pending."""

    def _race(self, monkeypatch):
        import random

        from repro.system.resilience import ResilientEndToEnd

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        cfg = EndToEndConfig(rpu=False)  # user tier: 100us, 2 servers
        pol = ResilienceConfig(deadline_us=60_000.0, max_retries=1,
                               hedge_after_us=50.0, max_hedges=1,
                               retry_backoff_us=500.0, jitter_frac=0.0)
        qps = 1_000.0
        seed = 4
        # arm the injector, then pin its windows by hand: one outage
        # on the user tier that catches the primary (in service
        # launch..launch+100) and the hedge (launch+50..launch+150)
        # together, killing both in the same detection batch
        sim = ResilientEndToEnd(cfg, pol, FaultConfig(
            seed=seed, outage_rate_per_s=1e-9), seed=seed)
        t0 = random.Random(seed).expovariate(1.0) * (1e6 / qps)
        launch = t0 + cfg.web_us + cfg.network_us
        win = ([launch + 80.0], [launch + 250.0])
        for st in sim.stations:
            sim.injector._eff[st.name] = ([], [])
        sim.injector._eff["user"] = win
        return sim.run(qps, n_requests=1)

    def test_double_kill_burns_one_retry_and_completes(self, monkeypatch):
        res = self._race(monkeypatch)
        assert res.completed == 1
        assert res.violated == 0
        assert res.retries == 1
        assert res.hedges == 1
        # primary + hedge (both killed) + the single retry
        assert res.failed_attempts == 2
        assert res.fault_stats["inflight_failures"] == 2
