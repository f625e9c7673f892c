"""System-tier stations against queueing theory.

The other system-tier checks compare the simulator with its own past
output; these compare it with closed forms that hold for any correct
FCFS station:

* M/D/1 - one unbatched server, deterministic service ``D``, Poisson
  arrivals at rate ``rho / D``: the mean wait in queue is
  Pollaczek-Khinchine's ``rho * D / (2 * (1 - rho))``;
* M/D/c - ``c`` unbatched servers: the Kiefer-Wolfowitz FCFS
  recursion is an independent sample-path reference, so per-job
  latencies must match it exactly, not only in the mean;
* M/D/inf - an ``infinite=True`` station never queues, so every job
  completes exactly its service time after it arrives.

The M/D/1 check is statistical.  With 150,000 jobs the sample mean wait
has a standard error of about 1% of the formula at rho = 0.5 and 1.5%
at rho = 0.8 (measured over independent seeds), so the tolerances are
about three standard errors.  The seed is fixed, so the test is
deterministic.
"""

import random

import pytest

from repro.system import Job, Simulator, Station

SERVICE_US = 100.0
N_JOBS = 150_000
SEED = 3


def _poisson_latencies(station, rate_per_us, n, seed):
    """Drive ``n`` Poisson arrivals into ``station``; per-job latencies
    in arrival order."""
    sim = station.sim
    rng = random.Random(seed)
    jobs = []

    def done(t, js):
        for j in js:
            j.done_us = t

    def arrive(t, jid):
        job = Job(jid, t)
        jobs.append(job)
        station.arrive(t, job, done)
        if jid + 1 < n:
            sim.schedule(t + rng.expovariate(rate_per_us), arrive, jid + 1)

    sim.schedule(rng.expovariate(rate_per_us), arrive, 0)
    sim.run()
    return jobs


@pytest.mark.parametrize("rho, tol", [(0.5, 0.03), (0.8, 0.05)])
def test_md1_mean_wait_matches_pollaczek_khinchine(rho, tol):
    station = Station(Simulator(), "md1", latency_us=SERVICE_US, servers=1)
    jobs = _poisson_latencies(station, rho / SERVICE_US, N_JOBS, SEED)
    assert len(jobs) == N_JOBS and all(j.done_us > 0 for j in jobs)
    mean_wait = sum(j.latency_us for j in jobs) / N_JOBS - SERVICE_US
    pk = rho * SERVICE_US / (2 * (1 - rho))
    assert mean_wait == pytest.approx(pk, rel=tol)


def _kiefer_wolfowitz(arrivals, service_us, servers):
    """FCFS latencies of ``servers`` deterministic servers by the
    Kiefer-Wolfowitz recursion, kept in absolute server-free times:
    ``free`` is the sorted vector of when each server next frees up.
    Each arrival (in time order) takes the earliest-free server,
    waiting for it if it is still busy."""
    free = [0.0] * servers
    latencies = []
    for a in arrivals:
        done = max(a, free[0]) + service_us
        free[0] = done
        free.sort()
        latencies.append(done - a)
    return latencies


def test_mdc_latencies_match_kiefer_wolfowitz_exactly():
    c = 3
    station = Station(Simulator(), "md3", latency_us=SERVICE_US, servers=c)
    # rho = 0.9 per server: most jobs queue behind busy servers
    jobs = _poisson_latencies(station, 0.9 * c / SERVICE_US, 20_000, SEED)
    ref = _kiefer_wolfowitz([j.arrival_us for j in jobs], SERVICE_US, c)
    assert [j.latency_us for j in jobs] == ref
    assert sum(lat > SERVICE_US for lat in ref) > len(ref) // 2


def test_infinite_station_latency_is_exactly_the_service_time():
    station = Station(Simulator(), "mdinf", latency_us=SERVICE_US,
                      servers=1, infinite=True)
    # offered load 5 (rho = 5 on one server): a finite station would
    # queue without bound
    jobs = _poisson_latencies(station, 5.0 / SERVICE_US, 20_000, SEED)
    assert all(j.done_us == j.arrival_us + SERVICE_US for j in jobs)

    # simultaneous arrivals through the grouped entry point
    burst = [Job(jid, 1e9) for jid in range(64)]

    def done(t, js):
        for j in js:
            j.done_us = t

    station.sim.schedule(1e9, lambda t: station.arrive_many(t, burst, done))
    station.sim.run()
    assert all(j.done_us == j.arrival_us + SERVICE_US for j in burst)
