"""Determinism pins: reference stdouts and jobs/repeat independence.

Two contracts:

* experiments render byte-identically to reference stdouts
  (``tests/data/ref_stdout_*.txt``): six captured before the
  fault/resilience layer existed pin it as *opt-in*, and the Fig. 19-21
  and cycle-stack figures pin the ``run_chip`` timing path;
* the new resilience sweep is itself deterministic: repeated runs and
  ``--jobs 1`` vs ``--jobs 4`` produce byte-identical output.
"""

from pathlib import Path

import pytest

from repro.experiments import (
    cycle_stacks,
    fig05_bandwidth,
    fig07_minpc,
    fig13_stack_interleaving,
    fig19_20_21_chip,
    fig22_end_to_end,
    fleet_sweep,
    resilience_sweep,
    run_all,
    table04_config,
    table05_area_power,
    zone_failover,
)
from repro.experiments.common import set_default_jobs

DATA = Path(__file__).parent / "data"

#: (reference file stem, experiment main, scale it was captured at)
REFERENCES = [
    ("fig05", fig05_bandwidth.main, 1.0),
    ("fig07", fig07_minpc.main, 1.0),
    ("fig13", fig13_stack_interleaving.main, 1.0),
    ("fig22", fig22_end_to_end.main, 0.25),
    ("table04", table04_config.main, 1.0),
    ("table05", table05_area_power.main, 1.0),
    # captured before the zone/failover layer: pins that layer (and
    # the adaptive balancer) as strictly opt-in for fleet sweeps
    ("fleet", fleet_sweep.main, 0.1),
    # the run_chip path end to end (executor events streamed through
    # the timing model and memory hierarchy): pins every cycle, stack
    # and traffic figure against timing-model drift
    ("chip", fig19_20_21_chip.main, 0.1),
    ("cycle_stacks", cycle_stacks.main, 0.1),
]


@pytest.mark.parametrize("stem,main_fn,scale", REFERENCES,
                         ids=[r[0] for r in REFERENCES])
def test_fault_free_output_matches_pre_change_reference(stem, main_fn,
                                                        scale):
    """The layer's no-op guarantee, pinned byte for byte."""
    ref = (DATA / f"ref_stdout_{stem}.txt").read_text()
    assert main_fn(scale) == ref


def test_resilience_sweep_repeats_byte_identically():
    assert resilience_sweep.main(0.1) == resilience_sweep.main(0.1)


@pytest.mark.parametrize("jobs", [1, 4])
def test_resilience_sweep_independent_of_jobs(jobs):
    try:
        set_default_jobs(jobs)
        out = resilience_sweep.main(0.1)
    finally:
        set_default_jobs(None)
    assert out == resilience_sweep.main(0.1)  # vs the serial rendering


def test_run_all_resilience_jobs_parity(capsys):
    args = ["--only", "resilience", "--scale", "0.1"]
    assert run_all.main(args) == 0
    baseline = capsys.readouterr().out
    assert run_all.main(args + ["--jobs", "4"]) == 0
    try:
        assert capsys.readouterr().out == baseline
    finally:
        set_default_jobs(None)


# ----------------------------------------------------------------------
# interleaving independence (the seed-stream bugfix)
# ----------------------------------------------------------------------

def _graph_outcomes(backoff_us):
    """Fault outcomes of a retried graph run, keyed observables only."""
    from repro.system import (FaultConfig, GraphSimulation,
                              ResilienceConfig, social_network_graph)

    sim = GraphSimulation(
        social_network_graph(rpu=True), seed=3,
        faults=FaultConfig(drop_prob=0.05, detect_us=20.0),
        resilience=ResilienceConfig(max_retries=4,
                                    retry_backoff_us=backoff_us))
    r = sim.run(qps=20_000.0, n_requests=400)
    return {
        "completed": r.completed,
        "violated": sim.violated,
        "attempts": {rid: s["retries"]
                     for rid, s in sorted(sim._rstates.items())},
        "arrivals": {name: st.arrived_jobs
                     for name, st in sim.stations.items()},
    }


def test_graph_draws_are_independent_of_retry_timing():
    """Routing, miss and drop draws are keyed on (request, attempt),
    never on event order: stretching the retry backoff 40x reshuffles
    every event interleaving but may not change any request's route,
    drop fate or attempt count.  (Before the keyed streams, in-event
    RNG consumption made each request's fate depend on every earlier
    event.)"""
    a = _graph_outcomes(50.0)
    b = _graph_outcomes(2_000.0)
    assert a == b
    assert a["violated"] > 0 or max(a["attempts"].values()) > 0


def test_fleet_sweep_cell_independent_of_jobs():
    """One fleet configuration, serial vs fanned out over workers."""
    from repro.experiments.fleet_sweep import _cells, _run_cell

    cell = _cells(0.1)[0]
    try:
        set_default_jobs(1)
        serial = _run_cell(cell)
        set_default_jobs(3)
        parallel = _run_cell(cell)
    finally:
        set_default_jobs(None)
    assert serial == parallel


# ----------------------------------------------------------------------
# zone failover sweep determinism
# ----------------------------------------------------------------------

def test_zone_failover_repeats_byte_identically():
    assert zone_failover.main(0.1) == zone_failover.main(0.1)


def test_zone_failover_independent_of_jobs():
    try:
        set_default_jobs(4)
        fanned = zone_failover.main(0.1)
    finally:
        set_default_jobs(None)
    assert fanned == zone_failover.main(0.1)  # vs the serial rendering
