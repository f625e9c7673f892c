"""The benchmark's three workloads and their output checks.

Why these three (each stresses layers the others bypass):

* ``chip`` - all 15 services on CPU, CPU-SMT8, RPU and GPU through
  ``timing.run_chip`` (Figs. 19-21), the path most of ``run_all``
  takes.  Exercises the engine's sink path, ``timing/``, ``memsys/``,
  trace-cache sharing (CPU with SMT8, RPU with GPU), store writes and
  ``energy/``.  Bypasses the no-sink vector engine, memo, bounded
  lanes and the system tier.  Cache-resident mid-tiers and
  cache-thrashing leaves are both in the mix; statistics start after
  ``run_chip``'s 20% warm-up.
* ``simt`` - the Fig. 4/11 pattern through ``core.run.run_batch`` with
  no sink: each service's population re-batched naive, per-API and
  per-API+size at batch 32 under IPDOM, plus per-API+size under
  MinSP-PC.  Exercises the vector engine, codegen, grain memo, bounded
  lanes, setup templates and ``batching/``.  The same requests recur
  across batchings and policies, so if memoization pays anywhere it
  pays here.  Never reaches ``timing/`` or ``memsys/``.
* ``fleet`` - ``system.run_fleet`` (2 shards, serial) on the
  ``fleet_rpu`` graph under diurnal arrivals with a flash crowd, in
  three cells (clean; planned zone kill with health-checked failover
  and the adaptive balancer; Poisson outages, stragglers and drops
  with retries and p99 autoscaling), plus a ``run_end_to_end`` sweep
  over CPU and RPU offered load (Fig. 22).  Exercises the scheduler,
  queueing, graph, fleet, faults, resilience, zones and cluster
  energy.  Never reaches the engine or ``timing/``.

Every input is drawn from the round's seed; the simulator only sees
the generated requests and configurations.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Callable, Dict, List, Optional, Sequence

#: measured requests per service on each chip design point
CHIP_REQUESTS = 24
#: requests per service re-batched three ways in ``simt``
SIMT_REQUESTS = 192
SIMT_BATCH = 32
#: ``simt`` columns: name -> (batching policy, reconvergence policy)
SIMT_COLUMNS = {
    "naive": ("naive", "ipdom"),
    "per_api": ("per_api", "ipdom"),
    "api_size_ipdom": ("per_api_size", "ipdom"),
    "api_size_minsp": ("per_api_size", "minsp_pc"),
}
#: simulated horizon of each fleet cell
FLEET_HORIZON_US = 200_000.0
FLEET_SHARDS = 2
FLEET_BASE_QPS = 60_000.0
#: Fig. 22 offered loads (requests per second) and requests per point
E2E_LOADS = {"cpu": (5_000, 10_000, 15_000, 18_000, 20_000),
             "rpu": (20_000, 40_000, 60_000, 75_000, 90_000)}
E2E_REQUESTS = 3_000
#: requests per service used for the first calls during set-up
WARM_REQUESTS = 4

#: the paper's reported results (the only reference the repo holds)
PAPER_CHIP = {"rpu_ee": 5.7, "rpu_lat": 1.44, "smt_ee": 1.05,
              "smt_lat": 5.0}
PAPER_SIMT = {"naive": 0.68, "api_size_ipdom": 0.92,
              "api_size_minsp": 0.91}


class Ops:
    """Simulation calls of one timed phase: results, or None if raised."""

    def __init__(self):
        self.results: List[object] = []
        self.errors: Dict[int, str] = {}

    def call(self, fn: Callable, *args, **kwargs):
        idx = len(self.results)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, run continues
            self.errors[idx] = f"{type(exc).__name__}: {exc}"
            out = None
        self.results.append(out)
        return out

    @property
    def attempted(self) -> int:
        return len(self.results)


def digest(values) -> str:
    """Hash of a canonical repr of simulated values (floats exact)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _mean(xs: Sequence[float]) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _err_pct(pairs) -> float:
    return 100.0 * _mean(abs(got / want - 1.0) for got, want in pairs)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(map(str, parts)))


# ----------------------------------------------------------------------
# chip
# ----------------------------------------------------------------------

def _chip_configs():
    from repro import timing
    return (timing.CPU_CONFIG, timing.SMT8_CONFIG, timing.RPU_CONFIG,
            timing.GPU_CONFIG)


class _NullSink:
    """Discards events (first calls on the sink path during set-up)."""

    def on_step(self, pc, inst, active, addrs, outcomes) -> None:
        pass

    def on_done(self) -> None:
        pass


def chip_setup(seed: int) -> dict:
    from repro.core import run as core_run
    from repro.workloads import all_services

    services = all_services()
    t0 = time.perf_counter()
    for i, svc in enumerate(services):
        warm = svc.generate_requests(WARM_REQUESTS, _rng(seed, "warm", i))
        core_run.run_solo(svc, warm[:1], sink=_NullSink())
        core_run.run_batch(svc, warm, policy="minsp_pc", sink=_NullSink())
    return {"seed": seed, "services": services,
            "first_call_s": time.perf_counter() - t0}


def chip_run(ctx: dict, ops: Ops) -> dict:
    from repro import energy, timing

    configs = _chip_configs()
    rows = []
    for i, svc in enumerate(ctx["services"]):
        reqs = svc.generate_requests(CHIP_REQUESTS,
                                     _rng(ctx["seed"], "chip", i))
        idx = ops.attempted
        results = [ops.call(timing.run_chip, svc, reqs, cfg)
                   for cfg in configs]
        rpj = [energy.requests_per_joule(r) if r is not None else None
               for r in results]
        rows.append({"service": svc, "requests": reqs, "first": idx,
                     "results": results, "rpj": rpj})
    return {"rows": rows}


def chip_values(ctx: dict, out: dict, ops: Ops) -> dict:
    ee = {k: [] for k in PAPER_CHIP}
    s_values = []
    insts = 0
    effs = []
    counters: Dict[str, float] = {}
    requests = 0
    for row in out["rows"]:
        cpu, smt, rpu, gpu = row["results"]
        r_cpu, r_smt, r_rpu, _ = row["rpj"]
        ee["rpu_ee"].append(r_rpu / r_cpu)
        ee["smt_ee"].append(r_smt / r_cpu)
        ee["rpu_lat"].append(rpu.avg_latency_cycles / cpu.avg_latency_cycles)
        ee["smt_lat"].append(smt.avg_latency_cycles / cpu.avg_latency_cycles)
        for r, rpj in zip(row["results"], row["rpj"]):
            insts += r.scalar_instructions
            requests += len(row["requests"])
            if r.batch_size > 1:
                effs.append(r.simt_efficiency)
            for k, v in r.counters.items():
                counters[k] = counters.get(k, 0) + v
            s_values.append((r.config_name, r.service, r.n_requests,
                             r.core_cycles, tuple(r.latencies_cycles),
                             tuple(sorted(r.counters.items())),
                             r.simt_efficiency, r.scalar_instructions,
                             r.batch_size, rpj))

    def rate(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) \
            else 0.0

    return {
        "digest": digest(s_values),
        "sim_requests": requests,
        "sim_insts": insts,
        "paper_err_pct": _err_pct(
            (_mean(ee[k]), v) for k, v in PAPER_CHIP.items()),
        "simt_eff": _mean(effs),
        "memsys": {
            "l1_miss_rate": rate("l1_misses", "l1_accesses"),
            "l2_miss_rate": rate("l2_misses", "l2_accesses"),
            "l3_miss_rate": rate("l3_misses", "l3_accesses"),
            "tlb_miss_rate": rate("tlb_misses", "tlb_accesses"),
            "avg_miss_latency_cyc": rate("miss_latency_sum", "miss_count"),
        },
        "system": {},
    }


def check_chip_result(result, requests, config) -> Optional[str]:
    """Invariants of one ``run_chip`` result (None when they hold)."""
    n = len(requests)
    if result.n_requests <= 0 or result.n_requests > n:
        return f"measured {result.n_requests} of {n} requests"
    if len(result.latencies_cycles) != result.n_requests:
        return (f"{len(result.latencies_cycles)} latencies for "
                f"{result.n_requests} measured requests")
    if config.batch_size <= 1 and config.hw_contexts == 1 \
            and result.n_requests != n - int(n * 0.2):
        return f"CPU measured {result.n_requests} requests after warm-up"
    if not all(lat > 0 for lat in result.latencies_cycles):
        return "non-positive latency"
    if not result.core_cycles > 0:
        return "non-positive core cycles"
    if not 0.0 < result.simt_efficiency <= 1.0:
        return f"SIMT efficiency {result.simt_efficiency} outside (0, 1]"
    return None


def arch_run(service, requests, policy: str, fastpath: bool, sink=None):
    """Execute requests on fresh state; returns (result, thread
    snapshots, memory contents) - the architectural outcome."""
    from repro.core.run import prepare_threads
    from repro.engine.lockstep import make_executor
    from repro.engine.memory import MemoryImage
    from repro.memsys.alloc import SimrAwareAllocator

    mem = MemoryImage(salt=0)
    threads = prepare_threads(service, requests, mem, SimrAwareAllocator())
    ex = make_executor(service.program, policy, sink=sink,
                       fastpath=fastpath)
    if policy == "solo":
        result = [ex.run(t, mem) for t in threads]
    else:
        result = ex.run(threads, mem)
    memory = {a: mem.read(a) for a in sorted(mem.written_addresses())}
    return result, [t.snapshot() for t in threads], memory


def check_solo_reference(service, request) -> Optional[str]:
    """Solo execution on the sink path (what ``run_chip``'s CPU and SMT
    designs run) must match the reference interpreter event for event."""
    from repro.timing import ListSink

    fast_sink, ref_sink = ListSink(), ListSink()
    fast = arch_run(service, [request], "solo", True, fast_sink)
    ref = arch_run(service, [request], "solo", False, ref_sink)
    if fast != ref:
        return "solo architectural state differs from the reference"
    if fast_sink.events != ref_sink.events:
        return "solo event stream differs from the reference"
    return None


def chip_check(ctx: dict, out: dict, ops: Ops,
               round_idx: int) -> Dict[int, str]:
    """Failed call index -> reason."""
    configs = _chip_configs()
    bad: Dict[int, str] = {}
    for si, row in enumerate(out["rows"]):
        for ci, (cfg, res) in enumerate(zip(configs, row["results"])):
            if res is None:
                continue
            why = check_chip_result(res, row["requests"], cfg)
            if why:
                bad[row["first"] + ci] = f"{cfg.name}: {why}"
        if row["results"][0] is None:
            continue
        # one sampled request per service, rotating with the round
        reqs = row["requests"]
        why = check_solo_reference(row["service"],
                                   reqs[(round_idx * 7 + si) % len(reqs)])
        if why:
            bad[row["first"]] = f"{row['service'].name}: {why}"
    return bad


# ----------------------------------------------------------------------
# simt
# ----------------------------------------------------------------------

def simt_setup(seed: int) -> dict:
    from repro.core import run as core_run
    from repro.workloads import all_services

    services = all_services()
    t0 = time.perf_counter()
    for i, svc in enumerate(services):
        warm = svc.generate_requests(WARM_REQUESTS, _rng(seed, "warm", i))
        for policy in ("ipdom", "minsp_pc"):
            core_run.run_batch(svc, warm, policy=policy)
    return {"seed": seed, "services": services,
            "first_call_s": time.perf_counter() - t0}


def simt_run(ctx: dict, ops: Ops) -> dict:
    from repro import batching
    from repro.core import run as core_run

    calls = []
    for i, svc in enumerate(ctx["services"]):
        reqs = svc.generate_requests(SIMT_REQUESTS,
                                     _rng(ctx["seed"], "simt", i))
        for col, (form, policy) in SIMT_COLUMNS.items():
            for batch in batching.form_batches(reqs, SIMT_BATCH, form):
                calls.append((i, col, policy, batch))
                ops.call(core_run.run_batch, svc, batch, policy=policy)
    return {"calls": calls}


def simt_values(ctx: dict, out: dict, ops: Ops) -> dict:
    services = ctx["services"]
    per = {}  # (service, column) -> efficiencies
    s_values = []
    insts = 0
    requests = 0
    for (si, col, _policy, batch), r in zip(out["calls"], ops.results):
        per.setdefault((si, col), []).append(r.simt_efficiency)
        insts += r.scalar_instructions
        requests += len(batch)
        s_values.append((r.batch_size, r.steps, r.scalar_instructions,
                         r.divergent_branches, r.branches,
                         tuple(r.retired_per_thread), r.truncated))
    cols = {col: _mean(_mean(per[(si, col)])
                       for si in range(len(services)))
            for col in SIMT_COLUMNS}
    return {
        "digest": digest(s_values),
        "sim_requests": requests,
        "sim_insts": insts,
        "paper_err_pct": _err_pct((cols[k], v)
                                  for k, v in PAPER_SIMT.items()),
        "simt_eff": _mean(r.simt_efficiency for r in ops.results),
        "memsys": {},
        "system": {},
    }


def check_batch_result(result, batch) -> Optional[str]:
    """Invariants of one ``run_batch`` result (None when they hold)."""
    if result.truncated:
        return "batch hit its step budget"
    if result.batch_size != len(batch) \
            or len(result.retired_per_thread) != len(batch):
        return f"result covers {result.batch_size} of {len(batch)} requests"
    if not 0.0 < result.simt_efficiency <= 1.0:
        return f"SIMT efficiency {result.simt_efficiency} outside (0, 1]"
    return None


def check_batch_reference(service, batch, policy: str,
                          result) -> Optional[str]:
    """A timed batch's result, and the fast engine's architectural state
    on it, must match the reference interpreter."""
    ref = arch_run(service, batch, policy, False)
    if result != ref[0]:
        return "batch result differs from the reference interpreter"
    if arch_run(service, batch, policy, True) != ref:
        return "batch architectural state differs from the reference"
    return None


def simt_check(ctx: dict, out: dict, ops: Ops,
               round_idx: int) -> Dict[int, str]:
    services = ctx["services"]
    bad: Dict[int, str] = {}
    by_service: Dict[int, List[int]] = {}
    for idx, ((si, col, policy, batch), r) in enumerate(
            zip(out["calls"], ops.results)):
        by_service.setdefault(si, []).append(idx)
        if r is None:
            continue
        why = check_batch_result(r, batch)
        if why:
            bad[idx] = f"{services[si].name}/{col}: {why}"
    # one sampled batch per service, rotating with the round
    for si, idxs in sorted(by_service.items()):
        idx = idxs[(round_idx * 7 + si) % len(idxs)]
        r = ops.results[idx]
        if r is None or idx in bad:
            continue
        _, col, policy, batch = out["calls"][idx]
        why = check_batch_reference(services[si], batch, policy, r)
        if why:
            bad[idx] = f"{services[si].name}/{col}: {why}"
    return bad


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------

def _fleet_cells(seed: int) -> list:
    from repro import system

    h = FLEET_HORIZON_US
    retry = system.ResilienceConfig(deadline_us=60_000.0, max_retries=3)
    zone_kill = system.ZoneConfig(racks_per_zone=1, seed=seed,
                                  planned=((0, 0.3 * h, 0.6 * h),),
                                  horizon_us=h)
    faults = system.FaultConfig(seed=seed, outage_rate_per_s=10.0,
                                straggler_prob=0.02, drop_prob=0.002,
                                horizon_us=h)
    return [
        ("clean", system.FleetConfig(replicas=6, rack_size=2,
                                     balancer="batch_aware"),
         None, None, None),
        ("zone_kill", system.FleetConfig(
            replicas=6, rack_size=2, balancer="adaptive",
            health_check=True, unhealthy_after=2, health_probe_us=2_000.0),
         zone_kill, None, retry),
        ("faults", system.FleetConfig(
            replicas=6, rack_size=2, balancer="batch_aware", autoscale=True,
            autoscale_signal="p99", min_active=4, p99_target_us=2_500.0),
         None, faults, retry),
    ]


def fleet_setup(seed: int) -> dict:
    from repro import system

    system.fleet_social_graph(rpu=True)
    return {"seed": seed, "services": [], "first_call_s": 0.0}


def fleet_run(ctx: dict, ops: Ops) -> dict:
    from repro import system

    seed = ctx["seed"]
    h = FLEET_HORIZON_US
    shape = system.TrafficShape(
        base_qps=FLEET_BASE_QPS, diurnal_amplitude=0.3,
        diurnal_period_us=h, diurnal_phase=_rng(seed, "phase").random(),
        flash_at_us=0.5 * h, flash_duration_us=0.1 * h, flash_mult=1.5)
    calls = []
    for name, fleet, zones, faults, resilience in _fleet_cells(seed):
        calls.append(("fleet", name, None))
        ops.call(system.run_fleet, shape, h, fleet=fleet, graph="fleet_rpu",
                 shards=FLEET_SHARDS, seed=seed, faults=faults,
                 resilience=resilience, zones=zones, jobs=1)
    for design, loads in E2E_LOADS.items():
        cfg = system.EndToEndConfig(rpu=design == "rpu")
        for qps in loads:
            calls.append(("e2e", design, qps))
            ops.call(system.run_end_to_end, cfg, qps,
                     n_requests=E2E_REQUESTS, seed=seed)
    return {"calls": calls}


def fleet_values(ctx: dict, out: dict, ops: Ops) -> dict:
    import dataclasses

    fleets = [r for (kind, _, _), r in zip(out["calls"], ops.results)
              if kind == "fleet"]
    e2e = [r for (kind, _, _), r in zip(out["calls"], ops.results)
           if kind == "e2e"]
    s_values = ([repr(dataclasses.asdict(r)) for r in fleets]
                + [(r.offered_qps, r.completed, r.avg_latency_us, r.p50_us,
                    r.p99_us) for r in e2e])
    offered = sum(r.n_requests for r in fleets)
    return {
        "digest": digest(s_values),
        "sim_requests": offered + sum(r.completed for r in e2e),
        "sim_insts": 0,
        "paper_err_pct": None,
        "simt_eff": 0.0,
        "memsys": {},
        "system": {
            "avail": sum(r.completed for r in fleets) / offered,
            "p99_us": _mean(r.p99_us for r in fleets),
            "req_per_j": _mean(r.requests_per_joule for r in fleets),
            "ejections": sum(r.ejections for r in fleets),
        },
    }


def check_fleet_result(result) -> Optional[str]:
    """Every offered request resolves exactly once."""
    if result.n_requests <= 0:
        return "no requests offered"
    if result.completed + result.violated != result.n_requests:
        return (f"{result.completed} completed + {result.violated} failed "
                f"!= {result.n_requests} offered")
    if not result.requests_per_joule > 0:
        return "non-positive requests/joule"
    return None


def check_e2e_result(result, n_requests: int) -> Optional[str]:
    if result.completed != n_requests:
        return f"{result.completed} of {n_requests} requests completed"
    if not 0 < result.p50_us <= result.p99_us:
        return "latency percentiles out of order"
    return None


def fleet_check(ctx: dict, out: dict, ops: Ops,
                round_idx: int) -> Dict[int, str]:
    bad: Dict[int, str] = {}
    for idx, ((kind, name, qps), r) in enumerate(zip(out["calls"],
                                                     ops.results)):
        if r is None:
            continue
        why = (check_fleet_result(r) if kind == "fleet"
               else check_e2e_result(r, E2E_REQUESTS))
        if why:
            bad[idx] = f"{kind}/{name}{'' if qps is None else qps}: {why}"
    return bad


#: name -> (setup, timed run, output check, simulated values).  The
#: values function needs every call of the phase to have returned.
WORKLOADS = {
    "chip": (chip_setup, chip_run, chip_check, chip_values),
    "simt": (simt_setup, simt_run, simt_check, simt_values),
    "fleet": (fleet_setup, fleet_run, fleet_check, fleet_values),
}
