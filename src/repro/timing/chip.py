"""Chip-level orchestration: run a request population on each design.

The chip is homogeneous, so we simulate one representative core with a
per-core slice of chip DRAM bandwidth and L3 capacity, and scale
throughput by the core count - the same methodology as the paper's
single-node Accel-Sim runs.

* CPU      - requests run back-to-back on one single-threaded core.
* CPU-SMT8 - groups of 8 requests share the core's frontend and L1.
* RPU      - batches (from the SIMR-aware server) run in lockstep.
* GPU      - 16 warps (batches) are resident and interleave in-order.

Two execution strategies produce bit-identical results:

* ``streaming=True`` (default): executor events flow through a
  :class:`~repro.timing.streams.TimingSink` straight into an
  incremental :class:`~repro.timing.core.CoreRun`, so traces are never
  materialized;
* ``streaming=False``: the original materialize-then-``CoreModel.run``
  pipeline, kept as the reference for differential checking.

Whole *timed* results are persisted in the content-addressed store
(:mod:`repro.store`): a ``run_chip`` call whose (service, population,
config, policy, batching, allocator, reconvergence, warmup) tuple was
ever simulated before - by any process, figure or fork worker with
identical source - returns the stored :class:`ChipResult` without
touching the executor or the timing model.  Only the default
``streaming=True`` path participates: the materialized path is the
differential *reference* and must always compute live.  Callers
supplying a bespoke ``allocator_factory`` bypass the store (allocator
behaviour is part of a result's identity and arbitrary factories
cannot be fingerprinted) unless they vouch for the factory by passing
``allocator_signature`` - the (class name, n_banks) tuple that keys
the entry - asserting that those two values fully determine the
factory's allocation behaviour.  ``REPRO_CACHE_VERIFY=1`` recomputes
on every timed hit and raises :class:`repro.store.CacheVerifyError`
on any field-level mismatch.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import sanitize
from .. import store as disk_store
from ..batching.policies import form_batches
from ..memsys.alloc import (BaseAllocator, DefaultAllocator,
                            SimrAwareAllocator)
from ..workloads.base import Microservice, Request
from .config import CoreConfig
from .core import CoreModel
from .memhier import Counters
from .streams import (SoloRunner, TimingSink, batch_trace, run_batch,
                      solo_traces)

#: executor step budgets (also part of the timed-result key)
SOLO_MAX_STEPS = 2_000_000
BATCH_MAX_STEPS = 4_000_000


@dataclass
class ChipResult:
    config_name: str
    service: str
    n_requests: int
    core_cycles: float
    latencies_cycles: List[float] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    simt_efficiency: float = 1.0
    scalar_instructions: int = 0
    freq_ghz: float = 2.5
    n_cores: int = 1
    batch_size: int = 1

    @property
    def avg_latency_cycles(self) -> float:
        if not self.latencies_cycles:
            return 0.0
        return sum(self.latencies_cycles) / len(self.latencies_cycles)

    @property
    def avg_latency_us(self) -> float:
        return self.avg_latency_cycles / (self.freq_ghz * 1e3)

    @property
    def core_time_s(self) -> float:
        return self.core_cycles / (self.freq_ghz * 1e9)

    @property
    def chip_throughput_rps(self) -> float:
        """Requests/second with every core running this workload."""
        if self.core_time_s == 0:
            return 0.0
        return self.n_requests / self.core_time_s * self.n_cores

    @property
    def ipc(self) -> float:
        return (self.scalar_instructions / self.core_cycles
                if self.core_cycles else 0.0)


def _allocator_for(config: CoreConfig):
    if config.mcu_enabled:  # SIMR systems ship the SIMR-aware allocator
        return SimrAwareAllocator(n_banks=max(config.l1_banks, 1))
    return DefaultAllocator(n_banks=max(config.l1_banks, 1))


def fingerprint_requests(requests: Sequence[Request]) -> str:
    """Order-sensitive digest of a request population.

    Hashes every field of every request (dataclass repr), so any change
    to the population - count, order, sizes, keys, payloads - produces
    a different key.
    """
    h = hashlib.sha256()
    for r in requests:
        h.update(repr(r).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def allocator_signature_of(allocator: BaseAllocator) -> Tuple[str, object]:
    """(class name, n_banks): allocator behaviour is class-determined,
    so two fresh instances with equal signatures allocate identically."""
    return (type(allocator).__name__, getattr(allocator, "n_banks", None))


def _timed_key(service, requests, config, policy, batching, batch_size,
               reconv_override, warmup_frac, alloc_sig) -> tuple:
    """Logical identity of one timed run (content-addressed on disk
    together with the source fingerprint of executor + timing code)."""
    reconv = (tuple(sorted(reconv_override.items()))
              if reconv_override else None)
    return ("chip", service.name, fingerprint_requests(requests),
            repr(config), policy, batching, batch_size, reconv,
            alloc_sig, warmup_frac, 0, SOLO_MAX_STEPS, BATCH_MAX_STEPS)


def _verify_timed(stored: ChipResult, fresh: ChipResult, key: tuple) -> None:
    """REPRO_CACHE_VERIFY=1: a stored timed entry must equal a live
    recompute field-for-field (floats bit-exact - the simulation is
    deterministic, so any drift is a store or simulator bug)."""
    if dataclasses.asdict(stored) != dataclasses.asdict(fresh):
        diff = [f.name for f in dataclasses.fields(ChipResult)
                if dataclasses.asdict(stored)[f.name]
                != dataclasses.asdict(fresh)[f.name]]
        raise disk_store.CacheVerifyError(
            f"stored chip result diverges from recompute in fields {diff} "
            f"for key {key[:6]}...")


def run_chip(
    service: Microservice,
    requests: Sequence[Request],
    config: CoreConfig,
    policy: str = "minsp_pc",
    batching: str = "per_api_size",
    batch_size: Optional[int] = None,
    reconv_override: Optional[Dict[int, int]] = None,
    allocator_factory=None,
    allocator_signature: Optional[tuple] = None,
    warmup_frac: float = 0.2,
    streaming: bool = True,
) -> ChipResult:
    """Simulate ``requests`` on one core of ``config``; scale to chip.

    The first ``warmup_frac`` of the requests warm caches, TLBs and
    branch predictors (the steady state a data center node lives in)
    and are excluded from latency/energy statistics.
    """
    requests = list(requests)
    make_alloc = allocator_factory or (lambda: _allocator_for(config))
    cacheable = allocator_factory is None or allocator_signature is not None
    if cacheable:
        alloc_sig = allocator_signature_of(make_alloc())
        if allocator_signature is not None and sanitize.sanitizer_enabled():
            sanitize.check(
                alloc_sig == tuple(allocator_signature),
                "run_chip: allocator_signature %r does not match the "
                "factory's actual signature %r", allocator_signature,
                alloc_sig)
    stored = disk_store.MISS
    timed_key = None
    if streaming and cacheable:
        timed_key = _timed_key(service, requests, config, policy, batching,
                               batch_size, reconv_override, warmup_frac,
                               alloc_sig)
        stored = disk_store.lookup("chip", disk_store.timed_fingerprint(),
                                   timed_key)
        if stored is not disk_store.MISS and not disk_store.verify_enabled():
            return stored
    core = CoreModel(config)
    out = ChipResult(
        config_name=config.name,
        service=service.name,
        n_requests=len(requests),
        core_cycles=0.0,
        freq_ghz=config.freq_ghz,
        n_cores=config.n_cores,
    )

    if config.batch_size <= 1 and config.hw_contexts == 1:
        _run_mimd_sequential(core, service, requests, make_alloc, out,
                             warmup_frac, streaming)
    elif config.batch_size <= 1:
        _run_smt(core, config, service, requests, make_alloc, out,
                 warmup_frac, streaming)
    else:
        _run_simt(core, config, service, requests, make_alloc, out,
                  policy, batching, batch_size, reconv_override,
                  warmup_frac, streaming)

    out.counters = core.all_counters()
    out.scalar_instructions = int(out.counters["scalar_instructions"])
    if timed_key is not None:
        if stored is not disk_store.MISS:  # REPRO_CACHE_VERIFY=1 hit
            _verify_timed(stored, out, timed_key)
        else:
            disk_store.record("chip", disk_store.timed_fingerprint(),
                              timed_key, out)
    return out


def _end_warmup(core, out, measured_requests):
    core.reset_measurement()
    out.latencies_cycles = []
    out.n_requests = measured_requests
    return core.now


# ----------------------------------------------------------------------
# solo execution (CPU / SMT)
# ----------------------------------------------------------------------

def _solo_runner(core, service, make_alloc) -> SoloRunner:
    return SoloRunner(service, allocator=make_alloc(),
                      max_steps=SOLO_MAX_STEPS,
                      pool_size=core.cfg.worker_pool)


def _run_mimd_sequential(core, service, requests, make_alloc, out,
                         warmup_frac, streaming):
    out.batch_size = 1
    if not streaming:
        traces = solo_traces(service, requests, allocator=make_alloc(),
                             pool_size=core.cfg.worker_pool)
        n_warm = int(len(traces) * warmup_frac)
        t0 = core.now
        for i, trace in enumerate(traces):
            if i == n_warm:
                t0 = _end_warmup(core, out, len(traces) - n_warm)
            res = core.run([trace])
            out.latencies_cycles.append(res.cycles)
        out.core_cycles = core.now - t0
        return

    runner = _solo_runner(core, service, make_alloc)
    n_warm = int(len(requests) * warmup_frac)
    t0 = core.now
    for i, req in enumerate(requests):
        if i == n_warm:
            t0 = _end_warmup(core, out, len(requests) - n_warm)
        run = core.begin(1)
        runner.run_request(i, req, TimingSink(run, 0))
        res = run.finish()
        out.latencies_cycles.append(res.cycles)
    out.core_cycles = core.now - t0


def _run_smt(core, config, service, requests, make_alloc, out,
             warmup_frac, streaming):
    out.batch_size = 1
    smt = config.hw_contexts
    if not streaming:
        traces = solo_traces(service, requests, allocator=make_alloc(),
                             pool_size=core.cfg.worker_pool)
        groups = [traces[i:i + smt] for i in range(0, len(traces), smt)]
        n_warm = int(len(groups) * warmup_frac)
        warm_traces = sum(len(g) for g in groups[:n_warm])
        t0 = core.now
        for i, group in enumerate(groups):
            if i == n_warm:
                t0 = _end_warmup(core, out, len(traces) - warm_traces)
            res = core.run(group)
            out.latencies_cycles.extend(s.cycles for s in res.streams)
        out.core_cycles = core.now - t0
        return

    runner = _solo_runner(core, service, make_alloc)
    groups = [requests[i:i + smt] for i in range(0, len(requests), smt)]
    n_warm = int(len(groups) * warmup_frac)
    warm_traces = sum(len(g) for g in groups[:n_warm])
    t0 = core.now
    idx = 0
    for gi, group in enumerate(groups):
        if gi == n_warm:
            t0 = _end_warmup(core, out, len(requests) - warm_traces)
        run = core.begin(len(group))
        for j, req in enumerate(group):
            runner.run_request(idx, req, TimingSink(run, j))
            idx += 1
        res = run.finish()
        out.latencies_cycles.extend(s.cycles for s in res.streams)
    out.core_cycles = core.now - t0


# ----------------------------------------------------------------------
# lockstep execution (RPU / GPU)
# ----------------------------------------------------------------------

def _run_simt(core, config, service, requests, make_alloc, out,
              policy, batching, batch_size, reconv_override,
              warmup_frac, streaming):
    bs = batch_size or min(service.recommended_batch, config.batch_size)
    out.batch_size = bs
    batches = form_batches(requests, bs, batching)
    warps = config.hw_contexts  # 1 for RPU, 16 for GPU

    if not streaming:
        traced = []
        effs: List[float] = []
        for batch in batches:
            events, result = batch_trace(
                service, batch, policy=policy, allocator=make_alloc(),
                reconv_override=reconv_override,
            )
            traced.append((events, len(batch)))
            effs.append(result.simt_efficiency)
        out.simt_efficiency = sum(effs) / len(effs) if effs else 1.0

        rounds = [traced[i:i + warps] for i in range(0, len(traced), warps)]
        n_warm = int(len(rounds) * warmup_frac)
        if n_warm == 0 and len(rounds) > 1 and warmup_frac > 0:
            n_warm = 1
        warm_requests = sum(n for grp in rounds[:n_warm] for _e, n in grp)
        t0 = core.now
        for i, group in enumerate(rounds):
            if i == n_warm:
                t0 = _end_warmup(core, out, len(requests) - warm_requests)
            res = core.run([ev for ev, _n in group], batched=True)
            for (_, n_req), stream in zip(group, res.streams):
                # every request in a batch completes when its batch does
                out.latencies_cycles.extend([stream.cycles] * n_req)
        out.core_cycles = core.now - t0
        return

    rounds = [batches[i:i + warps] for i in range(0, len(batches), warps)]
    n_warm = int(len(rounds) * warmup_frac)
    if n_warm == 0 and len(rounds) > 1 and warmup_frac > 0:
        n_warm = 1
    warm_requests = sum(len(b) for grp in rounds[:n_warm] for b in grp)
    effs = []
    t0 = core.now
    for i, group in enumerate(rounds):
        if i == n_warm:
            t0 = _end_warmup(core, out, len(requests) - warm_requests)
        run = core.begin(len(group), batched=True)
        sizes = []
        for j, batch in enumerate(group):
            result = run_batch(service, batch, TimingSink(run, j),
                               policy=policy, allocator=make_alloc(),
                               reconv_override=reconv_override,
                               max_steps=BATCH_MAX_STEPS)
            effs.append(result.simt_efficiency)
            sizes.append(len(batch))
        res = run.finish()
        for n_req, stream in zip(sizes, res.streams):
            # every request in a batch completes when its batch does
            out.latencies_cycles.extend([stream.cycles] * n_req)
    out.simt_efficiency = sum(effs) / len(effs) if effs else 1.0
    out.core_cycles = core.now - t0
