"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment exposes ``run(scale=...)`` returning structured rows
plus a ``format_rows`` helper, so the pytest benches, the examples and
the ``python -m repro.experiments.run_all`` CLI all share one code
path.  ``scale`` multiplies the default request counts; the paper uses
2400 requests (75 batches of 32) per service, which corresponds to
``scale ~= 12`` of our default 192.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..timing.config import CoreConfig
from ..workloads import Microservice, all_services, get_service

#: default measured population per service (scaled by `scale`)
DEFAULT_REQUESTS = 192

SEED = 7

#: process-wide worker count used when a caller does not pass ``jobs``
#: explicitly; set from the ``--jobs`` CLI flag (or REPRO_JOBS)
_default_jobs: Optional[int] = None

#: True inside a :func:`parallel_map` pool worker (set by the pool
#: initializer :func:`_mark_worker`)
_in_worker = False


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``--jobs`` flag)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve an explicit/default/environment worker count to >= 1."""
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1") or "1"
        try:
            jobs = int(raw)
        except ValueError:
            print(f"ignoring non-integer REPRO_JOBS={raw!r}",
                  file=sys.stderr)
            jobs = 1
    return max(1, int(jobs))


def task_seed(*parts, base: int = SEED) -> int:
    """Deterministic seed for one (service, chip, batch, ...) task.

    Derived from the task identity alone - never from worker id or
    submission order - so a parallel sweep draws exactly the same
    request populations as a serial one.
    """
    h = zlib.crc32(repr(parts).encode("utf-8"))
    return (base * 1_000_003 + h) & 0x7FFF_FFFF


class WorkerTaskError(RuntimeError):
    """A ``parallel_map`` task raised (or timed out) in its worker; the
    message identifies the failing item and embeds the worker traceback."""


def task_timeout_s() -> Optional[float]:
    """Optional seconds-per-task guard from ``REPRO_TASK_TIMEOUT``."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "")
    if not raw:
        return None
    try:
        t = float(raw)
    except ValueError:
        print(f"ignoring non-numeric REPRO_TASK_TIMEOUT={raw!r}",
              file=sys.stderr)
        return None
    return t if t > 0 else None


def _invoke_task(payload):
    """Worker entry: run one task, never let an exception escape.

    Returns ``(idx, True, result)`` or ``(idx, False, (item_repr,
    traceback_text))`` so the parent can identify the failing item -
    a bare ``pool.map`` loses both the index and the traceback.
    """
    import signal
    import traceback

    fn, idx, item, timeout = payload
    armed = False
    try:
        if timeout and hasattr(signal, "setitimer"):
            def _alarm(_sig, _frame):
                raise TimeoutError(
                    f"task exceeded REPRO_TASK_TIMEOUT={timeout:g}s")
            signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            armed = True
        return idx, True, fn(item)
    except BaseException:
        return idx, False, (repr(item)[:200], traceback.format_exc())
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def _mark_worker() -> None:
    """Pool initializer: a task running in a worker takes the serial
    path of any nested :func:`parallel_map` instead of forking a pool
    of its own."""
    global _in_worker
    _in_worker = True


def parallel_map(fn: Callable, items: Iterable, jobs: Optional[int] = None,
                 priority: Optional[Sequence[float]] = None) -> List:
    """``[fn(x) for x in items]``, optionally across worker processes.

    Results keep item order, so parallel and serial runs produce
    identical output.  ``fn`` must be a module-level callable and the
    items picklable.  Falls back to the serial path when only one job
    is requested, when there is at most one item, or inside a worker
    process (no nested pools).

    ``priority`` (one float per item, higher = submitted earlier) fixes
    the tail-blocking unfairness of heterogeneous task costs: a long
    task submitted last runs alone at the end of the sweep while every
    other worker idles.  Submitting longest-estimated-first bounds that
    tail at the cost of the longest single task.  Submission order
    never affects the *result* order (results are re-gathered by item
    index), and the serial path ignores priorities entirely so serial
    output stays byte-identical.

    Hardening: a task that raises in its worker surfaces as
    :class:`WorkerTaskError` naming the failing item with the worker's
    traceback (pending tasks are cancelled, running ones finish); if
    the *pool itself* dies (a worker OOM-killed mid-run), the unfinished
    items are re-executed serially rather than losing the whole sweep;
    ``REPRO_TASK_TIMEOUT`` (seconds, unix-only) guards each task against
    hanging.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1 or _in_worker:
        return [fn(x) for x in items]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: inherit the default
        ctx = multiprocessing.get_context()
    timeout = task_timeout_s()
    order = list(range(len(items)))
    if priority is not None:
        ranks = list(priority)
        if len(ranks) != len(items):
            raise ValueError(
                f"priority has {len(ranks)} entries for {len(items)} items")
        order.sort(key=lambda i: (-ranks[i], i))
    results: dict = {}
    pool = ProcessPoolExecutor(min(jobs, len(items)), mp_context=ctx,
                               initializer=_mark_worker)
    try:
        futures = [pool.submit(_invoke_task, (fn, i, items[i], timeout))
                   for i in order]
        for fut in as_completed(futures):
            idx, ok, value = fut.result()
            if not ok:
                item_repr, tb = value
                raise WorkerTaskError(
                    f"parallel_map task {idx} ({item_repr}) failed "
                    f"in worker:\n{tb}")
            results[idx] = value
    except BrokenProcessPool as exc:
        # a worker died under us (killed, OOM): finish the remaining
        # items serially instead of losing the run
        missing = [i for i in range(len(items)) if i not in results]
        print(f"parallel_map: pool died ({type(exc).__name__}: {exc}); "
              f"re-running {len(missing)} unfinished of {len(items)} "
              "items serially", file=sys.stderr)
        for i in missing:
            results[i] = fn(items[i])
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return [results[i] for i in range(len(items))]


def requests_for(service: Microservice, scale: float = 1.0,
                 seed: int = SEED):
    """Draw the scaled default request population for a service."""
    n = max(2 * service.recommended_batch, int(DEFAULT_REQUESTS * scale))
    return service.generate_requests(n, random.Random(seed))


def default_population(service: Microservice, scale: float) -> int:
    """Request count :func:`requests_for` draws at this scale."""
    return max(2 * service.recommended_batch, int(DEFAULT_REQUESTS * scale))


# ----------------------------------------------------------------------
# deduplicating cross-experiment work-unit scheduler
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WorkUnit:
    """One deduplicatable chip simulation: service x config x policy x
    population.

    Experiments declare the units their ``run()`` will consume via a
    module-level ``work_units(scale)`` hook; ``run_all`` collects the
    declarations, drops duplicates (identical units recur across
    figures: fig14, fig15, fig19-21 and cycle_stacks all time the same
    CPU runs), and executes the unique set once through the parallel
    pool.  The results land in the persistent store
    (:mod:`repro.store`), so the figures themselves render entirely
    from cache hits.  ``cost`` is a scheduling estimate only - it is
    excluded from identity, so two figures estimating the same unit
    differently still dedup.
    """

    service: str
    config: CoreConfig
    policy: str = "minsp_pc"
    batching: str = "per_api_size"
    batch_size: Optional[int] = None
    n_requests: int = DEFAULT_REQUESTS
    seed: int = SEED
    #: bespoke allocator class name from ``repro.memsys.alloc`` (None =
    #: the config's default allocator)
    allocator: Optional[str] = None
    cost: float = field(default=0.0, compare=False)


def chip_unit(service: Microservice, config: CoreConfig, scale: float,
              **kw) -> WorkUnit:
    """A :class:`WorkUnit` for one default-population ``run_chip`` call,
    with a cost estimate proportional to the requests simulated (solo
    designs execute every request individually, so they weigh double a
    lockstep design's shared-frontend batches)."""
    n = kw.pop("n_requests", default_population(service, scale))
    weight = 2.0 if config.batch_size <= 1 else 1.0
    return WorkUnit(service=service.name, config=config, n_requests=n,
                    cost=n * weight, **kw)


@dataclass(frozen=True)
class FleetUnit:
    """One fleet-shard simulation in the cross-experiment dedup pool.

    Wraps a :class:`repro.system.fleet.FleetShardTask` (kept opaque
    here so this module does not import the fleet stack at import
    time).  The task is frozen and fully identifies the simulation, so
    identical shards declared by different sweeps dedup exactly like
    chip :class:`WorkUnit`\\ s; results land in the persistent store
    under the shard's own key.
    """

    task: object
    cost: float = field(default=0.0, compare=False)


def execute_work_unit(unit) -> None:
    """Worker entry: simulate one unit so its results reach the store.

    Accepts either a chip :class:`WorkUnit` or a :class:`FleetUnit`.
    The computed result is deliberately dropped - workers communicate
    through the persistent store, not the pool pipe.
    """
    if isinstance(unit, FleetUnit):
        from ..system.fleet import _run_shard_cached

        _run_shard_cached(unit.task)
        return

    from ..timing.chip import run_chip

    service = get_service(unit.service)
    requests = service.generate_requests(unit.n_requests,
                                         random.Random(unit.seed))
    kwargs = {}
    if unit.allocator is not None:
        from ..memsys import alloc as alloc_mod

        cls = getattr(alloc_mod, unit.allocator)
        n_banks = max(unit.config.l1_banks, 1)
        kwargs["allocator_factory"] = lambda: cls(n_banks=n_banks)
        kwargs["allocator_signature"] = (unit.allocator, n_banks)
    run_chip(service, requests, unit.config, policy=unit.policy,
             batching=unit.batching, batch_size=unit.batch_size, **kwargs)


def dedup_units(units: Iterable[WorkUnit]) -> List[WorkUnit]:
    """Unique units in first-seen order (cost excluded from identity)."""
    seen: Dict[WorkUnit, WorkUnit] = {}
    for u in units:
        seen.setdefault(u, u)
    return list(seen.values())


def schedule_units(units: Sequence[WorkUnit],
                   jobs: Optional[int] = None) -> int:
    """Prewarm the persistent store with the unique units, longest
    estimated first; returns how many unique units were scheduled.

    A no-op (returns 0) when the store is disabled - without it the
    results would die with the workers - or when only one job is
    available, where the experiments themselves fill the store in the
    same total time.
    """
    from .. import store

    jobs = resolve_jobs(jobs)
    unique = dedup_units(units)
    if not unique or jobs <= 1 or store.get_store() is None:
        return 0
    parallel_map(execute_work_unit, unique, jobs=jobs,
                 priority=[u.cost for u in unique])
    return len(unique)


@dataclass
class Row:
    """One row/series point of a reproduced table or figure."""

    label: str
    values: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.values[key]


def geomean(xs: Sequence[float]) -> float:
    """Geometric mean over the positive entries of ``xs``."""
    xs = [x for x in xs if x > 0]
    if not xs:
        return 0.0
    p = 1.0
    for x in xs:
        p *= x
    return p ** (1.0 / len(xs))


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def format_rows(rows: Iterable[Row], columns: Sequence[str],
                title: str = "", width: int = 22) -> str:
    """Render rows as a fixed-width text table."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'':{width}s}" + "".join(f"{c:>12s}" for c in columns)
    lines.append(header)
    for row in rows:
        cells = "".join(
            f"{row.values.get(c, float('nan')):12.3f}" for c in columns
        )
        lines.append(f"{row.label:{width}s}" + cells)
    return "\n".join(lines)


def summary_row(rows: Sequence[Row], columns: Sequence[str],
                label: str = "average", use_geomean: bool = False) -> Row:
    """Append-style aggregate row over ``columns``."""
    agg = geomean if use_geomean else mean
    return Row(
        label=label,
        values={c: agg([r.values[c] for r in rows if c in r.values])
                for c in columns},
    )


def experiment_cli(main_fn: Callable[[float], str], argv=None,
                   units_fn: Optional[Callable] = None) -> int:
    """Shared ``__main__`` driver for the per-figure experiment modules.

    Gives every experiment the same flags as ``run_all``: ``--scale``,
    ``--full`` (the paper's ~2400-request populations) and ``--jobs N``
    for the multiprocessing sweep driver.  Experiments that declare
    their work units pass ``units_fn``; with multiple jobs the unique
    units are prewarmed through the pool (longest first) before the
    figure renders from the store.
    """
    import argparse
    import time

    parser = argparse.ArgumentParser(description=main_fn.__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier (paper scale ~12)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale populations (same as --scale 12)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent simulations")
    args = parser.parse_args(argv)
    if args.jobs is not None:
        set_default_jobs(args.jobs)
    scale = 12.0 if args.full else args.scale
    if units_fn is not None and resolve_jobs(args.jobs) > 1:
        t0 = time.time()
        n = schedule_units(units_fn(scale), jobs=args.jobs)
        if n:
            print(f"[prewarmed {n} work units in {time.time() - t0:.1f}s]",
                  file=sys.stderr)
    print(main_fn(scale))
    return 0
