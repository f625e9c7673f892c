"""Run every reproduced figure/table and print the results.

Usage::

    python -m repro.experiments.run_all [--scale 1.0] [--only fig19]
                                        [--jobs N]

``--scale 12`` approximates the paper's 2400-request populations.
``--jobs N`` fans independent simulations over N worker processes;
the printed output is byte-identical for any ``--jobs`` value (timing
chatter goes to stderr).

Timing experiments declare their simulation work units (service x
config x policy x population); before the parallel fan-out the units
are deduplicated *across figures* and executed once each,
longest-estimated-first, so the persistent store
(:mod:`repro.store`) serves every figure's render from cache hits.
A warm store (second invocation with identical source and config)
skips simulation entirely.  ``REPRO_CACHE=0`` disables the store,
``REPRO_CACHE_DIR`` relocates it; either way stdout stays
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from . import (
    cycle_stacks,
    eq1_analytical,
    fig01_design_points,
    sec6a_simd_alternative,
    fig04_fig11_batching,
    fig05_bandwidth,
    fig07_minpc,
    fig10_energy_breakdown,
    fig13_stack_interleaving,
    fig14_traffic,
    fig15_mpki,
    fig16_allocator,
    fig19_20_21_chip,
    fig22_end_to_end,
    fleet_sweep,
    gpu_comparison,
    resilience_sweep,
    sensitivity,
    table04_config,
    table05_area_power,
    workload_table,
    zone_failover,
)

EXPERIMENTS: Dict[str, Callable[[float], str]] = {
    "fig01": fig01_design_points.main,
    "fig04_fig11": fig04_fig11_batching.main,
    "fig05": fig05_bandwidth.main,
    "fig07": fig07_minpc.main,
    "fig10": fig10_energy_breakdown.main,
    "fig13": fig13_stack_interleaving.main,
    "fig14": fig14_traffic.main,
    "fig15": fig15_mpki.main,
    "fig16": fig16_allocator.main,
    "fig19_20_21": fig19_20_21_chip.main,
    "fig22": fig22_end_to_end.main,
    "resilience": resilience_sweep.main,
    "fleet": fleet_sweep.main,
    "zones": zone_failover.main,
    "table04": table04_config.main,
    "table05": table05_area_power.main,
    "sensitivity": sensitivity.main,
    "gpu": gpu_comparison.main,
    "eq1": eq1_analytical.main,
    "sec6a": sec6a_simd_alternative.main,
    "workloads": workload_table.main,
    "cycle_stacks": cycle_stacks.main,
}


def _jsonable(value):
    """Convert experiment run() outputs to plain JSON-able data."""
    import dataclasses

    from .common import Row

    if isinstance(value, Row):
        return {"label": value.label, **value.values}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


#: experiments whose ``run()`` output is exported by ``--json``
EXPORTABLE = {
    "fig01": fig01_design_points.run,
    "fig04_fig11": fig04_fig11_batching.run,
    "fig05": fig05_bandwidth.run,
    "fig10": fig10_energy_breakdown.run,
    "fig13": fig13_stack_interleaving.run,
    "fig14": fig14_traffic.run,
    "fig15": fig15_mpki.run,
    "fig16": fig16_allocator.run,
    "fig19_20_21": fig19_20_21_chip.run,
    "fig22": fig22_end_to_end.run,
    "resilience": resilience_sweep.run,
    "fleet": fleet_sweep.run,
    "zones": zone_failover.run,
    "table05": table05_area_power.run,
    "sensitivity": sensitivity.run,
    "gpu": gpu_comparison.run,
    "eq1": eq1_analytical.run,
    "sec6a": sec6a_simd_alternative.run,
    "workloads": workload_table.run,
    "cycle_stacks": cycle_stacks.run,
}


def export_json(path: str, names, scale: float) -> None:
    """Run the named experiments and dump their rows as JSON."""
    import json

    out = {}
    for name in names:
        if name in EXPORTABLE:
            out[name] = _jsonable(EXPORTABLE[name](scale))
    with open(path, "w") as fh:
        json.dump({"scale": scale, "experiments": out}, fh, indent=1)


#: modules declaring their chip work units for cross-figure dedup
WORK_UNITS: Dict[str, Callable[[float], List]] = {
    "fig01": fig01_design_points.work_units,
    "fig10": fig10_energy_breakdown.work_units,
    "fig14": fig14_traffic.work_units,
    "fig15": fig15_mpki.work_units,
    "fig16": fig16_allocator.work_units,
    "fig19_20_21": fig19_20_21_chip.work_units,
    "sensitivity": sensitivity.work_units,
    "fleet": fleet_sweep.work_units,
    "zones": zone_failover.work_units,
    "gpu": gpu_comparison.work_units,
    "sec6a": sec6a_simd_alternative.work_units,
    "cycle_stacks": cycle_stacks.work_units,
}

#: measured serial seconds per experiment at scale=1 (relative weights
#: for longest-first submission; an unknown name sorts last)
COSTS = {
    "fleet": 40.0, "zones": 1.5,
    "fig15": 23.0, "fig19_20_21": 23.0, "fig10": 10.0, "fig14": 8.5,
    "fig16": 5.0, "gpu": 4.2, "fig04_fig11": 2.5, "fig01": 2.3,
    "sensitivity": 2.1, "resilience": 1.7, "sec6a": 0.9,
    "cycle_stacks": 0.6, "workloads": 0.5, "fig22": 0.5,
}


def collect_units(names, scale: float) -> List:
    """Every work unit the named experiments declare (duplicates kept;
    ``schedule_units`` dedups)."""
    units: List = []
    for name in names:
        declare = WORK_UNITS.get(name)
        if declare is not None:
            units.extend(declare(scale))
    return units


def _run_named(item):
    """Worker entry point: render one named experiment; returns the
    text plus this worker's store stats (the parent aggregates them)."""
    from .. import store

    name, scale = item
    before = store.stats()
    text = EXPERIMENTS[name](scale)
    after = store.stats()
    return text, {k: after[k] - before.get(k, 0) for k in after}


def _print_cache_stats(extra=None) -> None:
    """Aggregate store diagnostics on stderr (stdout stays pinned)."""
    from .. import store
    from ..report import stats_line

    merged = dict(store.stats())
    for delta in extra or []:
        for k, v in delta.items():
            merged[k] = merged.get(k, 0) + v
    print(stats_line("cache", {f"store_{k}": v for k, v in merged.items()}),
          file=sys.stderr)


def main(argv=None) -> int:
    """CLI entry point: run the selected experiments and print them."""
    from .common import (parallel_map, resolve_jobs, schedule_units,
                         set_default_jobs)

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier (paper scale ~12)")
    parser.add_argument("--only", action="append", default=None,
                        help="run only the named experiment(s)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also export the structured rows as JSON")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for independent simulations")
    args = parser.parse_args(argv)

    names = args.only or list(EXPERIMENTS)
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; known: {', '.join(EXPERIMENTS)}"
            )
    if args.jobs is not None:
        set_default_jobs(args.jobs)
    jobs = resolve_jobs(args.jobs)

    if jobs > 1:
        # phase 1: dedup the declared work units across figures and
        # simulate each exactly once, longest first, filling the store
        t0 = time.time()
        units = collect_units(names, args.scale)
        n_unique = schedule_units(units, jobs=jobs)
        if n_unique:
            print(f"[prewarmed {n_unique} unique work units "
                  f"({len(units)} declared) in {time.time() - t0:.1f}s "
                  f"on {jobs} workers]", file=sys.stderr)

    if jobs > 1 and len(names) > 1:
        t0 = time.time()
        # phase 2: one worker per experiment, costliest submitted
        # first; stdout stays in `names` order and is byte-identical
        # to the serial path (timing is stderr-only)
        results = parallel_map(_run_named, [(n, args.scale) for n in names],
                               jobs=jobs,
                               priority=[COSTS.get(n, 0.1) for n in names])
        for name, (text, _stats) in zip(names, results):
            print("=" * 72)
            print(text)
        print(f"[{len(names)} experiments took {time.time() - t0:.1f}s "
              f"on {jobs} workers]", file=sys.stderr)
        _print_cache_stats(extra=[s for _t, s in results])
    else:
        for name in names:
            t0 = time.time()
            print("=" * 72)
            print(EXPERIMENTS[name](args.scale))
            print(f"[{name} took {time.time() - t0:.1f}s]", file=sys.stderr)
        _print_cache_stats()
    if args.json:
        export_json(args.json, names, args.scale)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
