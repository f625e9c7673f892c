"""One benchmark round: a fresh process runs one workload once.

Started by ``run.py`` with a hermetic environment (no inherited
``REPRO_*`` switches, a private empty store directory).  Prints one
JSON object as its last stdout line.  With ``--trace 1`` the layer
boundaries are wrapped before set-up and the object carries the
per-layer metrics of the timed phase.

    python3 perfbench/worker.py --workload simt --seed 1 --round 0 \
        --trace 0 --launch <time.monotonic() at process launch>
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time

import layers
import workloads

#: imported during set-up so the timed phase pays no import time
LAYER_PACKAGES = ("repro.batching", "repro.core.run", "repro.energy",
                  "repro.system", "repro.timing", "repro.workloads")


def run_round(name: str, seed: int, round_idx: int, trace: bool,
              launch: float) -> dict:
    setup, run, check, simulated = workloads.WORKLOADS[name]
    tracer = layers.Tracer().install() if trace else None
    for pkg in LAYER_PACKAGES:
        importlib.import_module(pkg)
    ctx = setup(seed)
    setup_s = time.monotonic() - launch
    if tracer is not None:
        tracer.reset()
        before = layers.read_counters(tracer)

    ops = workloads.Ops()
    t0 = time.perf_counter()
    out = run(ctx, ops)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    after = layers.read_counters(tracer) if trace else None
    if tracer is not None:
        tracer.uninstall()

    failed = dict(ops.errors)
    try:
        failed.update(check(ctx, out, ops, round_idx))
    except Exception as exc:  # a crashing check fails every call
        failed.update({i: f"output check raised {exc!r}"
                       for i in range(ops.attempted)})
    sim = simulated(ctx, out, ops) if not ops.errors else None
    record = {
        "workload": name, "seed": seed, "round": round_idx,
        "trace": int(trace), "wall_s": wall_s, "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted, "failed": len(failed),
        "errors": [failed[i] for i in sorted(failed)][:5],
        "sim": None if sim is None else {
            k: sim[k] for k in ("digest", "sim_requests", "sim_insts",
                                "paper_err_pct")},
    }
    if trace and sim is not None:
        record["layers"] = layers.layer_metrics(
            tracer, before, after, sim, ctx["first_call_s"])
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launch", type=float, default=None,
                   help="time.monotonic() when the process was launched")
    args = p.parse_args(argv)
    launch = time.monotonic() if args.launch is None else args.launch
    record = run_round(args.workload, args.seed, args.round,
                       bool(args.trace), launch)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
