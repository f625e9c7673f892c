"""Simulator benchmark: end-to-end host metrics and a per-layer trace.

    python3 perfbench/run.py --workload chip|simt|fleet --seed N \
        --seconds S --trace 0|1

Runs rounds of one workload (see ``workloads.py``) until ``--seconds``
is spent, each round in a fresh process (``worker.py``) with no
inherited ``REPRO_*`` switch and a private, empty store directory, so
no memo table, set-up template, trace cache, generated code or store
entry carries over between rounds.  Every round of a run simulates the
same seeded inputs, so each reported host metric is a median over
rounds, and every round's simulated-value digest must agree.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced ones, plus ``trace.overhead_pct`` (traced vs untraced
``wall_s``).  A per-layer metric whose boundary no longer exists in
the simulator is printed as absent (``null``).

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
where ``attempted``/``failed`` count simulation calls (a call fails
when it raises or its output check fails).  The process exits non-zero
without a result when a round cannot run at all, e.g. when the
simulator sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

# only build() writes compiled files, and only for the simulator sources
sys.dont_write_bytecode = True

import layers  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: round scratch space (store directories), inside the checkout
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("chip", "simt", "fleet")
#: fewest untraced rounds a --trace 0 run takes, whatever --seconds says
MIN_ROUNDS = 3
#: a run launches no round that could end after this many seconds
HARD_LIMIT_S = 150.0

#: end-to-end metrics: name -> unit (the JSON carries these)
END_TO_END = {"wall_s": "s", "sim_kreq_per_s": "kreq/s",
              "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A round could not run; the benchmark prints no result."""


def hermetic_env(store_dir: str) -> Dict[str, str]:
    """The parent environment without any ``REPRO_*`` switch (memo,
    bounded lanes, vector engine, set-up cache, event wheel, trace cache,
    sanitizer, cache verify, jobs, store location...), pointed at a
    private store directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = store_dir
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def commit() -> str:
    """The checkout's commit, read from ``.git`` ("unknown" without)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = "absent"
    return (f"python={platform.python_version()} numpy={np_version} "
            f"nproc={len(os.sched_getaffinity(0))} commit={commit()}")


def run_round(workload: str, seed: int, round_idx: int, trace: bool,
              timeout: float) -> dict:
    """One round in a fresh process with its own empty store."""
    os.makedirs(WORK, exist_ok=True)
    store = tempfile.mkdtemp(prefix="store-", dir=WORK)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--round", str(round_idx), "--trace", str(int(trace)),
           "--launch", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=hermetic_env(store), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round {round_idx} exceeded "
                         f"{timeout:.0f}s") from None
    finally:
        shutil.rmtree(store, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} round {round_idx} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload} round {round_idx} printed no "
                         f"result:\n{proc.stdout[-2000:]}") from None


def run_rounds(workload: str, seed: int, seconds: float,
               trace: bool) -> List[dict]:
    """Rounds until ``seconds`` is spent: untraced only, or alternating
    untraced and traced ones (at least one of each)."""
    start = time.perf_counter()
    records: List[dict] = []
    durations: List[float] = []
    while True:
        i = len(records)
        traced = trace and i % 2 == 1
        elapsed = time.perf_counter() - start
        est = max(durations[-2:], default=0.0)
        minimum = 2 if trace else MIN_ROUNDS
        if i >= minimum and elapsed + est > seconds:
            break
        if i > 0 and elapsed + 1.5 * est > HARD_LIMIT_S:
            break
        t0 = time.perf_counter()
        records.append(run_round(workload, seed, i, traced,
                                 HARD_LIMIT_S + 25.0 - elapsed))
        durations.append(time.perf_counter() - t0)
    if trace and len(records) < 2:
        raise BenchError("no time left for a traced round")
    return records


def median(xs):
    """Median; a value every round agrees on (a count) stays exact."""
    xs = list(xs)
    return xs[0] if len(set(xs)) == 1 else statistics.median(xs)


def summarize(workload: str, records: List[dict], trace: bool) -> dict:
    """Aggregate rounds into the result object plus a text report."""
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    sims = [r["sim"] for r in records]
    digests = {s["digest"] for s in sims if s is not None}
    correct = failed == 0 and None not in sims and len(digests) == 1
    sim = sims[0] or {}
    wall = median(r["wall_s"] for r in untraced)
    ok = [r for r in untraced if r["sim"]]
    kreq = (median(r["sim"]["sim_requests"] / r["wall_s"] / 1e3
                   for r in ok) if ok else 0.0)
    report = {
        "wall_s": (wall, "s"),
        "sim_kreq_per_s": (kreq, "kreq/s"),
        "sim_minst_per_s": (
            median(r["sim"]["sim_insts"] / r["wall_s"] / 1e6 for r in ok)
            if sim.get("sim_insts") else None, "Minst/s"),
        "setup_s": (median(r["setup_s"] for r in untraced), "s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in untraced), "MB"),
        "paper_err_pct": (sim.get("paper_err_pct"), "%"),
        "ops_failed_frac": (failed / attempted if attempted else 0.0,
                            "fraction"),
    }
    if not trace:
        metrics = {k: {"value": report[k][0], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        metrics = {}
        for name, unit in layers.METRICS.items():
            vals = [r.get("layers", {}).get(name) for r in traced]
            value = (None if not vals or None in vals else median(vals))
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_pct"]["value"] = (
            100.0 * (median(r["wall_s"] for r in traced) / wall - 1.0))
    lines = [f"perfbench workload={workload} rounds={len(untraced)}"
             f"+{len(traced)} traced {environment()}"]
    for name, (value, unit) in report.items():
        shown = "n/a" if value is None else repr(value)
        lines.append(f"  {name:18s} {shown} {unit}")
    lines.append(f"  {'round_wall_s':18s} "
                 f"{[round(r['wall_s'], 4) for r in records]}")
    lines.append(f"  {'sim_digest':18s} {sorted(digests)}")
    if trace:
        for name, m in metrics.items():
            shown = "absent" if m["value"] is None else repr(m["value"])
            lines.append(f"  {name:30s} {shown} {m['unit']}")
    for r in records:
        for err in r["errors"]:
            lines.append(f"  FAILED round {r['round']}: {err}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "report": "\n".join(lines)}


def build() -> None:
    """Check the simulator sources are present and byte-compile them, so
    every round's set-up starts from the same compiled state."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"simulator sources not found under {SRC}")
    if not compileall.compile_dir(SRC, quiet=1):
        raise BenchError("simulator sources failed to compile")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="SIMR simulator benchmark (see module docstring)")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        build()
        records = run_rounds(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    out = summarize(args.workload, records, bool(args.trace))
    print(out["report"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
