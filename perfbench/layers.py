"""Outside-in per-layer trace of one benchmark round.

The tracer wraps the public entry points of each simulator layer from
here, at class or module level, before the workload starts; nothing
under ``src/`` changes.  Each wrapped boundary keeps running totals
(call count, inclusive time, self time) instead of span objects,
because the engine and the timing model call each other once per
simulated instruction through ``StepSink.on_step``.  Self time is a
call's duration minus the time of the wrapped calls nested inside it,
so the engine's sink path is split from the timing model and the
timing model from ``memsys`` by subtraction, not by nesting.

A boundary or counter whose public name no longer exists is recorded
as absent, and every metric that needs it is reported as ``None``
(absent) instead of failing the round.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: executor classes whose ``run`` is the engine boundary
EXECUTORS = ("SoloExecutor", "IpdomExecutor", "MinSpPcExecutor",
             "PredicatedExecutor")

#: (stat key, module, attribute path) of the fixed boundaries
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("timing.step", "repro.timing.streams", "TimingSink.on_step"),
    ("timing.done", "repro.timing.streams", "TimingSink.on_done"),
    ("timing.begin", "repro.timing.core", "CoreModel.begin"),
    ("timing.finish", "repro.timing.core", "CoreRun.finish"),
    ("memsys.access", "repro.timing.memhier", "MemoryHierarchy.access"),
    ("sink.fanout", "repro.engine.events", "MultiSink.on_step"),
    ("sink.fanout", "repro.engine.events", "MultiSink.on_done"),
    ("trace_cache.record", "repro.timing.streams", "ListSink.on_step"),
    ("batching.form", "repro.batching.policies", "form_batches"),
    ("energy", "repro.energy.model", "energy_of"),
    ("energy", "repro.energy.model", "requests_per_joule"),
    ("store.record", "repro.store", "record"),
    ("store.lookup", "repro.store", "lookup"),
    ("system.shard", "repro.system.fleet", "run_fleet_shard"),
    ("system.arrivals", "repro.system.arrivals", "generate_arrivals"),
    ("system.merge", "repro.system.fleet", "merge_shards"),
    ("system.e2e", "repro.system.queueing", "run_end_to_end"),
)

#: per-layer metrics: name -> unit (the order is the print order)
METRICS: Dict[str, str] = {
    "engine.nosink_self_s": "s",
    "engine.sink_self_s": "s",
    "engine.first_call_s": "s",
    "engine.memo_hit_ratio": "ratio",
    "engine.bounded_vector_frac": "ratio",
    "engine.sim_insts": "count",
    "engine.simt_eff": "ratio",
    "timing.self_s": "s",
    "timing.events": "count",
    "timing.us_per_event": "us",
    "memsys.access_s": "s",
    "memsys.accesses": "count",
    "memsys.l1_miss_rate": "ratio",
    "memsys.l2_miss_rate": "ratio",
    "memsys.l3_miss_rate": "ratio",
    "memsys.tlb_miss_rate": "ratio",
    "memsys.avg_miss_latency_cyc": "cycles",
    "workloads.gen_s": "s",
    "workloads.setup_s": "s",
    "workloads.setup_calls": "count",
    "batching.form_s": "s",
    "energy.s": "s",
    "trace_cache.hit_ratio": "ratio",
    "trace_cache.record_s": "s",
    "store.write_s": "s",
    "store.bytes_written": "bytes",
    "store.read_s": "s",
    "store.hits": "count",
    "system.shard_s": "s",
    "system.arrivals_s": "s",
    "system.merge_s": "s",
    "system.e2e_s": "s",
    "system.avail": "ratio",
    "system.p99_us": "us",
    "system.req_per_j": "req/J",
    "system.ejections": "count",
    "trace.overhead_pct": "%",
}


def _resolve(module: str, path: str):
    """(owner, attribute name) for ``module:path``, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Running-total timers at layer boundaries, installed by patching."""

    def __init__(self):
        #: key -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: stat keys (and counter names) whose public name is missing
        self.absent = set()
        #: memo tables handed out by ``table_for`` (read for hit counts)
        self.memo_tables: List[object] = []
        self._stack = [0.0]
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------
    def _stat(self, key: str) -> List[float]:
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _timed(self, fn: Callable, key: str,
               classify: Optional[Callable] = None) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        if classify is None:
            # no classify() call: this wrapper runs once per simulated
            # event on the hottest boundaries
            st = self._stat(key)

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child
                    stack[-1] += dt
        else:
            def wrapper(*args, **kwargs):
                st = self._stat(classify(args))
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - child
                    stack[-1] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, owner, attr: str, new) -> None:
        """Replace a module-level function everywhere it was imported
        by name, so ``from x import f`` call sites see the wrapper."""
        old = getattr(owner, attr)
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if not isinstance(d, dict):
                continue
            for k, v in list(d.items()):
                if v is old:
                    self._patch(mod, k, new)

    def wrap(self, key: str, module: str, path: str,
             classify: Optional[Callable] = None) -> bool:
        found = _resolve(module, path)
        if found is None:
            self.absent.add(key)
            return False
        owner, attr = found
        if isinstance(owner, type):
            # wrap where the method is defined, once
            for klass in owner.__mro__:
                if attr in klass.__dict__:
                    fn = klass.__dict__[attr]
                    if getattr(fn, "__wrapped__", None) is None:
                        self._patch(klass, attr,
                                    self._timed(fn, key, classify))
                    break
        else:
            self._patch_function(owner, attr,
                                 self._timed(getattr(owner, attr), key,
                                             classify))
        return True

    def install(self) -> "Tracer":
        """Wrap every boundary (imports the layers as a side effect)."""
        def engine_path(args):
            sink = getattr(args[0], "sink", None)
            return "engine.nosink" if sink is None else "engine.sink"

        found = False
        for name in EXECUTORS:
            found |= self.wrap("engine.run", "repro.engine.lockstep",
                               f"{name}.run", classify=engine_path)
        if found:
            self.absent.discard("engine.run")
        for key, module, path in BOUNDARIES:
            self.wrap(key, module, path)
        table_for = _resolve("repro.engine.memo", "table_for")
        if table_for is None:
            self.absent.add("engine.memo")
        else:
            self._collect_memo_tables(*table_for)
        try:
            from repro.workloads import SERVICE_CLASSES
        except ImportError:
            self.absent.update(("workloads.gen", "workloads.setup"))
        else:
            for cls in SERVICE_CLASSES:
                self.wrap("workloads.gen", cls.__module__,
                          f"{cls.__name__}.generate_requests")
                self.wrap("workloads.setup", cls.__module__,
                          f"{cls.__name__}.shared_setup")
                self.wrap("workloads.setup", cls.__module__,
                          f"{cls.__name__}.setup_thread")
        return self

    def _collect_memo_tables(self, owner, attr: str) -> None:
        inner = getattr(owner, attr)
        tables = self.memo_tables

        def collect(*args, **kwargs):
            t = inner(*args, **kwargs)
            if not any(t is x for x in tables):
                tables.append(t)
            return t

        collect.__wrapped__ = inner
        self._patch_function(owner, attr, collect)

    def reset(self) -> None:
        """Zero every total (the wrappers keep their stat lists)."""
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- reading ---------------------------------------------------------
    def self_s(self, *keys: str) -> Optional[float]:
        if any(k in self.absent for k in keys):
            return None
        return sum(self.stats.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def total_s(self, key: str) -> Optional[float]:
        if key in self.absent:
            return None
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def calls(self, *keys: str) -> Optional[int]:
        if any(k in self.absent for k in keys):
            return None
        return int(sum(self.stats.get(k, (0, 0.0, 0.0))[0] for k in keys))


def read_counters(tracer: Tracer) -> Dict[str, Optional[dict]]:
    """Snapshot the counters the layers keep themselves (None = absent)."""
    out: Dict[str, Optional[dict]] = {"memo": None}
    if "engine.memo" not in tracer.absent:
        try:
            out["memo"] = {
                "hits": sum(t.hits for t in tracer.memo_tables),
                "misses": sum(t.misses for t in tracer.memo_tables)}
        except AttributeError:  # the tables no longer count
            pass
    bounded = _resolve("repro.engine.lanes", "BOUNDED_STATS")
    out["bounded"] = dict(getattr(*bounded)) if bounded else None
    for name, module in (("trace_cache", "repro.timing.trace_cache"),
                         ("store", "repro.store")):
        stats = _resolve(module, "stats")
        out[name] = dict(getattr(*stats)()) if stats else None
    return out


def _delta(before: dict, after: dict, name: str,
           *keys: str) -> Optional[float]:
    """Growth of ``sum(keys)`` of counter ``name`` over the timed phase."""
    b, a = before[name], after[name]
    if b is None or a is None or any(k not in a for k in keys):
        return None
    return sum(a[k] - b.get(k, 0) for k in keys)


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    """num/den; 0.0 when the layer was never reached (den == 0)."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, before: dict, after: dict,
                  sim: dict, first_call_s: float) -> Dict[str, object]:
    """Per-layer metric values of one traced round (None = absent).

    ``before``/``after`` are :func:`read_counters` snapshots around the
    timed phase; ``sim`` holds the workload's simulated (S) values.
    ``trace.overhead_pct`` needs an untraced round and is filled in by
    the driver.
    """
    t = tracer
    engine = "engine.run" not in t.absent
    m: Dict[str, object] = {
        "engine.nosink_self_s": t.self_s("engine.nosink") if engine else None,
        "engine.sink_self_s": t.self_s("engine.sink") if engine else None,
        "engine.first_call_s": first_call_s,
        "engine.memo_hit_ratio": _ratio(
            _delta(before, after, "memo", "hits"),
            _delta(before, after, "memo", "hits", "misses")),
        "engine.bounded_vector_frac": _ratio(
            _delta(before, after, "bounded", "vector"),
            _delta(before, after, "bounded", "vector", "scalar")),
        "engine.sim_insts": sim["sim_insts"],
        "engine.simt_eff": sim["simt_eff"],
    }
    timing = t.self_s("timing.step", "timing.done", "timing.begin",
                      "timing.finish")
    events = t.calls("timing.step")
    m["timing.self_s"] = timing
    m["timing.events"] = events
    m["timing.us_per_event"] = (None if timing is None
                                else _ratio(timing * 1e6, events))
    m["memsys.access_s"] = t.total_s("memsys.access")
    m["memsys.accesses"] = t.calls("memsys.access")
    for name in ("l1_miss_rate", "l2_miss_rate", "l3_miss_rate",
                 "tlb_miss_rate", "avg_miss_latency_cyc"):
        m[f"memsys.{name}"] = sim["memsys"].get(name, 0.0)

    m["workloads.gen_s"] = t.self_s("workloads.gen")
    m["workloads.setup_s"] = t.self_s("workloads.setup")
    m["workloads.setup_calls"] = t.calls("workloads.setup")
    m["batching.form_s"] = t.self_s("batching.form")
    m["energy.s"] = t.self_s("energy")
    m["trace_cache.hit_ratio"] = _ratio(
        _delta(before, after, "trace_cache", "hits", "disk_hits"),
        _delta(before, after, "trace_cache", "hits", "disk_hits",
               "misses"))
    # the live path records through MultiSink(ListSink, TimingSink):
    # both exist only to fill the trace cache
    m["trace_cache.record_s"] = t.self_s("trace_cache.record",
                                         "sink.fanout")

    m["store.write_s"] = t.self_s("store.record")
    m["store.bytes_written"] = _delta(before, after, "store",
                                      "bytes_written")
    m["store.read_s"] = t.self_s("store.lookup")
    m["store.hits"] = _delta(before, after, "store", "hits")

    m["system.shard_s"] = t.self_s("system.shard")
    m["system.arrivals_s"] = t.self_s("system.arrivals")
    m["system.merge_s"] = t.self_s("system.merge")
    m["system.e2e_s"] = t.self_s("system.e2e")
    for name in ("avail", "p99_us", "req_per_j", "ejections"):
        m[f"system.{name}"] = sim["system"].get(name, 0.0)
    m["trace.overhead_pct"] = None
    return m
