"""perfbench binds to public names in ``src/`` from outside.

``perfbench/layers.py`` wraps layer boundaries and reads layer counters
by name.  A name that disappears turns its per-layer metric into
``null`` on every workload, which makes the benchmark's output
malformed.  This pins every binding, so a deletion under one of them
fails here in milliseconds instead of in a benchmark run.
"""

import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def test_every_perfbench_binding_resolves():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
    finally:
        sys.path.remove(PERFBENCH)
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
        counters = layers.read_counters(tracer)
        assert None not in counters.values(), counters
        assert {"vector", "scalar"} <= set(counters["bounded"])
        assert {"hits", "misses", "disk_hits"} <= set(
            counters["trace_cache"])
    finally:
        tracer.uninstall()
