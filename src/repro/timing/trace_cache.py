"""Placeholder for the removed cross-config trace cache.

``run_chip`` streams every execution straight into the timing model;
nothing is cached here.  This module exists only for perfbench's
counter reader and self-test fixture, until a benchmark change retires
the ``trace_cache.*`` metrics.
"""

from typing import Dict


def stats() -> Dict[str, int]:
    return {"hits": 0, "misses": 0, "disk_hits": 0}


def clear() -> None:
    """Nothing is cached, so there is nothing to clear."""
