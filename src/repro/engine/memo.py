"""Placeholder for the removed grain memo.

Every vector-engine grain runs its generated function; nothing is
memoized and nothing calls :func:`table_for`.  This module exists only
because perfbench/layers.py:215 resolves ``table_for`` for the
``engine.memo_hit_ratio`` metric, which therefore reads 0.0, until a
benchmark change retires that metric.
"""


def table_for(vdec):
    """Never called: there are no memo tables."""
    return None
