"""Approximate cycle-level timing models (Accel-Sim role in the paper)."""

from .bpred import (
    BpredStats,
    GsharePredictor,
    MajorityVotePredictor,
    PerThreadVotePredictor,
)
from .chip import ChipResult, run_chip
from .config import (
    CPU_CONFIG,
    CPU_SIMD_CONFIG,
    GPU_CONFIG,
    RPU_CONFIG,
    SMT8_CONFIG,
    CoreConfig,
    rpu_with_batches,
    rpu_with_lanes,
    rpu_without,
)
from .core import CoreModel, CoreRunResult, StreamResult
from .memhier import Counters, MemoryHierarchy
from .streams import ListSink

__all__ = [
    "BpredStats",
    "CPU_CONFIG",
    "CPU_SIMD_CONFIG",
    "ChipResult",
    "CoreConfig",
    "CoreModel",
    "CoreRunResult",
    "Counters",
    "GPU_CONFIG",
    "GsharePredictor",
    "ListSink",
    "MajorityVotePredictor",
    "MemoryHierarchy",
    "PerThreadVotePredictor",
    "RPU_CONFIG",
    "SMT8_CONFIG",
    "StreamResult",
    "rpu_with_batches",
    "rpu_with_lanes",
    "rpu_without",
    "run_chip",
]
