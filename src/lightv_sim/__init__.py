"""Deterministic simulator of a snoop-coherent SoC memory subsystem with a
coherence-level translation rewriter."""

__version__ = "0.1.0"

from .addressing import (  # noqa: F401
    AddressSpace,
    TranslationFault,
    build_tables,
    decode_pte,
    encode_pte,
    reference_walk,
    split_va,
)
from .coherence import Cache, CoherentInterconnect, LatencyConfig  # noqa: F401
from .lightv import LightV, RewriteRule, WatermarkWindow  # noqa: F401
from .machine import Machine, MachineConfig, RunStats, compare_runs  # noqa: F401
