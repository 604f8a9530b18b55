"""The TCP-like progressive-filling traffic model of paper §2.3."""

from repro.trafficmodel.bundle import Bundle
from repro.trafficmodel.compiled import (
    BatchedCandidateScorer,
    CompiledBundles,
    CompiledTrafficModel,
)
from repro.trafficmodel.result import (
    BundleOutcome,
    SATURATION_TOLERANCE,
    TrafficModelResult,
)
from repro.trafficmodel.waterfill import (
    MIN_RTT_S,
    TrafficModel,
    TrafficModelConfig,
    evaluate_bundles,
    reference_evaluate,
)

__all__ = [
    "BatchedCandidateScorer",
    "Bundle",
    "BundleOutcome",
    "CompiledBundles",
    "CompiledTrafficModel",
    "MIN_RTT_S",
    "SATURATION_TOLERANCE",
    "TrafficModel",
    "TrafficModelConfig",
    "TrafficModelResult",
    "evaluate_bundles",
    "reference_evaluate",
]
