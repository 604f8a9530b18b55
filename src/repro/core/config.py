"""Configuration of the FUBAR optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.exceptions import OptimizationError
from repro.utility.aggregation import PriorityWeights


@dataclass(frozen=True)
class FubarConfig:
    """Tuning knobs of the flow-allocation algorithm (paper §2.5).

    Parameters
    ----------
    move_fraction:
        The fraction N of an aggregate's flows moved in one step (Listing 2,
        line 3).  The paper describes a speed/quality trade-off: larger
        fractions converge faster but give lower final utility.
    small_aggregate_flows:
        Aggregates with at most this many flows are moved in their entirety
        ("Small aggregates are moved in their entirety because they are
        unlikely to have a big impact on the final solution").
    escalation_multipliers:
        Successive multipliers applied to ``move_fraction`` while the
        algorithm is stuck in a local optimum ("we can try to move larger and
        larger numbers of flows").  The last multiplier should push the
        effective fraction to 1.0 so that, as the paper requires, the
        algorithm only gives up "after having tried to move even large
        aggregates in their entirety".
    min_utility_improvement:
        A candidate move must improve the weighted network utility by at
        least this much to count as progress; guards against floating-point
        churn.
    consider_existing_paths:
        When True (default) a step also tests moving flows onto paths already
        in the aggregate's path set that avoid the congested link, in
        addition to the three freshly generated alternatives.  Turning this
        off reproduces the narrowest reading of Listing 2 and is compared in
        the ablation benchmarks.
    max_steps:
        Hard cap on committed optimization steps (safety bound; None means
        unlimited).
    max_wall_clock_s:
        Hard cap on optimizer wall-clock time in seconds (None = unlimited).
        The paper positions FUBAR as an offline system with a five-minute
        budget; this knob is how an operator would enforce that.
    priority_weights:
        Per-class weights used in the optimization objective (Figure 5
        prioritizes large flows by increasing their weight).

    The recorder captures a trace point after every committed move (Figures
    3–5 are redrawn from them).
    """

    move_fraction: float = 0.25
    small_aggregate_flows: int = 5
    escalation_multipliers: Tuple[float, ...] = (1.0, 2.0, 4.0)
    min_utility_improvement: float = 1e-9
    consider_existing_paths: bool = True
    max_steps: Optional[int] = None
    max_wall_clock_s: Optional[float] = None
    priority_weights: PriorityWeights = field(default_factory=PriorityWeights.uniform)

    def __post_init__(self) -> None:
        if not 0.0 < self.move_fraction <= 1.0:
            raise OptimizationError(
                f"move_fraction must be in (0, 1], got {self.move_fraction!r}"
            )
        if self.small_aggregate_flows < 0:
            raise OptimizationError(
                f"small_aggregate_flows must be non-negative, got {self.small_aggregate_flows!r}"
            )
        if not self.escalation_multipliers:
            raise OptimizationError("escalation_multipliers must not be empty")
        if any(m <= 0.0 for m in self.escalation_multipliers):
            raise OptimizationError(
                f"escalation multipliers must be positive, got {self.escalation_multipliers!r}"
            )
        if list(self.escalation_multipliers) != sorted(self.escalation_multipliers):
            raise OptimizationError(
                f"escalation multipliers must be non-decreasing, got {self.escalation_multipliers!r}"
            )
        if self.min_utility_improvement < 0.0:
            raise OptimizationError(
                f"min_utility_improvement must be non-negative, "
                f"got {self.min_utility_improvement!r}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise OptimizationError(f"max_steps must be positive, got {self.max_steps!r}")
        if self.max_wall_clock_s is not None and self.max_wall_clock_s <= 0.0:
            raise OptimizationError(
                f"max_wall_clock_s must be positive, got {self.max_wall_clock_s!r}"
            )

    def effective_fraction(self, escalation_level: int) -> float:
        """The move fraction used at a given escalation level, clamped to 1.0."""
        level = min(max(escalation_level, 0), len(self.escalation_multipliers) - 1)
        return min(self.move_fraction * self.escalation_multipliers[level], 1.0)

    @property
    def max_escalation_level(self) -> int:
        """The last escalation level before the optimizer gives up."""
        return len(self.escalation_multipliers) - 1

    def with_priority(self, weights: PriorityWeights) -> "FubarConfig":
        """Return a copy with different priority weights (used by Figure 5)."""
        return replace(self, priority_weights=weights)
