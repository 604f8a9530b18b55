"""The closed measure → optimize → install control loop.

Paper §5 positions FUBAR as "an offline controller in SDN or MPLS networks,
in conjunction with an online controller".  :func:`run_control_loop` is that
pairing, driven over time-varying demand: each epoch the online side
(:class:`~repro.sdn.controller.SdnController`) carries the epoch's true
traffic over the currently installed rules and measures it; the offline side
(:class:`~repro.core.controller.Fubar`) re-optimizes on the *measured*
matrix — warm-started from the previous plan by default — and differentially
installs the new rules.

The loop body itself lives in :class:`repro.service.core.ControllerCore` —
a pure, clock-free state machine over the warm-start, failure-pruning and
differential-install machinery.  :func:`run_control_loop` is the *batch
driver* over that core: it owns the clock (fixed epochs, wall-clock timing
of each optimize + install) and assembles the per-epoch records; the asyncio
:class:`~repro.service.daemon.ControllerDaemon` is the event-driven driver
over the very same core.  The byte-identity equivalence suite
(``tests/test_service_equivalence.py``) gates this driver against the
pre-refactor loop across static, dynamic and failure scenarios.

Per-epoch accounting separates the two utilities the loop produces:

* **planned** utility — what the optimizer believes, evaluated on the
  measured matrix it optimized;
* **delivered** utility — what the network actually achieves when the true
  matrix is carried over the freshly installed rules.

The gap between them is the measurement error the paper's §5 caveats
discuss (counters observe achieved rates, not offered demand).  Rule churn
per epoch comes from the differential install's
:class:`~repro.sdn.controller.InstallReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from repro.trafficmodel.compiled import CompiledModelCache

from repro.core.config import FubarConfig
from repro.core.controller import FubarPlan
from repro.dynamics.processes import TrafficProcess
from repro.exceptions import DynamicsError
from repro.failures.schedule import FailureSchedule
from repro.metrics.reporting import format_table
from repro.paths.cache import PathSetCache
from repro.paths.policy import PathPolicy
from repro.sdn.controller import InstallReport
from repro.service.core import ControllerCore, bundles_from_routing
from repro.topology.graph import Network
from repro.trafficmodel.waterfill import TrafficModelConfig

__all__ = [
    "ControlLoopConfig",
    "ControlLoopResult",
    "EpochRecord",
    "bundles_from_routing",
    "format_epoch_table",
    "run_control_loop",
]


@dataclass(frozen=True)
class ControlLoopConfig:
    """Knobs of the time-stepped control loop.

    Parameters
    ----------
    num_epochs:
        Number of measure → optimize → install cycles to run.
    epoch_duration_s:
        Length of one measurement interval; only scales the byte counters.
    warm_start:
        When True (the default) each cycle seeds the optimizer from the
        previous plan's allocation and path sets; when False every cycle
        restarts cold from shortest paths (the comparison baseline of
        ``benchmarks/bench_dynamic_loop.py``).
    """

    num_epochs: int = 8
    epoch_duration_s: float = 60.0
    warm_start: bool = True

    def __post_init__(self) -> None:
        if self.num_epochs < 1:
            raise DynamicsError(f"num_epochs must be positive, got {self.num_epochs!r}")
        if self.epoch_duration_s <= 0.0:
            raise DynamicsError(
                f"epoch_duration_s must be positive, got {self.epoch_duration_s!r}"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_epochs": self.num_epochs,
            "epoch_duration_s": self.epoch_duration_s,
            "warm_start": self.warm_start,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ControlLoopConfig":
        return cls(
            num_epochs=int(data["num_epochs"]),  # type: ignore[arg-type]
            epoch_duration_s=float(data["epoch_duration_s"]),  # type: ignore[arg-type]
            warm_start=bool(data["warm_start"]),
        )


@dataclass(frozen=True)
class EpochRecord:
    """Everything one control-loop epoch produced.

    The failure fields are all zero for demand-only epochs: ``failed_links``
    counts the directed links masked out of the epoch's topology,
    ``stranded_aggregates`` / ``stranded_demand_bps`` the aggregates (and
    their offered demand) the degraded topology cannot route at all — they
    received no service this epoch and are excluded from the delivered
    utility, which averages over the aggregates that could be carried.
    """

    epoch: int
    observed_aggregates: int
    planned_utility: float
    delivered_utility: float
    model_evaluations: int
    steps: int
    optimize_wall_clock_s: float
    install: InstallReport
    unrouted_aggregates: int
    failed_links: int = 0
    failed_nodes: int = 0
    stranded_aggregates: int = 0
    stranded_demand_bps: float = 0.0

    @property
    def accounting_gap(self) -> float:
        """Delivered minus planned utility (measurement-feedback error)."""
        return self.delivered_utility - self.planned_utility

    @property
    def is_degraded(self) -> bool:
        """True when this epoch ran on a failure-degraded topology."""
        return self.failed_links > 0 or self.failed_nodes > 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "observed_aggregates": self.observed_aggregates,
            "planned_utility": self.planned_utility,
            "delivered_utility": self.delivered_utility,
            "accounting_gap": self.accounting_gap,
            "model_evaluations": self.model_evaluations,
            "steps": self.steps,
            "optimize_wall_clock_s": self.optimize_wall_clock_s,
            "install": self.install.as_dict(),
            "unrouted_aggregates": self.unrouted_aggregates,
            "failed_links": self.failed_links,
            "failed_nodes": self.failed_nodes,
            "stranded_aggregates": self.stranded_aggregates,
            "stranded_demand_bps": self.stranded_demand_bps,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EpochRecord":
        """Rebuild a record from its :meth:`as_dict` payload.

        Derived fields (``accounting_gap``) are recomputed, not read back.
        """
        return cls(
            epoch=int(data["epoch"]),
            observed_aggregates=int(data["observed_aggregates"]),
            planned_utility=float(data["planned_utility"]),
            delivered_utility=float(data["delivered_utility"]),
            model_evaluations=int(data["model_evaluations"]),
            steps=int(data["steps"]),
            optimize_wall_clock_s=float(data["optimize_wall_clock_s"]),
            install=InstallReport.from_dict(data["install"]),
            unrouted_aggregates=int(data["unrouted_aggregates"]),
            failed_links=int(data.get("failed_links", 0)),
            failed_nodes=int(data.get("failed_nodes", 0)),
            stranded_aggregates=int(data.get("stranded_aggregates", 0)),
            stranded_demand_bps=float(data.get("stranded_demand_bps", 0.0)),
        )

    def to_json(self) -> str:
        """One-line JSON form (telemetry-bus / ``--stream-jsonl`` payload)."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EpochRecord":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DynamicsError(f"EpochRecord JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)


@dataclass
class ControlLoopResult:
    """The full trajectory of one control-loop run."""

    records: List[EpochRecord]
    #: The last successfully computed plan of the run (epochs whose every
    #: aggregate was stranded compute none).  ``None`` only when *no* epoch
    #: could compute a plan — a failure disconnected every aggregate from
    #: the very first epoch.
    final_plan: Optional[FubarPlan]
    config: ControlLoopConfig
    process_name: str
    #: Human-readable description of the failure schedule driven through the
    #: run, or ``None`` for demand-only runs.
    failures_name: Optional[str] = None

    def mean_model_evaluations(self, skip_first: bool = True) -> float:
        """Mean optimizer model evaluations per cycle.

        The first cycle has no previous plan, so warm and cold runs are
        identical there; ``skip_first`` (the default) excludes it, which is
        the number the warm-vs-cold benchmark compares.
        """
        records = self.records[1:] if skip_first and len(self.records) > 1 else self.records
        return sum(r.model_evaluations for r in records) / len(records)

    def mean_delivered_utility(self) -> float:
        """Mean delivered network utility across the epochs."""
        return sum(r.delivered_utility for r in self.records) / len(self.records)

    def total_churn(self) -> int:
        """Total flow-table writes across every install of the run."""
        return sum(r.install.churn for r in self.records)

    def mean_rule_churn(self, skip_first: bool = True) -> float:
        """Mean flow-table writes per epoch.

        Epoch 0 populates empty tables, so its churn is the whole table
        size; ``skip_first`` (the default) excludes it to report the
        steady-state churn — the same convention as
        :meth:`mean_model_evaluations`.
        """
        records = self.records[1:] if skip_first and len(self.records) > 1 else self.records
        return sum(r.install.churn for r in records) / len(records)

    # ------------------------------------------------------------ survivability

    def has_failures(self) -> bool:
        """True when any epoch ran on a degraded topology."""
        return any(record.is_degraded for record in self.records)

    def first_failure_epoch(self) -> Optional[int]:
        """The first degraded epoch, or ``None`` for demand-only runs."""
        for record in self.records:
            if record.is_degraded:
                return record.epoch
        return None

    def recovery_epochs(self, utility_rtol: float = 0.01) -> Optional[int]:
        """Epochs from failure onset until pre-failure *service* returned.

        An epoch counts as recovered only when it (a) strands no aggregate
        and (b) delivers utility within *utility_rtol* of the last healthy
        epoch's.  Condition (a) matters because the delivered utility
        averages over the aggregates that could be carried: a failure that
        strands hard-to-serve demand can *raise* that average while serving
        strictly fewer users, and must not be reported as recovered.  0
        means the failure epoch itself already delivered pre-failure service
        (the reroute fully absorbed the loss).  ``None`` when there is no
        failure, when the failure hits epoch 0 (no healthy reference
        exists), or when the run ends without recovering — permanently
        stranding failures therefore never recover.
        """
        onset = self.first_failure_epoch()
        if onset is None or onset == 0:
            return None
        reference = self.records[onset - 1].delivered_utility
        floor = (1.0 - utility_rtol) * reference
        for record in self.records[onset:]:
            if record.stranded_aggregates == 0 and record.delivered_utility >= floor:
                return record.epoch - onset
        return None

    def total_stranded_demand_bps(self) -> float:
        """Offered demand that went unserved across the whole run, summed
        over epochs (bps·epochs — the survivability cost of the schedule)."""
        return sum(r.stranded_demand_bps for r in self.records)

    def max_stranded_aggregates(self) -> int:
        """The worst single-epoch stranded-aggregate count."""
        return max((r.stranded_aggregates for r in self.records), default=0)

    def total_rules_invalidated(self) -> int:
        """Rules force-uninstalled by topology failures across the run."""
        return sum(r.install.rules_invalidated for r in self.records)

    def summary(self) -> Dict[str, object]:
        """Compact roll-up used by reports, benchmarks and the runner cache."""
        summary: Dict[str, object] = {
            "process": self.process_name,
            "num_epochs": len(self.records),
            "warm_start": self.config.warm_start,
            "mean_delivered_utility": self.mean_delivered_utility(),
            "final_delivered_utility": self.records[-1].delivered_utility,
            "mean_model_evaluations_per_cycle": self.mean_model_evaluations(),
            "total_model_evaluations": sum(r.model_evaluations for r in self.records),
            "total_steps": sum(r.steps for r in self.records),
            "total_rule_churn": self.total_churn(),
            "mean_rule_churn_per_epoch": self.mean_rule_churn(),
            "total_optimize_wall_clock_s": sum(
                r.optimize_wall_clock_s for r in self.records
            ),
        }
        if self.failures_name is not None or self.has_failures():
            summary.update(
                {
                    "failures": self.failures_name,
                    "first_failure_epoch": self.first_failure_epoch(),
                    "recovery_epochs": self.recovery_epochs(),
                    "total_stranded_demand_bps": self.total_stranded_demand_bps(),
                    "max_stranded_aggregates": self.max_stranded_aggregates(),
                    "rules_invalidated": self.total_rules_invalidated(),
                }
            )
        return summary

    def to_record(self) -> Dict[str, object]:
        """JSON-serializable form (cache / report payload)."""
        return {
            "summary": self.summary(),
            "epochs": [record.as_dict() for record in self.records],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Full JSON form, round-trippable via :meth:`from_json`.

        The final plan is a live optimizer artifact (allocation state, path
        sets, trace) and is deliberately *not* serialized — a deserialized
        result carries the trajectory and its accounting, not a deployable
        plan.
        """
        payload = {
            "config": self.config.as_dict(),
            "process_name": self.process_name,
            "failures_name": self.failures_name,
            "records": [record.as_dict() for record in self.records],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ControlLoopResult":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise DynamicsError(
                f"ControlLoopResult JSON must be an object, got {type(data).__name__}"
            )
        raw_failures = data.get("failures_name")
        return cls(
            records=[EpochRecord.from_dict(record) for record in data["records"]],
            final_plan=None,
            config=ControlLoopConfig.from_dict(data["config"]),
            process_name=str(data["process_name"]),
            failures_name=None if raw_failures is None else str(raw_failures),
        )


def run_control_loop(
    network: Network,
    process: TrafficProcess,
    fubar_config: Optional[FubarConfig] = None,
    loop_config: Optional[ControlLoopConfig] = None,
    policy: Optional[PathPolicy] = None,
    model_config: Optional[TrafficModelConfig] = None,
    failures: Optional[FailureSchedule] = None,
    path_cache: Optional[PathSetCache] = None,
    model_cache: Optional["CompiledModelCache"] = None,
) -> ControlLoopResult:
    """Run the closed control loop over *process* on *network*.

    Epoch *t* (0-based):

    1. apply the failure schedule, when given: mask the elements down during
       *t* out of the topology, force-uninstall rules forwarding over newly
       dead links, and prune the warm-start seed (surviving path splits are
       kept, flows of dead paths re-apportioned, paths regenerated only for
       stranded aggregates — never a cold restart);
    2. re-optimize on the currently observed matrix — the epoch-0 bootstrap
       observes the true matrix directly (the online controller's initial
       hand-off); later epochs use what the switches measured — warm-started
       from the previous plan when configured.  Aggregates the degraded
       topology cannot route at all sit out the cycle and are accounted as
       stranded;
    3. differentially install the new rules (churn accounting);
    4. carry the epoch's *true* traffic (``process.matrix_at(t)``) over the
       installed rules; the switches measure it, producing the matrix epoch
       *t + 1* optimizes.

    Every step is a :class:`~repro.service.core.ControllerCore` transition;
    this function owns only the epoch clock, the wall-clock timing and the
    record assembly.

    When *path_cache* is given and serves *policy*, path generators are
    obtained through it instead of rebuilt from scratch on every topology
    change: a repair that restores a previously seen topology (most
    commonly the base network) reuses that topology's generator together
    with its warm shortest-path cache.  The cache keys on topology content,
    so any capacity change or failure still gets a fresh generator (see
    :mod:`repro.paths.cache`).

    *model_cache* (a
    :class:`~repro.trafficmodel.compiled.CompiledModelCache`) plays the same
    role for traffic-model engines: the loop's model — rebuilt on every
    topology change — comes from the cache, so oscillating failure/repair
    topologies and consecutive same-topology sweep cells reuse warm
    compiled rows instead of recompiling them.
    """
    loop_config = loop_config or ControlLoopConfig()
    core = ControllerCore(
        network,
        fubar_config,
        warm_start=loop_config.warm_start,
        policy=policy,
        model_config=model_config,
        path_cache=path_cache,
        model_cache=model_cache,
    )
    core.on_measurement(process.matrix_at(0))
    records: List[EpochRecord] = []
    for epoch in range(loop_config.num_epochs):
        invalidated = 0
        if failures is not None:
            invalidated = core.apply_topology(failures.network_at(epoch, network))

        started = time.perf_counter()  # repro: allow[PURE101] — per-step optimize wall time is telemetry; dynamics outcomes compare utilities/routings, never timings
        outcome = core.reoptimize()
        install = core.install(outcome.plan)
        optimize_wall = time.perf_counter() - started  # repro: allow[PURE101] — per-step optimize wall time is telemetry; dynamics outcomes compare utilities/routings, never timings
        if invalidated:
            install = install.with_invalidated(invalidated)

        carry = core.carry(process.matrix_at(epoch), loop_config.epoch_duration_s)
        records.append(
            EpochRecord(
                epoch=epoch,
                observed_aggregates=outcome.observed_aggregates,
                planned_utility=outcome.planned_utility,
                delivered_utility=carry.delivered_utility,
                model_evaluations=outcome.model_evaluations,
                steps=outcome.steps,
                optimize_wall_clock_s=optimize_wall,
                install=install,
                unrouted_aggregates=carry.unrouted_aggregates,
                failed_links=core.failed_links,
                failed_nodes=core.failed_nodes,
                stranded_aggregates=carry.stranded_aggregates,
                stranded_demand_bps=carry.stranded_demand_bps,
            )
        )

    return ControlLoopResult(
        records=records,
        final_plan=core.last_plan,
        config=loop_config,
        process_name=process.name,
        failures_name=failures.describe() if failures is not None else None,
    )


def format_epoch_table(epochs: Sequence[Mapping[str, object]]) -> str:
    """Render per-epoch records (``EpochRecord.as_dict`` shape) as a table.

    The survivability columns (failed links, stranded aggregates + demand,
    rules invalidated by failures) only appear when some epoch actually ran
    degraded, so demand-only trajectories render exactly as before.
    """
    has_failures = any(
        record.get("failed_links") or record.get("failed_nodes") for record in epochs
    )
    rows = []
    for record in epochs:
        install = record.get("install", {})
        row = [
            record.get("epoch"),
            record.get("observed_aggregates"),
            f"{float(record.get('planned_utility', 0.0)):.4f}",
            f"{float(record.get('delivered_utility', 0.0)):.4f}",
            record.get("model_evaluations"),
            record.get("steps"),
            f"+{install.get('rules_added', 0)}/-{install.get('rules_removed', 0)}"
            f"/~{install.get('rules_updated', 0)}",
            f"{float(record.get('optimize_wall_clock_s', 0.0)):.2f}",
        ]
        if has_failures:
            row.extend(
                [
                    record.get("failed_links", 0),
                    record.get("stranded_aggregates", 0),
                    f"{float(record.get('stranded_demand_bps', 0.0)) / 1e6:.2f}",
                    install.get("rules_invalidated", 0),
                ]
            )
        rows.append(tuple(row))
    headers = [
        "epoch",
        "aggregates",
        "planned",
        "delivered",
        "evals",
        "steps",
        "churn(+/-/~)",
        "opt_s",
    ]
    if has_failures:
        headers.extend(["dead_links", "stranded", "stranded_mbps", "invalidated"])
    return format_table(tuple(headers), rows)
