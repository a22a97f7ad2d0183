"""Parallel, cached campaign execution over independent experiment cases.

The campaign layer turns a figure/ablation specification into a list of
self-contained :class:`CampaignCase` work units, dispatches them through a
pluggable :class:`ExecutionBackend` (inline, local process pool, or the
elastic pull-worker queue fleet over the file-based shard protocol), and
persists every finished case as a content-addressed JSON artifact so
interrupted or repeated campaigns skip completed work.  Per-case RNG seeds are derived from the case fields
alone, so every backend — and a cache-warm replay — is bit-identical.
"""

from repro.campaign.aggregate import (
    CaseContribution,
    SuiteAggregate,
    SuiteAggregator,
    case_contribution,
    contribution_from_payload,
    contribution_to_payload,
    suite_aggregate_to_payload,
)
from repro.campaign.backend import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    get_backend,
)
from repro.campaign.cache import (
    ArtifactCache,
    CacheAudit,
    CacheStats,
)
from repro.campaign.queue import (
    FaultInjector,
    FaultSpec,
    PoisonedShardError,
    QueueBackend,
    QueueConfig,
    WorkQueue,
    WorkerReport,
    queue_worker,
)
from repro.campaign.runner import Campaign, CampaignStats
from repro.campaign.shard import (
    MergeResult,
    PartialOverlapError,
    ShardAbort,
    ShardManifest,
    ShardPartial,
    merge_partials,
    partition_cases,
    run_shard,
)
from repro.campaign.spec import CampaignCase, expand_suite

__all__ = [
    "ArtifactCache",
    "BACKEND_NAMES",
    "CacheAudit",
    "CacheStats",
    "Campaign",
    "CampaignCase",
    "CampaignStats",
    "CaseContribution",
    "ExecutionBackend",
    "FaultInjector",
    "FaultSpec",
    "MergeResult",
    "PartialOverlapError",
    "PoisonedShardError",
    "ProcessPoolBackend",
    "QueueBackend",
    "QueueConfig",
    "SerialBackend",
    "ShardAbort",
    "ShardManifest",
    "ShardPartial",
    "SuiteAggregate",
    "SuiteAggregator",
    "WorkQueue",
    "WorkerReport",
    "case_contribution",
    "contribution_from_payload",
    "contribution_to_payload",
    "expand_suite",
    "get_backend",
    "merge_partials",
    "partition_cases",
    "queue_worker",
    "run_shard",
    "suite_aggregate_to_payload",
]
