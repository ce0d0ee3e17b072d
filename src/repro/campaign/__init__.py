"""Parallel experiment-campaign engine with JSON artifacts.

The paper's evaluation is built on *campaigns*: large sweeps of
isolation-versus-contended simulation runs over workloads, contender counts,
arbiters and seeds.  This package makes such sweeps declarative, parallel
and cached:

* :class:`CampaignSpec` / :class:`RunDescriptor` — declare the grid of runs
  (:mod:`repro.campaign.spec`);
* :class:`ParallelRunner` / :func:`execute_shard` — the one campaign
  pipeline: execute descriptors as shards in-process, over a process pool
  or through a caller-supplied executor, with deterministic,
  order-independent results (:mod:`repro.campaign.runner`);
* :class:`ResultStore` — the content-addressed result store (a directory
  of ``<digest>.json`` artifacts) so re-runs only simulate what changed,
  deduplicated across campaigns (:mod:`repro.campaign.store`);
* :class:`CampaignStreamWriter` / :func:`load_campaign` — the
  ``results.jsonl`` / ``summary.json`` / ``campaign.json`` artifact layer
  (:mod:`repro.campaign.artifacts`); the stream writer writes every
  artifact, :func:`write_campaign_artifacts` included.

The CLI front-end is ``repro-bounds campaign --jobs N --out DIR``; the
report renderer lives in :mod:`repro.report.campaign`.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "artifacts": (
            "CampaignArtifacts",
            "CampaignStreamWriter",
            "MANIFEST_NAME",
            "RESULTS_NAME",
            "SUMMARY_NAME",
            "build_manifest",
            "load_campaign",
            "load_manifest",
            "load_results",
            "load_summary",
            "write_campaign_artifacts",
            "write_manifest",
        ),
        "runner": (
            "CampaignOutcome",
            "ParallelRunner",
            "ShardTask",
            "default_shard_size",
            "execute_run",
            "execute_shard",
            "histogram_from_json",
            "summarize_records",
        ),
        "spec": (
            "KIND_RSK",
            "KIND_SYNTHETIC",
            "SCHEMA_VERSION",
            "CampaignSpec",
            "RunDescriptor",
            "campaign_digest",
        ),
        "store": ("GcOutcome", "ResultStore", "StoreCounters"),
    },
)
