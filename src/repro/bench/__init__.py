"""Performance harness for the simulation engines.

This package times representative workloads (rsk contention runs per
arbiter x preset, the campaign hot path) on both simulation engines, emits
``BENCH_<rev>.json`` artifacts with cycles/sec and the event engine's
speedup over the stepped oracle, and provides the comparison gate CI uses
to fail pull requests that slow the hot path::

    python -m repro.bench run --quick --out out/perf
    python -m repro.bench compare benchmarks/perf/baseline.json \
        out/perf/BENCH_*.json --max-regression 0.15

The gated metric defaults to ``speedup`` (event vs stepped measured in the
same process), which is a same-machine ratio and therefore comparable
across hosts; raw ``cycles_per_sec`` is recorded for trend plots but is
hardware-dependent.
"""

from .campaign_bench import (
    CAMPAIGN_WORKLOADS,
    CampaignBench,
    run_campaign_benchmarks,
    time_campaign,
)
from .compare import CompareResult, compare_payloads, load_payload
from .harness import (
    BENCH_SCHEMA_VERSION,
    BenchWorkload,
    DEFAULT_WORKLOAD,
    WORKLOADS,
    render_report,
    run_benchmarks,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchWorkload",
    "CAMPAIGN_WORKLOADS",
    "CampaignBench",
    "CompareResult",
    "DEFAULT_WORKLOAD",
    "WORKLOADS",
    "compare_payloads",
    "load_payload",
    "render_report",
    "run_benchmarks",
    "run_campaign_benchmarks",
    "time_campaign",
]
