"""Figure 6(a): histogram of ready bus contenders.

Two workload classes are contrasted on the reference platform:

* 8 randomly composed 4-task workloads of EEMBC-like synthetic kernels
  (the paper uses EEMBC Autobench; see DESIGN.md for the substitution) — the
  observed task in core 0 finds the bus empty or with one contender most of
  the time;
* 4 rsk kernels — nearly every request finds all other cores contending.

The x axis counts *other* ready requesters, so it spans 0..3 on the 4-core
platform (the paper's variant counts the requester itself, shifting the axis
by one; the shape is identical).

Both classes run as one campaign (:mod:`repro.campaign`); the figure reads
the platform's summary bucket and the rsk run's record.
"""

from __future__ import annotations

from repro.campaign import CampaignSpec, histogram_from_json, summarize_records
from repro.config import reference_config
from repro.report.histogram import render_histogram
from repro.report.tables import render_table

from .conftest import write_artifact


def run_campaign(num_workloads: int, observed_iterations: int, rsk_iterations: int, runner):
    """Both workload classes as one campaign on ``ref``: the random
    workloads (seeds 2015, 2016, ...) plus the rsk reference run."""
    spec = CampaignSpec(
        presets=("ref",),
        seeds=(2015,),
        num_workloads=num_workloads,
        iterations=observed_iterations,
        rsk_iterations=rsk_iterations,
    )
    return runner.run(spec.expand()).records


def test_fig6a_contender_histograms(benchmark, artifact_dir, quick_mode, campaign_runner):
    num_workloads = 3 if quick_mode else 8
    observed_iterations = 10 if quick_mode else 25
    rsk_iterations = 100 if quick_mode else 300
    records = benchmark.pedantic(
        run_campaign,
        args=(num_workloads, observed_iterations, rsk_iterations, campaign_runner),
        rounds=1,
        iterations=1,
    )
    config = reference_config()
    bucket = summarize_records(records)["per_platform"]["ref/round_robin"]
    eembc_like, rsk = bucket["synthetic"], bucket["rsk"]
    workload_records = [record for record in records if record["kind"] == "synthetic"]
    (rsk_record,) = [record for record in records if record["kind"] == "rsk"]

    # Dark bars: real workloads almost never build the worst case.
    assert eembc_like["fraction_with_at_most_1"] > 0.5
    # Light bars: four rsk saturate the bus and all contenders are ready.
    all_ready = rsk["aggregated_contenders"].get(str(config.num_cores - 1), 0)
    assert all_ready / rsk["total_requests"] > 0.95
    assert rsk_record["metrics"]["bus_utilisation"] > 0.95

    sections = []
    sections.append("Per-workload composition (observed task runs on core 0):")
    sections.append(
        render_table(
            ["workload", "tasks", "bus utilisation"],
            [
                [index, " ".join(record["tasks"]), f"{record['metrics']['bus_utilisation']:.2f}"]
                for index, record in enumerate(workload_records)
            ],
        )
    )
    sections.append("")
    sections.append(
        render_histogram(
            histogram_from_json(eembc_like["aggregated_contenders"]),
            title="EEMBC-like 4-task workloads: ready contenders when core 0 accesses the bus",
            label="contenders",
        )
    )
    sections.append("")
    sections.append(
        render_histogram(
            histogram_from_json(rsk["aggregated_contenders"]),
            title="4x rsk workload: ready contenders when core 0 accesses the bus",
            label="contenders",
        )
    )
    write_artifact(artifact_dir, "fig6a_contender_histograms.txt", "\n".join(sections))
