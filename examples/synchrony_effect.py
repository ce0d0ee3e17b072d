#!/usr/bin/env python3
"""Observe the synchrony effect (Section 3 / Figure 6 of the paper).

The example contrasts two experiments on the reference NGMP-like platform:

* an EEMBC-like synthetic task running against three other synthetic tasks —
  its bus requests rarely find any contender, so the measured contention says
  nothing about the worst case;
* a load rsk running against three load rsk — the bus saturates, round robin
  locks into a time-multiplexed schedule, and (nearly) every request suffers
  exactly the same contention delay ``ubd - delta_rsk``, which is *below* the
  real upper bound ``ubd``.

Run it with::

    python examples/synchrony_effect.py
"""

from __future__ import annotations

from repro import reference_config, variant_config
from repro.analysis.contention import contention_histogram, injection_time_histogram
from repro.campaign import CampaignSpec, ParallelRunner, histogram_from_json
from repro.kernels.rsk import build_rsk
from repro.methodology.experiment import ExperimentRunner
from repro.report.histogram import render_histogram


def eembc_like_campaign() -> None:
    print("== EEMBC-like workloads (8 random 4-task mixes) ==")
    spec = CampaignSpec(
        presets=("ref",),
        seeds=(2015,),
        num_workloads=8,
        iterations=20,
        include_rsk_reference=False,
    )
    summary = ParallelRunner().run(spec.expand()).summary()
    workloads = summary["per_platform"]["ref/round_robin"]["synthetic"]
    print(
        render_histogram(
            histogram_from_json(workloads["aggregated_contenders"]),
            title="Ready contenders when the observed task accesses the bus",
            label="contenders",
        )
    )
    share = workloads["fraction_with_at_most_1"]
    print(f"\n{share:.0%} of requests found the bus empty or with a single contender.\n")


def rsk_against_rsk(config, label: str) -> None:
    print(f"== rsk against 3 rsk on the {label} platform ==")
    runner = ExperimentRunner(config)
    scua = build_rsk(config, 0, iterations=150)
    contended = runner.run_against_rsk(scua, trace=True)
    histogram = contention_histogram(contended.trace, 0)
    deltas = injection_time_histogram(contended.trace, 0)
    print(
        render_histogram(
            histogram.counts,
            title=f"Per-request contention delay (bus utilisation "
            f"{contended.bus_utilisation:.0%})",
            label="gamma",
        )
    )
    modal_delta = max(deltas, key=deltas.get)
    print(
        f"\nInjection time delta_rsk = {modal_delta} cycle(s); "
        f"observed plateau = {histogram.mode} = ubd - delta_rsk, "
        f"while the real ubd is {config.ubd} cycles.\n"
    )


def main() -> None:
    eembc_like_campaign()
    rsk_against_rsk(reference_config(), "ref")
    rsk_against_rsk(variant_config(), "var")
    print(
        "Take-away: saturating the bus is not enough — the synchrony effect pins\n"
        "every request to one alignment, so the straightforward measurement\n"
        "underestimates ubd and the gap depends on the platform's injection time."
    )


if __name__ == "__main__":
    main()
