"""The measurement-based methodology (the paper's contribution).

* :mod:`repro.methodology.experiment` — running a software component under
  analysis (scua) in isolation and against contender kernels, and measuring
  execution-time differences.
* :mod:`repro.methodology.ubd` — the rsk-nop methodology of Section 4 (sweep
  the nop count, measure ``dbus(t, k)``, detect the saw-tooth period and
  report ``ubdm`` together with its confidence checks) plus the
  resource-generic measured-bound pipeline that derives one measured
  ``ubdm`` term per shared resource of the configured topology and
  cross-checks each against its analytical envelope.
* :mod:`repro.methodology.naive` — the prior-art estimator (execution-time
  increase divided by the number of requests) that the paper shows to
  underestimate ``ubd``.
* :mod:`repro.methodology.etb` — using ``ubdm`` to pad execution-time bounds
  for MBTA, or as a per-access contention term for STA.
* :mod:`repro.methodology.composition` — per-resource worst-case delay terms
  for multi-resource topologies; they sum to the end-to-end bound and pad
  execution times resource by resource.
* :mod:`repro.methodology.workloads` — composes the randomly drawn
  multiprogrammed workloads of Figure 6(a); :mod:`repro.campaign` runs
  them and aggregates their histograms.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "experiment": (
            "ContendedMeasurement",
            "ExperimentRunner",
            "IsolationMeasurement",
        ),
        "ubd": (
            "MeasuredBoundPipeline",
            "MeasuredBoundReport",
            "ResourceUbdm",
            "UbdEstimator",
            "UbdMethodologyResult",
        ),
        "naive": ("NaiveEstimate", "NaiveUbdEstimator"),
        "etb": ("EtbReport", "compute_etb", "mbta_padding"),
        "composition": (
            "ComposedEtbReport",
            "compose_etb",
            "compose_etb_for_config",
            "end_to_end_bound",
            "per_resource_bounds",
        ),
        "mbta": ("TaskAnalysis", "TaskSetAnalysis", "TaskSetResult"),
        "workloads": ("random_workloads",),
    },
)
