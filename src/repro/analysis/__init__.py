"""Analysis layer: the paper's analytical model and measurement processing.

* :mod:`repro.analysis.model` — closed-form contention model (Equations 1
  and 2), the predicted saw-tooth of Figure 4 and the synchrony timeline of
  Figures 2/3.
* :mod:`repro.analysis.sawtooth` — period detectors that recover ``ubd`` from
  a measured ``dbus(k)`` series (Equation 3 plus robust alternatives).
* :mod:`repro.analysis.injection` — derivation of ``delta_nop`` from the
  nop-only kernel.
* :mod:`repro.analysis.contention` — per-request contention delays, the
  histograms of Figure 6, and the per-resource latency decomposition of
  multi-resource topologies.
* :mod:`repro.analysis.confidence` — the methodology's confidence checks
  (bus utilisation, saturation, delta_nop validity).
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "model": (
            "ContentionModel",
            "gamma_of_delta",
            "predicted_slowdown_per_request",
            "sawtooth_curve",
            "synchrony_timeline",
            "ubd_analytical",
        ),
        "sawtooth": ("PeriodEstimate", "SawtoothAnalyzer"),
        "injection": ("DeltaNopEstimate", "derive_delta_nop"),
        "contention": (
            "DECOMPOSITION_STAGES",
            "ContenderHistogram",
            "ContentionHistogram",
            "LatencyDecomposition",
            "contender_histogram",
            "contention_histogram",
            "injection_time_histogram",
            "latency_decomposition",
        ),
        "confidence": ("ConfidenceReport", "assess_confidence"),
    },
)
