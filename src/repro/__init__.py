"""repro — measurement-based contention bounds for real-time round-robin buses.

A from-scratch Python reproduction of

    G. Fernandez, J. Jalle, J. Abella, E. Quiñones, T. Vardanega,
    F. J. Cazorla, "Increasing Confidence on Measurement-Based Contention
    Bounds for Real-Time Round-Robin Buses", DAC 2015.

The package contains three layers:

* :mod:`repro.sim` — a cycle-level NGMP-like multicore simulator (cores,
  private L1 caches, a shared round-robin bus, a way-partitioned L2, a memory
  controller with a banked DRAM model, store buffers, PMCs and a request
  trace);
* :mod:`repro.kernels` — the resource-stressing kernels (rsk, rsk-nop, the
  nop-only kernel) and a synthetic EEMBC-Autobench substitute;
* :mod:`repro.analysis` and :mod:`repro.methodology` — the paper's analytical
  model (Equations 1-3), the saw-tooth period detection and the full
  measurement-based methodology that derives ``ubd`` without knowing any bus
  timing parameter, plus the naive prior-art estimator and the ETB padding
  that consumes the bound.

Quickstart::

    from repro import reference_config, UbdEstimator

    result = UbdEstimator(reference_config(), k_max=60, iterations=60).run()
    print(result.summary())      # ubdm = 27 cycles on the reference platform
"""

from .lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "ArchConfig",
            "BusConfig",
            "CacheConfig",
            "DramConfig",
            "L2Config",
            "StoreBufferConfig",
            "get_preset",
            "reference_config",
            "small_config",
            "variant_config",
        ),
        "errors": (
            "AnalysisError",
            "ConfigurationError",
            "MethodologyError",
            "ProgramError",
            "ReproError",
            "SimulationError",
        ),
        "analysis": (
            "ContentionModel",
            "SawtoothAnalyzer",
            "assess_confidence",
            "contender_histogram",
            "contention_histogram",
            "derive_delta_nop",
            "gamma_of_delta",
            "sawtooth_curve",
            "ubd_analytical",
        ),
        "kernels": (
            "build_nop_kernel",
            "build_rsk",
            "build_rsk_nop",
            "build_synthetic_kernel",
            "synthetic_kernel_names",
        ),
        "methodology": (
            "ExperimentRunner",
            "NaiveUbdEstimator",
            "UbdEstimator",
            "compute_etb",
            "mbta_padding",
        ),
        "sim": ("Program", "System"),
    },
)
__all__.append("__version__")
