"""Kernel and workload generators.

* :mod:`repro.kernels.layout` — address-layout helpers (same-set strides,
  per-core address regions) used to construct kernels that systematically
  miss in the DL1 and hit in the L2, as Section 2 of the paper prescribes.
* :mod:`repro.kernels.rsk` — the resource-stressing kernels: ``rsk(t)``,
  ``rsk-nop(t, k)``, the nop-only kernel used to derive ``delta_nop``, the
  bank-conflict and response-channel stressors, and the rsk registry mapping
  every ``ubd_terms`` resource to its worst-case generator.
* :mod:`repro.kernels.synthetic` — the EEMBC-Autobench substitute: a suite of
  automotive-flavoured synthetic programs with realistic, irregular bus
  access patterns.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "layout": ("CoreAddressSpace", "same_bank_same_set_addresses", "same_set_addresses"),
        "rsk": (
            "RSK_REGISTRY",
            "RskEntry",
            "build_bank_conflict_rsk",
            "build_nop_kernel",
            "build_response_conflict_rsk",
            "build_rsk",
            "build_rsk_nop",
            "build_stress_contender_set",
            "register_rsk",
            "registered_rsks",
            "rsk_for_resource",
            "rsk_request_count",
        ),
        "synthetic": (
            "SYNTHETIC_KERNELS",
            "SyntheticKernelSpec",
            "build_synthetic_kernel",
            "synthetic_kernel_names",
        ),
    },
)
