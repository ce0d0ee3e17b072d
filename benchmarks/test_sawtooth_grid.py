"""The saw-tooth over a grid of platforms off the presets.

Each row runs the full rsk-nop methodology (``UbdEstimator`` with
auto-extension) on one platform and records the analytical ``ubd`` next to
the measured ``ubdm`` or the refusal, the swept ``k`` range and the failed
confidence checks.  The rows vary what moves the period: the core count,
the bus transfer time, the L1 latency (``var``) and a split-transaction
bus.  The grid runs at the same fixed iterations in quick and full mode, so
its artefact is compared byte for byte like the figures.

With three or more cores the ``Nc - 1`` rsk contenders keep the bus busy
and the period is ubd.  With two cores the period is one rival's request
period, ``lbus + delta_rsk``: 9 + 1 on ``ref`` and 9 + 4 on ``var``.  That
is sound but loose, and on ``var`` the single rival leaves the bus idle
often enough that ``bus_saturation`` fails.
"""

from __future__ import annotations

from typing import List

from repro.config import (
    BusConfig,
    CacheConfig,
    L2Config,
    reference_config,
    split_bus_config,
    variant_config,
)
from repro.errors import ReproError
from repro.methodology.ubd import UbdEstimator, UbdMethodologyResult
from repro.report.tables import render_table

from .conftest import write_artifact

#: Loop iterations of every rsk-nop kernel, in quick and full mode alike.
ITERATIONS = 40

#: One L2 way per core on the eight- and six-core platforms.
L2_8_WAYS = L2Config(cache=CacheConfig(size_bytes=256 * 1024, ways=8, hit_latency=6))

GRID = [
    ("ref, 8 cores", reference_config(num_cores=8, l2=L2_8_WAYS), {}),
    ("var, 8 cores", variant_config(num_cores=8, l2=L2_8_WAYS), {}),
    ("ref, bus transfer 5", reference_config(bus=BusConfig(transfer_latency=5)), {}),
    ("ref, 6 cores", reference_config(num_cores=6, l2=L2_8_WAYS), {}),
    ("ref, 2 cores", reference_config(num_cores=2), {}),
    ("var, 2 cores", variant_config(num_cores=2), {}),
    ("split_bus, k_max 12", split_bus_config(), {"iterations": 2, "k_max": 12}),
]


def run_grid():
    outcomes = []
    for label, config, overrides in GRID:
        options = {"iterations": ITERATIONS, **overrides}
        try:
            outcomes.append((label, config, UbdEstimator(config, **options).run()))
        except ReproError as exc:
            outcomes.append((label, config, str(exc)))
    return outcomes


def row(label: str, ubd: int, outcome) -> List[object]:
    if isinstance(outcome, str):
        return [label, ubd, f"refused: {outcome}", "-", "-"]
    failed = [check.name for check in outcome.confidence.failed_checks()]
    span = f"{outcome.ks[0]}..{outcome.ks[-1]}"
    return [label, ubd, outcome.ubdm, span, ", ".join(failed) or "none"]


def test_sawtooth_grid(benchmark, artifact_dir):
    outcomes = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    table = render_table(
        ["platform", "ubd", "ubdm or refusal", "span", "failed checks"],
        [row(label, config.ubd, result) for label, config, result in outcomes],
    )
    header = (
        f"Saw-tooth period over a platform grid: UbdEstimator at {ITERATIONS} "
        "iterations and k_max 60 with auto-extension (split_bus at 2 iterations "
        "and k_max 12); L2 with 8 ways on 6 and 8 cores\n\n"
    )
    write_artifact(artifact_dir, "sawtooth_grid.txt", header + table)

    for label, config, result in outcomes:
        assert isinstance(result, UbdMethodologyResult), f"{label}: {result}"
        if config.num_cores >= 3:
            assert result.ubdm == config.ubd, label
            assert result.confidence.passed, (label, result.confidence.summary())
        else:
            assert config.ubd <= result.ubdm, label
            failed = [check.name for check in result.confidence.failed_checks()]
            assert "observed_floor" not in failed, label
    assert [result.ubdm for _, _, result in outcomes] == [63, 63, 33, 45, 10, 13, 27]
    var_two_cores = outcomes[5][2]
    (saturation,) = var_two_cores.confidence.failed_checks()
    assert saturation.name == "bus_saturation"
    assert "utilisation 82." in saturation.detail
