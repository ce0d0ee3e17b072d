"""The admissibility table: which bound method each platform admits.

``repro.config.admissibility`` is the one place that decides which platform
gets the rsk-nop saw-tooth, Equation 1's analytical ``ubd`` and the composed
per-resource terms.  These tests pin its answer over every built-in
arbitration policy and topology, and check that each reader follows the
table rather than a check of its own.
"""

from __future__ import annotations

from itertools import product

import pytest

import repro.audit.dimensions as dimensions_module
import repro.campaign.runner as runner_module
import repro.cli as cli_module
import repro.config as config_module
import repro.methodology.ubd as ubd_module
from repro.audit.dimensions import CONFIG_DIMENSIONS, AuditOptions, ConfigAuditContext
from repro.campaign.runner import summarize_records
from repro.campaign.spec import KIND_RSK
from repro.config import (
    ARBITRATION_POLICIES,
    BOUND_METHODS,
    EQUATION_1,
    PER_RESOURCE,
    SAWTOOTH,
    TOPOLOGIES,
    BusConfig,
    TopologyConfig,
    admissibility,
    reference_config,
    small_config,
)
from repro.errors import ConfigurationError, MethodologyError
from repro.methodology.ubd import MeasuredBoundPipeline, UbdEstimator

FAIR_ROUND = ("round_robin", "fifo")

#: The saw-tooth refusals of a TDMA and a fixed-priority bus, as the
#: estimator has printed them since it first refused those buses.
TDMA_REFUSAL = (
    "a TDMA bus has no fair round for the rsk-nop saw-tooth to find: each "
    "core waits for its own slot whatever the others do, so the saw-tooth "
    "period does not measure ubd"
)
FIXED_PRIORITY_REFUSAL = (
    "a fixed-priority bus has no fair round for the rsk-nop saw-tooth to "
    "find: each core is served by its port priority, not once per round of "
    "the others, so the saw-tooth period does not measure ubd"
)


def _platform(bus: str, topology: str, mem: str = "fifo", response: str = "fifo"):
    return small_config(
        bus=BusConfig(arbitration=bus, transfer_latency=1),
        topology=TopologyConfig(
            name=topology, mem_arbitration=mem, response_arbitration=response
        ),
    )


# --------------------------------------------------------------------------- #
# The table itself.
# --------------------------------------------------------------------------- #


class TestTable:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("bus", ARBITRATION_POLICIES)
    def test_every_built_in_policy_combination(self, bus, topology):
        for mem, response in product(ARBITRATION_POLICIES, repeat=2):
            config = _platform(bus, topology, mem, response)
            table = admissibility(config)
            assert tuple(table) == BOUND_METHODS

            sawtooth = table[SAWTOOTH]
            if bus == "round_robin":
                assert sawtooth is None
            elif bus == "fifo":
                assert "FIFO bus is not round-robin" in sawtooth
                assert "derive-ubd --per-resource" in sawtooth
            elif bus == "tdma":
                assert sawtooth == TDMA_REFUSAL
            else:
                assert sawtooth == FIXED_PRIORITY_REFUSAL

            if bus in FAIR_ROUND:
                assert table[EQUATION_1] is None
            else:
                assert table[EQUATION_1] == (
                    f"no analytical ubd under {bus!r} arbitration "
                    "(Equation 1 covers ['round_robin', 'fifo'])"
                )

            stages = [bus]
            if topology != "bus_only":
                stages.append(mem)
            if topology == "split_bus":
                stages.append(response)
            if all(stage in FAIR_ROUND for stage in stages):
                assert table[PER_RESOURCE] is None
                assert config.describe()["ubd_terms"] == config.ubd_terms
            else:
                assert table[PER_RESOURCE] == (
                    f"per-resource bounds are undefined for a {bus!r} bus over "
                    f"{mem!r} bank queues (response channel {response!r}); "
                    "fair-round reasoning covers ['round_robin', 'fifo'] on every stage"
                )
                with pytest.raises(ConfigurationError) as refusal:
                    config.ubd_terms
                assert str(refusal.value) == table[PER_RESOURCE]
                assert config.describe()["ubd_terms"] is None
                assert config.describe()["end_to_end_ubd"] is None

    def test_every_preset_admits_every_method(self):
        for name, factory in config_module.PRESETS.items():
            assert admissibility(factory()) == dict.fromkeys(BOUND_METHODS), name

    def test_runtime_registered_policy_is_refused_by_every_method(self):
        from repro.sim.arbiter import ARBITER_REGISTRY, RoundRobinArbiter, register_arbiter

        name = "test_lottery"
        register_arbiter(name, "test-only policy")(
            lambda num_ports, tdma_slot: RoundRobinArbiter(num_ports)
        )
        try:
            table = admissibility(small_config(bus=BusConfig(arbitration=name)))
        finally:
            ARBITER_REGISTRY.pop(name)
        assert all(table[method] is not None for method in BOUND_METHODS)
        assert table[SAWTOOTH].startswith(f"a {name!r} bus is not round-robin")


# --------------------------------------------------------------------------- #
# Every reader follows the table.
# --------------------------------------------------------------------------- #

PATCHED = "refused by a patched admissibility table"

#: Every module that reads the table.
READERS = (config_module, ubd_module, runner_module, dimensions_module, cli_module)


def _refuse_round_robin(monkeypatch, *methods):
    """Patch the table so that a round-robin bus is refused ``methods``."""
    real = config_module.admissibility

    def patched(config):
        table = real(config)
        if config.bus.arbitration == "round_robin":
            table.update(dict.fromkeys(methods, PATCHED))
        return table

    for module in READERS:
        monkeypatch.setattr(module, "admissibility", patched)


def _rsk_record(config):
    """The fields ``summarize_records`` reads from one rsk run record."""
    return {
        "preset": config.name,
        "arbiter": config.bus.arbitration,
        "topology": config.topology.name,
        "config": config.to_dict(),
        "kind": KIND_RSK,
        "metrics": {
            "bus_utilisation": 1.0,
            "contender_total_requests": 0,
            "contender_histogram": {},
        },
    }


def _no_sweep(estimator, k):
    raise AssertionError(f"measured sweep point k = {k}")


class TestReadersFollowTheTable:
    def test_refusing_round_robin_refuses_every_bound(self, monkeypatch):
        config = _platform("round_robin", "bus_bank_queues")
        (bucket,) = summarize_records([_rsk_record(config)])["per_platform"].values()
        assert bucket["analytical_ubd"] == config.ubd
        assert bucket["end_to_end_ubd"] == config.end_to_end_ubd

        _refuse_round_robin(monkeypatch, *BOUND_METHODS)

        with pytest.raises(MethodologyError, match=PATCHED):
            UbdEstimator(config, k_max=4, iterations=5).run()
        with pytest.raises(MethodologyError, match=PATCHED):
            MeasuredBoundPipeline(config).run()
        (bucket,) = summarize_records([_rsk_record(config)])["per_platform"].values()
        assert bucket["analytical_ubd"] is None
        assert bucket["end_to_end_ubd"] is None
        assert bucket["analytical_terms"] is None
        context = ConfigAuditContext(config, AuditOptions(synchrony_iterations=20))
        synchrony = CONFIG_DIMENSIONS.require("synchrony").run(context)
        bound = next(f for f in synchrony.findings if f.check == "bound_respected")
        assert bound.verdict == "warn"
        assert bound.evidence["fallback_reason"] == PATCHED

    def test_derive_ubd_topology_line_follows_the_table(self, monkeypatch, capsys):
        _refuse_round_robin(monkeypatch, PER_RESOURCE)
        argv = ["--preset", "small", "derive-ubd", "--topology", "bus_bank_queues"]
        cli_module.main(argv + ["--k-max", "12", "--iterations", "2"])
        output = capsys.readouterr().out
        assert f"Topology bus_bank_queues: {PATCHED}\n" in output
        assert "per-resource bounds" not in output

    def test_per_resource_derive_prints_the_sawtooth_refusal(self, monkeypatch, capsys):
        """Where the saw-tooth is refused, the pipeline skips it and the
        CLI prints the reason in place of its result."""
        _refuse_round_robin(monkeypatch, SAWTOOTH)
        monkeypatch.setattr(UbdEstimator, "measure_point", _no_sweep)
        exit_code = cli_module.main(["--preset", "small", "derive-ubd", "--per-resource"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert f"no bus saw-tooth: {PATCHED})" in output
        assert "stress-run PMC" in output
        assert "rsk-nop saw-tooth" not in output
        assert "estimator_agreement" not in output


# --------------------------------------------------------------------------- #
# FIFO: the pipeline keeps its PMC-read bus term and skips the saw-tooth.
# --------------------------------------------------------------------------- #


def test_fifo_pipeline_measures_the_bus_without_a_sweep(monkeypatch):
    """On a FIFO ``ref`` bus the saw-tooth would print 9 against ubd 27, so
    the pipeline runs no sweep point and reads the bus term from the
    channel PMC, as it did before it skipped the sweep."""
    monkeypatch.setattr(UbdEstimator, "measure_point", _no_sweep)
    config = reference_config(bus=BusConfig(arbitration="fifo"))
    report = MeasuredBoundPipeline(config).run()
    assert report.bus_methodology is None
    term = report.terms["bus"]
    assert (term.ubdm, term.method, term.analytical) == (27, "stress-run PMC", 27)
    assert term.sandwich.passed
    assert report.passed
