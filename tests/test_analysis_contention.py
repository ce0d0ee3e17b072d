"""Unit tests for contention / contender histograms (Figure 6 analysis)."""

from __future__ import annotations

import pytest

from repro.analysis.contention import (
    DECOMPOSITION_STAGES,
    ContenderHistogram,
    ContentionHistogram,
    LatencyDecomposition,
    contender_histogram,
    contention_histogram,
    injection_time_histogram,
    latency_decomposition,
)
from repro.errors import AnalysisError
from repro.sim.request_trace import RequestRecord, TraceRecorder


def make_trace(records) -> TraceRecorder:
    trace = TraceRecorder(enabled=True)
    for record in records:
        trace.record(record)
    return trace


def load_record(port=0, ready=0, grant=None, contenders=0, kind="load"):
    grant = ready if grant is None else grant
    return RequestRecord(
        port=port,
        kind=kind,
        addr=0x100,
        ready_cycle=ready,
        grant_cycle=grant,
        complete_cycle=grant + 9,
        service_cycles=9,
        contenders_at_ready=contenders,
    )


class TestContentionHistogram:
    def test_histogram_counts_delays(self):
        trace = make_trace(
            [
                load_record(ready=0, grant=0),      # skipped (first request)
                load_record(ready=10, grant=36),    # delay 26
                load_record(ready=46, grant=72),    # delay 26
                load_record(ready=82, grant=85),    # delay 3
            ]
        )
        histogram = contention_histogram(trace, 0)
        assert histogram.counts == {26: 2, 3: 1}
        assert histogram.total_requests == 3
        assert histogram.mode == 26
        assert histogram.max_observed == 26

    def test_fraction_helpers(self):
        trace = make_trace(
            [load_record(ready=0, grant=0)]
            + [load_record(ready=10 * i, grant=10 * i + 5) for i in range(1, 5)]
        )
        histogram = contention_histogram(trace, 0)
        assert histogram.fraction_at(5) == 1.0
        assert histogram.fraction_at_mode() == 1.0
        assert histogram.fraction_at(99) == 0.0

    def test_skip_first_can_be_disabled(self):
        trace = make_trace([load_record(ready=0, grant=7)])
        histogram = contention_histogram(trace, 0, skip_first=0)
        assert histogram.counts == {7: 1}

    def test_kind_filter(self):
        trace = make_trace(
            [
                load_record(kind="store", ready=0, grant=3),
                load_record(kind="store", ready=10, grant=11),
            ]
        )
        histogram = contention_histogram(trace, 0, kinds=("store",), skip_first=0)
        assert histogram.total_requests == 2

    def test_missing_port_raises(self):
        trace = make_trace([load_record(port=1)])
        with pytest.raises(AnalysisError):
            contention_histogram(trace, 0)

    def test_empty_histogram_properties(self):
        histogram = ContentionHistogram(counts={}, total_requests=0, observed_core=0)
        assert histogram.max_observed == 0
        assert histogram.mode == 0
        assert histogram.fraction_at_mode() == 0.0


class TestContenderHistogram:
    def test_counts_and_fractions(self):
        trace = make_trace(
            [
                load_record(contenders=0),
                load_record(ready=10, contenders=1),
                load_record(ready=20, contenders=1),
                load_record(ready=30, contenders=3),
            ]
        )
        histogram = contender_histogram(trace, 0, num_cores=4)
        assert histogram.counts == {0: 1, 1: 2, 3: 1}
        assert histogram.fraction_with(1) == pytest.approx(0.5)
        assert histogram.fraction_with_at_most(1) == pytest.approx(0.75)

    def test_all_kinds_included_by_default(self):
        trace = make_trace(
            [
                load_record(kind="load", contenders=2),
                load_record(kind="store", ready=5, contenders=2),
                load_record(kind="ifetch", ready=9, contenders=2),
            ]
        )
        histogram = contender_histogram(trace, 0, num_cores=4)
        assert histogram.total_requests == 3

    def test_missing_port_raises(self):
        trace = make_trace([load_record(port=2)])
        with pytest.raises(AnalysisError):
            contender_histogram(trace, 0, num_cores=4)

    def test_sorted_items(self):
        histogram = ContenderHistogram(
            counts={3: 1, 0: 5}, total_requests=6, observed_core=0, num_cores=4
        )
        assert histogram.as_sorted_items() == [(0, 5), (3, 1)]

    def test_empty_fractions_are_zero(self):
        histogram = ContenderHistogram(counts={}, total_requests=0, observed_core=0, num_cores=4)
        assert histogram.fraction_with(0) == 0.0
        assert histogram.fraction_with_at_most(3) == 0.0


class TestInjectionHistogram:
    def test_histogram_of_deltas(self):
        trace = make_trace(
            [
                load_record(ready=0, grant=0),
                load_record(ready=10, grant=10),   # delta = 10 - 9 = 1
                load_record(ready=20, grant=20),   # delta = 20 - 19 = 1
                load_record(ready=33, grant=33),   # delta = 33 - 29 = 4
            ]
        )
        assert injection_time_histogram(trace, 0) == {1: 2, 4: 1}

    def test_single_request_raises(self):
        trace = make_trace([load_record()])
        with pytest.raises(AnalysisError):
            injection_time_histogram(trace, 0)


def miss_record(
    port=0,
    ready=0,
    grant=None,
    mem_ready=None,
    mem_grant=None,
    mem_complete=None,
    response_ready=None,
    response_grant=None,
):
    """A demand load that missed the L2: full per-stage timestamps."""
    record = load_record(port=port, ready=ready, grant=grant)
    record.mem_ready_cycle = record.complete_cycle if mem_ready is None else mem_ready
    record.mem_grant_cycle = (record.mem_ready_cycle if mem_grant is None else mem_grant)
    record.mem_complete_cycle = (
        record.mem_grant_cycle + 15 if mem_complete is None else mem_complete
    )
    record.response_ready_cycle = (
        record.mem_complete_cycle if response_ready is None else response_ready
    )
    record.response_grant_cycle = (
        record.response_ready_cycle if response_grant is None else response_grant
    )
    record.response_complete_cycle = record.response_grant_cycle + 3
    return record


class TestLatencyDecomposition:
    def test_stages_attributed_per_request(self):
        hit = load_record(ready=0, grant=4)  # 4 cycles of bus wait, no miss
        miss = miss_record(ready=20, grant=26)
        miss.mem_grant_cycle = miss.mem_ready_cycle + 7   # bank-queue wait 7
        miss.mem_complete_cycle = miss.mem_grant_cycle + 15  # DRAM service 15
        miss.response_ready_cycle = miss.mem_complete_cycle
        miss.response_grant_cycle = miss.response_ready_cycle + 2  # response wait 2
        decomposition = latency_decomposition(make_trace([hit, miss]), 0)
        assert decomposition.total_requests == 2
        assert decomposition.memory_requests == 1
        assert decomposition.histograms["bus"] == {4: 1, 6: 1}
        assert decomposition.histograms["memory"] == {7: 1}
        assert decomposition.histograms["dram"] == {15: 1}
        assert decomposition.histograms["bus_response"] == {2: 1}
        assert decomposition.totals == {
            "bus": 10,
            "memory": 7,
            "dram": 15,
            "bus_response": 2,
        }
        assert decomposition.max_observed("memory") == 7
        assert decomposition.mean_observed("bus") == 5.0

    def test_stage_names_align_with_ubd_terms(self):
        from repro.config import get_preset

        terms = set(get_preset("split_bus").ubd_terms)
        # Every analytical term has a measured histogram to check against
        # ("dram" is the service time the memory term's row-miss services
        # bound jointly with the queue wait).
        assert terms <= set(DECOMPOSITION_STAGES)

    def test_l2_hits_only_populate_the_bus_stage(self):
        decomposition = latency_decomposition(
            make_trace([load_record(grant=3), load_record(ready=9, grant=9)]), 0
        )
        assert decomposition.memory_requests == 0
        assert decomposition.histograms["memory"] == {}
        assert decomposition.histograms["bus_response"] == {}
        assert decomposition.totals["dram"] == 0

    def test_other_cores_requests_excluded(self):
        mine = load_record(port=0, grant=2)
        theirs = load_record(port=1, grant=9)
        decomposition = latency_decomposition(make_trace([mine, theirs]), 0)
        assert decomposition.total_requests == 1
        assert decomposition.histograms["bus"] == {2: 1}

    def test_empty_trace_raises(self):
        with pytest.raises(AnalysisError):
            latency_decomposition(make_trace([]), 0)

    def test_skip_first_drops_the_lock_in_request(self):
        decomposition = latency_decomposition(
            make_trace([load_record(grant=0), load_record(ready=9, grant=14)]),
            0,
            skip_first=1,
        )
        assert decomposition.total_requests == 1
        assert decomposition.histograms["bus"] == {5: 1}

    def test_simulation_totals_cross_check_memctrl_stats(self):
        """End to end on the chained topology: when the observed core is the
        only source of memory traffic, the per-request bank-queue waits must
        sum to exactly the controller's aggregate queue counters."""
        from repro.config import TopologyConfig, small_config
        from repro.kernels.rsk import build_bank_conflict_rsk
        from repro.sim.system import System

        config = small_config(topology=TopologyConfig(name="bus_bank_queues"))
        programs = [None] * config.num_cores
        programs[0] = build_bank_conflict_rsk(config, 0, iterations=25)
        system = System(config, programs, trace=True, preload_il1=True)
        result = system.run(observed_cores=[0])
        decomposition = latency_decomposition(result.trace, 0)
        assert decomposition.memory_requests == result.pmc.dram_accesses
        assert decomposition.consistent_with(system.memctrl.stats)
        # Load-only single-core traffic: the subset inequality behind
        # consistent_with collapses to exact equality here.
        assert decomposition.totals["memory"] == system.memctrl.stats.total_queue_wait
        # DRAM service is bounded by the row-miss latency per access.
        assert decomposition.max_observed("dram") <= config.dram.row_miss_latency


class TestMemoryTermSplit:
    def test_split_reads_queue_and_service_histograms(self):
        from repro.analysis.contention import memory_term_split

        decomposition = LatencyDecomposition(
            observed_core=0,
            total_requests=4,
            memory_requests=3,
            histograms={
                "bus": {2: 4},
                "memory": {10: 2, 30: 1},
                "dram": {15: 1, 33: 2},
                "bus_response": {0: 3},
            },
            totals={"bus": 8, "memory": 50, "dram": 81, "bus_response": 0},
        )
        split = memory_term_split(decomposition)
        assert split.memory_requests == 3
        assert split.queue_wait_max == 30
        assert split.queue_wait_total == 50
        assert split.service_max == 33
        assert split.service_total == 81
        assert split.queue_wait_mean == pytest.approx(50 / 3)
        assert split.service_mean == pytest.approx(81 / 3)
        assert "queue wait max 30" in split.summary()

    def test_empty_stages_split_to_zero(self):
        from repro.analysis.contention import memory_term_split

        decomposition = LatencyDecomposition(
            observed_core=0,
            total_requests=2,
            memory_requests=0,
            histograms={"bus": {1: 2}},
            totals={"bus": 2},
        )
        split = memory_term_split(decomposition)
        assert split.queue_wait_max == 0
        assert split.service_max == 0
        assert split.queue_wait_total == 0


class TestCrossCheckStageBounds:
    def test_sandwich_passes_when_measured_between(self):
        from repro.analysis.contention import cross_check_stage_bounds

        result = cross_check_stage_bounds(
            observed={"bus": 5, "memory": 60},
            measured={"bus": 6, "memory": 61},
            analytical={"bus": 6, "memory": 84},
        )
        assert result.passed
        assert [c.resource for c in result.checks] == ["bus", "memory"]
        assert "OK" in result.summary()

    def test_not_covering_fails(self):
        from repro.analysis.contention import cross_check_stage_bounds

        result = cross_check_stage_bounds(
            observed={"bus": 9}, measured={"bus": 6}, analytical={"bus": 10}
        )
        assert not result.passed
        (check,) = result.failed_checks()
        assert not check.covers_observation
        assert check.within_envelope
        assert "NOT COVERING" in check.summary()

    def test_exceeding_envelope_fails(self):
        from repro.analysis.contention import cross_check_stage_bounds

        result = cross_check_stage_bounds(
            observed={"bus": 5}, measured={"bus": 12}, analytical={"bus": 10}
        )
        assert not result.passed
        (check,) = result.failed_checks()
        assert check.covers_observation
        assert not check.within_envelope
        assert "EXCEEDS ENVELOPE" in check.summary()

    def test_unobserved_stage_defaults_to_zero(self):
        from repro.analysis.contention import cross_check_stage_bounds

        result = cross_check_stage_bounds(
            observed={}, measured={"bus_response": 1}, analytical={"bus_response": 2}
        )
        assert result.passed
        assert result.checks[0].observed_worst_case == 0

    def test_measured_term_without_analytical_counterpart_rejected(self):
        from repro.analysis.contention import cross_check_stage_bounds

        with pytest.raises(AnalysisError):
            cross_check_stage_bounds(observed={}, measured={"crossbar": 3}, analytical={"bus": 6})
