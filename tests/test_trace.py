"""Unit tests for the request trace recorder."""

from __future__ import annotations

from repro.sim.request_trace import RequestRecord, TraceRecorder, merge_traces


def record(port=0, kind="load", ready=0, grant=2, complete=7, addr=0x100, contenders=0):
    return RequestRecord(
        port=port,
        kind=kind,
        addr=addr,
        ready_cycle=ready,
        grant_cycle=grant,
        complete_cycle=complete,
        service_cycles=complete - grant if grant >= 0 else 0,
        contenders_at_ready=contenders,
    )


class TestRequestRecord:
    def test_contention_delay(self):
        assert record(ready=3, grant=10).contention_delay == 7

    def test_contention_delay_before_grant_is_zero(self):
        assert record(grant=-1, complete=-1).contention_delay == 0

    def test_total_latency(self):
        assert record(ready=2, complete=11).total_latency == 9

    def test_completed_flag(self):
        assert record().completed
        assert not record(complete=-1).completed

    def test_l2_hit_never_reached_memory(self):
        hit = record()
        assert not hit.reached_memory
        assert (hit.memory_queue_wait, hit.dram_service, hit.response_wait) == (0, 0, 0)

    def test_l2_miss_decomposes_into_memory_stages(self):
        miss = record(ready=0, grant=2, complete=40)
        miss.mem_ready_cycle = 5
        miss.mem_grant_cycle = 9
        miss.mem_complete_cycle = 30
        miss.response_ready_cycle = 30
        miss.response_grant_cycle = 33
        assert miss.reached_memory
        assert miss.memory_queue_wait == 4
        assert miss.dram_service == 21
        assert miss.response_wait == 3

    def test_miss_still_queued_at_its_bank_has_no_service_yet(self):
        queued = record(ready=0, grant=2, complete=-1)
        queued.mem_ready_cycle = 5
        assert queued.reached_memory
        assert (queued.memory_queue_wait, queued.dram_service, queued.response_wait) == (0, 0, 0)


class TestTraceRecorder:
    def test_disabled_recorder_drops_records(self):
        trace = TraceRecorder(enabled=False)
        trace.record(record())
        assert len(trace) == 0

    def test_enabled_recorder_keeps_records(self):
        trace = TraceRecorder(enabled=True)
        trace.record(record())
        trace.record(record(port=1))
        assert len(trace) == 2
        assert trace.ports() == (0, 1)

    def test_for_port_filters_by_port_and_kind(self):
        trace = TraceRecorder()
        trace.record(record(port=0, kind="load"))
        trace.record(record(port=0, kind="store"))
        trace.record(record(port=1, kind="load"))
        assert len(trace.for_port(0)) == 2
        assert len(trace.for_port(0, kinds=["load"])) == 1

    def test_completed_records_excludes_unfinished(self):
        trace = TraceRecorder()
        trace.record(record())
        trace.record(record(grant=-1, complete=-1))
        assert len(trace.completed_records()) == 1

    def test_contention_delays(self):
        trace = TraceRecorder()
        trace.record(record(ready=0, grant=5))
        trace.record(record(ready=10, grant=12))
        assert trace.contention_delays(0) == [5, 2]

    def test_injection_times_between_consecutive_requests(self):
        trace = TraceRecorder()
        trace.record(record(ready=0, grant=0, complete=9))
        trace.record(record(ready=10, grant=10, complete=19))
        trace.record(record(ready=25, grant=25, complete=34))
        assert trace.injection_times(0) == [1, 6]

    def test_injection_times_empty_for_single_request(self):
        trace = TraceRecorder()
        trace.record(record())
        assert trace.injection_times(0) == []

    def test_count_by_kind(self):
        trace = TraceRecorder()
        trace.record(record(kind="load"))
        trace.record(record(kind="load"))
        trace.record(record(kind="store"))
        assert trace.count_by_kind() == {"load": 2, "store": 1}

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(record())
        trace.clear()
        assert len(trace) == 0

    def test_iteration_yields_records(self):
        trace = TraceRecorder()
        trace.record(record())
        assert [r.port for r in trace] == [0]


class TestMergeTraces:
    def test_merge_sorts_by_grant_cycle(self):
        a = TraceRecorder()
        a.record(record(port=0, grant=10, complete=15))
        b = TraceRecorder()
        b.record(record(port=1, grant=2, complete=7))
        merged = merge_traces([a, b])
        assert [r.port for r in merged.records] == [1, 0]

    def test_merge_of_empty_traces(self):
        assert len(merge_traces([TraceRecorder(), TraceRecorder()])) == 0
