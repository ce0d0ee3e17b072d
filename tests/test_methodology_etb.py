"""Unit tests for the ETB padding (how STA/MBTA consume ubdm)."""

from __future__ import annotations

import pytest

from repro.errors import MethodologyError
from repro.kernels.rsk import build_rsk
from repro.methodology.etb import build_etb_report, compute_etb, mbta_padding
from repro.methodology.experiment import ExperimentRunner


class TestPadding:
    def test_pad_is_requests_times_ubdm(self):
        assert mbta_padding(100, 27) == 2700

    def test_fractional_ubdm_rounded_up(self):
        assert mbta_padding(3, 26.5) == 80

    def test_zero_requests(self):
        assert mbta_padding(0, 27) == 0

    def test_negative_inputs_rejected(self):
        with pytest.raises(MethodologyError):
            mbta_padding(-1, 27)
        with pytest.raises(MethodologyError):
            mbta_padding(1, -2.0)

    def test_compute_etb_adds_pad_to_isolation(self):
        assert compute_etb(1000, 10, 27) == 1270

    def test_compute_etb_rejects_negative_isolation(self):
        with pytest.raises(MethodologyError):
            compute_etb(-1, 10, 27)


class TestEtbReport:
    def test_report_fields(self):
        report = build_etb_report("task", isolation_time=500, requests=50, ubdm=27)
        assert report.etb == 500 + 50 * 27
        assert report.pad == 50 * 27
        assert report.covers_observation is None
        assert report.margin is None

    def test_report_with_observation_covered(self):
        report = build_etb_report(
            "task", isolation_time=500, requests=50, ubdm=27, observed_contended_time=1500
        )
        assert report.covers_observation
        assert report.margin == report.etb - 1500
        assert "covers" in report.summary()

    def test_report_with_observation_violated(self):
        report = build_etb_report(
            "task", isolation_time=500, requests=10, ubdm=1, observed_contended_time=9000
        )
        assert report.covers_observation is False
        assert report.margin < 0
        assert "VIOLATED" in report.summary()

    def test_summary_without_observation(self):
        report = build_etb_report("task", isolation_time=10, requests=2, ubdm=3)
        assert "ETB" in report.summary()


class TestEtbSoundnessOnSimulator:
    def test_etb_with_true_ubd_covers_observed_contention(self, tiny_config):
        """Padding with the real ubd always covers the contended run."""
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=25)
        isolation = runner.run_isolation(scua)
        contended = runner.run_against_rsk(scua)
        report = build_etb_report(
            scua.name,
            isolation_time=isolation.execution_time,
            requests=isolation.bus_requests,
            ubdm=tiny_config.ubd,
            observed_contended_time=contended.execution_time,
        )
        assert report.covers_observation

    def test_etb_with_underestimated_bound_may_not_cover_worst_case(self, tiny_config):
        """Padding with a too-small per-request bound gives a smaller ETB than
        padding with ubd — the trustworthiness gap the paper worries about."""
        runner = ExperimentRunner(tiny_config)
        scua = build_rsk(tiny_config, 0, iterations=25)
        isolation = runner.run_isolation(scua)
        under = build_etb_report(
            scua.name,
            isolation_time=isolation.execution_time,
            requests=isolation.bus_requests,
            ubdm=1.0,
        )
        sound = build_etb_report(
            scua.name,
            isolation_time=isolation.execution_time,
            requests=isolation.bus_requests,
            ubdm=float(tiny_config.ubd),
        )
        assert under.etb < sound.etb
