"""Tests for the load generator: mixes, schedules, reports, end-to-end."""

from __future__ import annotations

import time

import pytest

from repro.loadgen import (
    LoadgenConfig,
    LoadReport,
    NetClient,
    ProtocolError,
    RequestRecord,
    classify_response,
    jain_fairness,
    parse_mix,
    render_curve,
    run_load,
    sweep,
)
from repro.loadgen.runner import RequestFactory, _arrival_times
from repro.netserve import NetServeConfig, TeleServer, TenantRegistry
from repro.serving import FaultAnalysisService, ServiceConfig
from repro.service import RandomProvider


class TestParseMix:
    def test_weights_normalised(self):
        mix = parse_mix("embed=8,fct=2")
        assert mix == {"embed": 0.8, "fct": 0.2}

    def test_bare_tokens_default_to_one(self):
        assert parse_mix("embed,fct") == {"embed": 0.5, "fct": 0.5}

    def test_repeated_tokens_accumulate(self):
        assert parse_mix("embed=1,embed=3") == {"embed": 1.0}

    @pytest.mark.parametrize("raw", ["", "  ", "bogus=1", "embed=x",
                                     "embed=0", "embed=-2"])
    def test_invalid_mixes_rejected(self, raw):
        with pytest.raises(ValueError):
            parse_mix(raw)


class TestClassification:
    def test_ok(self):
        assert classify_response({"ok": True}) == ("ok", None)

    @pytest.mark.parametrize("code", ["rate_limit", "concurrency",
                                      "overload", "queue_full", "deadline",
                                      "draining", "unavailable"])
    def test_retryable_codes_are_rejections(self, code):
        assert classify_response({"ok": False, "code": code}) == \
            ("rejected", code)

    @pytest.mark.parametrize("code", ["bad_request", "auth", "internal",
                                      None])
    def test_other_failures_are_errors(self, code):
        outcome, got = classify_response({"ok": False, "code": code})
        assert outcome == "error" and got == code


class TestJainFairness:
    def test_perfectly_fair(self):
        assert jain_fairness([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_one_tenant_starved(self):
        assert jain_fairness([30.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_degenerate_inputs(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0


class TestArrivalSchedule:
    def test_steady_rate(self):
        config = LoadgenConfig(port=1, rate_per_s=100.0, duration_s=2.0)
        times = _arrival_times(config)
        assert len(times) == 200
        assert times[0] == 0.0
        assert times[-1] < 2.0
        steps = [b - a for a, b in zip(times, times[1:])]
        assert all(step == pytest.approx(0.01) for step in steps)


class TestLoadReport:
    def _records(self):
        return [
            RequestRecord("a", "embed", 0.010, "ok", None),
            RequestRecord("a", "embed", 0.020, "ok", None),
            RequestRecord("a", "embed", 0.001, "rejected", "rate_limit"),
            RequestRecord("b", "embed", 0.030, "ok", None),
            RequestRecord("b", "fct", 0.002, "error", "bad_request"),
        ]

    def test_aggregation(self):
        report = LoadReport.from_records(self._records(), mode="open",
                                         duration_s=1.0, offered_rps=5.0)
        assert report.total == 5
        assert report.counts == {"ok": 3, "rejected": 1, "error": 1,
                                 "protocol_error": 0}
        assert report.codes == {"rate_limit": 1, "bad_request": 1}
        assert report.achieved_rps == pytest.approx(3.0)
        assert report.ok_latency["p50"] == pytest.approx(0.020)
        assert report.per_tenant["a"]["sent"] == 3
        assert report.per_tenant["b"]["ok"] == 1
        assert 0.5 < report.fairness <= 1.0

    def test_render_and_curve(self):
        report = LoadReport.from_records(self._records(), mode="open",
                                         duration_s=1.0, offered_rps=5.0)
        text = report.render()
        assert "fairness" in text and "tenant a" in text
        curve = render_curve([report, report])
        assert "offered" in curve and len(curve.splitlines()) == 4

    def test_empty_run(self):
        report = LoadReport.from_records([], mode="closed", duration_s=1.0,
                                         offered_rps=0.0)
        assert report.total == 0
        assert report.render()


class TestRequestFactory:
    def test_embed_payloads_deterministic(self):
        first = RequestFactory({"embed": 1.0}, seed=7)
        second = RequestFactory({"embed": 1.0}, seed=7)
        for index in range(5):
            assert first.build(index) == second.build(index)
        token, payload = first.build(99)
        assert token == "embed"
        assert payload["op"] == "embed" and payload["id"] == 99
        assert payload["names"]

    def test_raw_weights_are_normalised(self):
        factory = RequestFactory({"embed": 2, "fct": 1}, seed=3)
        assert factory.mix == {"embed": 2 / 3, "fct": 1 / 3}
        tokens = [factory.build(index)[0] for index in range(300)]
        assert set(tokens) == {"embed", "fct"}
        assert 150 < tokens.count("embed") < 250
        # parse_mix's already-normalised weights draw the same stream.
        parsed = RequestFactory(parse_mix("embed=2,fct=1"), seed=3)
        assert [parsed.build(index)[0] for index in range(300)] == tokens

    def test_deadline_ms_attached(self):
        factory = RequestFactory({"embed": 1.0}, deadline_ms=250.0)
        _, payload = factory.build(0)
        assert payload["deadline_ms"] == 250.0


# ----------------------------------------------------------------------
# End-to-end against an in-process server
# ----------------------------------------------------------------------
@pytest.fixture
def live_server():
    service = FaultAnalysisService(
        RandomProvider(dim=8, seed=0),
        config=ServiceConfig(max_batch_size=8, max_wait_ms=2,
                             timeout_s=1.0, max_retries=0,
                             backoff_s=0.01))
    tenants = TenantRegistry.from_json({"tenants": [
        {"name": "a", "api_key": "ka"},
        {"name": "b", "api_key": "kb"},
    ]})
    server = TeleServer(service, tenants,
                        config=NetServeConfig(close_timeout_s=2.0))
    host, port = server.start()
    yield host, port
    server.close(timeout_s=1.0)
    service.close()


@pytest.mark.timeout(60)
class TestRunLoad:
    def test_closed_loop_two_tenants(self, live_server):
        host, port = live_server
        report = run_load(LoadgenConfig(
            host=host, port=port, api_keys=("ka", "kb"), mode="closed",
            duration_s=1.0, concurrency=2, timeout_s=5.0))
        assert report.counts["protocol_error"] == 0
        assert report.counts["ok"] > 0
        assert set(report.per_tenant) == {"ka", "kb"}
        assert report.fairness > 0.5

    def test_open_loop_respects_schedule(self, live_server):
        host, port = live_server
        started = time.monotonic()
        report = run_load(LoadgenConfig(
            host=host, port=port, api_keys=("ka",), mode="open",
            duration_s=1.0, rate_per_s=40.0, workers=2, timeout_s=5.0))
        elapsed = time.monotonic() - started
        assert report.counts["protocol_error"] == 0
        assert report.total == 40
        assert elapsed < 10.0
        assert report.offered_rps == 40.0

    def test_sweep_produces_one_report_per_rate(self, live_server):
        host, port = live_server
        reports = sweep(LoadgenConfig(
            host=host, port=port, api_keys=("ka",), duration_s=0.5,
            workers=2, timeout_s=5.0), rates=[20.0, 40.0])
        assert [r.offered_rps for r in reports] == [20.0, 40.0]
        assert all(r.counts["protocol_error"] == 0 for r in reports)

    def test_client_protocol_error_on_dead_port(self):
        with pytest.raises(ProtocolError):
            with NetClient("127.0.0.1", 1, timeout_s=0.5) as client:
                client.request({"op": "ping"})
