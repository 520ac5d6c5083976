"""Tests for the online inference server event loop."""

import numpy as np
import pytest

from repro.config import ServeConfig
from repro.edgetpu import (
    DevicePool,
    EdgeTpuDevice,
    FailurePlan,
    compile_model,
)
from repro.runtime import PhaseProfiler
from repro.serving import InferenceServer, ModelSwapper
from repro.serving.arrivals import Request
from tests.serving.conftest import SLA_DYNAMIC, SLA_FIXED, SLA_S

DYNAMIC_16 = ServeConfig(max_batch=16, slack_s=0.001)


def _offline_predictions(compiled, trace):
    """Reference: the whole trace as one batch on one device."""
    x = np.stack([r.features for r in trace])
    device = EdgeTpuDevice()
    device.load_model(compiled)
    out = device.invoke(compiled.model.input_spec.qparams.quantize(x)).outputs
    for op in compiled.cpu_ops:
        out = op.run(out)
    return out[:, 0] if compiled.model.output_is_index \
        else np.argmax(out, axis=-1)


def _serve(compiled, trace, num_devices=2, config=DYNAMIC_16, **kwargs):
    pool = DevicePool(num_devices)
    pool.load_replicated(compiled)
    server = InferenceServer(pool, config, **kwargs)
    return server.serve(trace), pool


class TestServe:
    def test_serves_whole_trace_in_order(self, serving_setup):
        _, compiled, trace = serving_setup
        report, _ = _serve(compiled, trace)
        assert report.served == len(trace)
        assert report.dropped == 0
        # Predictions are bit-identical to an offline run, in request
        # order — micro-batching/queueing changes timing, never values.
        np.testing.assert_array_equal(
            report.predictions, _offline_predictions(compiled, trace)
        )

    def test_latency_accounting(self, serving_setup):
        _, compiled, trace = serving_setup
        report, _ = _serve(compiled, trace)
        assert len(report.latency) == report.served
        assert np.all(report.latencies[~np.isnan(report.latencies)] > 0)
        assert report.latency.p50 <= report.latency.p95 <= report.latency.p99
        assert report.makespan_s >= trace[-1].arrival_s
        assert report.throughput > 0

    def test_device_utilization_fields(self, serving_setup):
        _, compiled, trace = serving_setup
        report, pool = _serve(compiled, trace, num_devices=3)
        assert len(report.device_busy_seconds) == 3
        assert len(report.device_idle_seconds) == 3
        assert 0.0 < report.utilization < 1.0
        for busy, idle in zip(report.device_busy_seconds,
                              report.device_idle_seconds):
            assert busy + idle == pytest.approx(report.makespan_s)

    def test_admission_control_drops(self, serving_setup):
        _, compiled, trace = serving_setup
        # A tiny queue with a policy that never dispatches until full
        # load forces drops under this arrival rate.
        report, _ = _serve(compiled, trace, num_devices=1,
                           config=ServeConfig(batcher="fixed",
                                              max_batch=16, max_queue=8))
        assert report.dropped > 0
        assert report.served + report.dropped == len(trace)
        dropped_mask = report.predictions == -1
        assert dropped_mask.sum() == report.dropped
        assert np.isnan(report.latencies[dropped_mask]).all()

    def test_deadline_aware_beats_fixed_p99(self, serving_setup,
                                            sla_setup):
        _, compiled, trace = serving_setup
        dynamic, _ = _serve(compiled, trace,
                            config=ServeConfig(max_batch=32, slack_s=0.001))
        fixed, _ = _serve(compiled, trace,
                          config=ServeConfig(batcher="fixed", max_batch=32))
        assert dynamic.latency.p99 < fixed.latency.p99
        assert dynamic.deadline_miss_rate < fixed.deadline_miss_rate
        # On the SLA workload the deadline-aware batcher meets the 50 ms
        # p99 target and fixed-size batching misses it, neither dropping.
        compiled, trace = sla_setup
        dynamic, _ = _serve(compiled, trace, config=SLA_DYNAMIC)
        fixed, _ = _serve(compiled, trace, config=SLA_FIXED)
        assert dynamic.dropped == fixed.dropped == 0
        assert dynamic.latency.p99 <= SLA_S < fixed.latency.p99

    def test_deterministic_reports(self, serving_setup):
        _, compiled, trace = serving_setup
        a, _ = _serve(compiled, trace)
        b, _ = _serve(compiled, trace)
        assert a.summary() == b.summary()
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.latencies, b.latencies)

    def test_profiler_charged(self, serving_setup):
        _, compiled, trace = serving_setup
        profiler = PhaseProfiler()
        report, _ = _serve(compiled, trace, profiler=profiler)
        assert profiler.seconds("inference") == report.makespan_s

    def test_all_dropped_makespan_finite(self, serving_setup):
        # Regression: with max_queue=0 every request is refused and the
        # report used to reduce an all-NaN latency vector — emitting
        # numpy's "All-NaN slice" RuntimeWarning and a NaN makespan.
        import warnings

        _, compiled, trace = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        server = InferenceServer(
            pool, ServeConfig(max_batch=16, slack_s=0.001, max_queue=0)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = server.serve(trace)
        assert report.served == 0
        assert report.dropped == len(trace)
        assert np.isfinite(report.makespan_s)
        assert (report.predictions == -1).all()

    def test_windowed_accuracy(self, serving_setup):
        _, compiled, trace = serving_setup
        report, _ = _serve(compiled, trace)
        windows = report.windowed_accuracy(5)
        assert len(windows) == 5
        assert all(0.0 <= w <= 1.0 for w in windows)
        assert report.accuracy == pytest.approx(
            np.mean(report.predictions == report.labels)
        )


class TestFaultTolerance:
    def test_retry_on_second_device(self, serving_setup):
        _, compiled, trace = serving_setup
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(0, at_s=0.2, mode="usb_stall"))
        server = InferenceServer(pool, DYNAMIC_16)
        report = server.serve(trace)
        healthy, _ = _serve(compiled, trace)
        assert report.served == len(trace)
        assert report.retried_batches >= 1
        assert report.fallback_batches == 0
        assert report.failed_devices == [0]
        np.testing.assert_array_equal(report.predictions,
                                      healthy.predictions)

    def test_cpu_fallback_when_pool_lost(self, serving_setup, sla_setup):
        _, compiled, trace = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(0, at_s=0.2,
                                          mode="device_loss"))
        server = InferenceServer(pool, DYNAMIC_16)
        report = server.serve(trace)
        healthy, _ = _serve(compiled, trace)
        assert report.served == len(trace)
        assert report.fallback_batches > 0
        # Graceful degradation: the fallback is slower but bit-exact.
        np.testing.assert_array_equal(report.predictions,
                                      healthy.predictions)
        assert report.host_seconds > healthy.host_seconds
        # A USB stall on the only device, 1 s into the SLA workload:
        # the host serves the rest, dropping nothing, in request order.
        compiled, trace = sla_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(0, at_s=1.0, mode="usb_stall"))
        stalled = InferenceServer(pool, SLA_DYNAMIC).serve(trace)
        healthy, _ = _serve(compiled, trace, num_devices=1,
                            config=SLA_DYNAMIC)
        assert stalled.dropped == 0
        assert stalled.served == len(trace)
        assert stalled.fallback_batches > 0
        assert stalled.failed_devices == [0]
        np.testing.assert_array_equal(stalled.predictions,
                                      healthy.predictions)

    def test_stall_detection_costs_latency(self, serving_setup):
        _, compiled, trace = serving_setup

        def p99(mode):
            pool = DevicePool(2)
            pool.load_replicated(compiled)
            pool.schedule_failure(
                FailurePlan(0, at_s=0.2, mode=mode)
            )
            server = InferenceServer(pool, DYNAMIC_16)
            return server.serve(trace).latency.max

        # A USB stall pays a detection timeout that device loss skips.
        assert p99("usb_stall") > p99("device_loss")


class TestValidation:
    def test_unloaded_pool_rejected(self):
        with pytest.raises(RuntimeError, match="load"):
            InferenceServer(DevicePool(2))

    def test_mixed_models_rejected(self, serving_setup):
        stream, compiled, _ = serving_setup
        train_x, train_y = stream.test_set(200)
        from tests.serving.conftest import train_compiled
        other = train_compiled(train_x, train_y, seed=9)
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        pool.reload(1, other)
        with pytest.raises(ValueError, match="replicated"):
            InferenceServer(pool)

    def test_bad_max_queue(self, serving_setup):
        # Zero is legal (an admission-closed server); negatives are not.
        _, compiled, _ = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        with pytest.raises(ValueError, match="max_queue"):
            InferenceServer(pool, ServeConfig(max_queue=-1))

    def test_foreign_swapper_rejected(self, serving_setup):
        _, compiled, _ = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        other_pool = DevicePool(1)
        other_pool.load_replicated(compiled)
        with pytest.raises(ValueError, match="pool"):
            InferenceServer(pool, swapper=ModelSwapper(other_pool))

    def test_out_of_order_trace_rejected(self, serving_setup):
        _, compiled, trace = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        server = InferenceServer(pool)
        with pytest.raises(ValueError, match="arrival order"):
            server.serve([trace[1], trace[0]])

    @pytest.mark.parametrize("as_list", [True, False])
    def test_feature_width_checked_before_serving(self, serving_setup,
                                                  as_list):
        # Forty 16-wide requests, then a 5-wide one: a list is rejected
        # before anything runs, an iterator when that request is pulled.
        _, compiled, trace = serving_setup
        bad = trace[40]
        requests = trace[:40] + [Request(bad.request_id, bad.arrival_s,
                                         bad.deadline_s, bad.features[:5],
                                         bad.label)]
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        server = InferenceServer(pool, DYNAMIC_16)
        with pytest.raises(ValueError,
                           match="request 40 has 5 features but the "
                                 "model takes 16"):
            server.serve(requests if as_list else iter(requests))
        # Nothing ran before a list was rejected; an iterator had
        # already served batches of the requests before it.
        invocations = pool.devices[0].stats.invocations
        assert (invocations == 0) if as_list else (invocations > 0)

    @pytest.mark.parametrize("as_list", [True, False])
    @pytest.mark.parametrize("labelled_first", [True, False])
    def test_mixed_label_trace_rejected(self, serving_setup, as_list,
                                        labelled_first):
        # Ten requests, one of them with the other label presence: a
        # list is rejected before anything runs, an iterator when that
        # request is pulled — never a numpy error, never lost labels.
        _, compiled, trace = serving_setup
        requests = [Request(r.request_id, r.arrival_s, r.deadline_s,
                            r.features,
                            r.label if labelled_first != (i == 6) else None)
                    for i, r in enumerate(trace[:10])]
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        server = InferenceServer(pool, DYNAMIC_16)
        which = "unlabelled" if labelled_first else "labelled"
        with pytest.raises(ValueError, match=f"request 6 is {which} but "
                                             f"request 0 is not"):
            server.serve(requests if as_list else iter(requests))
        if as_list:
            assert pool.devices[0].stats.invocations == 0

    def test_empty_trace(self, serving_setup):
        _, compiled, _ = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        report = InferenceServer(pool).serve([])
        assert report.served == 0
        assert report.num_batches == 0
        assert report.makespan_s == 0.0

    def test_service_estimate_positive(self, serving_setup):
        _, compiled, _ = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        server = InferenceServer(pool)
        assert server.service_estimate(1) > 0
        assert server.service_estimate(32) > server.service_estimate(1)
        with pytest.raises(ValueError):
            server.service_estimate(0)
