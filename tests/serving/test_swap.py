"""Tests for the hot model swapper."""

import numpy as np
import pytest

from repro.config import ServeConfig
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu import DevicePool, FailurePlan
from repro.runtime.costs import generation_seconds
from repro.serving import (
    ArrivalProcess,
    InferenceServer,
    ModelSwapper,
    RequestStream,
)
from tests.serving.conftest import (
    NUM_CLASSES,
    NUM_FEATURES,
    SLA_DYNAMIC,
    sla_compiled,
    sla_workload,
    train_compiled,
)


@pytest.fixture(scope="module")
def drift_setup():
    """A drifting stream, an initial model, and a 600-request trace."""
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.1),
        seed=4,
    )
    train_x, train_y = stream.next_batch(300)
    compiled = train_compiled(train_x, train_y)
    arrivals = ArrivalProcess(300.0, "poisson", seed=6)
    trace = list(RequestStream(stream, arrivals, deadline_s=0.04,
                          drift_every=1).generate(600))
    cut = 300
    window = trace[cut - 200:cut]
    retrained = train_compiled(
        np.stack([r.features for r in window]),
        np.array([r.label for r in window], dtype=np.int64),
        seed=8,
    )
    return compiled, retrained, trace, cut


@pytest.fixture(scope="module")
def sized_models(drift_setup):
    """An initial model plus a big and a small retrain candidate.

    The big model's modelgen cost exceeds the small one's, so a swap
    scheduled later (small) can become ready *earlier* than one
    scheduled first (big) — the inversion the staleness tests need.
    """
    compiled, _, _, _ = drift_setup
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES),
        seed=21,
    )
    x, y = stream.next_batch(200)
    big = train_compiled(x, y, seed=22, dimension=512)
    small = train_compiled(x, y, seed=23, dimension=64)
    return compiled, big, small


class TestModelSwapper:
    def test_schedule_charges_modelgen(self, drift_setup):
        compiled, retrained, _, _ = drift_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        ready = swapper.schedule(retrained, at_s=1.0)
        assert ready == pytest.approx(
            1.0 + generation_seconds(retrained.weight_bytes)
        )
        assert generation_seconds(retrained.weight_bytes) > 0
        assert swapper.pending == 1

    def test_poll_before_ready_is_noop(self, drift_setup):
        compiled, retrained, _, _ = drift_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        ready = swapper.schedule(retrained, at_s=1.0)
        assert swapper.poll(ready - 1e-6) is None
        assert pool.models[0] is compiled
        assert swapper.poll(ready) is retrained
        assert pool.models[0] is retrained
        assert swapper.pending == 0
        assert swapper.swaps_committed == 1
        assert swapper.total_swap_seconds > 0

    def test_stacked_swaps_commit_newest(self, drift_setup):
        compiled, retrained, _, _ = drift_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        swapper.schedule(retrained, at_s=0.0)
        newer = train_compiled(
            *DriftingStream(
                StreamConfig(num_features=NUM_FEATURES,
                             num_classes=NUM_CLASSES),
                seed=11,
            ).next_batch(200),
            seed=12,
        )
        swapper.schedule(newer, at_s=0.1)
        committed = swapper.poll(1e9)
        assert committed is newer
        assert swapper.pending == 0
        assert swapper.swaps_committed == 1

    def test_inverted_ready_order_commits_latest_scheduled(
            self, sized_models):
        # A big retrain scheduled first, a small one scheduled later:
        # the small artifact finishes modelgen first, so ready order
        # inverts schedule order.  The later-*scheduled* model is the
        # fresher retrain and must win the commit.
        compiled, big, small = sized_models
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        gen_big = generation_seconds(big.weight_bytes)
        gen_small = generation_seconds(small.weight_bytes)
        assert gen_small < gen_big
        ready_big = swapper.schedule(big, at_s=0.0)
        ready_small = swapper.schedule(small,
                                       at_s=(gen_big - gen_small) / 2)
        assert ready_small < ready_big
        committed = swapper.poll(ready_big + 1.0)
        assert committed is small
        assert pool.models[0] is small
        assert swapper.pending == 0
        assert swapper.swaps_committed == 1

    def test_commit_discards_earlier_scheduled_pending(self, sized_models):
        # The small retrain commits while the big, *earlier-scheduled*
        # one is still baking; when the big artifact later becomes
        # ready it must be discarded — committing it would roll the
        # pool back to an older model.
        compiled, big, small = sized_models
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        gen_big = generation_seconds(big.weight_bytes)
        gen_small = generation_seconds(small.weight_bytes)
        ready_big = swapper.schedule(big, at_s=0.0)
        ready_small = swapper.schedule(small,
                                       at_s=(gen_big - gen_small) / 2)
        assert ready_small < ready_big
        assert swapper.poll((ready_small + ready_big) / 2) is small
        assert swapper.pending == 0
        assert swapper.poll(ready_big + 1.0) is None
        assert pool.models[0] is small
        assert swapper.swaps_committed == 1

    def test_commit_skips_failed_devices(self, drift_setup):
        compiled, retrained, _, _ = drift_setup
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(0, at_s=0.0,
                                          mode="device_loss"))
        with pytest.raises(Exception):
            pool.try_invoke(
                0,
                compiled.model.input_spec.qparams.quantize(
                    np.zeros((1, NUM_FEATURES), dtype=np.float32)
                ),
                at_s=0.5,
            )
        swapper = ModelSwapper(pool)
        swapper.schedule(retrained, at_s=0.0)
        swapper.poll(1e9)
        assert pool.models[0] is None
        assert pool.models[1] is retrained

    def test_invalid_schedule_time(self, drift_setup):
        compiled, retrained, _, _ = drift_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        with pytest.raises(ValueError):
            ModelSwapper(pool).schedule(retrained, at_s=-1.0)

    def test_schedule_rejects_another_input_width(self, drift_setup):
        # A 20-wide model cannot replace the 16-wide one mid-stream:
        # every queued request would fail at the first batch after the
        # commit, after the pool had already reloaded.
        compiled, _, _, _ = drift_setup
        stream = DriftingStream(
            StreamConfig(num_features=20, num_classes=NUM_CLASSES),
            seed=31,
        )
        wider = train_compiled(*stream.next_batch(200), seed=32)
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        with pytest.raises(ValueError,
                           match="takes 20 features but the pool serves "
                                 "a model taking 16"):
            swapper.schedule(wider, at_s=0.0)
        assert swapper.pending == 0
        assert pool.models[0] is compiled


class TestServedSwap:
    def _serve(self, drift_setup, swap):
        compiled, retrained, trace, cut = drift_setup
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool) if swap else None
        server = InferenceServer(
            pool, ServeConfig(max_batch=16, slack_s=0.001),
            swapper=swapper,
        )
        if swap:
            swapper.schedule(retrained, at_s=trace[cut].arrival_s)
        return server.serve(trace)

    def test_swap_recovers_accuracy(self, drift_setup):
        static = self._serve(drift_setup, swap=False)
        swapped = self._serve(drift_setup, swap=True)
        assert len(swapped.swap_records) == 1
        record = swapped.swap_records[0]
        assert record.committed_s >= record.scheduled_s
        assert record.modelgen_seconds > 0
        assert record.load_seconds > 0
        static_windows = static.windowed_accuracy(4)
        swap_windows = swapped.windowed_accuracy(4)
        assert swap_windows[-1] > static_windows[-1]
        # The SLA workload drifting at 0.08 per request over 1,200
        # requests: a model retrained on the 300 requests before the
        # midpoint, swapped in there, recovers at least 0.15 accuracy
        # in the last of six windows.
        compiled, trace = sla_workload(drift_rate=0.08, num_requests=1200)
        window = trace[300:600]
        retrained = sla_compiled(
            np.stack([r.features for r in window]),
            np.array([r.label for r in window], dtype=np.int64), seed=5,
        )

        def serve(swap):
            pool = DevicePool(2)
            pool.load_replicated(compiled)
            swapper = ModelSwapper(pool) if swap else None
            server = InferenceServer(pool, SLA_DYNAMIC, swapper=swapper)
            if swap:
                swapper.schedule(retrained, at_s=trace[600].arrival_s)
            return server.serve(trace)

        static, swapped = serve(False), serve(True)
        assert swapped.swap_records
        recovery = (swapped.windowed_accuracy(6)[-1]
                    - static.windowed_accuracy(6)[-1])
        assert recovery >= 0.15

    def test_old_model_serves_until_commit(self, drift_setup):
        compiled, retrained, trace, cut = drift_setup
        static = self._serve(drift_setup, swap=False)
        swapped = self._serve(drift_setup, swap=True)
        commit = swapped.swap_records[0].committed_s
        before = [r.request_id for r in trace
                  if r.arrival_s < commit - 0.05]
        # Requests completed well before the commit saw the old model.
        early = np.array(before[:len(before) // 2])
        np.testing.assert_array_equal(
            swapped.predictions[early], static.predictions[early]
        )

    def test_swap_report_summary(self, drift_setup):
        swapped = self._serve(drift_setup, swap=True)
        summary = swapped.summary()
        assert summary["swaps_committed"] == 1
        assert summary["swap_s"] > 0

    def test_swap_load_accounted_per_device(self, drift_setup):
        static = self._serve(drift_setup, swap=False)
        swapped = self._serve(drift_setup, swap=True)
        # No swap, no swap-load time.
        assert static.device_swap_seconds == [0.0, 0.0]
        # The commit blocked both healthy devices for the reload; that
        # time is charged as swap-load, not silently folded into idle.
        assert len(swapped.device_swap_seconds) == 2
        assert sum(swapped.device_swap_seconds) > 0
        assert swapped.summary()["swap_load_s"] == pytest.approx(
            sum(swapped.device_swap_seconds)
        )
        # busy + swap-load + idle tiles the makespan on every device.
        for busy, load, idle in zip(swapped.device_busy_seconds,
                                    swapped.device_swap_seconds,
                                    swapped.device_idle_seconds):
            assert busy + load + idle == pytest.approx(swapped.makespan_s)
        # Accounting is report-only: modeled completions are unchanged
        # relative to the same run's event times (utilization only adds
        # the swap window to the denominator).
        assert swapped.utilization < 1.0
