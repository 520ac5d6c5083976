"""Autoscaler control loop: hysteresis, cooldown, provisioning, floor."""

import pytest

from repro.cluster import Autoscaler, AutoscalerConfig, EventEngine


class _FakeLatency:
    def __init__(self):
        self.count = 0

    def __len__(self):
        return self.count


class _FakeReport:
    def __init__(self):
        self.deadline_misses = 0
        self.latency = _FakeLatency()


class _FakePool:
    def __init__(self, devices):
        self._devices = list(range(devices))

    def healthy_indices(self):
        return list(self._devices)


class _FakeServer:
    def __init__(self, devices):
        self.pool = _FakePool(devices)


class _FakeReplica:
    def __init__(self, devices=1):
        self.queue = []
        self.report = _FakeReport()
        self.server = _FakeServer(devices)
        self.added = 0
        self.retired = []

    def add_device(self):
        index = len(self.server.pool._devices)
        self.server.pool._devices.append(index)
        self.added += 1
        return index

    def retire_device(self, index):
        self.server.pool._devices.remove(index)
        self.retired.append(index)

    def settle(self):
        pass


def _scaler(replicas, engine, alive, **knobs):
    defaults = dict(interval_s=1.0, queue_high=10, queue_low=2,
                    miss_high=0.5, miss_low=0.01, up_streak=2,
                    down_streak=3, cooldown_s=0.0, provision_s=2.0)
    defaults.update(knobs)
    return Autoscaler(AutoscalerConfig(**defaults), replicas, engine,
                      still_serving=alive)


def test_scale_up_needs_streak_and_charges_provisioning_latency():
    engine = EventEngine()
    replicas = [_FakeReplica(), _FakeReplica()]
    replicas[1].queue = [None] * 50  # hot from the start
    ticks = []
    scaler = _scaler(replicas, engine, lambda: len(ticks) < 6)
    original_tick = scaler._tick
    scaler._tick = lambda: (ticks.append(engine.now), original_tick())
    scaler.start()
    engine.run()
    ups = [e for e in scaler.events if e.action == "scale_up"]
    commits = [e for e in scaler.events if e.action == "device_online"]
    # first hot tick at t=1 only starts the streak; decision at t=2
    assert ups[0].time_s == 2.0
    assert ups[0].replica == 1  # deepest queue wins
    assert ups[0].device == -1
    # the device lands provision_s later, on the same replica
    assert commits[0].time_s == 4.0
    assert commits[0].replica == 1
    assert replicas[1].added >= 1
    assert replicas[0].added == 0


def test_cooldown_spaces_scale_ups():
    engine = EventEngine()
    replica = _FakeReplica()
    replica.queue = [None] * 50
    count = [0]

    def alive():
        count[0] += 1
        return count[0] < 12

    scaler = _scaler([replica], engine, alive, up_streak=1,
                     cooldown_s=3.0, provision_s=0.5)
    scaler.start()
    engine.run()
    ups = [e.time_s for e in scaler.events if e.action == "scale_up"]
    assert ups[0] == 1.0
    for left, right in zip(ups, ups[1:]):
        assert right - left >= 3.0


def test_scale_down_respects_per_replica_floor():
    engine = EventEngine()
    replicas = [_FakeReplica(devices=3), _FakeReplica(devices=1)]
    count = [0]

    def alive():
        count[0] += 1
        return count[0] < 10

    scaler = _scaler(replicas, engine, alive, down_streak=2,
                     min_devices=1)
    scaler.start()
    engine.run()
    downs = [e for e in scaler.events if e.action == "scale_down"]
    assert downs  # idle fleet shrinks
    # only replica 0 was above the floor; it retires its highest device
    assert all(e.replica == 0 for e in downs)
    assert replicas[0].retired[0] == 2
    assert replicas[1].retired == []
    # never below the floor
    assert len(replicas[0].server.pool.healthy_indices()) >= 1


def test_max_devices_caps_fleet_with_pending_provisions():
    engine = EventEngine()
    replica = _FakeReplica(devices=1)
    replica.queue = [None] * 50
    count = [0]

    def alive():
        count[0] += 1
        return count[0] < 20

    scaler = _scaler([replica], engine, alive, up_streak=1,
                     provision_s=100.0, max_devices=3)
    scaler.start()
    engine.run(until_s=50.0)
    # 1 online + 2 pending = max_devices: no further decisions even
    # though the provisions have not landed yet.
    ups = [e for e in scaler.events if e.action == "scale_up"]
    assert len(ups) == 2


def test_miss_rate_window_is_per_tick():
    engine = EventEngine()
    replica = _FakeReplica()
    scaler = _scaler([replica], engine, lambda: False)
    replica.report.latency.count = 100
    replica.report.deadline_misses = 10
    assert scaler._window_miss_rate() == pytest.approx(0.1)
    # next window: 50 more served, no new misses
    replica.report.latency.count = 150
    assert scaler._window_miss_rate() == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(interval_s=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(queue_low=10, queue_high=5)
    with pytest.raises(ValueError):
        AutoscalerConfig(miss_low=0.5, miss_high=0.1)
    with pytest.raises(ValueError):
        AutoscalerConfig(up_streak=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_devices=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(max_devices=1, min_devices=2)
