"""Tests for the fleet placement optimizer (the operationalized Fig. 10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.traffic import TenantSpec
from repro.config import BackendSpec, FleetSpec
from repro.data import TABLE_I
from repro.edgetpu import compile_model
from repro.nn.builder import inference_network
from repro.runtime.placement import PlacementOptimizer
from repro.tflite import FlatModel, TensorSpec, convert
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric

# ---------------------------------------------------------------------
# Fig. 10 parity.  An equal-price {pi-cpu, edgetpu} fleet, one sample
# per invoke (the paper's real-time mode) and one 100 Hz tenant with a
# 1 s deadline: every option fits on one device, so price ties and the
# faster backend for the model's shape wins.  That is the question the
# Fig. 10 curve answers — does the feature count cover the TPU's fixed
# per-invoke cost?
# ---------------------------------------------------------------------

_DIMENSION = 10_000
_SWEEP = tuple(range(10, 201, 10))
_SWEEP_CLASSES = 26


@pytest.fixture(scope="module")
def paper_model():
    """Memoized d=10,000 inference network per (features, classes),
    compiled for the stock Edge TPU (the optimizer recompiles it for
    every other backend)."""
    models = {}

    def build(num_features, num_classes):
        key = (num_features, num_classes)
        if key not in models:
            rng = np.random.default_rng(num_features)
            network = inference_network(
                rng.standard_normal((num_features, _DIMENSION))
                .astype(np.float32),
                rng.standard_normal((_DIMENSION, num_classes))
                .astype(np.float32),
                include_argmax=True,
            )
            calibration = rng.standard_normal(
                (8, num_features)).astype(np.float32)
            models[key] = compile_model(convert(network, calibration))
        return models[key]

    return build


@pytest.fixture(scope="module")
def fig10(paper_model):
    """``place(num_features, num_classes, tpu_cost=1.0, name=...,
    **tpu_overrides)`` -> the Fig. 10 fleet's placement."""

    def place(num_features, num_classes, tpu_cost=1.0, name="realtime",
              **tpu_overrides):
        fleet = FleetSpec(backends=(
            BackendSpec("edgetpu", count=4, unit_cost=tpu_cost,
                        overrides=tpu_overrides),
            BackendSpec("pi-cpu", count=4),
        ), energy_weight=0.0)
        tenant = TenantSpec(name, rate_hz=100.0, deadline_s=1.0)
        return PlacementOptimizer(fleet, buckets=(1,)).place(
            paper_model(num_features, num_classes), [tenant])

    return place


@pytest.fixture(scope="module")
def crossover(fig10):
    """``crossover(**tpu_overrides)`` -> the sweep's groups and its
    first TPU placement (``None`` when the CPU wins throughout)."""
    sweeps = {}

    def sweep(**tpu_overrides):
        key = tuple(sorted(tpu_overrides.items()))
        if key not in sweeps:
            groups = [
                fig10(n, _SWEEP_CLASSES, **tpu_overrides)
                .decisions[0].group
                for n in _SWEEP
            ]
            first = next((n for n, group in zip(_SWEEP, groups)
                          if group == "edgetpu"), None)
            sweeps[key] = (groups, first)
        return sweeps[key]

    return sweep


def _table_i(fig10, name, **kwargs):
    spec = TABLE_I[name]
    return fig10(spec.num_features, spec.num_classes, name=name,
                 **kwargs).decisions[0]


class TestAdvisor:
    """The placement verdicts of the paper's Sec. IV-E, as answered by
    the optimizer on the Fig. 10 fleet."""

    def test_pamap2_stays_on_cpu(self, fig10, paper_model):
        decision = _table_i(fig10, "pamap2")
        assert decision.group == "pi-cpu"
        assert decision.feasible
        # Latency broke the price tie: 27 features do not cover the
        # TPU's fixed per-invoke cost.
        spec = TABLE_I["pamap2"]
        tpu_s = paper_model(spec.num_features,
                            spec.num_classes).invoke_seconds(1)
        assert decision.service_s < tpu_s

    def test_mnist_goes_to_tpu(self, fig10):
        decision = _table_i(fig10, "mnist")
        assert decision.group == "edgetpu"
        assert decision.feasible

    def test_all_wide_datasets_go_to_tpu(self, fig10):
        for name in ("face", "isolet", "ucihar"):
            assert _table_i(fig10, name).group == "edgetpu", name

    def test_margin_keeps_marginal_work_on_cpu(self, fig10):
        # A TPU priced 100x the CPU must beat it by more than latency:
        # the CPU meets MNIST's deadline, so the work stays there.
        decision = _table_i(fig10, "mnist", tpu_cost=100.0)
        assert decision.group == "pi-cpu"
        assert decision.feasible

    def test_summary_mentions_devices(self, fig10):
        spec = TABLE_I["pamap2"]
        text = fig10(spec.num_features, spec.num_classes,
                     name="pamap2").summary()
        assert "pi-cpu" in text and "pamap2" in text


class TestBatchSelection:
    """Bucket choice under a deadline on the same two-backend fleet
    (default energy weight, so bigger buckets save power)."""

    @staticmethod
    def _decision(paper_model, deadline_s, buckets=(1, 2, 4, 8, 16, 32)):
        fleet = FleetSpec(backends=(BackendSpec("edgetpu", count=4),
                                    BackendSpec("pi-cpu", count=4)))
        spec = TABLE_I["mnist"]
        return PlacementOptimizer(fleet, buckets=buckets).place(
            paper_model(spec.num_features, spec.num_classes),
            [TenantSpec("mnist", rate_hz=100.0, deadline_s=deadline_s)],
        ).decisions[0]

    def test_unbounded_budget_picks_largest(self, paper_model):
        decision = self._decision(paper_model, deadline_s=10.0)
        assert decision.bucket == 32
        assert decision.feasible

    def test_tight_budget_picks_small_batch(self, paper_model):
        # A ~105 us budget only fits one-sample batches: batch 1 costs
        # ~93 us, and a second sample at 100 Hz waits 10 ms to arrive.
        decision = self._decision(paper_model, deadline_s=105e-6)
        assert decision.bucket <= 2
        assert decision.feasible

    def test_impossible_budget_falls_back_to_min(self, paper_model):
        decision = self._decision(paper_model, deadline_s=1e-9)
        assert decision.bucket == 1
        assert not decision.feasible

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError, match="buckets"):
            PlacementOptimizer(FleetSpec(), buckets=())


class TestCrossover:
    """The Fig. 10 feature sweep (k=26) on the two-backend fleet."""

    def test_crossover_near_paper_value(self, crossover):
        # Fig. 10 shows encoding breakeven around 20 features; one-sample
        # inference also pays the classify layer and the argmax tail, so
        # its crossover sits higher, inside the same band.
        _, first = crossover()
        assert first is not None
        assert 5 <= first <= 120

    def test_pamap2_sits_at_the_crossover_mnist_far_above(self, crossover):
        # PAMAP2 (27 features) is the paper's near-breakeven workload;
        # MNIST is far above the crossover.
        _, first = crossover()
        assert first / 3 < TABLE_I["pamap2"].num_features < 3 * first
        assert TABLE_I["mnist"].num_features > 5 * first

    def test_consistent_with_speedup(self, crossover, fig10, paper_model):
        groups, first = crossover()
        # Monotone: the CPU below the crossover, the TPU from it on.
        assert groups == ["pi-cpu" if n < first else "edgetpu"
                          for n in _SWEEP]
        # Each verdict is the faster backend for that shape.
        for n in _SWEEP:
            decision = fig10(n, _SWEEP_CLASSES).decisions[0]
            tpu_s = paper_model(n, _SWEEP_CLASSES).invoke_seconds(1)
            if decision.group == "pi-cpu":
                assert decision.service_s < tpu_s, n
            else:
                assert decision.service_s == tpu_s, n

    def test_crossover_follows_invoke_overhead(self, crossover):
        # The TPU pays off once the feature count covers its fixed
        # per-invoke cost, so a cheaper invoke moves the crossover
        # down and a dearer one moves it up.
        firsts = [crossover(invoke_overhead_s=overhead)[1]
                  for overhead in (40e-6, 85e-6, 170e-6)]
        assert None not in firsts
        assert firsts[0] < firsts[1] < firsts[2]
        # 85 us is the stock Edge TPU's.
        assert firsts[1] == crossover()[1]


# ---------------------------------------------------------------------
# Fleet placement optimizer
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_compiled():
    rng = np.random.default_rng(42)
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-40.0, 40.0)
    out_qp = qparams_asymmetric(-30.0, 30.0)
    fc1 = FullyConnectedOp.from_float(
        rng.standard_normal((24, 512)).astype(np.float32), in_qp,
        hid_qp, name="encode")
    tanh = TanhOp(hid_qp, name="tanh")
    fc2 = FullyConnectedOp.from_float(
        rng.standard_normal((512, 4)).astype(np.float32) * 0.05,
        tanh.output_qparams, out_qp, name="classify")
    return compile_model(
        FlatModel("hdc", TensorSpec("input", (24,), in_qp),
                  [fc1, tanh, fc2, ArgmaxOp(out_qp)])
    )


_GROUPS = (
    BackendSpec(backend="edgetpu", count=4, unit_cost=4.0),
    BackendSpec(backend="edgetpu-small", count=4, unit_cost=1.5),
    BackendSpec(backend="pi-cpu", count=4, unit_cost=0.5),
    BackendSpec(backend="neuromorphic", count=4, unit_cost=1.0),
)

_TENANTS = (
    TenantSpec("interactive", rate_hz=900.0, deadline_s=0.02),
    TenantSpec("bursty", rate_hz=400.0, deadline_s=0.1),
    TenantSpec("background", rate_hz=100.0, deadline_s=1.0),
)


class TestPlacementOptimizer:
    def test_covers_every_tenant_sorted(self, fleet_compiled):
        placement = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled, _TENANTS)
        names = [d.tenant for d in placement.decisions]
        assert names == sorted(spec.name for spec in _TENANTS)
        assert placement.feasible
        assert placement.total_devices >= len(_TENANTS)

    def test_respects_group_capacity(self, fleet_compiled):
        placement = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled, _TENANTS)
        used = {}
        for decision in placement.decisions:
            used[decision.group] = (used.get(decision.group, 0)
                                    + decision.devices)
        counts = {spec.name: spec.count for spec in _GROUPS}
        for group, devices in used.items():
            assert devices <= counts[group]

    def test_capacity_exhaustion_raises(self, fleet_compiled):
        tiny = FleetSpec.single("edgetpu", count=1)
        many = tuple(
            TenantSpec(f"t{i}", rate_hz=50_000.0, deadline_s=0.005)
            for i in range(4)
        )
        with pytest.raises(ValueError, match="capacity exhausted"):
            PlacementOptimizer(tiny).place(fleet_compiled, many)

    def test_impossible_sla_marks_infeasible(self, fleet_compiled):
        placement = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled, (
            TenantSpec("strict", rate_hz=100.0, deadline_s=1e-9),
        ))
        decision = placement.decisions[0]
        assert not decision.feasible
        assert not placement.feasible

    def test_describe_is_json_ready(self, fleet_compiled):
        import json
        placement = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled, _TENANTS)
        json.dumps(placement.describe())
        assert "fleet placement" in placement.summary()

    @given(order=st.permutations(range(len(_GROUPS))))
    @settings(max_examples=12, deadline=None)
    def test_fleet_order_invariant(self, fleet_compiled, order):
        canonical = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled, _TENANTS)
        shuffled = PlacementOptimizer(
            FleetSpec(backends=tuple(_GROUPS[i] for i in order))
        ).place(fleet_compiled, _TENANTS)
        assert shuffled.decisions == canonical.decisions

    @given(order=st.permutations(range(len(_TENANTS))))
    @settings(max_examples=6, deadline=None)
    def test_tenant_order_invariant(self, fleet_compiled, order):
        canonical = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled, _TENANTS)
        shuffled = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(fleet_compiled,
                tuple(_TENANTS[i] for i in order))
        assert shuffled.decisions == canonical.decisions

    def test_per_tenant_models(self, fleet_compiled):
        placement = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(
            fleet_compiled,
            _TENANTS[:2],
        )
        by_dict = PlacementOptimizer(
            FleetSpec(backends=_GROUPS)
        ).place(
            {spec.name: fleet_compiled for spec in _TENANTS[:2]},
            _TENANTS[:2],
        )
        assert by_dict.decisions == placement.decisions
