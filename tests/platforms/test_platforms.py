"""Tests for the platform cost models."""

import pytest

from repro.edgetpu import EdgeTpuArch
from repro.platforms import (
    CpuSpec,
    EnergyReport,
    MobileCpu,
    RaspberryPi3,
    VirtualClock,
    energy_joules,
)
from repro.runtime import CostModel


class TestCpuSpec:
    def test_rejects_nonpositive_throughput(self):
        with pytest.raises(ValueError):
            CpuSpec("x", matmul_gflops=0, memory_gbps=1,
                    tanh_ns_per_element=1, per_call_overhead_s=0, power_w=1)

    def test_rejects_negative_overhead(self):
        with pytest.raises(ValueError):
            CpuSpec("x", matmul_gflops=1, memory_gbps=1,
                    tanh_ns_per_element=1, per_call_overhead_s=-1, power_w=1)


class TestCpuPlatform:
    def test_matmul_compute_bound(self):
        cpu = MobileCpu()
        # A large square matmul is compute bound: time ~ flops / rate.
        t = cpu.matmul_seconds(1000, 1000, 1000)
        expected = 2e9 / (44.0 * 1e9)
        assert t == pytest.approx(expected, rel=0.2)

    def test_matmul_memory_bound_for_skinny_shapes(self):
        cpu = MobileCpu()
        # (1, 1, huge) moves data but does almost no flops.
        t = cpu.matmul_seconds(1, 1, 10_000_000)
        bandwidth_time = 4.0 * 2 * 10_000_000 / (12.0 * 1e9)
        assert t >= bandwidth_time * 0.9

    def test_tanh_linear_in_elements(self):
        cpu = MobileCpu()
        base = cpu.tanh_seconds(0)
        t1 = cpu.tanh_seconds(1_000_000) - base
        t2 = cpu.tanh_seconds(2_000_000) - base
        assert t2 == pytest.approx(2 * t1, rel=1e-6)

    def test_pi_slower_than_host(self):
        host, pi = MobileCpu(), RaspberryPi3()
        assert pi.matmul_seconds(100, 100, 100) > \
            host.matmul_seconds(100, 100, 100)
        assert pi.tanh_seconds(10_000) > host.tanh_seconds(10_000)

    def test_elementwise_bandwidth_bound(self):
        cpu = MobileCpu()
        t = cpu.elementwise_seconds(1_000_000, bytes_per_element=4)
        assert t == pytest.approx(
            2 * 4e6 / (12.0 * 1e9) + cpu.spec.per_call_overhead_s
        )

    def test_argmax_cheaper_than_matmul(self):
        cpu = MobileCpu()
        assert cpu.argmax_seconds(1000, 10) < \
            cpu.matmul_seconds(1000, 10_000, 10)

    def test_validation(self):
        cpu = MobileCpu()
        with pytest.raises(ValueError):
            cpu.matmul_seconds(0, 1, 1)
        with pytest.raises(ValueError):
            cpu.tanh_seconds(-1)
        with pytest.raises(ValueError):
            cpu.elementwise_seconds(-1)
        with pytest.raises(ValueError):
            cpu.argmax_seconds(-1, 1)
        with pytest.raises(ValueError):
            cpu.call_overhead_seconds(-1)

    def test_call_overhead_scales(self):
        cpu = MobileCpu()
        assert cpu.call_overhead_seconds(10) == \
            pytest.approx(10 * cpu.spec.per_call_overhead_s)


class TestCostModelTpuPricing:
    """The Edge TPU as the analytic figures price it: ``CostModel``'s
    shape-only HDC stacks through the arch's latency model."""

    def test_invoke_includes_dispatch_floor(self):
        cm = CostModel(arch=EdgeTpuArch())
        assert cm.invoke_seconds([(10, 10)], 1) > cm.arch.invoke_overhead_s

    def test_batching_amortizes(self):
        cm = CostModel(arch=EdgeTpuArch())
        layers = [(700, 10_000)]
        per1 = cm.invoke_seconds(layers, 1)
        per256 = cm.invoke_seconds(layers, 256) / 256
        assert per256 < per1

    def test_streaming_penalty_for_oversized_weights(self):
        cm = CostModel(arch=EdgeTpuArch())
        arch = cm.arch
        small = cm.invoke_seconds([(1000, 1000)], 1)
        big = cm.invoke_seconds([(4000, 4000)], 1)  # 16 MB > 8 MiB buffer
        streamed = 4000 * 4000 + 256 - arch.parameter_buffer_bytes
        assert big > small + arch.transfer_time(streamed) * 0.9
        plans = [arch.plan("encode", "FULLY_CONNECTED", 4000 * 4000,
                           4000, 4000),
                 arch.plan("tanh", "TANH", 256, 4000, 4000)]
        assert arch.invoke_breakdown(plans, 1)["weight_streaming"] == \
            arch.transfer_time(streamed)

    def test_model_load_scales_with_size(self):
        arch = EdgeTpuArch()
        assert arch.load_seconds(10_000_000) > arch.load_seconds(1_000)
        assert CostModel(arch=arch).modelgen_seconds(10_000_000) > \
            CostModel(arch=arch).modelgen_seconds(1_000)

    def test_validation(self):
        cm = CostModel(arch=EdgeTpuArch())
        with pytest.raises(ValueError):
            cm.invoke_seconds([], 1)
        with pytest.raises(ValueError):
            cm.invoke_seconds([(10, 10)], 0)
        with pytest.raises(ValueError):
            cm.arch.invoke_breakdown([], 1)
        with pytest.raises(ValueError):
            cm.arch.load_seconds(-1)


class TestVirtualClock:
    def test_accumulates(self):
        clock = VirtualClock()
        clock.charge("a", 1.0)
        clock.charge("b", 2.0)
        clock.charge("a", 0.5)
        assert clock.elapsed() == pytest.approx(3.5)
        assert clock.phase("a") == pytest.approx(1.5)
        assert clock.phase("missing") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            VirtualClock().charge("a", -1.0)

    def test_phases_copy(self):
        clock = VirtualClock()
        clock.charge("a", 1.0)
        phases = clock.phases()
        phases["a"] = 99.0
        assert clock.phase("a") == 1.0


class TestEnergy:
    def test_energy_joules(self):
        assert energy_joules(2.0, 3.0) == 6.0

    def test_energy_validation(self):
        with pytest.raises(ValueError):
            energy_joules(0.0, 1.0)
        with pytest.raises(ValueError):
            energy_joules(1.0, -1.0)

    def test_report_efficiency(self):
        tpu = EnergyReport("tpu", seconds=1.0, power_w=2.0)
        pi = EnergyReport("pi", seconds=10.0, power_w=3.7)
        assert tpu.joules == 2.0
        assert tpu.efficiency_vs(pi) == pytest.approx(18.5)

    def test_similar_power_claim(self):
        # The paper's framing: host-CPU+TPU vs Pi 3 at "similar power".
        # The Edge TPU active power (2 W) is below the Pi's (3.7 W).
        from repro.platforms import RASPBERRY_PI3_SPEC
        from repro.edgetpu import EdgeTpuArch
        assert EdgeTpuArch().active_power_w < RASPBERRY_PI3_SPEC.power_w
