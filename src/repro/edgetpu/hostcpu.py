"""A host-CPU (Raspberry Pi class) backend.

The paper's Sec. IV-E counterexample — few-feature workloads gain
nothing from the accelerator — needs the *non*-accelerated alternative
to be a first-class fleet member, not a special case.  This backend
models a small ARM host (Pi 4 class: four cores, NEON int8 dot
products) through the same
:class:`~repro.edgetpu.backend.AcceleratorArch` protocol: an in-memory
"attach link" (memcpy bandwidth, so transfer terms nearly vanish),
microsecond dispatch, dense-MAC compute with no pipeline fill, and
board-level power well above an accelerator's.

The placement optimizer offloads narrow tenants here: below the
crossover feature count, the TPU's fixed per-invoke (dispatch + USB
round-trip) cost outweighs the matmul it saves — the Fig. 10 boundary
:class:`~repro.runtime.placement.PlacementOptimizer` reproduces on a
{pi-cpu, edgetpu} fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgetpu.backend import (
    AcceleratorArch,
    Instruction,
    register_backend,
)

__all__ = ["HostCpuArch"]


@dataclass(frozen=True)
class HostCpuArch(AcceleratorArch):
    """Parameters of the host-CPU backend.

    Attributes:
        cores: CPU cores used by the int8 kernels.
        macs_per_cycle_per_core: int8 MACs one core *sustains* per
            clock — sustained NEON GEMM throughput on an in-order
            memory system, well below the dot-product peak.
        clock_hz: CPU clock.
        parameter_buffer_bytes: Weights live in main memory; effectively
            unbounded next to the paper's models, so nothing streams.
        link_bytes_per_s: Memcpy bandwidth standing in for the attach
            link (activations never leave the host).
        invoke_overhead_s: Function-call scale dispatch cost.
        model_setup_s: Weight layout / page-in on first load.
        idle_power_w: Board idle draw.
        active_power_w: Board draw under load — the flip side of the
            trade: no dispatch overhead, but every joule is paid at CPU
            rates.
    """

    backend = "pi-cpu"

    cores: int = 4
    macs_per_cycle_per_core: int = 2
    clock_hz: float = 1.5e9
    parameter_buffer_bytes: int = 512 * 1024 * 1024
    link_bytes_per_s: float = 8e9
    invoke_overhead_s: float = 2e-6
    model_setup_s: float = 1e-3
    idle_power_w: float = 2.0
    active_power_w: float = 5.0

    def __post_init__(self) -> None:
        if self.cores < 1 or self.macs_per_cycle_per_core < 1:
            raise ValueError("cores and MACs/core/cycle must be >= 1")
        if self.clock_hz <= 0 or self.link_bytes_per_s <= 0:
            raise ValueError("clock and link bandwidth must be > 0")
        if self.parameter_buffer_bytes < 0:
            raise ValueError("parameter buffer size must be >= 0")

    @property
    def macs_per_cycle(self) -> float:
        """Aggregate int8 MAC throughput per clock."""
        return float(self.cores * self.macs_per_cycle_per_core)

    def op_cycles(self, kind: str, input_dim: int,
                  output_dim: int) -> tuple[int, float]:
        """Dense cycle plan: MACs / SIMD throughput, no pipeline fill."""
        if kind == "FULLY_CONNECTED":
            return 0, -(-(input_dim * output_dim) // self.macs_per_cycle)
        # Scalar LUT activation: ~4 cycles per element, split over cores.
        return 0, -(-(output_dim * 4) // self.cores)

    def lower_op(self, op, width: int, batch: int) -> list[Instruction]:
        """CPU lowering: one SIMD kernel call per op."""
        plan = self.plan_op(op, width)
        if op.kind == "FULLY_CONNECTED":
            return [Instruction(
                "SIMD_MATMUL", f"{op.name} ({self.cores} cores)",
                cycles=plan.cycles(batch),
            )]
        return [Instruction(
            "LUT_ACTIVATE", f"{op.name} ({op.kind.lower()})",
            cycles=plan.cycles(batch),
        )]

    def describe(self) -> dict:
        payload = super().describe()
        payload["cores"] = self.cores
        payload["macs_per_cycle"] = self.macs_per_cycle
        return payload


register_backend("pi-cpu", HostCpuArch)
