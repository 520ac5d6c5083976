"""An event-driven neuromorphic-style accelerator backend.

The XL-HD line of work maps HDC onto in-memory / spiking substrates
where cost scales with *events* (non-zero activations crossing the
synapse array), not with dense MAC counts, and spikehard shows the same
model restructured across smaller neuromorphic cores.  This backend
models that regime through the standard
:class:`~repro.edgetpu.backend.AcceleratorArch` protocol:

- a fully-connected layer costs ``input_dim * output_dim *
  event_rate`` synaptic events, processed ``cores *
  events_per_core_per_cycle`` per clock — no pipeline fill, because an
  event-driven fabric has no systolic wavefront to prime;
- activations are folded into the neuron update (one neuron per core
  pass), so tanh is nearly free;
- the attach link is a slow embedded serial bus, and power is an order
  of magnitude below the Edge TPU — the trade the placement optimizer
  exploits for narrow, latency-tolerant tenants.

**Functional results are unchanged**: like every backend, the device
executes the reference int8 kernels bit-identically; only the modeled
time/energy follows the event-driven cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgetpu.backend import (
    AcceleratorArch,
    Instruction,
    register_backend,
)

__all__ = ["NeuromorphicArch"]


@dataclass(frozen=True)
class NeuromorphicArch(AcceleratorArch):
    """Parameters of the event-driven backend.

    Attributes:
        cores: Parallel neuron cores.
        events_per_core_per_cycle: Synaptic events one core retires per
            clock.
        event_rate: Mean fraction of synapses that see an event per
            sample (activation sparsity of the encoded HDC input).
        clock_hz: Core clock (event fabrics run slow and wide).
        parameter_buffer_bytes: On-chip synapse memory.
        link_bytes_per_s: Embedded serial attach link (~30 MB/s).
        invoke_overhead_s: Host dispatch cost per invocation — far below
            USB dispatch; there is no bulk-transfer round trip to set up.
        model_setup_s: One-time synapse-array programming cost.
        idle_power_w: Near-zero idle draw (event-driven fabrics gate
            their clocks).
        active_power_w: Power under load.
    """

    backend = "neuromorphic"

    cores: int = 128
    events_per_core_per_cycle: int = 4
    event_rate: float = 0.10
    clock_hz: float = 100e6
    parameter_buffer_bytes: int = 2 * 1024 * 1024
    link_bytes_per_s: float = 30e6
    invoke_overhead_s: float = 20e-6
    model_setup_s: float = 50e-3
    idle_power_w: float = 0.05
    active_power_w: float = 0.3

    def __post_init__(self) -> None:
        if self.cores < 1 or self.events_per_core_per_cycle < 1:
            raise ValueError("cores and events/core/cycle must be >= 1")
        if not 0.0 < self.event_rate <= 1.0:
            raise ValueError(
                f"event_rate must be in (0, 1], got {self.event_rate}"
            )
        if self.clock_hz <= 0 or self.link_bytes_per_s <= 0:
            raise ValueError("clock and link bandwidth must be > 0")
        if self.parameter_buffer_bytes < 0:
            raise ValueError("parameter buffer size must be >= 0")

    @property
    def events_per_cycle(self) -> float:
        """Aggregate synaptic-event throughput per clock."""
        return float(self.cores * self.events_per_core_per_cycle)

    def op_cycles(self, kind: str, input_dim: int,
                  output_dim: int) -> tuple[int, float]:
        """Event-driven cycle plan: events / fabric throughput, no fill."""
        if kind == "FULLY_CONNECTED":
            events = input_dim * output_dim * self.event_rate
            return 0, -(-events // self.events_per_cycle)
        # Activation folds into the neuron update: one pass over the
        # neurons, `cores` of them per cycle.
        return 0, -(-output_dim // self.cores)

    def lower_op(self, op, width: int, batch: int) -> list[Instruction]:
        """Event-fabric lowering: route events, then update neurons."""
        plan = self.plan_op(op, width)
        if op.kind == "FULLY_CONNECTED":
            return [Instruction(
                "ROUTE_EVENTS", f"{op.name} (rate={self.event_rate:g})",
                cycles=plan.cycles(batch),
            )]
        return [Instruction(
            "NEURON_UPDATE", f"{op.name} ({op.kind.lower()})",
            cycles=plan.cycles(batch),
        )]

    def describe(self) -> dict:
        payload = super().describe()
        payload["cores"] = self.cores
        payload["event_rate"] = self.event_rate
        payload["events_per_cycle"] = self.events_per_cycle
        return payload


register_backend("neuromorphic", NeuromorphicArch)
