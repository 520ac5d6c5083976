"""Instruction-level lowering of a compiled model (device "assembly").

The compiler's :class:`~repro.edgetpu.backend.OpPlan` gives per-op cycle
totals; this module lowers a compiled model one step further, into an
explicit instruction trace of the kind a device executable contains:
DMA transfers over the attach link, then whatever the backend's
:meth:`~repro.edgetpu.backend.AcceleratorArch.lower_op` emits per op —
weight-tile loads, pipeline fills and per-tile MXU passes for the
systolic backends; event routing for the neuromorphic backend.  The
trace is *exact* with respect to the latency plan — its cycle and byte
totals reproduce ``CompiledModel.compute_cycles`` / ``invoke_seconds``
— which the tests assert, so the disassembly can be trusted when
debugging where an HDC layer's time goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgetpu.backend import Instruction
from repro.edgetpu.compiler import CompiledModel

__all__ = ["Instruction", "Program", "lower"]


@dataclass
class Program:
    """An ordered instruction trace for one device invocation.

    Attributes:
        instructions: The trace.
        compiled: The source compiled model (for timing parameters).
        batch: Rows per invocation the trace was lowered for.
    """

    instructions: list[Instruction]
    compiled: CompiledModel
    batch: int

    @property
    def total_cycles(self) -> float:
        """Sum of instruction cycles (equals the plan's compute cycles)."""
        return sum(inst.cycles for inst in self.instructions)

    @property
    def total_transfer_bytes(self) -> int:
        """Sum of DMA/stream bytes."""
        return sum(inst.bytes for inst in self.instructions)

    def seconds(self) -> float:
        """Modeled invocation time — matches ``invoke_seconds(batch)``."""
        arch = self.compiled.arch
        return (
            arch.invoke_overhead_s
            + arch.transfer_time(self.total_transfer_bytes)
            + arch.cycles_to_seconds(self.total_cycles)
        )

    def disassembly(self) -> str:
        """The trace as readable text."""
        header = (
            f"; program for {self.compiled.model.name!r} "
            f"(batch={self.batch}, {len(self.instructions)} instructions)"
        )
        return "\n".join([header] + [f"  {inst}" for inst in self.instructions])

    def count(self, opcode: str) -> int:
        """Number of instructions with the given opcode."""
        return sum(1 for inst in self.instructions if inst.opcode == opcode)


def lower(compiled: CompiledModel, batch: int = 1) -> Program:
    """Lower a compiled model into its per-invocation instruction trace.

    The DMA frame (input activations in, parameter spill stream, output
    activations out) is backend-independent; the per-op body comes from
    the target backend's ``lower_op`` hook.  Lowering is deterministic:
    the same ``(compiled, batch)`` always gives the same trace.

    Args:
        compiled: The compiled model.
        batch: Rows per invocation.

    Raises:
        ValueError: For a non-positive batch.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    arch = compiled.arch
    instructions: list[Instruction] = []
    instructions.append(Instruction(
        "DMA_IN", "input activations",
        bytes=batch * compiled.tpu_input_bytes,
    ))
    if compiled.streamed_bytes_per_invoke:
        instructions.append(Instruction(
            "STREAM_WEIGHTS", "off-chip parameter spill",
            bytes=compiled.streamed_bytes_per_invoke,
        ))
    width = compiled.model.input_spec.size
    for op in compiled.tpu_ops:
        instructions.extend(arch.lower_op(op, width, batch))
        width = op.output_dim(width)
    instructions.append(Instruction(
        "DMA_OUT", "output activations",
        bytes=batch * compiled.tpu_output_bytes,
    ))
    return Program(instructions=instructions, compiled=compiled, batch=batch)
