"""The accelerator compiler: legality checks, op mapping, latency plans.

Mirrors what ``edgetpu_compiler`` does to a ``.tflite`` file,
generalized over the :class:`~repro.edgetpu.backend.AcceleratorArch`
backend protocol:

- verifies ops are on the backend's supported-op list
  (:meth:`AcceleratorArch.supports` — int8 legality for every current
  backend);
- maps the maximal *prefix* of supported ops to the device (the real
  compiler creates a single device subgraph; anything after the first
  unsupported op stays on the CPU — for the paper's models that is only
  the final ARGMAX);
- checks whether the model's parameters fit the backend's on-device
  buffer (models that do not fit stream the excess over the attach link
  per invocation);
- produces per-op cycle plans from the backend's cost model
  (:meth:`AcceleratorArch.plan_op` over the backend's ``op_cycles`` —
  the systolic-array model for the Edge TPU backends, event routing for
  the neuromorphic backend), which the arch's shared latency model
  (:meth:`AcceleratorArch.invoke_breakdown`) prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import AcceleratorArch, OpPlan, default_supports
from repro.tflite.flatmodel import FlatModel
from repro.tflite.ops import Op

__all__ = [
    "CompileError",
    "CompiledModel",
    "InvokeResult",
    "OpPlan",
    "compile_model",
    "is_op_supported",
]


class CompileError(Exception):
    """Raised when a model cannot be mapped to the device at all."""


@dataclass(frozen=True)
class InvokeResult:
    """Output and timing of one device invocation.

    Attributes:
        outputs: Raw output of the last *TPU* op (int8 activations; any
            CPU-fallback ops run on the host afterwards, see
            :func:`~repro.runtime.executor.run_host_tail`); ``None`` for
            a timing-only charge (:meth:`CompiledModel.invoke_cost`).
        elapsed_s: Modeled seconds for this invocation.
        breakdown: Per-term seconds: ``overhead``, ``input_transfer``,
            ``weight_streaming``, ``compute``, ``output_transfer``.
        bytes_in: Activation bytes shipped to the device this invoke.
        bytes_out: Activation bytes returned by the device this invoke.
    """

    outputs: np.ndarray | None
    elapsed_s: float
    breakdown: dict
    bytes_in: int = 0
    bytes_out: int = 0


def is_op_supported(op: Op) -> bool:
    """Whether the Edge TPU executes this op.

    Fully-connected and tanh are on the Edge TPU supported-ops list;
    ARGMAX is not and falls back to the host CPU (matching the real
    compiler's behaviour for the paper's classification models).  This
    is the shared int8 legality check every current backend uses;
    backends with a different surface override
    :meth:`AcceleratorArch.supports`.
    """
    return default_supports(op)


@dataclass
class CompiledModel:
    """A model after accelerator compilation.

    Attributes:
        model: The source flat model (kernels are shared — execution on
            the device is bit-identical to the reference interpreter).
        arch: Target architecture (any registered backend).
        tpu_ops: Ops mapped to the device (a prefix of ``model.ops``).
        cpu_ops: Trailing ops left on the host CPU.
        plans: One :class:`OpPlan` per device op.
    """

    model: FlatModel
    arch: AcceleratorArch
    tpu_ops: list[Op]
    cpu_ops: list[Op]
    plans: list[OpPlan] = field(default_factory=list)
    # What is derived from this model, derived once: the timing-only
    # invoke record per batch size, and the recompilation per arch.
    # No bound is needed: every key is a batch size an owner ran (at
    # most a server's max_batch, or a device's largest batch) or an
    # arch a device has.
    _costs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _variants: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    @property
    def fully_mapped(self) -> bool:
        """True when every op runs on the TPU."""
        return not self.cpu_ops

    @property
    def weight_bytes(self) -> int:
        """Parameter bytes the TPU subgraph needs resident."""
        return sum(plan.weight_bytes for plan in self.plans)

    @property
    def fits_on_chip(self) -> bool:
        """Whether all parameters fit the on-chip buffer."""
        return self.weight_bytes <= self.arch.parameter_buffer_bytes

    @property
    def streamed_bytes_per_invoke(self) -> int:
        """Parameter bytes re-streamed over USB on every invocation."""
        return max(0, self.weight_bytes - self.arch.parameter_buffer_bytes)

    @property
    def tpu_input_bytes(self) -> int:
        """int8 activation bytes sent to the device per sample."""
        return self.plans[0].input_dim if self.plans else 0

    @property
    def tpu_output_bytes(self) -> int:
        """int8 activation bytes returned from the device per sample."""
        return self.plans[-1].output_dim if self.plans else 0

    def compute_cycles(self, batch: int) -> float:
        """MXU + vector-unit cycles for one invocation of ``batch`` rows."""
        return sum(plan.cycles(batch) for plan in self.plans)

    def invoke_cost(self, batch: int) -> InvokeResult:
        """The timing-only record of one ``invoke()`` with ``batch`` rows.

        The arch's :meth:`~AcceleratorArch.invoke_breakdown` of this
        model's plans (keyed, in accumulation order, ``overhead``,
        ``input_transfer``, ``weight_streaming``, ``compute``,
        ``output_transfer``), its terms added left to right
        (:meth:`~AcceleratorArch.invoke_seconds`), and the activation
        bytes in and out; ``outputs`` is ``None``.  Memoized per batch
        size: every device running this model charges the same record
        object.  Treat it, breakdown included, as read-only.
        """
        cost = self._costs.get(batch)
        if cost is None:
            if batch < 1:
                raise ValueError(f"batch must be >= 1, got {batch}")
            cost = self._costs[batch] = InvokeResult(
                outputs=None,
                elapsed_s=self.arch.invoke_seconds(self.plans, batch),
                breakdown=self.arch.invoke_breakdown(self.plans, batch),
                bytes_in=batch * self.tpu_input_bytes,
                bytes_out=batch * self.tpu_output_bytes,
            )
        return cost

    def invoke_breakdown(self, batch: int) -> dict:
        """Per-term modeled seconds of one ``invoke()`` with ``batch``
        rows (:meth:`invoke_cost`'s; treat as read-only)."""
        return self.invoke_cost(batch).breakdown

    def invoke_seconds(self, batch: int) -> float:
        """Modeled wall time of one ``invoke()`` with ``batch`` rows:
        :meth:`invoke_cost`'s, which every device charge reads."""
        return self.invoke_cost(batch).elapsed_s

    def variant(self, arch: AcceleratorArch) -> "CompiledModel":
        """This model compiled for ``arch``.

        Itself when ``arch`` equals its own; otherwise
        :func:`compile_model` of the same flat model, compiled once per
        arch, so every pool and placement on a mixed fleet shares one
        variant (and its cost records).  Variants share the flat
        model's kernels: predictions are bit-identical across backends.
        """
        if self.arch == arch:
            return self
        variant = self._variants.get(arch)
        if variant is None:
            variant = self._variants[arch] = compile_model(self.model, arch)
        return variant

    def load_seconds(self) -> float:
        """Modeled one-time cost of pushing the model to the device."""
        return self.arch.load_seconds(self.model.size_bytes())

    def summary(self) -> str:
        """Compiler report in the style of ``edgetpu_compiler`` logs."""
        lines = [
            f"Edge TPU compilation of {self.model.name!r}:",
            f"  ops mapped to TPU : {len(self.tpu_ops)}",
            f"  ops on CPU        : {len(self.cpu_ops)}"
            + (f" ({', '.join(op.kind for op in self.cpu_ops)})"
               if self.cpu_ops else ""),
            f"  parameter bytes   : {self.weight_bytes}"
            + ("" if self.fits_on_chip else
               f" (exceeds {self.arch.parameter_buffer_bytes} on-chip; "
               f"{self.streamed_bytes_per_invoke} streamed per invoke)"),
        ]
        for plan in self.plans:
            lines.append(
                f"    {plan.name:<16} {plan.kind:<16} "
                f"{plan.input_dim:>6} -> {plan.output_dim:<6} "
                f"fixed={plan.fixed_cycles} per-row={plan.cycles_per_row:.1f}"
            )
        return "\n".join(lines)


def compile_model(model: FlatModel, arch: AcceleratorArch | None = None
                  ) -> CompiledModel:
    """Compile a flat model for an accelerator backend.

    Args:
        model: The quantized model.
        arch: Target architecture (defaults to the standard USB Edge TPU).

    Returns:
        The compiled model with its device/CPU partition and latency
        plans (from ``arch.plan_op``).

    Raises:
        CompileError: If not even the first op can map to the device
            (the accelerator would contribute nothing).
    """
    if arch is None:
        arch = EdgeTpuArch()
    tpu_ops: list[Op] = []
    cpu_ops: list[Op] = []
    plans: list[OpPlan] = []
    width = model.input_spec.size
    mapping_to_tpu = True
    for op in model.ops:
        if mapping_to_tpu and arch.supports(op):
            plans.append(arch.plan_op(op, width))
            tpu_ops.append(op)
        else:
            mapping_to_tpu = False
            cpu_ops.append(op)
        width = op.output_dim(width)
    if not tpu_ops:
        first = model.ops[0]
        raise CompileError(
            f"no ops could be mapped to the Edge TPU (first op "
            f"{first.name!r} of kind {first.kind} is unsupported)"
        )
    return CompiledModel(model=model, arch=arch, tpu_ops=tpu_ops,
                         cpu_ops=cpu_ops, plans=plans)
