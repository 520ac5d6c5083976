"""Edge TPU simulator: compiler, systolic MXU, device, and device pool.

The paper runs its quantized HDC models on a Google Edge TPU attached
over USB 3.0.  This package substitutes a simulator that preserves what
the paper's evaluation depends on:

- **Functional fidelity**: the device executes the same int8 kernels as
  the reference interpreter, so accelerator outputs are bit-identical to
  CPU outputs (as on the real device).
- **Performance structure**: a weight-stationary 64x64 systolic MXU with
  a cycle model, an 8 MiB on-chip parameter buffer, USB transfer costs
  for inputs/outputs/model load, and a fixed per-invocation dispatch
  overhead.  These are exactly the terms that produce the paper's
  runtime shapes (e.g. Fig. 10's speedup-vs-feature-count curve and the
  PAMAP2 counterexample).
- **Compiler legality**: int8-only, a supported-op list (fully-connected
  and tanh map to the TPU; argmax falls back to the host CPU, as with
  the real Edge TPU compiler).
"""

from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import (
    AcceleratorArch,
    backend_names,
    make_arch,
    register_backend,
)
from repro.edgetpu.hostcpu import HostCpuArch
from repro.edgetpu.neuromorphic import NeuromorphicArch
from repro.edgetpu.systolic import SystolicArray, systolic_cycles
from repro.edgetpu.compiler import (
    CompileError,
    CompiledModel,
    OpPlan,
    compile_model,
    is_op_supported,
)
from repro.edgetpu.device import EdgeTpuDevice, InvokeResult
from repro.edgetpu.multidevice import (
    DeviceFailedError,
    DevicePool,
    FailurePlan,
)
from repro.edgetpu.program import Instruction, Program, lower

__all__ = [
    "AcceleratorArch",
    "CompileError",
    "CompiledModel",
    "DeviceFailedError",
    "DevicePool",
    "EdgeTpuArch",
    "EdgeTpuDevice",
    "FailurePlan",
    "HostCpuArch",
    "Instruction",
    "InvokeResult",
    "NeuromorphicArch",
    "OpPlan",
    "Program",
    "SystolicArray",
    "backend_names",
    "compile_model",
    "is_op_supported",
    "lower",
    "make_arch",
    "register_backend",
    "systolic_cycles",
]
