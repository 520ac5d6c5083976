"""The accelerator backend protocol and registry.

:mod:`repro.edgetpu` started life as a single hard-coded 64x64 Edge TPU
simulator; this module is the seam that turns it into a backend
*framework*.  An accelerator backend is an :class:`AcceleratorArch`: a
frozen parameter bundle (clock, attach link, parameter-memory
hierarchy, power) plus the three hooks that make the generic machinery
— :func:`~repro.edgetpu.compiler.compile_model`,
:class:`~repro.edgetpu.device.EdgeTpuDevice`,
:func:`~repro.edgetpu.program.lower` — work unchanged for any backend:

- :meth:`AcceleratorArch.supports` — the backend's supported-op list
  (the compiler maps the maximal supported prefix, exactly as before);
- :meth:`AcceleratorArch.op_cycles` — the backend's cost model for one
  mapped op: ``(fixed_cycles, cycles_per_row)`` for an op kind and
  shape, which the base class wraps in an :class:`OpPlan`;
- :meth:`AcceleratorArch.lower_op` — the backend's instruction-level
  lowering of one mapped op (systolic tile loops for the MXU, event
  routing for a neuromorphic core), whose cycle totals must reproduce
  the op plan exactly.

The latency model is the base class's
:meth:`~AcceleratorArch.invoke_breakdown` over a list of op plans (from
``transfer_time``, ``cycles_to_seconds`` and ``invoke_overhead_s``) plus
:meth:`~AcceleratorArch.load_seconds`.  Every device charge and every analytic figure
(:class:`~repro.runtime.costs.CostModel` prices shape-only plans) reads
it, so a new backend needs only a dataclass implementing the hooks.
**Functional results never depend on the backend**: every backend
executes the same int8 kernels, only the modeled time and energy differ.

Backends register under a name (:func:`register_backend`) and are
instantiated by :func:`make_arch`, the surface
:class:`~repro.config.BackendSpec` resolves through::

    arch = make_arch("edgetpu", mxu_rows=32, mxu_cols=32)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "AcceleratorArch",
    "Instruction",
    "OpPlan",
    "backend_names",
    "default_supports",
    "make_arch",
    "register_backend",
]


@dataclass(frozen=True)
class OpPlan:
    """Latency plan for one backend-mapped op.

    Attributes:
        name: Op name.
        kind: Op kind string.
        weight_bytes: Parameter bytes resident on-device for this op.
        input_dim: Activation width consumed.
        output_dim: Activation width produced.
        fixed_cycles: Batch-independent cycles (pipeline fill, initial
            weight load).
        cycles_per_row: Marginal cycles per batch row.
    """

    name: str
    kind: str
    weight_bytes: int
    input_dim: int
    output_dim: int
    fixed_cycles: int
    cycles_per_row: float

    def cycles(self, batch: int) -> float:
        """Total cycles to run a batch of ``batch`` rows."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return self.fixed_cycles + self.cycles_per_row * batch


@dataclass(frozen=True)
class Instruction:
    """One device instruction.

    Attributes:
        opcode: E.g. ``DMA_IN``, ``LOAD_TILE``, ``PIPE_FILL``,
            ``MATMUL``, ``ACTIVATE``, ``STREAM_WEIGHTS``, ``DMA_OUT``
            for the systolic backends; event-driven backends emit their
            own opcodes (``ROUTE_EVENTS``, ``NEURON_UPDATE``).
        operand: Human-readable target (op name, tile coordinates).
        cycles: Device clock cycles consumed.
        bytes: Host-device bytes moved (DMA/stream opcodes only).
    """

    opcode: str
    operand: str
    cycles: float = 0.0
    bytes: int = 0

    def __str__(self) -> str:
        parts = [f"{self.opcode:<15} {self.operand:<28}"]
        if self.cycles:
            parts.append(f"cycles={self.cycles:g}")
        if self.bytes:
            parts.append(f"bytes={self.bytes}")
        return " ".join(parts)


def default_supports(op) -> bool:
    """The shared int8 supported-op check (FC + tanh, int8 throughout).

    Every current backend executes the same two kernel families the
    paper's HDC models need; backends with a different legality surface
    override :meth:`AcceleratorArch.supports`.
    """
    from repro.tflite.ops import FullyConnectedOp, TanhOp

    if isinstance(op, FullyConnectedOp):
        return (
            op.weights.dtype.name == "int8"
            and op.input_qparams.dtype == "int8"
            and op.output_qparams.dtype == "int8"
        )
    if isinstance(op, TanhOp):
        return op.input_qparams.dtype == "int8"
    return False


class AcceleratorArch:
    """Base protocol every accelerator backend implements.

    Subclasses are frozen dataclasses carrying the backend's parameter
    bundle.  The base class supplies the attach-link arithmetic shared
    by every backend; the required attributes are:

    - ``backend`` (class attr): registry name of the backend family.
    - ``clock_hz``: device clock driving :meth:`cycles_to_seconds`.
    - ``link_bytes_per_s``: attach-link bandwidth (field or property)
      driving :meth:`transfer_time`.
    - ``invoke_overhead_s``: fixed host dispatch cost per invocation.
    - ``parameter_buffer_bytes``: on-device parameter memory; models
      whose weights exceed it re-stream the excess every invocation.
    - ``model_setup_s``: one-time runtime setup on model load.
    - ``idle_power_w`` / ``active_power_w``: the energy model.
    """

    backend = "abstract"

    # -- attach link / clock (shared arithmetic) -----------------------

    def transfer_time(self, num_bytes: int | float) -> float:
        """Seconds to move ``num_bytes`` over the attach link."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        return float(num_bytes) / self.link_bytes_per_s

    def cycles_to_seconds(self, cycles: int | float) -> float:
        """Convert device clock cycles to seconds."""
        if cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {cycles}")
        return float(cycles) / self.clock_hz

    # -- backend hooks -------------------------------------------------

    def supports(self, op) -> bool:
        """Whether this backend executes ``op`` on-device."""
        return default_supports(op)

    def op_cycles(self, kind: str, input_dim: int,
                  output_dim: int) -> tuple[int, float]:
        """``(fixed_cycles, cycles_per_row)`` of one mapped op.

        ``kind`` is the op's kind string (``"FULLY_CONNECTED"`` or
        ``"TANH"`` for the shared int8 legality surface); the cost may
        depend only on it and the op's shape.
        """
        raise NotImplementedError

    def lower_op(self, op, width: int, batch: int) -> list[Instruction]:
        """Lower one mapped op into its instruction trace.

        The trace's cycle total must equal ``plan_op(op, width)
        .cycles(batch)`` — :func:`repro.edgetpu.program.lower` builds
        on this to keep disassembly exact with respect to the latency
        plan.  The generic fallback emits a single ``EXEC``
        instruction charging the plan's cycles.
        """
        plan = self.plan_op(op, width)
        return [Instruction("EXEC", op.name, cycles=plan.cycles(batch))]

    # -- the latency model (shared by every backend) -------------------

    def plan(self, name: str, kind: str, weight_bytes: int,
             input_dim: int, output_dim: int) -> OpPlan:
        """The :class:`OpPlan` of one op given only its kind and shape."""
        fixed, per_row = self.op_cycles(kind, input_dim, output_dim)
        return OpPlan(
            name=name, kind=kind, weight_bytes=weight_bytes,
            input_dim=input_dim, output_dim=output_dim,
            fixed_cycles=fixed, cycles_per_row=float(per_row),
        )

    def plan_op(self, op, input_dim: int) -> OpPlan:
        """The :class:`OpPlan` of one supported op fed ``input_dim`` wide."""
        return self.plan(op.name, op.kind, op.weight_bytes, input_dim,
                         op.output_dim(input_dim))

    def invoke_breakdown(self, plans: list[OpPlan], batch: int) -> dict:
        """Per-term modeled seconds of one invocation of ``plans``.

        Keys (in accumulation order): ``overhead``, ``input_transfer``,
        ``weight_streaming`` (parameters past the on-device buffer,
        re-sent every invocation), ``compute``, ``output_transfer``.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if not plans:
            raise ValueError("plans must not be empty")
        weight_bytes = sum(plan.weight_bytes for plan in plans)
        return {
            "overhead": self.invoke_overhead_s,
            "input_transfer": self.transfer_time(batch * plans[0].input_dim),
            "weight_streaming": self.transfer_time(
                max(0, weight_bytes - self.parameter_buffer_bytes)
            ),
            "compute": self.cycles_to_seconds(
                sum(plan.cycles(batch) for plan in plans)
            ),
            "output_transfer": self.transfer_time(
                batch * plans[-1].output_dim
            ),
        }

    def invoke_seconds(self, plans: list[OpPlan], batch: int) -> float:
        """Modeled time of one invocation: :meth:`invoke_breakdown`'s
        terms added left to right (CPython 3.12's :func:`sum`
        compensates rounding, which would make the charge depend on the
        interpreter)."""
        seconds = 0.0
        for term in self.invoke_breakdown(plans, batch).values():
            seconds += term
        return seconds

    def load_seconds(self, num_bytes: int) -> float:
        """Modeled one-time cost of pushing ``num_bytes`` of model."""
        return self.model_setup_s + self.transfer_time(num_bytes)

    def describe(self) -> dict:
        """Flat, JSON-ready backend descriptor (for ``deploy/2``)."""
        return {
            "backend": self.backend,
            "clock_hz": self.clock_hz,
            "link_bytes_per_s": self.link_bytes_per_s,
            "parameter_buffer_bytes": self.parameter_buffer_bytes,
            "invoke_overhead_s": self.invoke_overhead_s,
            "idle_power_w": self.idle_power_w,
            "active_power_w": self.active_power_w,
        }


# ---------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., AcceleratorArch]] = {}


def _ensure_builtins() -> None:
    """Import the built-in backend modules (registration side effect).

    Lets ``make_arch("neuromorphic")`` work no matter which corner of
    the package the caller imported first; repeat calls hit the module
    cache.
    """
    import repro.edgetpu.arch  # noqa: F401
    import repro.edgetpu.hostcpu  # noqa: F401
    import repro.edgetpu.neuromorphic  # noqa: F401


def register_backend(name: str, factory: Callable[..., AcceleratorArch],
                     *, overwrite: bool = False) -> None:
    """Register an arch factory under ``name``.

    Args:
        name: Registry key (``BackendSpec(backend=name)`` resolves it).
        factory: Callable accepting the arch's keyword overrides and
            returning an :class:`AcceleratorArch`.
        overwrite: Allow replacing an existing registration.

    Raises:
        ValueError: On a duplicate name without ``overwrite``.
    """
    if not name:
        raise ValueError("backend name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def backend_names() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def make_arch(name: str, **overrides) -> AcceleratorArch:
    """Instantiate a registered backend, applying field overrides.

    Example::

        make_arch("edgetpu")                      # the stock 64x64 TPU
        make_arch("edgetpu", mxu_rows=32, mxu_cols=32)
        make_arch("neuromorphic", cores=256)

    Raises:
        KeyError: For an unknown backend name.
    """
    _ensure_builtins()
    factory = _REGISTRY.get(name)
    if factory is None:
        raise KeyError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(backend_names()) or '(none)'}"
        )
    return factory(**overrides)
