"""Edge TPU architecture parameters.

Values follow Google's published Edge TPU numbers where available (4 TOPS
int8 peak, ~2 W, 8 MiB on-chip parameter memory, USB 3.0 attach) and
measured-system estimates elsewhere (effective USB throughput,
per-invocation dispatch latency).  They are the knobs of the latency
model — DESIGN.md records how they were calibrated against the paper's
reported speedup shapes.

:class:`EdgeTpuArch` is the systolic-array instance of the
:class:`~repro.edgetpu.backend.AcceleratorArch` backend protocol; the
geometry (``mxu_rows`` x ``mxu_cols``), clock, parameter memory and
attach link are all ordinary fields, so a 32x32 "small TPU" is just a
different parameter bundle of the same backend (registered as
``"edgetpu-small"``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgetpu.backend import (
    AcceleratorArch,
    Instruction,
    register_backend,
)
from repro.edgetpu.systolic import systolic_cycles

__all__ = ["EdgeTpuArch"]


@dataclass(frozen=True)
class EdgeTpuArch(AcceleratorArch):
    """Architecture/attachment parameters for one Edge TPU device.

    Attributes:
        mxu_rows: Systolic array rows (input-feature direction).
        mxu_cols: Systolic array columns (output-feature direction).
        clock_hz: MXU clock.  64*64 MACs * 480 MHz * 2 ops/MAC ~ 3.9 TOPS,
            matching the advertised 4 TOPS int8 peak.
        parameter_buffer_bytes: On-chip parameter memory; models whose
            weights exceed it stream the excess over USB each invocation.
        usb_bytes_per_s: Effective USB 3.0 throughput for bulk transfers
            (~320 MB/s after protocol overhead).
        invoke_overhead_s: Fixed host-side dispatch + USB round-trip
            latency per ``invoke()`` call (~85 us).  Dominates small
            models at batch 1 — the mechanism behind the paper's PAMAP2
            counterexample.
        vector_lanes: Width of the post-MXU activation unit (tanh LUT,
            requantization) in elements per cycle.
        model_setup_s: One-time runtime setup when a model is loaded
            (interpreter construction, weight layout).
        idle_power_w: Device idle power draw.
        active_power_w: Device power under load (~2 W USB version).
    """

    backend = "edgetpu"

    mxu_rows: int = 64
    mxu_cols: int = 64
    clock_hz: float = 480e6
    parameter_buffer_bytes: int = 8 * 1024 * 1024
    usb_bytes_per_s: float = 320e6
    invoke_overhead_s: float = 85e-6
    vector_lanes: int = 64
    model_setup_s: float = 25e-3
    idle_power_w: float = 0.5
    active_power_w: float = 2.0

    def __post_init__(self) -> None:
        if self.mxu_rows < 1 or self.mxu_cols < 1:
            raise ValueError("MXU dimensions must be >= 1")
        if self.clock_hz <= 0 or self.usb_bytes_per_s <= 0:
            raise ValueError("clock and USB bandwidth must be > 0")
        if self.parameter_buffer_bytes < 0:
            raise ValueError("parameter buffer size must be >= 0")
        if self.vector_lanes < 1:
            raise ValueError("vector_lanes must be >= 1")

    @property
    def link_bytes_per_s(self) -> float:
        """The attach link is the USB bus."""
        return self.usb_bytes_per_s

    @property
    def peak_tops(self) -> float:
        """Peak int8 throughput in tera-ops/second (2 ops per MAC)."""
        return 2.0 * self.mxu_rows * self.mxu_cols * self.clock_hz / 1e12

    # -- backend hooks -------------------------------------------------

    def op_cycles(self, kind: str, input_dim: int,
                  output_dim: int) -> tuple[int, float]:
        """Systolic cycle plan: tiled MXU matmul, vector-unit tanh."""
        if kind == "FULLY_CONNECTED":
            steady = systolic_cycles(
                input_dim, output_dim, batch=1,
                rows=self.mxu_rows, cols=self.mxu_cols, include_fill=False,
            )
            fill = systolic_cycles(
                input_dim, output_dim, batch=1,
                rows=self.mxu_rows, cols=self.mxu_cols, include_fill=True,
            ) - steady
            return fill, steady
        # Tanh: the vector unit processes `vector_lanes` activations/cycle.
        return 0, -(-output_dim // self.vector_lanes)

    def lower_op(self, op, width: int, batch: int) -> list[Instruction]:
        """Tile-level lowering: exposed first load + fill, hidden
        double-buffered tile loads, one MATMUL pass per tile."""
        instructions: list[Instruction] = []
        if op.kind == "FULLY_CONNECTED":
            out_dim = op.output_dim(width)
            row_tiles = -(-op.input_dim // self.mxu_rows)
            col_tiles = -(-out_dim // self.mxu_cols)
            # First tile load and pipeline fill are exposed; subsequent
            # tile loads are hidden behind compute by double buffering.
            instructions.append(Instruction(
                "LOAD_TILE", f"{op.name}[0,0]", cycles=self.mxu_rows,
            ))
            instructions.append(Instruction(
                "PIPE_FILL", op.name,
                cycles=self.mxu_rows + self.mxu_cols - 2,
            ))
            for row in range(row_tiles):
                for col in range(col_tiles):
                    if row or col:
                        instructions.append(Instruction(
                            "LOAD_TILE", f"{op.name}[{row},{col}] (hidden)",
                            cycles=0.0,
                        ))
                    instructions.append(Instruction(
                        "MATMUL", f"{op.name}[{row},{col}]",
                        cycles=float(batch),
                    ))
        elif op.kind == "TANH":
            lanes = self.vector_lanes
            instructions.append(Instruction(
                "ACTIVATE", f"{op.name} (tanh LUT)",
                cycles=float(-(-width // lanes) * batch),
            ))
        else:  # pragma: no cover — the compiler only maps FC/TANH
            raise TypeError(
                f"cannot lower op kind {type(op).__name__}"
            )
        return instructions

    def describe(self) -> dict:
        payload = super().describe()
        payload["mxu"] = f"{self.mxu_rows}x{self.mxu_cols}"
        payload["vector_lanes"] = self.vector_lanes
        payload["peak_tops"] = self.peak_tops
        return payload


def _small_edgetpu(**overrides) -> EdgeTpuArch:
    """The "small TPU" preset: a quarter-size 32x32 MXU with half the
    parameter memory and roughly half the power — the spikehard-style
    restructuring of the same model onto smaller cores."""
    params = dict(
        mxu_rows=32, mxu_cols=32,
        parameter_buffer_bytes=4 * 1024 * 1024,
        invoke_overhead_s=70e-6,
        vector_lanes=32,
        idle_power_w=0.3, active_power_w=1.0,
    )
    params.update(overrides)
    return EdgeTpuArch(**params)


register_backend("edgetpu", EdgeTpuArch)
register_backend("edgetpu-small", _small_edgetpu)
