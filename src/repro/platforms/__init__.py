"""Analytical performance and energy models for the evaluation platforms.

The paper's runtime numbers come from three machines: a mobile Intel CPU
(i5-5250U laptop host), the USB Edge TPU, and a Raspberry Pi 3 (ARM
Cortex-A53).  None are available here, so each is modeled as a
deterministic cost model over operation shapes (matmul, tanh,
elementwise traffic), driving a virtual clock.  Constants are calibrated
so the *ratios* the paper reports re-emerge (see DESIGN.md section 2);
absolute seconds are estimates.  This package holds the CPU platforms;
the Edge TPU, like every accelerator backend, is priced by its
:class:`~repro.edgetpu.backend.AcceleratorArch`.
"""

from repro.platforms.base import CpuSpec, Platform, VirtualClock
from repro.platforms.cpu import (
    MOBILE_CPU_SPEC,
    RASPBERRY_PI3_SPEC,
    CpuPlatform,
    MobileCpu,
    RaspberryPi3,
)
from repro.platforms.energy import EnergyReport, energy_joules

__all__ = [
    "CpuPlatform",
    "CpuSpec",
    "EnergyReport",
    "MOBILE_CPU_SPEC",
    "MobileCpu",
    "Platform",
    "RASPBERRY_PI3_SPEC",
    "RaspberryPi3",
    "VirtualClock",
    "energy_joules",
]
