"""Online serving: request streams, dynamic batching, faults, hot swap.

The paper's deployment story — an Edge TPU serving inference while the
host retrains — is an *online* system: requests arrive over time with
latency budgets, devices fail, and the deployed model goes stale under
drift.  This package simulates that service on the repo's virtual-clock
convention:

- :mod:`repro.serving.arrivals` — seeded Poisson/bursty arrival
  processes over drifting payload distributions, producing timestamped
  :class:`Request` traces.
- :mod:`repro.serving.batcher` — batch-closing policies: deadline-aware
  size-or-deadline (:class:`DynamicBatcher`) vs. the fixed-size
  baseline (:class:`FixedSizeBatcher`).
- :mod:`repro.serving.server` — the :class:`InferenceServer` event
  loop: bounded-queue admission, earliest-free-device dispatch, p99
  latency tracking, retry-once-then-CPU-fallback fault handling.
- :mod:`repro.serving.swap` — :class:`ModelSwapper`, committing a
  freshly retrained model atomically between batches while the old
  model keeps serving.

``tests/serving/`` asserts the end-to-end comparisons (SLA attainment,
failure recovery, drift recovery via hot swap).
"""

from repro.config import ServeConfig
from repro.serving.arrivals import ArrivalProcess, Request, RequestStream
from repro.serving.batcher import DynamicBatcher, FixedSizeBatcher
from repro.serving.server import InferenceServer, ServeReport
from repro.serving.swap import ModelSwapper, PendingSwap, SwapRecord

__all__ = [
    "ArrivalProcess",
    "DynamicBatcher",
    "FixedSizeBatcher",
    "InferenceServer",
    "ModelSwapper",
    "PendingSwap",
    "Request",
    "RequestStream",
    "ServeConfig",
    "ServeReport",
    "SwapRecord",
]
