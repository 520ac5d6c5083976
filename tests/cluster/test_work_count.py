"""Python work per dispatched batch on a fleet-sweep-shaped cluster.

Counts calls into ``repro`` functions with :func:`sys.setprofile`.
Comprehension and generator frames are skipped: CPython 3.12 inlines
comprehensions, and a generator's resumes depend on how far its
consumer reads, so the count is the same on every supported
interpreter.
"""

import inspect
import os
import sys

import repro
from repro.cluster import Cluster, ClusterConfig, TenantSpec
from repro.config import ServeConfig

_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
_RESUMABLE = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
              | inspect.CO_ASYNC_GENERATOR)

# perfbench's fleet-sweep traffic: three tenants, ~105k req/s offered,
# on four round-robin replicas of one device each.
SWEEP_TENANTS = (
    TenantSpec("interactive", rate_hz=60000.0, deadline_s=0.01),
    TenantSpec("bursty", rate_hz=30000.0, deadline_s=0.05, kind="bursty"),
    TenantSpec("background", rate_hz=15000.0, deadline_s=0.2),
)


def _repro_calls(fn) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event != "call":
            return
        code = frame.f_code
        if (code.co_filename.startswith(_PACKAGE)
                and code.co_name not in _COMPREHENSIONS
                and not code.co_flags & _RESUMABLE):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_a_sweep_makes_at_most_four_calls_per_batch(compiled_model):
    """Run-ahead replicas step whole size-triggered batches through one
    dispatch core, so a batch costs no Python call of its own; the
    per-row dispatch chain made 16 calls a batch."""
    cluster = Cluster(compiled_model, ClusterConfig(
        tenants=SWEEP_TENANTS, total_requests=40_000, num_replicas=4,
        policy="round_robin",
        serve=ServeConfig(max_batch=8, max_queue=50_000), seed=0))
    reports = []
    calls = _repro_calls(lambda: reports.append(cluster.run()))
    batches = sum(r.num_batches for r in reports[0].replica_reports)
    assert batches >= 4_000
    assert calls <= 4 * batches, f"{calls / batches:.2f} calls a batch"
