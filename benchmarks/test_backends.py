"""Backends and placement: a real trade-off, and the optimizer's value.

Two claims back the pluggable-backend framework and the fleet
placement optimizer, both on the virtual clock:

- **Cost/latency trade-off** — the four registered backends span three
  orders of magnitude in modeled service time and an order of
  magnitude in unit cost on a wide ISOLET-style model, and the fastest
  is not the cheapest, which is what makes placement a real problem.
- **Optimizer vs. static provisioning** — the ``PlacementOptimizer``
  splits three SLA tenants across a heterogeneous fleet, and the
  resulting ``policy="placed"`` cluster run over 8,000 requests must
  dominate (strictly cheaper AND no worse measured p99 than) at least
  one single-backend static provisioning of the same tenants.

Run-to-run determinism of placed cluster runs is asserted in
``tests/cluster/test_cluster.py``.
"""

import numpy as np
import pytest

import repro
from repro.cluster import ClusterConfig, TenantSpec
from repro.config import FleetSpec
from repro.data import isolet
from repro.edgetpu import compile_model, make_arch
from repro.hdc.encoder import NonlinearEncoder
from repro.hdc.model import HDCClassifier
from repro.nn import from_classifier
from repro.runtime.placement import PlacementOptimizer
from repro.tflite import convert

NUM_REQUESTS = 8000
DIMENSION = 4096

# Unit costs roughly track device capability: the big TPU is the
# premium part, the Pi CPU is nearly free, the neuromorphic part sits
# in between on price but three orders of magnitude away on latency.
BACKEND_COSTS = {
    "edgetpu": 4.0,
    "edgetpu-small": 1.5,
    "pi-cpu": 0.5,
    "neuromorphic": 1.0,
}

FLEET = FleetSpec(backends=(
    repro.BackendSpec("edgetpu", count=8, unit_cost=4.0),
    repro.BackendSpec("edgetpu", count=8, unit_cost=1.5,
                      overrides={"mxu_rows": 32, "mxu_cols": 32},
                      name="edgetpu-small"),
    repro.BackendSpec("pi-cpu", count=16, unit_cost=0.5),
    repro.BackendSpec("neuromorphic", count=16, unit_cost=1.0),
))

TENANTS = (
    TenantSpec("interactive", rate_hz=40000.0, deadline_s=0.002,
               num_features=617, num_classes=26),
    TenantSpec("bursty", rate_hz=8000.0, deadline_s=0.02, kind="bursty",
               num_features=617, num_classes=26),
    TenantSpec("background", rate_hz=400.0, deadline_s=1.0,
               num_features=617, num_classes=26),
)

SERVE = repro.ServeConfig(max_batch=8, max_queue=50_000)


@pytest.fixture(scope="module")
def compiled():
    """The wide ISOLET model (deterministic, but not cheap)."""
    ds = isolet(max_samples=400, seed=7).normalized()
    rng = np.random.default_rng(0)
    encoder = NonlinearEncoder(ds.train_x.shape[1], DIMENSION, seed=rng)
    classifier = HDCClassifier(dimension=DIMENSION, encoder=encoder,
                               seed=rng)
    classifier.fit(ds.train_x, ds.train_y, iterations=2, num_classes=26)
    return compile_model(convert(
        from_classifier(classifier, include_argmax=True),
        ds.train_x[:96],
    ))


def _p99(compiled, placement):
    """Measured p99 of the tenant trace served on a placed fleet."""
    config = ClusterConfig(
        tenants=TENANTS, total_requests=NUM_REQUESTS, policy="placed",
        placement=placement, serve=SERVE, seed=7,
    )
    summary = repro.serve_cluster(compiled, config=config).summary()
    return summary["latency"]["p99_s"]


def test_fastest_backend_is_not_the_cheapest(compiled):
    service_s = {
        backend: compile_model(compiled.model,
                               make_arch(backend)).invoke_seconds(32)
        for backend in BACKEND_COSTS
    }
    fastest = min(service_s, key=service_s.get)
    cheapest = min(BACKEND_COSTS, key=BACKEND_COSTS.get)
    assert fastest != cheapest


def test_optimizer_dominates_a_static_fleet(compiled):
    # All-neuromorphic cannot meet the 2 ms interactive SLA at any
    # device count, so it is always a victim; all-big-TPU pays the
    # premium part for every tenant.
    placement = PlacementOptimizer(FLEET).place(compiled, TENANTS)
    backends_used = sorted({d.group for d in placement.decisions})
    assert placement.feasible, placement.summary()
    assert len(backends_used) >= 2, (
        f"optimizer picked a homogeneous placement: {backends_used}"
    )
    cost = placement.total_cost_rate
    p99 = _p99(compiled, placement)

    def dominated(backend):
        static = PlacementOptimizer(
            FleetSpec.single(backend, count=64,
                             unit_cost=BACKEND_COSTS[backend])
        ).place(compiled, TENANTS)
        return (cost < static.total_cost_rate
                and p99 <= _p99(compiled, static))

    assert any(dominated(backend) for backend in BACKEND_COSTS), (
        f"heterogeneous placement (cost {cost:.2f}, "
        f"p99 {1e3 * p99:.2f} ms) dominates no static provisioning"
    )
