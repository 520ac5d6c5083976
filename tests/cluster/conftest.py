"""Shared fixtures: a tiny compiled model, a standard tenant mix, and
the invariant check every cluster run in this package ends with."""

import numpy as np
import pytest

from repro.cluster import Cluster, TenantSpec
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu import compile_model
from repro.hdc.encoder import NonlinearEncoder
from repro.hdc.model import HDCClassifier
from repro.nn import from_classifier
from repro.tflite import convert

from tests.cluster.invariants import check_cluster_report

NUM_FEATURES = 16
NUM_CLASSES = 3
DIMENSION = 256


@pytest.fixture(scope="package")
def compiled_model():
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    train_x, train_y = stream.next_batch(240)
    rng = np.random.default_rng(0)
    encoder = NonlinearEncoder(NUM_FEATURES, DIMENSION, seed=rng)
    classifier = HDCClassifier(dimension=DIMENSION, encoder=encoder,
                               seed=rng)
    classifier.fit(train_x, train_y, iterations=4,
                   num_classes=NUM_CLASSES)
    return compile_model(
        convert(from_classifier(classifier, include_argmax=True),
                train_x[:96])
    )


@pytest.fixture(scope="package")
def tenant_mix():
    return (
        TenantSpec("interactive", rate_hz=400.0, deadline_s=0.05),
        TenantSpec("bursty", rate_hz=200.0, deadline_s=0.2,
                   kind="bursty"),
        TenantSpec("background", rate_hz=100.0, deadline_s=1.0),
    )


@pytest.fixture(autouse=True)
def _checked_cluster_runs(monkeypatch):
    """Check the conservation invariants on every report a
    ``Cluster.run`` in this package returns."""
    run = Cluster.run

    def checked(self):
        report = run(self)
        check_cluster_report(self, report)
        return report

    monkeypatch.setattr(Cluster, "run", checked)
