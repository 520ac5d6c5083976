"""Shared fixtures: a small trained + compiled model and request traces."""

import numpy as np
import pytest

from repro.config import ServeConfig
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu import compile_model
from repro.hdc.encoder import NonlinearEncoder
from repro.hdc.model import HDCClassifier
from repro.nn import from_classifier
from repro.serving import ArrivalProcess, RequestStream
from repro.tflite import convert

NUM_FEATURES = 16
NUM_CLASSES = 3
DIMENSION = 256

# The SLA workload: 24 features, 4 classes, a d=512 model and Poisson
# requests at 200 Hz, each with a 50 ms latency budget.  Fixed-size
# batches of 32 fill in ~160 ms here, so only the deadline-aware
# batcher can meet the SLA at the 99th percentile.
SLA_S = 0.05
SLA_FEATURES = 24
SLA_CLASSES = 4
SLA_RATE_HZ = 200.0
SLA_DYNAMIC = ServeConfig(max_batch=32, slack_s=0.002, max_queue=2048)
SLA_FIXED = ServeConfig(batcher="fixed", max_batch=32, max_queue=2048)


def train_compiled(x, y, seed=0, dimension=DIMENSION, iterations=4,
                   num_classes=NUM_CLASSES, calibration=96):
    rng = np.random.default_rng(seed)
    encoder = NonlinearEncoder(x.shape[1], dimension, seed=rng)
    classifier = HDCClassifier(dimension=dimension, encoder=encoder,
                               seed=rng)
    classifier.fit(x, y, iterations=iterations, num_classes=num_classes)
    return compile_model(
        convert(from_classifier(classifier, include_argmax=True),
                x[:calibration])
    )


def sla_compiled(x, y, seed):
    """A d=512 model of the SLA workload's shape."""
    return train_compiled(x, y, seed=seed, dimension=512, iterations=5,
                          num_classes=SLA_CLASSES, calibration=128)


def sla_workload(drift_rate, num_requests):
    """The SLA workload's stream, its first model and its trace.

    The model is trained on the stream's first 400 samples; the trace
    then drifts one step per request at ``drift_rate``.
    """
    stream = DriftingStream(
        StreamConfig(num_features=SLA_FEATURES, num_classes=SLA_CLASSES,
                     drift_rate=drift_rate),
        seed=1,
    )
    train_x, train_y = stream.next_batch(400)
    compiled = sla_compiled(train_x, train_y, seed=0)
    arrivals = ArrivalProcess(SLA_RATE_HZ, "poisson", seed=3)
    trace = list(RequestStream(stream, arrivals, deadline_s=SLA_S,
                               drift_every=1).generate(num_requests))
    return compiled, trace


@pytest.fixture(scope="package")
def serving_setup():
    """A stationary stream, a compiled model, and a 300-request trace."""
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    train_x, train_y = stream.next_batch(300)
    compiled = train_compiled(train_x, train_y)
    arrivals = ArrivalProcess(300.0, "poisson", seed=5)
    trace = list(RequestStream(stream, arrivals, deadline_s=0.04,
                          drift_every=1).generate(300))
    return stream, compiled, trace


@pytest.fixture(scope="package")
def sla_setup():
    """The stationary SLA workload: a model and 500 requests."""
    return sla_workload(drift_rate=0.0, num_requests=500)
