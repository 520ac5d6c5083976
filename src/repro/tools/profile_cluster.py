"""The ``profile-cluster`` tool: cProfile the cluster simulator.

Reproduces the replica-sweep benchmark workload (three tenants, 8-wide
dynamic batching, round-robin sharding) at a configurable scale, runs
it under :mod:`cProfile`, and prints the hottest functions — the
standing entry point for keeping the vectorized fast path honest: any
regression in the per-arrival or per-batch constants shows up here as
a new hot frame, where the benchmark harness (``perfbench/``, the
``fleet-sweep`` workload's ``serve_s``) shows only that the total grew.

Examples::

    python -m repro.tools profile-cluster
    python -m repro.tools profile-cluster --requests 200000 --replicas 8
    python -m repro.tools profile-cluster --policy least_queue --sort tottime
    python -m repro.tools profile-cluster --output /tmp/cluster.pstats

Every policy runs the vectorized pump.  Round-robin replicas run ahead
on their own clocks, batch by batch; ``--policy least_queue`` profiles
the merged-order loop instead, where each row picks its replica, and
lands there, at its own arrival.  ``--output`` dumps raw pstats for
``snakeviz``/``pstats`` offline digging.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools profile-cluster",
        description="Profile the cluster simulator on the replica-sweep "
                    "benchmark workload.",
    )
    parser.add_argument("--requests", type=int, default=100_000,
                        help="routed requests to simulate "
                             "(default 100000)")
    parser.add_argument("--replicas", type=int, default=4,
                        help="replica servers behind the router "
                             "(default 4)")
    parser.add_argument("--policy", default="round_robin",
                        help="router policy (default round_robin, "
                             "whose replicas run ahead; least_queue "
                             "profiles the merged-order loop)")
    parser.add_argument("--seed", type=int, default=7,
                        help="traffic seed (default 7, the benchmark's)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows of the profile table to print "
                             "(default 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--output", default=None,
                        help="also dump raw pstats to this path")
    return parser


def _build_cluster(args):
    import numpy as np

    import repro
    from repro.cluster import Cluster, ClusterConfig, TenantSpec
    from repro.data.streams import DriftingStream, StreamConfig
    from repro.edgetpu import compile_model
    from repro.hdc.encoder import NonlinearEncoder
    from repro.hdc.model import HDCClassifier
    from repro.nn import from_classifier
    from repro.tflite import convert

    stream = DriftingStream(
        StreamConfig(num_features=16, num_classes=3, drift_rate=0.0),
        seed=2,
    )
    train_x, train_y = stream.next_batch(240)
    rng = np.random.default_rng(0)
    encoder = NonlinearEncoder(16, 256, seed=rng)
    classifier = HDCClassifier(dimension=256, encoder=encoder, seed=rng)
    classifier.fit(train_x, train_y, iterations=4, num_classes=3)
    compiled = compile_model(
        convert(from_classifier(classifier, include_argmax=True),
                train_x[:96])
    )
    tenants = (
        TenantSpec("interactive", rate_hz=60000.0, deadline_s=0.01),
        TenantSpec("bursty", rate_hz=30000.0, deadline_s=0.05,
                   kind="bursty"),
        TenantSpec("background", rate_hz=15000.0, deadline_s=0.2),
    )
    config = ClusterConfig(
        tenants=tenants, total_requests=args.requests,
        num_replicas=args.replicas, devices_per_replica=1,
        policy=args.policy,
        serve=repro.ServeConfig(max_batch=8, max_queue=50_000),
        seed=args.seed,
    )
    return Cluster(compiled, config)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cluster = _build_cluster(args)
    print(f"profiling {args.requests} requests x {args.replicas} "
          f"replicas ({args.policy})...", flush=True)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    report = cluster.run()
    profiler.disable()
    wall = time.perf_counter() - start

    summary = report.summary()
    print(f"wall {wall:.3f}s (under profiler)  "
          f"served {summary['served']}  "
          f"p99 {summary['latency']['p99_s'] * 1e3:.3f}ms  "
          f"miss {summary['deadline_miss_rate']:.4f}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.output is not None:
        stats.dump_stats(args.output)
        print(f"pstats written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
