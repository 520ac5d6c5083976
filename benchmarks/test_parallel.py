"""Parallel execution layer: worker-pool training + multi-device scaling.

Two measurements back the executor design:

- **Bagged training** — M=4 sub-models trained by a 4-worker pool must
  produce the *bit-identical* fused model the sequential path produces
  (the seed-spawning contract) while the modeled makespan — measured
  per-task wall seconds list-scheduled onto the pool's lanes — shows at
  least the 2x speedup the co-design argument needs.  Wall-clock is
  recorded too but not asserted: this container may expose a single
  core, and the repo's reported runtimes are virtual-clock readings.
- **Micro-batched inference** — offline inference on a replicated
  pool, a closed-loop :func:`repro.serve` (every request at ``t=0``,
  fixed batches of ``MICRO_BATCH``), must scale its modeled throughput
  with pool size.  ``serial_seconds`` is the same work on one device
  with no overlap: the devices' busy seconds plus the host's.

Both are written machine-readable to ``BENCH_parallel.json`` next to
this file for CI artifact upload, and human-readable to the shared
``bench_results.txt`` log.
"""

import json
import math
import pathlib
import time

import numpy as np

import repro
from repro.config import FleetSpec, ServeConfig
from repro.data import isolet
from repro.edgetpu import compile_model
from repro.experiments.report import format_table
from repro.hdc import BaggingConfig, BaggingHDCTrainer
from repro.nn import from_fused
from repro.runtime.executor import ExecutorConfig
from repro.serving.arrivals import Request
from repro.tflite import convert

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_parallel.json"

NUM_MODELS = 4
WORKERS = 4
POOL_SIZES = (1, 2, 4)
MICRO_BATCH = 32


def _train(ds, executor):
    config = BaggingConfig(num_models=NUM_MODELS, dimension=1024,
                           iterations=3, dataset_ratio=0.7)
    trainer = BaggingHDCTrainer(config, seed=0, executor=executor)
    start = time.perf_counter()
    trainer.fit(ds.train_x, ds.train_y, num_classes=ds.num_classes)
    wall = time.perf_counter() - start
    return trainer, wall


def test_parallel_training_and_dispatch(benchmark, record_result):
    ds = isolet(max_samples=800, seed=7).normalized()

    def run():
        serial_trainer, serial_wall = _train(ds, None)
        parallel_trainer, parallel_wall = _train(
            ds, ExecutorConfig(workers=WORKERS)
        )
        return serial_trainer, serial_wall, parallel_trainer, parallel_wall

    serial_trainer, serial_wall, parallel_trainer, parallel_wall = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    serial_fused = serial_trainer.fuse()
    parallel_fused = parallel_trainer.fuse()
    bit_identical = (
        np.array_equal(serial_fused.base_matrix, parallel_fused.base_matrix)
        and np.array_equal(serial_fused.class_matrix,
                           parallel_fused.class_matrix)
    )
    assert bit_identical, "parallel training broke the determinism contract"

    report = parallel_trainer.last_parallel_report
    assert report is not None and report.workers == WORKERS
    # Acceptance criterion: >= 2x for M=4 at workers=4.  Modeled makespan
    # (measured task seconds scheduled onto 4 lanes) — four near-equal
    # sub-model tasks should land close to 4x.
    assert report.speedup >= 2.0

    # --- offline inference scaling across pool sizes ---
    fused_compiled = compile_model(
        convert(from_fused(parallel_fused), ds.train_x[:128])
    )
    trace = [Request(i, 0.0, math.inf, row, int(ds.test_y[i]))
             for i, row in enumerate(ds.test_x)]
    config = ServeConfig(batcher="fixed", max_batch=MICRO_BATCH,
                         max_queue=len(trace))
    inference_rows = []
    for pool_size in POOL_SIZES:
        deployment = repro.deploy(
            fused_compiled, fleet=FleetSpec.single(count=pool_size),
        )
        served = repro.serve(deployment, trace, config=config)
        serial = sum(served.device_busy_seconds) + served.host_seconds
        inference_rows.append({
            "pool_size": pool_size,
            "micro_batch": MICRO_BATCH,
            "samples": served.served,
            "num_batches": served.num_batches,
            "throughput_samples_per_s": served.throughput,
            "makespan_seconds": served.makespan_s,
            "serial_seconds": serial,
            "speedup_vs_serial": serial / served.makespan_s,
            "accuracy": served.accuracy,
        })
    base = inference_rows[0]["throughput_samples_per_s"]
    assert inference_rows[-1]["throughput_samples_per_s"] > base

    payload = {
        "training": {
            "num_models": NUM_MODELS,
            "workers": WORKERS,
            "backend": report.backend,
            "bit_identical": bool(bit_identical),
            "task_seconds": list(report.task_seconds),
            "serial_task_seconds": report.serial_seconds,
            "modeled_makespan_seconds": report.makespan_seconds,
            "modeled_speedup": report.speedup,
            "serial_wall_seconds": serial_wall,
            "parallel_wall_seconds": parallel_wall,
        },
        "inference": inference_rows,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_result(format_table(
        ["configuration", "modeled speedup / throughput"],
        [[f"training M={NUM_MODELS}, workers={WORKERS} (vs serial)",
          report.speedup]] +
        [[f"inference pool={row['pool_size']} (samples/s)",
          row["throughput_samples_per_s"]] for row in inference_rows],
        title="Parallel execution — worker pool + multi-device serve",
        float_format="{:.2f}",
    ))
