"""Parallel execution layer: worker pools and the host-tail cost.

The ``M`` bagging sub-models are trained on independent bootstrap
subsets (Sec. III-B), and :class:`WorkerPool` runs those training tasks
concurrently on a ``concurrent.futures`` thread pool (numpy's kernels
release the GIL).  Determinism is preserved by seed *spawning*: each
sub-model draws every random quantity from its own child generator
spawned from one :class:`numpy.random.SeedSequence` root, so the
trained weights are bit-identical for any worker count (``workers=1``
runs the same tasks sequentially in-process).

Timing model (consistent with the rest of the repo, where every
reported runtime is a virtual-clock reading): per-task costs are
measured individually, and the parallel wall time is the *makespan* of
list-scheduling those costs onto ``workers`` lanes.
:func:`simulate_makespan` is that scheduler; on a machine with fewer
physical cores than workers the measured wall time degrades gracefully
while the modeled makespan stays deterministic and machine-independent.

Inference needs no dispatcher here: multi-device offline inference is
a closed-loop :func:`repro.api.serve` (every request at ``t=0``, the
fixed batcher at the micro-batch size), and the single-device real-time
mode is :class:`~repro.runtime.pipeline.InferencePipeline`.  Both
charge the device→host hand-off through :func:`host_tail_seconds`, the
one host cost model for a compiled model's CPU tail.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imports would cycle back through the model builders
    from repro.platforms.base import Platform

__all__ = [
    "ExecutorConfig",
    "ParallelReport",
    "WorkerPool",
    "cpu_op_seconds",
    "host_ops_seconds",
    "host_tail_seconds",
    "run_host_tail",
    "simulate_makespan",
    "spawn_rngs",
]


@dataclass(frozen=True)
class ExecutorConfig:
    """Knobs for the parallel execution layer.

    The default trains sequentially, as the pipelines did before this
    layer existed.

    Attributes:
        workers: Concurrent sub-model training tasks (threads).  ``1``
            trains sequentially in-process (no pool is created).
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @classmethod
    def coerce(cls, value) -> "ExecutorConfig":
        """Normalize ``None`` / int worker count / config to a config."""
        if value is None:
            return cls()
        if isinstance(value, int):
            return cls(workers=value)
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"expected ExecutorConfig, int or None, got {type(value).__name__}"
        )


def spawn_rngs(seed, n: int) -> list:
    """Spawn ``n`` independent child generators from one seed root.

    This is the determinism contract of the parallel training path:
    child streams depend only on the root seed and the child *index*,
    never on which worker runs the task or in what order — so training
    results are bit-identical for any worker count.

    Args:
        seed: An int, ``None``, a :class:`numpy.random.SeedSequence`, or
            a :class:`numpy.random.Generator`.  Generators spawn through
            their own seed sequence (advancing their spawn counter, so
            successive calls yield fresh, still-deterministic children).
        n: Number of children.

    Returns:
        List of ``n`` :class:`numpy.random.Generator` instances.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(n))
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(n)]


def simulate_makespan(task_seconds, workers: int) -> float:
    """List-schedule task costs onto ``workers`` lanes; return makespan.

    Tasks are assigned in order, each to the earliest-available lane —
    the same greedy policy a ``concurrent.futures`` pool follows when
    every worker draws the next pending task.  For ``workers=1`` this
    is the serial sum; for equal-cost tasks it is
    ``ceil(len(tasks) / workers)`` rounds.

    Args:
        task_seconds: Per-task cost, in task order.
        workers: Number of parallel lanes.

    Returns:
        Modeled parallel wall seconds (0.0 for no tasks).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    costs = [float(s) for s in task_seconds]
    if any(s < 0 for s in costs):
        raise ValueError("task costs must be >= 0")
    lanes = [0.0] * min(workers, max(1, len(costs)))
    for cost in costs:
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[lane] += cost
    return max(lanes) if costs else 0.0


@dataclass(frozen=True)
class ParallelReport:
    """Accounting for one :meth:`WorkerPool.map` run.

    Attributes:
        workers: Configured worker count.
        backend: ``"thread"``, or ``"serial"`` for a one-worker run.
        task_seconds: Measured wall seconds per task (task order).
        wall_seconds: Measured wall seconds for the whole map call on
            *this* machine (subject to its physical core count).
    """

    workers: int
    backend: str
    task_seconds: tuple
    wall_seconds: float

    @property
    def serial_seconds(self) -> float:
        """Sum of per-task costs — the 1-worker wall time."""
        return sum(self.task_seconds)

    @property
    def makespan_seconds(self) -> float:
        """Modeled parallel wall time (list-scheduled onto the lanes)."""
        return simulate_makespan(self.task_seconds, self.workers)

    @property
    def speedup(self) -> float:
        """Modeled speedup of the pool over serial execution."""
        makespan = self.makespan_seconds
        return self.serial_seconds / makespan if makespan > 0 else 1.0


def _timed_call(fn, task):
    """Run ``fn(task)`` returning ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn(task)
    return result, time.perf_counter() - start


class WorkerPool:
    """Ordered map over tasks on a thread pool.

    Results come back in task order regardless of completion order, and
    each task's wall time is measured for the :class:`ParallelReport`
    (the modeled-makespan side of the accounting).  Tasks may close
    over shared state (a :class:`~repro.runtime.pipeline.CompileCache`,
    the training arrays): threads share memory, nothing is pickled.

    Args:
        workers: Concurrent tasks; ``1`` executes a plain loop.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.last_report: ParallelReport | None = None

    def map(self, fn, tasks) -> list:
        """Apply ``fn`` to every task; return results in task order."""
        tasks = list(tasks)
        start = time.perf_counter()
        if self.workers == 1 or len(tasks) <= 1:
            timed = [_timed_call(fn, task) for task in tasks]
        else:
            call = partial(_timed_call, fn)
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=min(self.workers, len(tasks))) as pool:
                timed = list(pool.map(call, tasks))
        wall = time.perf_counter() - start
        self.last_report = ParallelReport(
            workers=self.workers,
            backend="thread" if self.workers > 1 else "serial",
            task_seconds=tuple(seconds for _, seconds in timed),
            wall_seconds=wall,
        )
        return [result for result, _ in timed]


def cpu_op_seconds(host: Platform, op, rows: int, width: int) -> float:
    """Host cost of one CPU-fallback op, charged by its actual kind."""
    if op.kind == "ARGMAX":
        return host.argmax_seconds(rows, width)
    if op.kind == "TANH":
        return host.tanh_seconds(rows * width)
    if op.kind == "FULLY_CONNECTED":
        return host.matmul_seconds(rows, width, op.output_dim(width))
    # Dequantize/requantize-style tails: plain elementwise traffic.
    return host.elementwise_seconds(rows * width)


def host_ops_seconds(host: Platform, compiled, ops, width: int,
                     rows: int) -> float:
    """Modeled host seconds of running ``ops``, fed ``width`` wide, on
    ``rows`` rows of a compiled model.

    The one host cost loop: each op charged by its kind
    (:func:`cpu_op_seconds`), added in chain order, then the final
    argmax for models whose last op emits scores instead of a class
    index.  It prices both the CPU tail (:func:`host_tail_seconds`)
    and the server's CPU fallback of the whole chain.
    """
    seconds = 0.0
    for op in ops:
        seconds += cpu_op_seconds(host, op, rows, width)
        width = op.output_dim(width)
    if not compiled.model.output_is_index:
        seconds += host.argmax_seconds(rows, width)
    return seconds


def host_tail_seconds(host: Platform, compiled, rows: int) -> float:
    """Modeled host seconds of a compiled model's CPU tail on ``rows``:
    :func:`host_ops_seconds` of its ``cpu_ops``, fed the device's
    output width.  The server's batch trigger and dispatch, and
    :func:`run_host_tail`, all charge this sum.
    """
    return host_ops_seconds(host, compiled, compiled.cpu_ops,
                            compiled.plans[-1].output_dim, rows)


def run_host_tail(compiled, outputs: np.ndarray,
                  host: "Platform") -> tuple[np.ndarray, float]:
    """Run a compiled model's CPU tail on device outputs.

    Executes the trailing ``cpu_ops`` (for the paper's models, the
    final ARGMAX) on the host and reduces to per-sample class
    predictions, taking the argmax on the host for a scores-only
    model.  :class:`~repro.runtime.pipeline.InferencePipeline` runs
    every batch's tail through it.

    Returns:
        ``(predictions, seconds)`` — int64 class indices for the rows
        of ``outputs``, and the modeled host seconds
        (:func:`host_tail_seconds`).
    """
    out = outputs
    for op in compiled.cpu_ops:
        out = op.run(out)
    if compiled.model.output_is_index:
        predictions = out[:, 0]
    else:
        predictions = np.argmax(out, axis=-1)
    return predictions, host_tail_seconds(host, compiled, len(outputs))
