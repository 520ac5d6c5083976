"""The co-design pipelines: the paper's Fig. 1 and Fig. 3 flows, end to end.

:class:`TrainingPipeline` runs real data through the full stack:

1. build the encoder half of the wide NN (base hypervectors), quantize
   it, compile it, and load it onto the simulated Edge TPU (``modelgen``
   phase);
2. stream training batches through the device and hand the encoded
   hypervectors back to the host (``encode`` phase, device-modeled
   time plus host dequantization);
3. run mistake-driven class-hypervector updates on the host CPU
   (``update`` phase, charged by the host cost model using the *actual*
   per-pass update counts);
4. build, quantize and compile the full inference model — fused across
   sub-models when bagging is enabled (``modelgen`` phase).

:class:`InferencePipeline` then executes the compiled inference model
sample-batch by sample-batch on the device with the host argmax tail,
exactly the deployment the paper measures in Fig. 6.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.config import PipelineConfig
from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.compiler import CompiledModel, compile_model
from repro.edgetpu.device import EdgeTpuDevice
from repro.hdc.bagging import (
    BaggingConfig,
    FusedHDCModel,
    draw_bootstrap_subset,
    draw_feature_mask,
)
from repro.hdc.encoder import NonlinearEncoder
from repro.hdc.model import HDCClassifier, TrainingHistory, check_labels
from repro.nn.builder import encoder_network, inference_network
from repro.platforms.base import Platform
from repro.platforms.cpu import MobileCpu
from repro.runtime.costs import CostModel, generation_seconds
from repro.runtime.executor import (
    ParallelReport,
    WorkerPool,
    run_host_tail,
    spawn_rngs,
)
from repro.observability.trace import Tracer
from repro.runtime.plan import ModelPlan
from repro.runtime.profiler import PhaseProfiler
from repro.tflite.converter import convert
from repro.tflite.flatmodel import FlatModel

__all__ = [
    "CompileCache",
    "InferencePipeline",
    "PipelineResult",
    "TrainingPipeline",
]

_CALIBRATION_SAMPLES = 256


class CompileCache:
    """Content-addressed cache of converted + compiled models.

    The cache key is a blake2b digest over everything that determines
    the compiled artifact: the network's layer structure and weight
    bytes, the calibration samples (they set the quantization grids),
    the :class:`EdgeTpuArch` parameters, and the model name.  Changing
    any of these invalidates the entry; identical encoder networks —
    repeated runs, or bagging sub-models that happen to share weights —
    skip the convert + compile work entirely.

    Attributes:
        hits: Number of lookups served from the cache.
        misses: Number of lookups that had to convert + compile.
    """

    def __init__(self):
        self._entries: dict[str, tuple[FlatModel, CompiledModel]] = {}
        self.hits = 0
        self.misses = 0
        # One pipeline cache may be shared by concurrent sub-model
        # training tasks (the worker pool); serialize lookups so the
        # entry dict and hit/miss counters stay coherent.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(network, calibration: np.ndarray, arch: EdgeTpuArch,
            name: str = "") -> str:
        """Content hash of one (network, calibration, arch) compilation."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr(arch).encode())
        digest.update(name.encode())
        digest.update(str(network.input_dim).encode())
        samples = np.ascontiguousarray(calibration, dtype=np.float32)
        digest.update(str(samples.shape).encode())
        digest.update(samples.tobytes())
        for layer in network.layers:
            digest.update(type(layer).__name__.encode())
            digest.update(str(getattr(layer, "kind", "")).encode())
            for attr in ("weights", "bias"):
                tensor = getattr(layer, attr, None)
                if tensor is None:
                    continue
                tensor = np.ascontiguousarray(tensor)
                digest.update(
                    f"{attr}:{tensor.dtype}:{tensor.shape}".encode()
                )
                digest.update(tensor.tobytes())
        return digest.hexdigest()

    def get_or_compile(self, network, calibration: np.ndarray,
                       arch: EdgeTpuArch, name: str
                       ) -> tuple[FlatModel, CompiledModel, bool]:
        """Return ``(flat, compiled, was_cached)`` for the network."""
        key = self.key(network, calibration, arch, name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                return entry[0], entry[1], True
            flat = convert(network, calibration, name=name)
            compiled = compile_model(flat, arch)
            self._entries[key] = (flat, compiled)
            self.misses += 1
            return flat, compiled, False


@dataclass
class PipelineResult:
    """Everything a training run produces.

    Attributes:
        inference_model: The quantized full inference model (fused when
            bagging was used).
        compiled: The Edge TPU compilation of that model.
        fused: The float fused HDC model (base + class matrices).
        classifiers: The trained sub-model classifiers (one entry when
            bagging is off).
        histories: Per-classifier training histories.
        profiler: Phase-time accounting for the whole run.
        parallel: Worker-pool accounting for bagged training (per-task
            seconds, modeled makespan); ``None`` for non-bagged runs.
    """

    inference_model: FlatModel
    compiled: CompiledModel
    fused: FusedHDCModel
    classifiers: list[HDCClassifier]
    histories: list[TrainingHistory]
    profiler: PhaseProfiler
    parallel: ParallelReport | None = None

    @property
    def trace(self) -> Tracer | None:
        """The run's span trace (``None`` unless tracing was enabled)."""
        tracer = self.profiler.tracer
        return tracer if tracer.enabled else None

    def summary(self) -> dict:
        """Machine-readable run report (see docs/architecture.md schema).

        Durations are seconds with an ``_s`` suffix; the canonical
        phase map sits under ``"phases"`` exactly as
        :meth:`PhaseProfiler.breakdown` returns it.
        """
        payload = {
            "schema": "repro.train/1",
            "total_s": self.profiler.total,
            "phases": self.profiler.breakdown(),
            "num_submodels": len(self.classifiers),
            "weight_bytes": self.compiled.weight_bytes,
        }
        if self.parallel is not None:
            payload["parallel"] = {
                "workers": self.parallel.workers,
                "backend": self.parallel.backend,
                "makespan_s": self.parallel.makespan_seconds,
                "serial_s": self.parallel.serial_seconds,
                "speedup": self.parallel.speedup,
            }
        return payload


@dataclass
class InferenceResult:
    """Output of an inference run over a test set.

    Attributes:
        predictions: int64 class indices.
        seconds: Modeled time (device + host tail).
        accuracy: Mean accuracy when labels were supplied for at least
            one sample, else None.
        breakdown: Modeled seconds per device term plus ``host_tail``.
        trace: The run's spans when tracing was on, else None.
    """

    predictions: np.ndarray
    seconds: float
    accuracy: float | None = None
    breakdown: dict = field(default_factory=dict)
    trace: Tracer | None = None

    @property
    def throughput(self) -> float:
        """Modeled samples per second over the run."""
        if self.seconds <= 0:
            return 0.0
        return len(self.predictions) / self.seconds

    def summary(self) -> dict:
        """Machine-readable run report (see docs/architecture.md schema)."""
        payload = {
            "schema": "repro.infer/1",
            "samples": len(self.predictions),
            "total_s": self.seconds,
            "throughput_rps": self.throughput,
            "breakdown": dict(self.breakdown),
        }
        if self.accuracy is not None:
            payload["accuracy"] = self.accuracy
        return payload


class TrainingPipeline:
    """Trains an HDC model with Edge TPU encoding and host updates.

    Built from one validated :class:`~repro.config.PipelineConfig`::

        TrainingPipeline(PipelineConfig(dimension=4096, seed=7))

    (:func:`repro.api.train` is the same call behind the facade).

    Args:
        config: The full training configuration (see
            :class:`~repro.config.PipelineConfig` for every knob,
            including ``executor`` parallelism and ``tracing``);
            defaults to ``PipelineConfig()``, the paper baseline.
        compile_cache: A :class:`CompileCache` to reuse compiled models
            across runs (pass one instance to several pipelines to share
            it).  Without one the pipeline converts and compiles
            directly and never hashes a model: every run, and every
            bagged sub-model, draws fresh weights, so a cache private to
            the pipeline could never hit.  An operational resource, not
            configuration — hence not part of the config object.
    """

    def __init__(self, config: PipelineConfig | None = None, *,
                 compile_cache: CompileCache | None = None):
        if config is None:
            config = PipelineConfig()
        self.config = config
        self.dimension = config.dimension
        self.iterations = config.iterations
        self.bagging = config.bagging
        self.host = config.host if config.host is not None else MobileCpu()
        self.arch = config.arch if config.arch is not None else EdgeTpuArch()
        self.learning_rate = config.learning_rate
        self.train_batch = config.train_batch
        self._rng = np.random.default_rng(config.seed)
        self._costs = CostModel(host=self.host,
                                train_batch=config.train_batch)
        self.compile_cache = compile_cache
        self.executor = config.executor
        self.tracing = config.tracing

    # ------------------------------------------------------------------

    def run(self, train_x: np.ndarray, train_y: np.ndarray,
            num_classes: int | None = None) -> PipelineResult:
        """Execute the full training flow on materialized data."""
        train_x = np.asarray(train_x, dtype=np.float32)
        train_y = np.asarray(train_y, dtype=np.int64)
        if train_x.ndim != 2:
            raise ValueError(f"expected 2-D samples, got shape {train_x.shape}")
        if len(train_x) != len(train_y):
            raise ValueError(f"{len(train_x)} samples but {len(train_y)} labels")
        if num_classes is None:
            num_classes = int(train_y.max()) + 1
        check_labels(train_y, num_classes)

        profiler = PhaseProfiler(Tracer(enabled=self.tracing))
        parallel = None
        with profiler.tracer.span(
            "pipeline.train", samples=len(train_x),
            dimension=self.dimension, num_classes=num_classes,
        ):
            if self.bagging is None:
                classifiers, histories = self._train_single(
                    train_x, train_y, num_classes, profiler,
                )
            else:
                classifiers, histories, parallel = self._train_bagged(
                    train_x, train_y, num_classes, profiler,
                )

            fused = self._fuse(classifiers, num_classes)
            inference_model, compiled = self._deploy_inference_model(
                fused, train_x, profiler,
            )
        return PipelineResult(
            inference_model=inference_model,
            compiled=compiled,
            fused=fused,
            classifiers=classifiers,
            histories=histories,
            profiler=profiler,
            parallel=parallel,
        )

    # ------------------------------------------------------------------
    # Internal stages
    # ------------------------------------------------------------------

    def _train_single(self, train_x, train_y, num_classes, profiler):
        encoder = NonlinearEncoder(
            train_x.shape[1], self.dimension, seed=self._rng,
        )
        encoded = self._encode_on_device(encoder, train_x, train_x, profiler)
        classifier = HDCClassifier(
            dimension=self.dimension, encoder=encoder,
            learning_rate=self.learning_rate, seed=self._rng,
        )
        history = classifier.fit(
            encoded, train_y, iterations=self.iterations,
            num_classes=num_classes, encoded=True,
        )
        self._charge_update(classifier, num_classes, profiler)
        return [classifier], [history]

    def _train_bagged(self, train_x, train_y, num_classes, profiler):
        """Train the bagging sub-models, concurrently when configured.

        Each sub-model task draws all of its randomness from a child
        generator spawned from the pipeline seed and accumulates its
        phase charges on a private profiler; charges merge into the
        run profiler in task order afterwards.  Both choices make the
        result — weights *and* phase totals — bit-identical for any
        worker count.  Tasks close over shared pipeline state (compile
        cache, cost model); the pool's threads share it.
        """
        config = self.bagging
        subset_size = max(1, int(round(config.dataset_ratio * len(train_x))))
        kept = max(
            1, int(round(config.feature_ratio * train_x.shape[1]))
        )
        tracing = profiler.tracer.enabled

        def train_one(rng):
            local = PhaseProfiler(Tracer(enabled=tracing))
            indices = draw_bootstrap_subset(
                rng, len(train_x), subset_size, config.replace,
            )
            mask = draw_feature_mask(rng, train_x.shape[1], kept)
            encoder = NonlinearEncoder(
                train_x.shape[1], config.effective_sub_dimension,
                seed=rng,
                feature_mask=None if mask.all() else mask,
            )
            encoded = self._encode_on_device(
                encoder, train_x[indices], train_x, local,
            )
            classifier = HDCClassifier(
                dimension=config.effective_sub_dimension, encoder=encoder,
                learning_rate=config.learning_rate,
                chunk_size=config.chunk_size, seed=rng,
            )
            history = classifier.fit(
                encoded, train_y[indices], iterations=config.iterations,
                num_classes=num_classes, encoded=True,
            )
            self._charge_update(classifier, num_classes, local)
            return classifier, history, local

        pool = WorkerPool(self.executor.workers)
        results = pool.map(train_one, spawn_rngs(self._rng, config.num_models))
        for index, (_, _, local) in enumerate(results):
            profiler.absorb(local, f"submodel[{index}]",
                            sub_dimension=config.effective_sub_dimension)
        classifiers = [classifier for classifier, _, _ in results]
        histories = [history for _, history, _ in results]
        return classifiers, histories, pool.last_report

    def _encode_on_device(self, encoder, samples, calibration, profiler):
        """Compile the encoder model, stream ``samples`` through the device.

        Returns float32 encoded hypervectors (dequantized on the host,
        charged under ``encode``).  The device runs each batch on this
        call's own :class:`~repro.runtime.plan.ModelPlan`, and the batch
        is dequantized from the plan's output arena straight into its
        rows of the result, so no int8 copy of the whole encoded set
        is ever made.
        """
        network = encoder_network(encoder)
        flat, compiled, cached = self._compile(network, calibration,
                                               "encoder")
        device = EdgeTpuDevice(self.arch)
        cache_tag = ("cache_hit",) if cached else ()
        # A cache hit skips the host-side generation cost but the device
        # still has to load the (cached) compiled model.
        if not cached:
            profiler.charge("modelgen",
                            generation_seconds(compiled.weight_bytes),
                            name="modelgen.compile", model="encoder")
        profiler.charge("modelgen", device.load_model(compiled),
                        name="device.load", tags=cache_tag, model="encoder",
                        bytes_in=compiled.model.size_bytes())

        quantized_in = flat.input_spec.qparams.quantize(samples)
        plan = ModelPlan(compiled, min(self.train_batch, len(samples)))
        out_qparams = compiled.tpu_ops[-1].output_qparams
        encoded = np.empty((len(samples), encoder.dimension),
                           dtype=np.float32)
        with profiler.tracer.span("encode", phase="encode",
                                  samples=len(samples)):
            for start in range(0, len(samples), self.train_batch):
                result = device.invoke(
                    quantized_in[start:start + self.train_batch],
                    executor=plan.run_device,
                )
                profiler.charge("encode", result.elapsed_s,
                                name="device.invoke", device=0,
                                batch=len(result.outputs),
                                bytes_in=result.bytes_in,
                                bytes_out=result.bytes_out)
                # Host-side dequantization of the returned hypervectors.
                out_qparams.dequantize(
                    result.outputs,
                    out=encoded[start:start + len(result.outputs)],
                )
            profiler.charge(
                "encode", self.host.elementwise_seconds(encoded.size),
                name="host.dequantize", elements=encoded.size,
            )
        return encoded

    def _compile(self, network, calibration, name):
        """Convert + compile ``network``; ``(flat, compiled, was_cached)``.

        Only a caller's shared :class:`CompileCache` is consulted (and
        only it pays the content hash).
        """
        calibration = calibration[:_CALIBRATION_SAMPLES]
        if self.compile_cache is not None:
            return self.compile_cache.get_or_compile(
                network, calibration, self.arch, name,
            )
        flat = convert(network, calibration, name=name)
        return flat, compile_model(flat, self.arch), False

    def _charge_update(self, classifier, num_classes, profiler):
        """Charge the host update phase from measured per-pass statistics.

        Each pass is charged at the classifier's own width and update
        chunk size, the granularity its kernels actually dispatched at.
        """
        history = classifier.history
        for iteration, (samples, updates) in enumerate(
                zip(history.samples_seen, history.updates)):
            mistake_fraction = updates / max(1, samples)
            profiler.charge("update", self._costs.update_seconds(
                samples, classifier.dimension, num_classes, iterations=1,
                mistake_fraction=mistake_fraction,
                chunk_size=classifier.chunk_size, platform=self.host,
            ), name="host.update", iteration=iteration, samples=samples,
                updates=updates)

    def _fuse(self, classifiers, num_classes) -> FusedHDCModel:
        base = np.hstack([c.encoder.base_hypervectors for c in classifiers])
        class_matrix = np.vstack([c.class_hypervectors.T for c in classifiers])
        return FusedHDCModel(
            base_matrix=base.astype(np.float32, copy=False),
            class_matrix=class_matrix.astype(np.float32, copy=False),
            num_classes=num_classes,
            sub_widths=[c.dimension for c in classifiers],
        )

    def _deploy_inference_model(self, fused, calibration, profiler):
        network = inference_network(
            fused.base_matrix, fused.class_matrix, include_argmax=True,
            name="hdc-inference",
        )
        flat, compiled, cached = self._compile(network, calibration,
                                               "hdc-inference")
        if not cached:
            profiler.charge("modelgen",
                            generation_seconds(compiled.weight_bytes),
                            name="modelgen.compile", model="hdc-inference")
        elif profiler.tracer:
            profiler.tracer.add(
                "modelgen.compile", profiler.tracer.cursor_s,
                profiler.tracer.cursor_s, tags=("cache_hit",),
                model="hdc-inference",
            )
        return flat, compiled


class InferencePipeline:
    """Runs a compiled inference model on the device (paper Fig. 6 setup).

    One device, batch after batch: each batch's device invoke and its
    host tail (:func:`~repro.runtime.executor.run_host_tail`) are
    charged in sequence, so the modeled time is their plain sum.  For
    several devices, serve the rows as a closed-loop trace instead
    (see ``docs/architecture.md``, "Offline multi-device inference").

    Args:
        compiled: The compiled inference model from a
            :class:`TrainingPipeline` result.
        host: Host CPU model charging the tail (the argmax fallback).
        batch: Samples per invocation (1 = the paper's real-time mode).
        tracing: Record a ``device.invoke`` and a ``host.tail`` span per
            batch; the trace rides on :attr:`InferenceResult.trace`.
    """

    def __init__(self, compiled: CompiledModel, host: Platform | None = None,
                 batch: int = 1, tracing: bool = False):
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.compiled = compiled
        self.host = host if host is not None else MobileCpu()
        self.batch = batch
        self.tracing = tracing
        self.device = EdgeTpuDevice(compiled.arch)
        self.model_load_seconds = self.device.load_model(compiled)

    def run(self, test_x: np.ndarray,
            test_y: np.ndarray | None = None) -> InferenceResult:
        """Classify ``test_x``; returns predictions with modeled timing.

        The breakdown covers this run only: the device's per-term
        charges summed in batch order, plus ``host_tail``, so its values
        add up to ``seconds``.
        """
        test_x = np.asarray(test_x, dtype=np.float32)
        if test_x.ndim != 2:
            raise ValueError(f"expected 2-D samples, got shape {test_x.shape}")
        if test_y is not None:
            test_y = np.asarray(test_y, dtype=np.int64)
            if len(test_y) != len(test_x):
                raise ValueError(
                    f"{len(test_x)} predictions but {len(test_y)} labels"
                )
        tracer = Tracer(enabled=True) if self.tracing else None
        quantized = self.compiled.model.input_spec.qparams.quantize(test_x)
        seconds = 0.0
        breakdown: dict = {}
        host_tail = 0.0
        predictions = np.empty(len(test_x), dtype=np.int64)
        root = (tracer.add("pipeline.infer", 0.0, 0.0,
                           samples=len(test_x), batch=self.batch)
                if tracer else None)
        for start in range(0, len(test_x), self.batch):
            chunk = quantized[start:start + self.batch]
            result = self.device.invoke(chunk)
            if tracer:
                tracer.add("device.invoke", seconds,
                           seconds + result.elapsed_s, parent_id=root,
                           phase="inference", device=0, batch=len(chunk),
                           elapsed_s=result.elapsed_s,
                           bytes_in=result.bytes_in,
                           bytes_out=result.bytes_out)
            seconds += result.elapsed_s
            for key, value in result.breakdown.items():
                breakdown[key] = breakdown.get(key, 0.0) + value
            predictions[start:start + len(chunk)], cost = run_host_tail(
                self.compiled, result.outputs, self.host,
            )
            if tracer:
                tracer.add("host.tail", seconds, seconds + cost,
                           parent_id=root, phase="inference",
                           batch=len(chunk))
            seconds += cost
            host_tail += cost
        breakdown["host_tail"] = host_tail
        if tracer:
            tracer.finish(root, seconds)
            tracer.advance(seconds)
        accuracy = None
        if test_y is not None and len(test_y):
            accuracy = float(np.mean(predictions == test_y))
        return InferenceResult(
            predictions=predictions, seconds=seconds, accuracy=accuracy,
            breakdown=breakdown, trace=tracer,
        )
