"""Analytic phase-cost models for HDC training and inference.

These reproduce the structure of the paper's runtime measurements
(Figs. 5, 6, 10 and Table II) from dataset *shapes* alone:

- **CPU baseline** — float HDC entirely on a host CPU model: encoding is
  one hyper-wide matmul plus a tanh pass; each training iteration is a
  similarity matmul plus elementwise bundling/detaching updates for the
  mispredicted fraction.
- **TPU framework** — encoding batched through the Edge TPU (paying USB
  transfers of the *d*-wide encoded hypervectors back to the host, the
  term that caps encoding speedup), updates on the host CPU, plus the
  one-time TFLite-generation / compiler / model-load cost the paper
  includes in Fig. 5.  Device time is the simulator's own: shape-only
  op plans of the HDC stacks priced by the accelerator arch's
  :meth:`~repro.edgetpu.backend.AcceleratorArch.invoke_seconds`, the
  function every compiled model's device charge reads, so any
  registered backend can price the figures.
- **TPU + bagging** — ``M`` sub-models at ``d' = d/M`` on
  ``alpha``-sampled subsets for ``I'`` iterations; encoding cost scales
  by ``alpha`` (with ``M``-fold invoke overheads), update cost by the
  paper's ``C'/C`` factor.
- **Inference** — CPU batched (throughput measurement) vs. Edge TPU at
  batch 1 (the real-time edge setting), where the fixed per-invocation
  dispatch dominates small models (the PAMAP2 counterexample).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.datasets import DatasetSpec
from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import AcceleratorArch
from repro.hdc.bagging import BaggingConfig
from repro.hdc.metrics import weight_update_cost_ratio
from repro.observability.metrics import sum_left_to_right
from repro.platforms.base import Platform
from repro.platforms.cpu import MobileCpu

__all__ = ["CostModel", "HdcTrainingConfig", "PhaseBreakdown", "Workload",
           "generation_seconds"]


@dataclass(frozen=True)
class Workload:
    """Shape of one classification workload.

    Attributes:
        name: Workload name.
        num_train: Training samples.
        num_test: Test samples.
        num_features: Input features ``n``.
        num_classes: Classes ``k``.
    """

    name: str
    num_train: int
    num_test: int
    num_features: int
    num_classes: int

    def __post_init__(self) -> None:
        if min(self.num_train, self.num_test, self.num_features,
               self.num_classes) < 1:
            raise ValueError("all workload dimensions must be >= 1")

    @classmethod
    def from_spec(cls, spec: DatasetSpec) -> "Workload":
        """Build from a Table-I dataset spec."""
        return cls(
            name=spec.name,
            num_train=spec.num_train,
            num_test=spec.num_test,
            num_features=spec.num_features,
            num_classes=spec.num_classes,
        )


@dataclass(frozen=True)
class HdcTrainingConfig:
    """HDC hyper-parameters entering the cost model.

    Attributes:
        dimension: Hypervector width ``d``.
        iterations: Training passes ``I`` (paper baseline: 20).
        mistake_fraction: Average fraction of samples triggering an
            update per pass; drives the elementwise update traffic.  The
            paper's Fig. 4 curves imply ~0.15-0.3 averaged over 20
            passes.
        chunk_size: Host update mini-batch (kernel dispatch granularity).
    """

    dimension: int = 10_000
    iterations: int = 20
    mistake_fraction: float = 0.2
    chunk_size: int = 64

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.iterations < 1 or self.chunk_size < 1:
            raise ValueError("dimension, iterations, chunk_size must be >= 1")
        if not 0.0 <= self.mistake_fraction <= 1.0:
            raise ValueError(
                f"mistake_fraction must be in [0, 1], got {self.mistake_fraction}"
            )


@dataclass(frozen=True)
class PhaseBreakdown:
    """Seconds per training phase (the bars of the paper's Fig. 5).

    Attributes:
        encode: Training-set encoding time.
        update: Class-hypervector update time (host CPU).
        modelgen: TFLite generation + Edge TPU compile + model load
            (zero for the CPU baseline).
    """

    encode: float
    update: float
    modelgen: float = 0.0

    @property
    def total(self) -> float:
        """End-to-end training time."""
        return self.encode + self.update + self.modelgen

    def speedup_over(self, baseline: "PhaseBreakdown") -> float:
        """``baseline.total / self.total``."""
        if self.total == 0:
            raise ZeroDivisionError("cannot compute speedup of zero runtime")
        return baseline.total / self.total


# Calibrated model-generation cost: TFLite file generation plus
# ``edgetpu_compiler`` run, as a function of parameter count (the device
# load is the arch's).  DESIGN.md section 2 records the calibration.
_MODELGEN_FIXED_S = 0.3
_MODELGEN_S_PER_PARAM = 0.15e-6

# TanhOp's int8 lookup table, resident on the device with the weights.
_TANH_LUT_BYTES = 256


def generation_seconds(parameter_bytes: int) -> float:
    """TFLite generation + accelerator compilation of one model (no
    device load): the training pipeline and the hot swapper charge it
    per compiled model, and the load from the device they load onto."""
    if parameter_bytes < 0:
        raise ValueError(
            f"parameter_bytes must be >= 0, got {parameter_bytes}"
        )
    return _MODELGEN_FIXED_S + parameter_bytes * _MODELGEN_S_PER_PARAM


class CostModel:
    """Phase-cost calculator for one host/accelerator pairing.

    Args:
        host: Host CPU platform model (defaults to the paper's mobile
            i5 class).
        arch: Accelerator backend pricing the device terms (defaults to
            the standard USB Edge TPU); any registered backend works.
        train_batch: Samples per Edge TPU invocation during training-set
            encoding (offline batching).
        inference_batch: Samples per invocation at inference (the paper
            measures the real-time setting: 1).
    """

    def __init__(self, host: Platform | None = None,
                 arch: AcceleratorArch | None = None,
                 train_batch: int = 256, inference_batch: int = 1):
        if train_batch < 1 or inference_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        self.host = host if host is not None else MobileCpu()
        self.arch = arch if arch is not None else EdgeTpuArch()
        self.train_batch = train_batch
        self.inference_batch = inference_batch

    # ------------------------------------------------------------------
    # Phase primitives
    # ------------------------------------------------------------------

    def cpu_encode_seconds(self, num_samples: int, num_features: int,
                           dimension: int,
                           platform: Platform | None = None) -> float:
        """Float encoding ``tanh(X @ B)`` of ``num_samples`` on a CPU."""
        platform = platform if platform is not None else self.host
        return (
            platform.matmul_seconds(num_samples, num_features, dimension)
            + platform.tanh_seconds(num_samples * dimension)
        )

    def invoke_seconds(self, layer_dims: list[tuple[int, int]],
                       batch: int) -> float:
        """Device time of one invocation of an HDC dense stack.

        ``layer_dims`` is ``[(n, d)]`` for the encoder (FC, TANH) or
        ``[(n, d), (d, k)]`` for the inference model (FC, TANH, FC),
        int8 with no bias as the pipelines compile them; the arch
        prices their shape-only plans exactly as it prices the
        compiled model's ``invoke_seconds(batch)``.
        """
        plans = []
        for index, (input_dim, output_dim) in enumerate(layer_dims):
            plans.append(self.arch.plan(
                "classify" if index else "encode", "FULLY_CONNECTED",
                input_dim * output_dim, input_dim, output_dim,
            ))
            if index == 0:
                plans.append(self.arch.plan("tanh", "TANH", _TANH_LUT_BYTES,
                                            output_dim, output_dim))
        return self.arch.invoke_seconds(plans, batch)

    def tpu_encode_seconds(self, num_samples: int, num_features: int,
                           dimension: int) -> float:
        """Edge TPU encoding: batched invokes of the encoder model.

        Each invocation transfers ``batch * n`` int8 inputs down and
        ``batch * d`` int8 encoded hypervectors back — the output
        transfer is the dominant per-sample cost for hyper-wide ``d``.
        """
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        layers = [(num_features, dimension)]
        full_batches, remainder = divmod(num_samples, self.train_batch)
        seconds = full_batches * self.invoke_seconds(layers,
                                                     self.train_batch)
        if remainder:
            seconds += self.invoke_seconds(layers, remainder)
        return seconds

    def update_seconds(self, num_samples: int, dimension: int,
                       num_classes: int, iterations: int,
                       mistake_fraction: float, chunk_size: int,
                       platform: Platform | None = None) -> float:
        """Host class-hypervector update phase over ``iterations`` passes.

        Per pass: one similarity matmul ``(N, d) @ (d, k)``, a row-wise
        argmax, elementwise bundle/detach traffic for the mispredicted
        fraction, and chunked kernel dispatch overheads.
        """
        platform = platform if platform is not None else self.host
        per_pass = platform.matmul_seconds(num_samples, dimension, num_classes)
        per_pass += platform.argmax_seconds(num_samples, num_classes)
        updated = mistake_fraction * num_samples
        # Each update touches two class hypervectors: C_a += lr*E and
        # C_b -= lr*E, i.e. 2*d multiply-adds of streamed traffic.
        per_pass += platform.elementwise_seconds(int(updated * 2 * dimension))
        chunks = -(-num_samples // chunk_size)
        per_pass += platform.call_overhead_seconds(2 * chunks)
        return iterations * per_pass

    def modelgen_seconds(self, parameter_count: int) -> float:
        """TFLite generation + accelerator compilation + device load."""
        return (generation_seconds(parameter_count)
                + self.arch.load_seconds(parameter_count))

    # ------------------------------------------------------------------
    # Training (Fig. 5)
    # ------------------------------------------------------------------

    def cpu_training(self, workload: Workload,
                     config: HdcTrainingConfig | None = None,
                     platform: Platform | None = None) -> PhaseBreakdown:
        """The paper's CPU baseline: everything in float on one CPU."""
        config = config if config is not None else HdcTrainingConfig()
        platform = platform if platform is not None else self.host
        encode = self.cpu_encode_seconds(
            workload.num_train, workload.num_features, config.dimension,
            platform,
        )
        update = self.update_seconds(
            workload.num_train, config.dimension, workload.num_classes,
            config.iterations, config.mistake_fraction, config.chunk_size,
            platform,
        )
        return PhaseBreakdown(encode=encode, update=update, modelgen=0.0)

    def tpu_training(self, workload: Workload,
                     config: HdcTrainingConfig | None = None) -> PhaseBreakdown:
        """The TPU baseline (paper's "TPU"): encoding on the Edge TPU."""
        config = config if config is not None else HdcTrainingConfig()
        encode = self.tpu_encode_seconds(
            workload.num_train, workload.num_features, config.dimension,
        )
        update = self.update_seconds(
            workload.num_train, config.dimension, workload.num_classes,
            config.iterations, config.mistake_fraction, config.chunk_size,
        )
        # Encoder model (n x d) for training plus the full inference
        # model (n x d + d x k) generated after training.
        params = (
            workload.num_features * config.dimension
            + workload.num_features * config.dimension
            + config.dimension * workload.num_classes
        )
        return PhaseBreakdown(
            encode=encode, update=update,
            modelgen=self.modelgen_seconds(params),
        )

    def tpu_bagged_training(self, workload: Workload,
                            config: HdcTrainingConfig | None = None,
                            bagging: BaggingConfig | None = None
                            ) -> PhaseBreakdown:
        """The paper's full framework ("TPU_B"): bagging + Edge TPU."""
        config = config if config is not None else HdcTrainingConfig()
        bagging = bagging if bagging is not None else BaggingConfig(
            dimension=config.dimension,
        )
        sub_dim = bagging.effective_sub_dimension
        subset = max(1, int(round(bagging.dataset_ratio * workload.num_train)))
        sub_features = max(
            1, int(round(bagging.feature_ratio * workload.num_features))
        )
        # Encoding: M sub-models, each encoding its alpha-subset at d'.
        encode = sum_left_to_right(
            self.tpu_encode_seconds(subset, sub_features, sub_dim)
            for _ in range(bagging.num_models)
        )
        # Updates: the paper's C' = C * M * (d'/d) * (I'/I) * alpha * beta
        # emerges from charging each sub-model's update phase directly.
        update = bagging.num_models * self.update_seconds(
            subset, sub_dim, workload.num_classes,
            bagging.iterations, config.mistake_fraction, config.chunk_size,
        )
        # Model generation: M encoder models plus the fused inference
        # model (same size as the non-bagged one).
        params = (
            bagging.num_models * sub_features * sub_dim
            + workload.num_features * config.dimension
            + config.dimension * workload.num_classes
        )
        return PhaseBreakdown(
            encode=encode, update=update,
            modelgen=self.modelgen_seconds(params),
        )

    # ------------------------------------------------------------------
    # Inference (Fig. 6)
    # ------------------------------------------------------------------

    def cpu_inference(self, workload: Workload,
                      config: HdcTrainingConfig | None = None,
                      platform: Platform | None = None) -> float:
        """Batched float inference over the test set on a CPU."""
        config = config if config is not None else HdcTrainingConfig()
        platform = platform if platform is not None else self.host
        n_test = workload.num_test
        return (
            self.cpu_encode_seconds(
                n_test, workload.num_features, config.dimension, platform,
            )
            + platform.matmul_seconds(
                n_test, config.dimension, workload.num_classes,
            )
            + platform.argmax_seconds(n_test, workload.num_classes)
        )

    def tpu_inference(self, workload: Workload,
                      config: HdcTrainingConfig | None = None) -> float:
        """Edge TPU inference over the test set at the real-time batch.

        The fused bagged model has exactly the same layer shapes, so the
        paper's "no extra overhead" claim holds by construction here.
        """
        config = config if config is not None else HdcTrainingConfig()
        batch = self.inference_batch
        full_batches, remainder = divmod(workload.num_test, batch)
        layers = [
            (workload.num_features, config.dimension),
            (config.dimension, workload.num_classes),
        ]
        per_invoke = self.invoke_seconds(layers, batch)
        # Host-side argmax fallback per invocation (the CPU tail).
        per_invoke += self.host.argmax_seconds(batch, workload.num_classes)
        seconds = full_batches * per_invoke
        if remainder:
            seconds += (
                self.invoke_seconds(layers, remainder)
                + self.host.argmax_seconds(remainder, workload.num_classes)
            )
        return seconds

    # ------------------------------------------------------------------
    # Derived ratios
    # ------------------------------------------------------------------

    def encoding_speedup(self, num_samples: int, num_features: int,
                         dimension: int = 10_000) -> float:
        """CPU-encode time over TPU-encode time (the paper's Fig. 10)."""
        cpu = self.cpu_encode_seconds(num_samples, num_features, dimension)
        tpu = self.tpu_encode_seconds(num_samples, num_features, dimension)
        return cpu / tpu

    def update_cost_ratio_measured(self, workload: Workload,
                                   config: HdcTrainingConfig | None = None,
                                   bagging: BaggingConfig | None = None
                                   ) -> float:
        """Modeled update-phase ratio baseline/bagged (cf. the paper's 4.74x)."""
        config = config if config is not None else HdcTrainingConfig()
        bagging = bagging if bagging is not None else BaggingConfig(
            dimension=config.dimension,
        )
        baseline = self.cpu_training(workload, config).update
        bagged = self.tpu_bagged_training(workload, config, bagging).update
        return baseline / bagged

    @staticmethod
    def update_cost_ratio_paper(config: HdcTrainingConfig,
                                bagging: BaggingConfig) -> float:
        """The paper's analytic ``C'/C`` for the same configuration."""
        return weight_update_cost_ratio(
            bagging.num_models, bagging.effective_sub_dimension,
            config.dimension, bagging.iterations, config.iterations,
            bagging.dataset_ratio, bagging.feature_ratio,
        )
