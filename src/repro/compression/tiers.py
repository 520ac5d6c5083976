"""Serving tiers: one trained model, several compiled operating points.

The serving stack's graceful-degradation story needs more than one
compiled artifact of the *same* trained model: a full-width tier for
accuracy, a DPQ-compressed tier for load spikes, and a tiny distilled
tier for overload.  :func:`build_tiers` produces that ladder — every
tier goes through the identical ``inference_network → convert →
compile_model`` path as a normal deployment, and every tier's accuracy
is measured *at build time* through the compiled int8 op chain (the
bit-exact host mirror of what a device serves), so the server can
report exactly what accuracy it traded for latency.

Tier 0 is always the uncompressed model; degraded tiers must be
strictly narrower, so their invoke cost is strictly cheaper and
shedding to a higher tier index can only reduce service time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.dpq import compress
from repro.compression.ldc import distill
from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.compiler import CompiledModel, compile_model
from repro.hdc.bagging import FusedHDCModel
from repro.nn.builder import inference_network
from repro.runtime.plan import ModelPlan
from repro.tflite.converter import convert

__all__ = [
    "DEFAULT_TIER_SPECS",
    "Tier",
    "TierSet",
    "TierSpec",
    "build_tiers",
    "compiled_predict",
]

_KINDS = ("full", "dpq", "ldc")

# Rows per prediction slice: bounds the arena a build-time accuracy
# pass allocates for a large evaluation set.
_PREDICT_SLICE = 256


@dataclass(frozen=True)
class TierSpec:
    """Recipe for one serving tier.

    Attributes:
        name: Tier name (unique within a ladder; used in metric names).
        kind: ``"full"`` (the uncompressed model), ``"dpq"``
            (post-training prune + sub-int8 quantization) or ``"ldc"``
            (low-dimensional distilled student).
        dimension: Target hypervector width (ignored for ``"full"``).
        bits: Class-weight width for ``"dpq"``.
        iterations: Student training passes for ``"ldc"``.
    """

    name: str
    kind: str = "full"
    dimension: int | None = None
    bits: int = 4
    iterations: int = 4

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if self.kind not in _KINDS:
            raise ValueError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.kind != "full" and (self.dimension is None
                                    or self.dimension < 1):
            raise ValueError(
                f"tier {self.name!r} ({self.kind}) needs a positive "
                f"dimension, got {self.dimension}"
            )


#: The paper-scale ladder: full width, DPQ-compressed ~d/5, tiny LDC
#: student.  ``build_tiers`` clamps the widths to the trained model.
DEFAULT_TIER_SPECS = (
    TierSpec("full", "full"),
    TierSpec("compressed", "dpq", dimension=2048),
    TierSpec("tiny", "ldc", dimension=256),
)


@dataclass
class Tier:
    """One built serving tier: the model, its compilation, its accuracy.

    Attributes:
        name: Tier name (from the spec).
        kind: Compression kind (from the spec).
        fused: The tier's float model.
        compiled: The tier's Edge TPU compilation.
        build_accuracy: Accuracy on the build-time evaluation set,
            measured through the compiled int8 ops (``None`` when no
            labeled evaluation set was provided).
    """

    name: str
    kind: str
    fused: FusedHDCModel
    compiled: CompiledModel
    build_accuracy: float | None = None

    @property
    def dimension(self) -> int:
        """Hypervector width of this tier."""
        return self.fused.dimension

    @property
    def weight_bytes(self) -> int:
        """On-accelerator parameter bytes of this tier."""
        return self.compiled.weight_bytes


@dataclass
class TierSet:
    """An ordered ladder of serving tiers, full-accuracy first.

    Indexing and iteration go by tier index (0 = full model); the
    server sheds load by moving to higher indices.
    """

    tiers: list[Tier] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("a TierSet needs at least one tier")
        names = [t.name for t in self.tiers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tier names: {names}")
        for left, right in zip(self.tiers, self.tiers[1:]):
            if right.dimension >= left.dimension:
                raise ValueError(
                    f"tiers must be strictly narrowing: {right.name!r} "
                    f"(d={right.dimension}) does not degrade "
                    f"{left.name!r} (d={left.dimension})"
                )

    def __len__(self) -> int:
        return len(self.tiers)

    def __iter__(self):
        return iter(self.tiers)

    def __getitem__(self, index: int) -> Tier:
        return self.tiers[index]

    @property
    def names(self) -> list[str]:
        """Tier names in ladder order."""
        return [t.name for t in self.tiers]

    def summary(self) -> dict:
        """Flat, JSON-ready description of the ladder."""
        return {
            "schema": "repro.tiers/1",
            "tiers": [
                {
                    "name": t.name,
                    "kind": t.kind,
                    "dimension": t.dimension,
                    "weight_bytes": t.weight_bytes,
                    "build_accuracy": t.build_accuracy,
                }
                for t in self.tiers
            ],
        }


def compiled_predict(compiled: CompiledModel, x: np.ndarray, *,
                     plan: ModelPlan | None = None) -> np.ndarray:
    """Predict through the compiled int8 op chain on the host.

    Runs the stack's one int8 executor — the same
    :class:`~repro.runtime.plan.ModelPlan` path the server's CPU
    fallback takes, bit-identical to what a device returns — so
    build-time accuracy is exactly served accuracy, not a float
    approximation of it.

    Args:
        compiled: The compiled model to run.
        x: Float feature batch.
        plan: Optional plan to reuse (say, a server's) instead of
            building one; used only when it runs ``compiled``.  The
            batch goes through it in slices of its ``max_rows``.
    """
    x = np.asarray(x, dtype=np.float32)
    out = np.empty(len(x), dtype=np.int64)
    if len(x) == 0:
        return out
    if plan is None or plan.compiled is not compiled:
        plan = ModelPlan(compiled, min(len(x), _PREDICT_SLICE))
    step = plan.max_rows
    for start in range(0, len(x), step):
        chunk = x[start:start + step]
        out[start:start + len(chunk)] = plan.predict(chunk)
    return out


def _compile_tier(fused: FusedHDCModel, calibration: np.ndarray,
                  name: str, arch: EdgeTpuArch | None) -> CompiledModel:
    network = inference_network(
        fused.base_matrix, fused.class_matrix,
        include_argmax=True, name=f"hdc-tier-{name}",
    )
    return compile_model(convert(network, calibration, name=network.name),
                         arch)


def build_tiers(fused: FusedHDCModel, calibration: np.ndarray, *,
                specs: tuple[TierSpec, ...] | list[TierSpec] | None = None,
                evaluation: tuple[np.ndarray, np.ndarray] | None = None,
                compiled_full: CompiledModel | None = None,
                arch: EdgeTpuArch | None = None,
                seed: int | None = 0) -> TierSet:
    """Build the compiled serving ladder for one trained model.

    Args:
        fused: The trained full-width model (tier 0's weights).
        calibration: Representative float batch for int8 conversion
            (also the distillation set for ``"ldc"`` tiers).
        specs: Ladder recipe; defaults to :data:`DEFAULT_TIER_SPECS`.
            The first spec must be kind ``"full"``.  Degraded widths
            wider than the trained model are clamped to half its width
            (so the default ladder works for small models too).
        evaluation: Optional labeled ``(x, y)`` set; when given, every
            tier's :attr:`Tier.build_accuracy` is measured on it
            through the compiled int8 ops.
        compiled_full: Reuse an existing tier-0 compilation (e.g.
            :attr:`PipelineResult.compiled
            <repro.runtime.pipeline.PipelineResult>`) instead of
            recompiling — the served artifact stays the deployed one.
        arch: Edge TPU architecture for tiers compiled here.
        seed: Seed for ``"ldc"`` student training.

    Returns:
        The :class:`TierSet`, ready for
        ``InferenceServer(..., tiers=...)``.
    """
    if specs is None:
        specs = DEFAULT_TIER_SPECS
    specs = list(specs)
    if not specs or specs[0].kind != "full":
        raise ValueError("the first tier spec must be kind='full'")
    if compiled_full is not None and arch is None:
        arch = compiled_full.arch
    calibration = np.asarray(calibration, dtype=np.float32)

    tiers: list[Tier] = []
    seen_dims = {fused.dimension}
    for index, spec in enumerate(specs):
        if spec.kind == "full":
            if index != 0:
                raise ValueError(
                    "only tier 0 may be kind='full' "
                    f"(got {spec.name!r} at index {index})"
                )
            model = fused
            compiled = (compiled_full if compiled_full is not None
                        else _compile_tier(fused, calibration, spec.name,
                                           arch))
        else:
            # Clamp a too-wide degraded spec so the default ladder
            # applies to models narrower than the paper's d=10k.
            target = min(spec.dimension, max(1, fused.dimension // 2))
            while target in seen_dims:
                target -= 1
            if target < 1:
                raise ValueError(
                    f"tier {spec.name!r} cannot find a width below "
                    f"the preceding tiers"
                )
            seen_dims.add(target)
            if spec.kind == "dpq":
                model = compress(fused, target, bits=spec.bits).model
            else:
                model = distill(fused, calibration, dimension=target,
                                iterations=spec.iterations, seed=seed)
            compiled = _compile_tier(model, calibration, spec.name, arch)
        accuracy = None
        if evaluation is not None:
            eval_x, eval_y = evaluation
            predictions = compiled_predict(compiled, eval_x)
            accuracy = float(np.mean(
                predictions == np.asarray(eval_y, dtype=np.int64)
            ))
        tiers.append(Tier(name=spec.name, kind=spec.kind, fused=model,
                          compiled=compiled, build_accuracy=accuracy))
    return TierSet(tiers)
