"""Before/after wall-clock of the int8 fast-path compute engine.

Builds the paper's full-width workload — a 617 → 10,000 nonlinear
encoder (FC→TANH) feeding a 10,000 → 26 classifier (FC→ARGMAX), the
ISOLET shape — and measures one in-process invoke through:

- **reference**: the frozen seed kernels (``run_reference`` /
  ``accumulate_reference`` plus the pre-change per-op tanh/argmax
  dispatch), which re-cast weights and scan the accumulator per invoke;
- **fastpath**: the int8 executor as the interpreter and the Edge TPU
  simulator actually run it — the arena-backed
  :class:`~repro.runtime.plan.ModelPlan` (VNNI kernels where the CPU
  allows, the in-place numpy arena otherwise).

Bit-identity — predictions *and* every quantized activation byte — is
the regression guard; the wall-clock ratio is recorded to
``BENCH_fastpath.json`` (CI uploads it) and to ``bench_results.txt``.
The acceptance bar is a ≥ 3x speedup on this container.
"""

import json
import pathlib
import time

import numpy as np

from repro.edgetpu import EdgeTpuDevice, compile_model
from repro.experiments.report import format_table
from repro.tflite import FlatModel, Interpreter, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_fastpath.json"

FEATURES = 617
DIMENSION = 10_000
CLASSES = 26
BATCH = 64
REPEATS = 3


def _full_width_model(rng) -> FlatModel:
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-55.0, 55.0)
    out_qp = qparams_asymmetric(-30.0, 30.0)
    encode = FullyConnectedOp.from_float(
        rng.standard_normal((FEATURES, DIMENSION)).astype(np.float32),
        in_qp, hid_qp, name="encode",
    )
    tanh = TanhOp(hid_qp, name="tanh")
    classify = FullyConnectedOp.from_float(
        rng.standard_normal((DIMENSION, CLASSES)).astype(np.float32) * 0.02,
        tanh.output_qparams, out_qp, name="classify",
    )
    return FlatModel(
        "hdc-fullwidth", TensorSpec("input", (FEATURES,), in_qp),
        [encode, tanh, classify, ArgmaxOp(out_qp, name="argmax")],
    )


def _run_reference(model: FlatModel, x: np.ndarray) -> list[np.ndarray]:
    """The seed execution: per-op dispatch through the frozen kernels.

    Returns every op's output so activations can be byte-compared.
    """
    outputs = []
    for op in model.ops:
        if isinstance(op, FullyConnectedOp):
            x = op.run_reference(x)
        elif isinstance(op, TanhOp):
            # Seed tanh dispatch: astype(int32) + 128 indexing.
            x = op.lut[x.astype(np.int32) + 128]
        else:
            x = op.run(x)
        outputs.append(x)
    return outputs


def _run_unfused_fast(model: FlatModel, x: np.ndarray) -> list[np.ndarray]:
    """Fast kernels, op-by-op — yields the intermediate activations."""
    outputs = []
    for op in model.ops:
        x = op.run(x)
        outputs.append(x)
    return outputs


def _best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_fastpath_speedup_and_bit_identity(record_result):
    rng = np.random.default_rng(7)
    model = _full_width_model(rng)
    interpreter = Interpreter(model)
    x = model.input_spec.qparams.quantize(
        rng.uniform(-4, 4, (BATCH, FEATURES)).astype(np.float32)
    )

    # --- bit-identity: the regression guard -------------------------
    reference = _run_reference(model, x)
    unfused = _run_unfused_fast(model, x)
    for op, ref, fast in zip(model.ops, reference, unfused):
        assert fast.tobytes() == ref.tobytes(), \
            f"fast path diverged from seed oracle at op {op.name!r}"
    fused_out = interpreter.run_quantized(x)
    assert fused_out.tobytes() == reference[-1].tobytes()

    # The Edge TPU simulator shares the executor: its TPU-subgraph
    # output must match the reference chain's classifier activations.
    compiled = compile_model(model)
    device = EdgeTpuDevice(compiled.arch)
    device.load_model(compiled)
    assert device.invoke(x).outputs.tobytes() == reference[-2].tobytes()

    # --- wall clock -------------------------------------------------
    reference_s = _best_of(_run_reference, model, x)
    fastpath_s = _best_of(interpreter.run_quantized, x)
    speedup = reference_s / fastpath_s

    payload = {
        "workload": {
            "features": FEATURES,
            "dimension": DIMENSION,
            "classes": CLASSES,
            "batch": BATCH,
            "ops": [op.kind for op in model.ops],
        },
        "repeats": REPEATS,
        "reference_seconds": reference_s,
        "fastpath_seconds": fastpath_s,
        "speedup": speedup,
        "bit_identical": True,
        "per_sample_us": {
            "reference": reference_s / BATCH * 1e6,
            "fastpath": fastpath_s / BATCH * 1e6,
        },
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_result(format_table(
        ["metric", "value"],
        [
            ["reference invoke (ms)", reference_s * 1e3],
            ["fast-path invoke (ms)", fastpath_s * 1e3],
            ["speedup (x)", speedup],
            ["outputs bit-identical", "yes"],
        ],
        title=(f"Int8 fast path — {FEATURES}->{DIMENSION}->{CLASSES} "
               f"encoder+classifier, batch {BATCH}"),
    ))

    # CI regression guard: bit-identity above is the hard gate; the
    # wall-clock bar has ~10x headroom on this container.
    assert speedup >= 3.0, (
        f"fast path only {speedup:.1f}x over the seed kernels "
        f"({reference_s:.3f}s vs {fastpath_s:.3f}s)"
    )


def test_fastpath_is_exact_on_adversarial_batch():
    """Saturated codes through the full-width model stay byte-identical."""
    rng = np.random.default_rng(11)
    model = _full_width_model(rng)
    x = np.vstack([
        np.full((1, FEATURES), -128, dtype=np.int8),
        np.full((1, FEATURES), 127, dtype=np.int8),
        rng.integers(-128, 128, (6, FEATURES)).astype(np.int8),
    ])
    reference = _run_reference(model, x)
    assert Interpreter(model).run_quantized(x).tobytes() == \
        reference[-1].tobytes()
