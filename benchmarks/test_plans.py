"""Wall-clock of the int8 executor on the paper workload.

Builds the full-width ISOLET shape — a 617 → 10,000 nonlinear encoder
(FC→TANH) feeding a 10,000 → 26 classifier (FC→ARGMAX) — and measures
one batch-64 invocation through:

- **fastpath**: the allocating fused BLAS kernels called explicitly,
  ``run_tanh_fused`` → ``run_argmax_fused`` — the serving compute path
  before plans became the only executor (itself ~10x over the seed
  kernels, see ``BENCH_fastpath.json``);
- **plan**: the arena-backed :class:`~repro.runtime.plan.ModelPlan` —
  preallocated scratch, int8 and packed weights only, ``out=``-kernels
  and (where the CPU allows) the AVX-512 VNNI fused microkernel.

Predictions are byte-compared against the frozen ``run_reference``
oracle chain; the speedup and a sustained-throughput run of an
:class:`~repro.serving.server.InferenceServer` with the default
``ServeConfig`` land in ``BENCH_plans.json`` (CI uploads it) and
``bench_results.txt``.

Acceptance: ≥ 3x over the fast path at batch 64 with the native kernel
(the portable numpy arena path is gated at a softer bar — BLAS alone
cannot reach 3x on one core), and ≥ 10^5 simulated requests per minute
of *wall* time through the full serving event loop.
"""

import json
import pathlib
import time

import numpy as np

import pytest

from repro import native
from repro.config import ServeConfig
from repro.edgetpu import DevicePool, compile_model
from repro.experiments.report import format_table
from repro.runtime.plan import ModelPlan
from repro.serving import InferenceServer
from repro.serving.arrivals import Request
from repro.tflite import FlatModel, Interpreter, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric

JSON_PATH = pathlib.Path(__file__).parent / "BENCH_plans.json"

FEATURES = 617
DIMENSION = 10_000
CLASSES = 26
BATCH = 64
REPEATS = 5
SERVE_REQUESTS = 4096


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


def _reference_predictions(model: FlatModel, x: np.ndarray) -> np.ndarray:
    """The frozen seed oracle, op by op."""
    out = x
    for op in model.ops:
        if isinstance(op, FullyConnectedOp):
            out = op.run_reference(out)
        elif isinstance(op, TanhOp):
            out = op.lut[out.astype(np.int32) + 128]
        else:
            out = op.run(out)
    return out[:, 0].astype(np.int64)


def _fused_chain(model: FlatModel):
    """The allocating fused kernels, FC→TANH then FC→ARGMAX."""
    encode, tanh, classify, _ = model.ops

    def run(x: np.ndarray) -> np.ndarray:
        return classify.run_argmax_fused(encode.run_tanh_fused(x, tanh))

    return run


def _best_of(fn, *args) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _sustained_serving(model: FlatModel) -> dict:
    """Wall-clock the plan-enabled server on a saturating trace."""
    rng = np.random.default_rng(23)
    features = rng.uniform(-4, 4,
                           (SERVE_REQUESTS, FEATURES)).astype(np.float32)
    trace = [
        Request(request_id=i, arrival_s=i * 1e-6,
                deadline_s=i * 1e-6 + 30.0,
                features=features[i], label=0)
        for i in range(SERVE_REQUESTS)
    ]
    config = ServeConfig(max_batch=BATCH, max_queue=SERVE_REQUESTS)
    compiled = compile_model(model)
    pool = DevicePool(1, compiled.arch)
    pool.load_replicated(compiled)
    server = InferenceServer(pool, config=config)
    start = time.perf_counter()
    report = server.serve(trace)
    wall_s = time.perf_counter() - start
    assert report.served == SERVE_REQUESTS, \
        f"saturating trace dropped requests: {report.dropped}"
    return {
        "requests": SERVE_REQUESTS,
        "wall_seconds": wall_s,
        "requests_per_minute_wall": SERVE_REQUESTS / wall_s * 60.0,
        "served": report.served,
        "dropped": report.dropped,
        "num_batches": report.num_batches,
    }


def test_plan_speedup_and_bit_identity(record_result):
    rng = np.random.default_rng(7)
    model = _full_width_model(rng)
    fastpath = _fused_chain(model)
    floats = rng.uniform(-4, 4, (BATCH, FEATURES)).astype(np.float32)
    x = model.input_spec.qparams.quantize(floats)

    plan = ModelPlan.for_model(model, BATCH)

    # --- bit-identity gates -----------------------------------------
    reference = _reference_predictions(model, x)
    fast = fastpath(x)[:, 0].astype(np.int64)
    assert fast.tobytes() == reference.tobytes()
    interpreted = Interpreter(model).run_quantized(x)[:, 0]
    assert interpreted.astype(np.int64).tobytes() == reference.tobytes()
    q = plan.stage(floats)
    assert q.tobytes() == x.tobytes()
    planned = np.asarray(plan.run_host(q), dtype=np.int64)
    assert planned.tobytes() == reference.tobytes(), \
        "plan diverged from the frozen oracle"
    # The numpy arena path must agree byte-for-byte with the native one.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        numpy_plan = ModelPlan.for_model(model, BATCH)
    numpy_q = numpy_plan.stage(floats)
    assert np.asarray(numpy_plan.run_host(numpy_q)).tobytes() \
        == reference.tobytes()

    # --- wall clock ---------------------------------------------------
    fastpath_s = _best_of(fastpath, x)
    plan_s = _best_of(plan.run_host, q)
    numpy_plan_s = _best_of(numpy_plan.run_host, numpy_q)
    speedup = fastpath_s / plan_s

    serving = _sustained_serving(model)

    payload = {
        "workload": {
            "features": FEATURES,
            "dimension": DIMENSION,
            "classes": CLASSES,
            "batch": BATCH,
            "ops": [op.kind for op in model.ops],
        },
        "repeats": REPEATS,
        "native_kernel": plan.native,
        "arena_rows": plan.max_rows,
        "fastpath_seconds": fastpath_s,
        "plan_seconds": plan_s,
        "numpy_plan_seconds": numpy_plan_s,
        "speedup": speedup,
        "numpy_plan_speedup": fastpath_s / numpy_plan_s,
        "bit_identical": True,
        "per_sample_us": {
            "fastpath": fastpath_s / BATCH * 1e6,
            "plan": plan_s / BATCH * 1e6,
        },
        "sustained_serving": serving,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record_result(format_table(
        ["metric", "value"],
        [
            ["fast-path invoke (ms)", fastpath_s * 1e3],
            ["plan invoke (ms)", plan_s * 1e3],
            ["numpy-arena invoke (ms)", numpy_plan_s * 1e3],
            ["speedup (x)", speedup],
            ["native kernel", "yes" if plan.native else "no"],
            ["serving req/min (wall)",
             serving["requests_per_minute_wall"]],
            ["outputs bit-identical", "yes"],
        ],
        title=(f"Serving plans — {FEATURES}->{DIMENSION}->{CLASSES}, "
               f"batch {BATCH}"),
    ))

    # Acceptance: the 3x bar holds where the VNNI kernel runs; the
    # numpy arena fallback (BLAS is the floor there) gates softer so
    # the benchmark stays portable.
    if plan.native:
        assert speedup >= 3.0, (
            f"plan only {speedup:.2f}x over the fast path "
            f"({fastpath_s * 1e3:.2f}ms vs {plan_s * 1e3:.2f}ms)"
        )
        assert serving["requests_per_minute_wall"] >= 1e5, (
            f"sustained only "
            f"{serving['requests_per_minute_wall']:.0f} req/min wall"
        )
    else:
        assert speedup >= 1.2
        assert serving["requests_per_minute_wall"] >= 2e4


def test_plan_steady_state_is_deterministic():
    """Back-to-back plan invokes on the same arena agree byte-for-byte."""
    rng = np.random.default_rng(11)
    model = _full_width_model(rng)
    plan = ModelPlan.for_model(model, BATCH)
    floats = rng.uniform(-4, 4, (BATCH, FEATURES)).astype(np.float32)
    first = np.array(plan.predict(floats))
    for _ in range(3):
        np.testing.assert_array_equal(np.array(plan.predict(floats)),
                                      first)
    # Interleaving a smaller batch does not corrupt the first.
    plan.predict(floats[:5])
    np.testing.assert_array_equal(np.array(plan.predict(floats)), first)
