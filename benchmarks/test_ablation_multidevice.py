"""Ablation: one fused model vs parallel sub-models on a device pool.

The paper fuses because a *single* Edge TPU holds one model at a time.
With M devices, pinning one sub-model per device is feasible — this
bench measures whether parallel hardware beats fusion.  Measured
outcome: it does not meaningfully — every parallel device pays the same
dispatch + input-transfer floor that dominates the fused invocation, so
quadrupling the hardware buys only a few percent.  That is the
strongest form of the paper's argument: the fused single model matches
a 4-TPU pool with one device and no host aggregation.

The ensemble runs inline: each sub-model quantizes the batch with its
own input grid and runs on its own device; the devices run
concurrently, so the ensemble waits for the slowest one, and then the
host dequantizes and sums the M score matrices.
"""

from repro.data import isolet
from repro.edgetpu import EdgeTpuDevice, compile_model
from repro.experiments.report import format_table
from repro.hdc import BaggingConfig, BaggingHDCTrainer
from repro.nn import from_classifier, from_fused
from repro.platforms import MobileCpu
from repro.tflite import convert


def test_ablation_multidevice(benchmark, record_result):
    ds = isolet(max_samples=800, seed=7).normalized()
    config = BaggingConfig(num_models=4, dimension=2048, iterations=2,
                           dataset_ratio=0.6)
    trainer = BaggingHDCTrainer(config, seed=0)
    trainer.fit(ds.train_x, ds.train_y, num_classes=ds.num_classes)
    fused = trainer.fuse()
    calibration = ds.train_x[:128]
    host = MobileCpu()

    fused_compiled = compile_model(convert(from_fused(fused), calibration))
    sub_compiled = [
        compile_model(convert(from_classifier(model), calibration))
        for model in trainer.sub_models
    ]
    batch = ds.test_x[:16]

    def run():
        device = EdgeTpuDevice()
        device.load_model(fused_compiled)
        quantized = fused_compiled.model.input_spec.qparams.quantize(batch)
        fused_seconds = device.invoke(quantized).elapsed_s

        device_seconds = []
        scores = None
        for compiled in sub_compiled:
            device = EdgeTpuDevice()
            device.load_model(compiled)
            quantized = compiled.model.input_spec.qparams.quantize(batch)
            result = device.invoke(quantized)
            device_seconds.append(result.elapsed_s)
            sub_scores = compiled.tpu_ops[-1].output_qparams.dequantize(
                result.outputs
            )
            scores = sub_scores if scores is None else scores + sub_scores
        # (M - 1) summations over the score matrix.
        host_seconds = host.elementwise_seconds(
            (len(sub_compiled) - 1) * scores.size
        )
        return fused_seconds, max(device_seconds) + host_seconds

    fused_seconds, parallel_seconds = benchmark.pedantic(run, rounds=1,
                                                         iterations=1)

    # Quadrupling the hardware must not beat the single fused device by
    # more than a sliver: both pay the same dispatch + input-transfer
    # floor, which dominates at edge batch sizes.
    assert fused_seconds < parallel_seconds * 1.15
    assert parallel_seconds < fused_seconds * 1.15

    record_result(format_table(
        ["execution", "modeled seconds / 16 samples"],
        [["fused, 1 device (paper)", fused_seconds],
         ["4 sub-models on 4 devices", parallel_seconds]],
        title="Ablation — fusion vs a multi-TPU pool",
        float_format="{:.6f}",
    ))
