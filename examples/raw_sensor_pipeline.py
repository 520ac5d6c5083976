"""Raw-sensor edge pipeline: IMU traces → windows → features → Edge TPU.

The Table-I activity datasets (UCIHAR, PAMAP2) arrive as precomputed
windowed statistics; this example runs the *whole* pipeline a wearable
would: generate raw multichannel IMU traces per activity, cut sliding
windows, extract HAR-style features, train HDC, quantize, and deploy on
the simulated Edge TPU — then asks the placement optimizer whether
this feature width even deserves the accelerator.

Run:  python examples/raw_sensor_pipeline.py
"""

from repro import BackendSpec, FleetSpec, PlacementOptimizer, TenantSpec
from repro.data import ImuConfig, feature_count, make_activity_dataset
from repro.edgetpu import compile_model, lower
from repro.hdc import HDCClassifier
from repro.nn import from_classifier
from repro.runtime import InferencePipeline
from repro.tflite import convert


def main(num_windows: int = 200, dimension: int = 2048) -> None:
    config = ImuConfig(num_channels=6, num_activities=5, noise_std=0.6,
                       jitter=0.3)
    dataset = make_activity_dataset(
        num_windows_per_activity=num_windows, config=config, seed=9,
    ).normalized()
    print(f"raw pipeline: {config.num_channels}-channel IMU at "
          f"{config.sample_rate_hz:.0f} Hz -> 128-sample windows -> "
          f"{feature_count(config.num_channels)} features")
    print(f"dataset: train={dataset.num_train} test={dataset.num_test} "
          f"activities={dataset.num_classes}")

    model = HDCClassifier(dimension=dimension, seed=9)
    model.fit(dataset.train_x, dataset.train_y, iterations=6)
    print(f"float accuracy: {model.score(dataset.test_x, dataset.test_y):.3f}")

    flat = convert(from_classifier(model, include_argmax=True),
                   dataset.train_x[:128])
    compiled = compile_model(flat)
    inference = InferencePipeline(compiled, batch=1)
    outcome = inference.run(dataset.test_x, dataset.test_y)
    print(f"Edge TPU accuracy: {outcome.accuracy:.3f}  "
          f"({1e6 * outcome.seconds / dataset.num_test:.1f} us/sample)")

    # Is an accelerator even worth it at this feature width?  Offer the
    # optimizer an equal-price Edge TPU and Pi-class CPU, one sample
    # per invoke (the paper's real-time mode): price ties, so the
    # faster backend for this model shape wins.
    fleet = FleetSpec(backends=(BackendSpec("edgetpu"),
                                BackendSpec("pi-cpu")),
                      energy_weight=0.0)
    placement = PlacementOptimizer(fleet, buckets=(1,)).place(
        compiled, [TenantSpec("imu-activity", rate_hz=100.0,
                              deadline_s=1.0)],
    )
    print(placement.summary())

    # Peek at the device program for one inference.
    program = lower(compiled, batch=1)
    print(f"device program: {len(program.instructions)} instructions, "
          f"{program.total_cycles:.0f} cycles, "
          f"{program.total_transfer_bytes} transfer bytes")


if __name__ == "__main__":
    main()
