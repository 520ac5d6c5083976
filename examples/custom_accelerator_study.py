"""Architecture study: how Edge TPU parameters shape HDC performance.

The simulator's architecture knobs are ordinary dataclass fields, so
"what if" studies the paper could not run on fixed silicon take a few
lines here:

- sweep the input feature count (reproducing the Fig. 10 curve) under
  *different* USB bandwidths — showing the speedup ceiling is a
  transfer artifact, not a compute limit;
- sweep the MXU size to see when the systolic array stops being the
  bottleneck for hyper-wide layers;
- check which Table-I models still fit on-chip if the parameter buffer
  shrinks;
- price the same Fig. 10 points on every registered backend: the
  analytic ``CostModel`` reads the latency model the simulator serves
  with, so any arch can produce the paper's tables.

Run:  python examples/custom_accelerator_study.py
"""

from repro.data import TABLE_I
from repro.edgetpu import backend_names, make_arch
from repro.runtime import CostModel


def usb_bandwidth_sweep() -> None:
    print("== encoding speedup vs feature count, by USB bandwidth ==")
    features = (20, 100, 300, 700)
    print(f"  {'bandwidth':>12} " + " ".join(f"n={n:>4}" for n in features))
    for megabytes in (100, 320, 1000):
        arch = make_arch("edgetpu", usb_bytes_per_s=megabytes * 1e6)
        cm = CostModel(arch=arch)
        speedups = [cm.encoding_speedup(10_000, n) for n in features]
        row = " ".join(f"{s:6.2f}" for s in speedups)
        print(f"  {megabytes:>9} MB/s {row}")
    print("  (faster links lift the whole curve: the encoded d-wide "
          "hypervectors dominate transfer)")


def mxu_size_sweep() -> None:
    print("\n== MNIST inference latency vs MXU size ==")
    from repro.data import TABLE_I
    from repro.runtime import HdcTrainingConfig, Workload
    workload = Workload.from_spec(TABLE_I["mnist"])
    config = HdcTrainingConfig()
    for size in (16, 32, 64, 128):
        arch = make_arch("edgetpu", mxu_rows=size, mxu_cols=size)
        cm = CostModel(arch=arch)
        per_sample = 1e6 * cm.tpu_inference(workload, config) / workload.num_test
        print(f"  {size:3}x{size:<3} MXU: {per_sample:7.1f} us/sample")
    print("  (beyond 64x64 the USB dispatch floor dominates, so a bigger "
          "array buys little for batch-1 inference)")


def buffer_pressure() -> None:
    print("\n== on-chip parameter buffer pressure (d = 10,000, int8) ==")
    for name, spec in TABLE_I.items():
        # int8 weights of both layers plus the 256-byte TANH table.
        weight_bytes = (spec.num_features * 10_000
                        + 10_000 * spec.num_classes + 256)
        for buffer_mib in (4, 8):
            fits = weight_bytes <= buffer_mib * 1024 * 1024
            if buffer_mib == 8:
                note = "fits" if fits else "STREAMS over USB each invoke"
                print(f"  {name:7} {weight_bytes / 1e6:5.2f} MB of weights: "
                      f"{'fits' if weight_bytes <= 4 * 1024 * 1024 else 'spills'} "
                      f"in 4 MiB, {note} in 8 MiB")


def backend_sweep() -> None:
    print("\n== encoding speedup vs feature count, by backend ==")
    features = (20, 100, 300, 700)
    print(f"  {'backend':>13} " + " ".join(f"n={n:>4}" for n in features))
    for name in backend_names():
        cm = CostModel(arch=make_arch(name))
        speedups = [cm.encoding_speedup(10_000, n) for n in features]
        row = " ".join(f"{s:6.2f}" for s in speedups)
        print(f"  {name:>13} {row}")


def main() -> None:
    usb_bandwidth_sweep()
    mxu_size_sweep()
    buffer_pressure()
    backend_sweep()


if __name__ == "__main__":
    main()
