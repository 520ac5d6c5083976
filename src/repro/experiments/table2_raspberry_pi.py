"""Table II: the Edge TPU framework vs a Raspberry Pi 3.

The paper compares its framework (bagged training + Edge TPU, hosted on
the laptop CPU) against the same HDC workload running entirely on a
Raspberry Pi 3 — an embedded CPU with "similar average power
consumption" to the accelerator.  Reported as per-dataset training and
inference time ratios (Pi time / framework time).

Paper values: training 15.6x-23.6x (avg 19.4x), inference 6.8x-11.4x
(avg 8.9x).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data import specs
from repro.experiments.report import format_table
from repro.hdc import BaggingConfig
from repro.platforms import EnergyReport, RaspberryPi3
from repro.runtime import CostModel, HdcTrainingConfig, Workload

__all__ = ["PiComparisonResult", "format_result", "run"]


@dataclass(frozen=True)
class PiComparisonResult:
    """Per-dataset Pi-vs-framework ratios.

    Attributes:
        dataset: Dataset name.
        training_ratio: Pi training time / framework (TPU_B) training time.
        inference_ratio: Pi inference time / framework inference time.
        pi_training_energy_j: Pi training energy (power x time).
        framework_training_energy_j: Framework training energy, charging
            the host CPU share plus the device's active power.
    """

    dataset: str
    training_ratio: float
    inference_ratio: float
    pi_training_energy_j: float
    framework_training_energy_j: float


def run(config: HdcTrainingConfig | None = None,
        bagging: BaggingConfig | None = None,
        cost_model: CostModel | None = None) -> list[PiComparisonResult]:
    """Evaluate the Table II comparison for all five datasets."""
    config = config if config is not None else HdcTrainingConfig()
    bagging = bagging if bagging is not None else BaggingConfig(
        dimension=config.dimension,
    )
    cm = cost_model if cost_model is not None else CostModel()
    pi = RaspberryPi3()
    results = []
    for spec in specs():
        workload = Workload.from_spec(spec)
        pi_train = cm.cpu_training(workload, config, platform=pi).total
        pi_infer = cm.cpu_inference(workload, config, platform=pi)
        framework_train = cm.tpu_bagged_training(workload, config,
                                                 bagging).total
        framework_infer = cm.tpu_inference(workload, config)
        pi_energy = EnergyReport("pi3", pi_train, pi.power_w)
        framework_energy = EnergyReport(
            "edge-tpu-framework", framework_train, cm.arch.active_power_w,
        )
        results.append(PiComparisonResult(
            dataset=spec.name,
            training_ratio=pi_train / framework_train,
            inference_ratio=pi_infer / framework_infer,
            pi_training_energy_j=pi_energy.joules,
            framework_training_energy_j=framework_energy.joules,
        ))
    return results


def format_result(results: list[PiComparisonResult]) -> str:
    headers = ["dataset", "training x", "inference x", "Pi energy (J)",
               "framework energy (J)"]
    rows = [
        [r.dataset, r.training_ratio, r.inference_ratio,
         r.pi_training_energy_j, r.framework_training_energy_j]
        for r in results
    ]
    mean_train = sum(r.training_ratio for r in results) / len(results)
    mean_infer = sum(r.inference_ratio for r in results) / len(results)
    rows.append(["mean", mean_train, mean_infer, float("nan"), float("nan")])
    return format_table(
        headers, rows,
        title="Table II — Edge TPU framework vs Raspberry Pi 3",
        float_format="{:.1f}",
    )
