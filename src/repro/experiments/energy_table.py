"""Energy comparison across platforms (extension of Table II).

The paper frames the Raspberry Pi comparison as "similar average power
consumption" but reports only time ratios.  This experiment makes the
energy side explicit: modeled training/inference *energy* per dataset on
the host mobile CPU, the Raspberry Pi 3, and the co-design framework
(host CPU share for updates plus the ~2 W Edge TPU for encoding and
inference).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data import specs
from repro.experiments.report import format_table
from repro.hdc import BaggingConfig
from repro.platforms import MobileCpu, RaspberryPi3, energy_joules
from repro.runtime import CostModel, HdcTrainingConfig, Workload

__all__ = ["EnergyRow", "format_result", "run"]


@dataclass(frozen=True)
class EnergyRow:
    """Per-dataset modeled energy (joules).

    Attributes:
        dataset: Dataset name.
        host_training_j: Full training on the mobile host CPU.
        pi_training_j: Full training on the Raspberry Pi 3.
        framework_training_j: The co-design framework — update phase on
            the host CPU, encoding on the Edge TPU (its active power),
            model generation on the host.
        host_inference_j: Test-set inference on the host CPU.
        pi_inference_j: Test-set inference on the Pi.
        framework_inference_j: Test-set inference on the Edge TPU.
    """

    dataset: str
    host_training_j: float
    pi_training_j: float
    framework_training_j: float
    host_inference_j: float
    pi_inference_j: float
    framework_inference_j: float

    @property
    def training_efficiency_vs_pi(self) -> float:
        """Pi training energy over framework training energy."""
        return self.pi_training_j / self.framework_training_j


def run(config: HdcTrainingConfig | None = None,
        bagging: BaggingConfig | None = None,
        cost_model: CostModel | None = None) -> list[EnergyRow]:
    """Evaluate modeled energy for all five Table-I datasets."""
    config = config if config is not None else HdcTrainingConfig()
    bagging = bagging if bagging is not None else BaggingConfig(
        dimension=config.dimension,
    )
    cm = cost_model if cost_model is not None else CostModel()
    host = MobileCpu()
    pi = RaspberryPi3()
    tpu_power = cm.arch.active_power_w
    rows = []
    for spec in specs():
        workload = Workload.from_spec(spec)
        host_train = cm.cpu_training(workload, config).total
        pi_train = cm.cpu_training(workload, config, platform=pi).total
        framework = cm.tpu_bagged_training(workload, config, bagging)
        framework_train_j = (
            energy_joules(tpu_power, framework.encode)
            + energy_joules(host.power_w, framework.update)
            + energy_joules(host.power_w, framework.modelgen)
        )
        host_infer = cm.cpu_inference(workload, config)
        pi_infer = cm.cpu_inference(workload, config, platform=pi)
        framework_infer = cm.tpu_inference(workload, config)
        rows.append(EnergyRow(
            dataset=spec.name,
            host_training_j=energy_joules(host.power_w, host_train),
            pi_training_j=energy_joules(pi.power_w, pi_train),
            framework_training_j=framework_train_j,
            host_inference_j=energy_joules(host.power_w, host_infer),
            pi_inference_j=energy_joules(pi.power_w, pi_infer),
            framework_inference_j=energy_joules(tpu_power, framework_infer),
        ))
    return rows


def format_result(rows: list[EnergyRow]) -> str:
    headers = ["dataset", "host train (J)", "Pi train (J)",
               "framework train (J)", "host inf (J)", "Pi inf (J)",
               "framework inf (J)"]
    table = [
        [r.dataset, r.host_training_j, r.pi_training_j,
         r.framework_training_j, r.host_inference_j, r.pi_inference_j,
         r.framework_inference_j]
        for r in rows
    ]
    return format_table(
        headers, table,
        title="Energy — modeled joules per platform (extension)",
        float_format="{:.1f}",
    )
