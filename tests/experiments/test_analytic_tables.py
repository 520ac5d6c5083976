"""Golden pin of the analytic tables: every row field, bit for bit.

``analytic_tables.json`` holds every field of every row that the Fig. 5,
Fig. 6, Fig. 10, Table II and energy drivers return at their default
arguments, as round-trip float reprs.  A change that moves any modeled
number fails here; if the move is intended, regenerate the file with

    PYTHONPATH=src python -m tests.experiments.test_analytic_tables

and explain each diff.  Only row fields are pinned: Table II's
formatted mean goes through the builtin ``sum()``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import (
    energy_table,
    fig5_training_runtime,
    fig6_inference_runtime,
    fig10_feature_scaling,
    table2_raspberry_pi,
)

GOLDEN = Path(__file__).with_name("analytic_tables.json")

TABLES = {
    "fig5_training_runtime": fig5_training_runtime,
    "fig6_inference_runtime": fig6_inference_runtime,
    "fig10_feature_scaling": fig10_feature_scaling,
    "table2_raspberry_pi": table2_raspberry_pi,
    "energy_table": energy_table,
}


def _rows(module) -> list[dict]:
    return [dataclasses.asdict(row) for row in module.run()]


@pytest.mark.parametrize("table", sorted(TABLES))
def test_table_matches_golden(table):
    golden = json.loads(GOLDEN.read_text())
    assert _rows(TABLES[table]) == golden[table]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: _rows(module) for name, module in sorted(TABLES.items())},
        indent=1,
    ) + "\n")
    print(f"wrote {GOLDEN}")
