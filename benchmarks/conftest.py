"""Shared benchmark fixtures and the result log.

Benchmarks append their formatted tables to ``bench_results.txt`` next
to this file through ``record_result``, so a full
``pytest benchmarks/ --benchmark-only`` run leaves a complete
paper-vs-measured record behind.  The log is generated, not committed.
"""

import pathlib

import pytest

RESULTS_PATH = pathlib.Path(__file__).parent / "bench_results.txt"


@pytest.fixture(scope="session")
def record_result():
    """Append a formatted experiment table to the results log."""
    RESULTS_PATH.write_text("")

    def _record(text: str) -> None:
        with RESULTS_PATH.open("a") as handle:
            handle.write(text)
            handle.write("\n\n")

    return _record


@pytest.fixture(scope="session")
def quick_scale():
    from repro.experiments import QUICK
    return QUICK
