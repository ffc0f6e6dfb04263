"""The benchmark's workloads, one seed-1 item each, through their own checks.

``perfbench/workloads.py`` is loaded from its file as it stands, so a change
to the library surface it calls (``trace`` returning three values,
``trajectory_geometry``, ``asymptotic_limits``, the keys of the pointwise
reports, ``"seed"`` included) fails here, not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["equiv-reduce", "sweep", "pointwise"])
def test_one_seed_1_item_passes_its_check(workloads, name, tmp_path):
    workload = workloads[name](1, tmp_path)
    item = workload.next_input()
    workload.check(item, workload.run(item))


def test_one_sweep_item_reduces_its_germ_once(workloads, reduce_calls, tmp_path):
    """``trace`` and ``trajectory_geometry`` share the germ's one normal form."""
    workload = workloads["sweep"](1, tmp_path)
    item = workload.next_input()
    workload.check(item, workload.run(item))
    assert reduce_calls == [8]


def test_a_pointwise_item_repeats_byte_for_byte(workloads, tmp_path):
    """Run one input twice in one process: the second run reuses the CLI
    parser of the first, and its check compares its report bytes with the
    first run's."""
    workload = workloads["pointwise"](1, tmp_path)
    item = workload.next_input()
    for _ in range(2):
        workload.check(item, workload.run(item))
    assert list(workload.first_bytes) == [item[0]]
