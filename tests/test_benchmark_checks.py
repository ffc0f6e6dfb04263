"""The benchmark's workloads, one seed-1 item each, through their own checks.

``perfbench/workloads.py`` is loaded from its file as it stands, so a change
to the library surface it calls (``trace`` returning three values,
``trajectory_geometry``, ``asymptotic_limits``, the keys of the pointwise
reports, ``"seed"`` included) fails here, not only in a benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from crosscap import jets

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


# Product-kernel calls and cell pairs (a batched call counts its rows'
# pairs) of the first seed-1 input of each workload.  A record, not a
# bound: a change that moves them updates these numbers and states the move.
KERNEL_WORK = {
    "equiv-reduce": (432, 597_496),
    "sweep": (180, 184_500),
    "pointwise": (119, 364_200),
}


@pytest.mark.parametrize("name", sorted(KERNEL_WORK))
def test_kernel_work_of_the_first_seed_1_item(workloads, name, tmp_path, monkeypatch):
    """Work, not time: kernel counts repeat exactly from run to run, where
    timings on a shared host drift."""
    pairs = []
    kernel = jets._truncated_product

    def counted(a, b, nvars, degree):
        rows = math.prod(np.broadcast_shapes(a.shape, b.shape)[:-nvars])
        pairs.append(rows * len(jets._product_table(a.shape[a.ndim - nvars :], degree)[0]))
        return kernel(a, b, nvars, degree)

    workload = workloads[name](1, tmp_path)
    item = workload.next_input()
    monkeypatch.setattr(jets, "_truncated_product", counted)
    out = workload.run(item)
    monkeypatch.undo()
    assert (len(pairs), sum(pairs)) == KERNEL_WORK[name]
    workload.check(item, out)
