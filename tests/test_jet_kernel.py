"""The truncated jet product against a brute-force dense Cauchy product, at
the jet order and below it."""

import numpy as np
import pytest

from conftest import random_jet
from crosscap.jets import _truncated_product


def _oracle_product(a, b, order):
    """Dense Cauchy product of two coefficient cubes, truncated at ``order``."""
    out = np.zeros_like(a)
    for i in np.ndindex(*a.shape):
        if sum(i) > order:
            continue
        for j in np.ndindex(*b.shape):
            if sum(i) + sum(j) <= order:
                out[tuple(x + y for x, y in zip(i, j))] += a[i] * b[j]
    return out


@pytest.mark.parametrize("density", [1.0, 0.1])
@pytest.mark.parametrize(
    "shape", [(9, 9, 9), (9, 9), (9,), (3, 3, 3), (3, 3)], ids=str
)
def test_mul_matches_oracle(shape, density, rng):
    nvars, order = len(shape), shape[0] - 1
    a = random_jet(rng, nvars, order, density=density)
    b = random_jet(rng, nvars, order, density=density)
    expected = _oracle_product(a.c, b.c, order)
    got = (a * b).c
    assert got.shape == shape
    assert np.max(np.abs(got - expected)) <= 1e-14 * (1 + np.max(np.abs(expected)))


def test_truncation_degree_respected(rng):
    a = random_jet(rng, 3, 8)
    b = random_jet(rng, 3, 8)
    prod = a * b
    for idx in np.ndindex(*prod.c.shape):
        if sum(idx) > 8:
            assert prod.c[idx] == 0.0


@pytest.mark.parametrize("shape", [(9, 9, 9), (9, 9), (9,), (3, 3, 3)], ids=str)
def test_product_below_the_order_matches_oracle(shape, rng):
    """The kernel at a degree below the order: cells up to that degree are
    the oracle's, the cells above it are exactly +0.0, and a batch row gets
    the bits of the same product alone."""
    nvars, order = len(shape), shape[0] - 1
    a = random_jet(rng, nvars, order).c
    b = random_jet(rng, nvars, order).c
    for degree in range(order):
        above = np.indices(shape).sum(axis=0) > degree
        expected = _oracle_product(a, b, degree)
        got = _truncated_product(a, b, nvars, degree)
        assert got.shape == shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * (1 + np.max(np.abs(expected)))
        assert not got[above].any() and not np.signbit(got[above]).any()
        batch = _truncated_product(np.stack([a, b]), b, nvars, degree)
        assert batch[0].tobytes() == got.tobytes()
        assert batch[1].tobytes() == _truncated_product(b, b, nvars, degree).tobytes()


@pytest.mark.parametrize("rows", [1, 9, 400])
@pytest.mark.parametrize("shape", [(3, 3, 3), (9, 9), (9,)], ids=str)
def test_batched_product_rows_equal_each_row_alone(shape, rows, rng):
    """A batch is one bincount over all its rows; each row gets the bits of
    its product alone at every degree, also against an unbatched operand."""
    nvars, order = len(shape), shape[0] - 1
    a, b = (np.stack([random_jet(rng, nvars, order).c for _ in range(rows)]) for _ in "ab")
    single = random_jet(rng, nvars, order).c
    for degree in range(order + 1):
        for x, y in ((a, b), (a, single), (single, b)):
            got = _truncated_product(x, y, nvars, degree)
            assert got.shape == (rows,) + shape
            for r in range(rows):
                alone = _truncated_product(x[r] if x.ndim > nvars else x,
                                           y[r] if y.ndim > nvars else y, nvars, degree)
                assert got[r].tobytes() == alone.tobytes()
