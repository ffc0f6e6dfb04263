"""The truncated jet product against a brute-force dense Cauchy product."""

import numpy as np
import pytest

from conftest import random_jet


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
