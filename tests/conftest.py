import sys

import numpy as np
import pytest

from crosscap import normal_form
from crosscap.germs import MODEL_S1_MINUS, MODEL_S1_PLUS, MapGerm


@pytest.fixture
def s1_plus():
    return MapGerm.parse(MODEL_S1_PLUS)


@pytest.fixture
def s1_minus():
    return MapGerm.parse(MODEL_S1_MINUS)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_jet(rng, nvars, order, scale=1.0, density=0.5):
    """Random jet with a degree mask applied."""
    from crosscap.jets import Jet

    shape = (order + 1,) * nvars
    c = rng.uniform(-scale, scale, size=shape)
    c *= rng.random(size=shape) < density
    return Jet(nvars, order, c)


def compose_poly_1var(table, alphas, order):
    """Independent oracle for branch solves: coefficients of
    F(u(t), t) with u(t) = sum alphas[i] t^(i+1), via numpy polynom
    arithmetic only."""
    from numpy.polynomial import polynomial as P

    u = np.zeros(order + 1)
    u[1 : 1 + len(alphas)] = alphas
    total = np.zeros(2 * order + 2)
    upow = np.array([1.0])
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if table[i, j] == 0.0:
                continue
            term = P.polymul(upow, np.eye(2 * order + 2)[j])[: 2 * order + 2]
            total[: len(term)] += table[i, j] * term
        upow = P.polymul(upow, u)
    return total


@pytest.fixture
def jet_at_orders(monkeypatch):
    """Orders of every MapGerm.jet_at call made while the test runs."""
    orders = []
    original = MapGerm.jet_at

    def counted(self, point, order):
        orders.append(order)
        return original(self, point, order)

    monkeypatch.setattr(MapGerm, "jet_at", counted)
    return orders


@pytest.fixture
def reduce_calls(monkeypatch):
    """Orders of every normal_form.reduce call made while the test runs,
    counted at each name a crosscap module binds it to."""
    orders = []
    original = normal_form.reduce

    def counted(f, order=8):
        orders.append(order)
        return original(f, order)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crosscap":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    return orders
