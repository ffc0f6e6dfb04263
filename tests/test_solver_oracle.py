"""Exact oracle for the five series solvers of ``crosscap.jets``.

Each solution is rebuilt by undetermined coefficients, one total degree at
a time, in ``fractions.Fraction`` arithmetic on sparse dict polynomials that
share no code with ``Jet``.  The inputs are dense jets with dyadic
coefficients, so the float jet and the exact polynomial hold the same
numbers, and every solution is an exact rational.  Every coefficient up to
the truncation order is compared, so a solve that stops one step short of
it fails here (``branch_solve`` returns alpha_1 .. alpha_{N-1}, which it
solves on a jet of order N - 2, the degree to which its blow-up is exact).
"""

from fractions import Fraction

import numpy as np
import pytest

from crosscap.jets import (
    Jet,
    branch_solve,
    implicit_solve,
    invert_coordinate,
    jet_recip,
    jet_sqrt,
)

REL = 1e-13


def _mul(p, q, order):
    out = {}
    for m, a in p.items():
        for n, b in q.items():
            k = tuple(i + j for i, j in zip(m, n))
            if sum(k) <= order:
                out[k] = out.get(k, 0) + a * b
    return out


def _add(p, q, sign=1):
    out = dict(p)
    for m, b in q.items():
        out[m] = out.get(m, 0) + sign * b
    return out


def _substitute(F, var, W, order):
    """F with the polynomial W put in for variable ``var``."""
    out, power = {}, {(0,) * len(next(iter(F))): Fraction(1)}
    for e in range(order + 1):
        slab = {m[:var] + (0,) + m[var + 1 :]: c for m, c in F.items() if m[var] == e}
        out = _add(out, _mul(slab, power, order))
        power = _mul(power, W, order)
    return out


def _by_degree(residual, start, slope, order):
    """Fix the coefficients of W degree by degree: once W is right below
    degree d, the degree-d part of residual(W) is slope * (W_d - W*_d)."""
    W = dict(start)
    for d in range(1, order + 1):
        for m, c in residual(W).items():
            if sum(m) == d and c:
                W[m] = W.get(m, 0) - c / slope
    return W


def _dyadic_jet(rng, nvars, order, fixed):
    """A dense jet with coefficients k/32, k in +-1..8, as a float Jet and
    as an exact polynomial; ``fixed`` overrides cells by multi-index."""
    poly = {}
    for m in np.ndindex(*(order + 1,) * nvars):
        if sum(m) <= order:
            k = int(rng.integers(1, 9)) * int(rng.choice((-1, 1)))
            poly[m] = Fraction(k, 32)
    poly.update({m: Fraction(c) for m, c in fixed.items()})
    c = np.zeros((order + 1,) * nvars)
    for m, v in poly.items():
        c[m] = float(v)
    return Jet(nvars, order, c), poly


def _assert_matches(got, exact):
    want = np.zeros_like(got)
    for m, v in exact.items():
        want[m] = float(v)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= REL * scale


CASES = [(1, 8), (2, 8)]


@pytest.mark.parametrize("nvars, order", CASES)
def test_recip_and_sqrt_match_exact_series(nvars, order):
    rng = np.random.default_rng(11 + nvars)
    origin = (0,) * nvars
    a, pa = _dyadic_jet(rng, nvars, order, {origin: 1.5})
    one = {origin: Fraction(1)}
    exact = _by_degree(lambda x: _add(_mul(pa, x, order), one, -1),
                       {origin: 1 / pa[origin]}, pa[origin], order)
    _assert_matches(jet_recip(a).c, exact)

    b, pb = _dyadic_jet(rng, nvars, order, {origin: 2.25})
    exact = _by_degree(lambda y: _add(_mul(y, y, order), pb, -1),
                       {origin: Fraction(3, 2)}, Fraction(3), order)
    _assert_matches(jet_sqrt(b).c, exact)

    # a batch of the two: each row solved with its own slope
    batch = Jet(nvars, order, np.stack([a.c, b.c]))
    for row, single in zip(jet_recip(batch).c, (jet_recip(a), jet_recip(b))):
        assert np.array_equal(row, single.c)


def test_implicit_solve_matches_exact_series():
    order = 6
    rng = np.random.default_rng(5)
    lam, pl = _dyadic_jet(rng, 3, order, {(0, 0, 0): 0, (0, 1, 0): 0.75})
    exact = _by_degree(lambda W: _substitute(pl, 1, W, order), {}, pl[(0, 1, 0)], order)
    exact = {(i, k): c for (i, _, k), c in exact.items()}  # sigma(u, s)
    sigma = implicit_solve(lam)
    assert sigma.nvars == 2
    _assert_matches(sigma.c, exact)


@pytest.mark.parametrize("nvars, order, var", [(3, 6, 0), (3, 6, 1), (2, 8, 1), (1, 8, 0)])
def test_invert_coordinate_matches_exact_series(nvars, order, var):
    rng = np.random.default_rng(17 + 3 * nvars + var)
    unit = tuple(int(i == var) for i in range(nvars))
    V, pv = _dyadic_jet(rng, nvars, order, {(0,) * nvars: 0, unit: 1.25})
    x = {unit: Fraction(1)}
    exact = _by_degree(lambda W: _add(_substitute(pv, var, W, order), x, -1),
                       {}, pv[unit], order)
    _assert_matches(invert_coordinate(V, var).c, exact)


@pytest.mark.parametrize("cuu, alpha1", [(0.75, 1.5), (2.0, 0.25)])
def test_branch_solve_matches_exact_series(cuu, alpha1):
    order = 8
    rng = np.random.default_rng(23)
    fixed = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0, (2, 0): cuu,
             (0, 2): -cuu * alpha1**2}
    F, pf = _dyadic_jet(rng, 2, order, fixed)
    # u(t) = sum_k alpha_k t^k; [F(u(t), t)]_{k+1} fixes alpha_k with slope
    # 2 [u^2]F alpha_1
    alphas = [Fraction(alpha1)]
    slope = 2 * pf[(2, 0)] * alphas[0]
    for k in range(2, order):
        u_t = {(0, i + 1): a for i, a in enumerate(alphas)}
        res = _substitute(pf, 0, u_t, order)
        alphas.append(-res.get((0, k + 1), 0) / slope)
    got = branch_solve(F)
    want = np.array([float(a) for a in alphas])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))
