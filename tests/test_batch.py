"""Batched point evaluation against its per-point oracle.

Every batched path (jet products, germ and normal-form derivatives, the
fundamental forms, germ values) must give, row by row, exactly the floats
that the same call at a single point gives; comparisons are bitwise.
"""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from crosscap import cli
from crosscap.deformation import gauss_sign_probe
from crosscap.errors import DomainError
from crosscap.germs import MODEL_S1_PLUS, MapGerm
from crosscap.invariants import form_bundle
from crosscap.jets import Jet, horner
from crosscap.normal_form import (
    apply_equivalence,
    normalize_parameter,
    random_diffeo,
    random_rotation,
    reduce,
)
from crosscap.reports import MAX_MESH_VERTICES, mesh_k_signs, mesh_obj

# a division, a square root and a negative power, so jet_recip and
# jet_sqrt run on batched jets
RATIONAL_GERM = "u; v^2 + u/(2 + v); sqrt(1 + u^2 + v^2) + (u + 3)^-3 * v^3"
POWER_GERM = "u^2 + v^3; (u - v)^-2; sqrt(u^2 + 2*v^2) + u^3*v^2"


def _random_jet(rng, nvars, order, batch=()):
    return Jet(nvars, order, rng.normal(size=batch + (order + 1,) * nvars))


@pytest.mark.parametrize("nvars,order", [(2, 2), (3, 8)])
def test_batched_product_equals_row_products(nvars, order):
    rng = np.random.default_rng(order)
    a = _random_jet(rng, nvars, order, (17,))
    b = _random_jet(rng, nvars, order, (17,))
    single = _random_jet(rng, nvars, order)
    rows = [Jet(nvars, order, a.c[r]) * Jet(nvars, order, b.c[r]) for r in range(17)]
    assert np.array_equal((a * b).c, np.array([j.c for j in rows]))
    mixed = [single * Jet(nvars, order, a.c[r]) for r in range(17)]
    assert np.array_equal((single * a).c, np.array([j.c for j in mixed]))


def _grid_points(rng, n, nvars=2):
    return rng.uniform(-0.9, 0.9, size=(n, nvars))


def test_germ_derivatives_on_point_arrays():
    f = MapGerm.parse(RATIONAL_GERM)
    points = _grid_points(np.random.default_rng(1), 60)
    batch = f.derivatives(points)
    assert batch.grad.shape == (60, 3, 2) and batch.hess.shape == (60, 3, 2, 2)
    for i, p in enumerate(points):
        one = f.derivatives(tuple(p))
        assert np.array_equal(batch.grad[i], one.grad)
        assert np.array_equal(batch.hess[i], one.hess)
    # a component free of u and v is one jet, spread over the batch
    g = MapGerm.parse("u; v; -2.5")
    flat = g.derivatives(points[:3])
    assert flat.hess.shape == (3, 3, 2, 2)
    assert np.array_equal(flat.grad, [g.derivatives(tuple(p)).grad for p in points[:3]])


def test_normal_form_derivatives_on_point_arrays():
    rng = np.random.default_rng(5)
    g = apply_equivalence(MapGerm.parse(MODEL_S1_PLUS), random_diffeo(rng), random_rotation(rng))
    nf = normalize_parameter(reduce(g, 8))
    u, v = _grid_points(rng, 40).T * 0.1
    s = -0.0025
    batch = nf.derivatives((u, v, s))
    for i in range(40):
        one = nf.derivatives((float(u[i]), float(v[i]), s))
        assert np.array_equal(batch.grad[i], one.grad)
        assert np.array_equal(batch.hess[i], one.hess)
    # horner with arrays in every slot agrees as well
    table = rng.normal(size=(2, 4, 4, 4))
    full = horner(table, (u, v, np.full(40, s)))
    assert np.array_equal(full, [horner(table, (u[i], v[i], s)) for i in range(40)])


def _k_by_vector_dots(d):
    """K from one point's derivatives with 1-d ``@`` products."""
    f_u, f_v = d.grad.T
    normal = np.cross(f_u, f_v)
    L, M, N = (float(d.hess[:, i, j] @ normal) for i, j in ((0, 0), (0, 1), (1, 1)))
    return L * N - M * M


def test_batched_k_equals_pointwise_k():
    f = MapGerm.parse(RATIONAL_GERM)
    points = _grid_points(np.random.default_rng(2), 200)
    K = form_bundle(f, points).K
    assert np.array_equal(K, [form_bundle(f, tuple(p)).K for p in points])
    assert np.array_equal(K, [_k_by_vector_dots(f.derivatives(tuple(p))) for p in points])


def test_batched_evaluate_equals_pointwise_evaluate():
    # Python's float ** rounds x^2, x^3 and x^0.5 differently from numpy's
    # power and sqrt on a few percent of inputs; 500 points meet such cases
    f = MapGerm.parse(POWER_GERM)
    points = _grid_points(np.random.default_rng(3), 500)
    points = points[np.abs(points[:, 0] - points[:, 1]) > 1e-3]
    values = f.evaluate(points)
    assert values.shape == (len(points), 3)
    assert np.array_equal(values, [f.evaluate(tuple(p)) for p in points])
    assert np.array_equal(MapGerm.parse("u; 2; 1/3").evaluate(points[:2])[:, 1:], [[2, 1 / 3]] * 2)


def test_mesh_grid_bound_refuses_before_allocating(capsys, tmp_path):
    tracemalloc.start()
    try:
        code = cli.main(
            ["mesh", "--germ", MODEL_S1_PLUS, "--s", "-1", "--nu", "100000", "--nv",
             "100000", "--k-sign", "--out", str(tmp_path)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert str(MAX_MESH_VERTICES) in capsys.readouterr().out
    assert peak < 10_000_000
    assert list(tmp_path.iterdir()) == []


def test_trace_grid_bound_refuses_before_allocating(capsys, tmp_path):
    tracemalloc.start()
    try:
        code = cli.main(
            ["trace", "--germ", MODEL_S1_PLUS, "--s-tilde-grid", "0.1:2:100000000",
             "--out", str(tmp_path)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert str(cli.MAX_GRID_POINTS) in capsys.readouterr().out
    assert peak < 10_000_000
    assert list(tmp_path.iterdir()) == []


def test_batched_library_calls_raise_domain_error_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="beyond the float range"):
            mesh_obj(MapGerm.parse("u; v; 1e308*(u + v + 1)"), (-1, 1), (-1, 1), 3, 3)
        vertices = mesh_obj(MapGerm.parse("u; v; u*v"), (-1, 1), (-1, 1), 3, 3)[1]
        with pytest.raises(DomainError, match="float range"):
            mesh_k_signs(MapGerm.parse("u; v; 1e200*(u^2 + v^2)"), vertices)
        with pytest.raises(DomainError, match="beyond the float range"):
            mesh_k_signs(MapGerm.parse("u; v; 1e200*u^2*1e200"), vertices)
        with pytest.raises(DomainError, match="positive constant term"):
            mesh_k_signs(MapGerm.parse("u; v; sqrt(u^2 + v^2)"), vertices)
        nf = normalize_parameter(reduce(MapGerm.parse("u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s")))
        for cell, overflows in (((2, 2, 0), True), ((0, 3, 0), False)):
            jz = nf.jz.c.copy()
            jz[cell] = 1e300
            huge = dataclasses.replace(nf, jz=Jet(3, nf.order, jz))
            if overflows:  # a u^2 v^2 term in f32: K's own products overflow
                with pytest.raises(DomainError, match="beyond the float range"):
                    gauss_sign_probe(huge, 0.05)
            else:  # a v^3 term: only f_v . f_v overflowed, which K never reads
                assert gauss_sign_probe(huge, 0.05).agreement == 1.0
