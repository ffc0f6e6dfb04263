import math

import numpy as np
import pytest

from crosscap.errors import DomainError
from crosscap.germs import (
    MODEL_CROSS_CAP,
    Add,
    MapGerm,
    Mul,
    Num,
)
from crosscap.invariants import (
    curvature_parabola,
    focal_conic,
    form_bundle,
    umbrella_invariants,
    whitney_test,
)


def model_umbrella_germ(a20, a11, a02):
    return MapGerm.parse(
        f"u; u*v; ({a20!r}*u^2 + 2*{a11!r}*u*v + {a02!r}*v^2)/2"
    )


EX4 = "u; -u^2 + v^2; u^2 + v^3 + v*s + u^2*v"
EX5 = "u; v^2; v^3 - v*s^2 + u^2*v"


# -- whitney test -------------------------------------------------------------------


def test_whitney_cross_cap_model():
    assert whitney_test(MapGerm.parse(MODEL_CROSS_CAP), (0.0, 0.0))


def test_whitney_false_at_s1_point(s1_plus):
    assert not whitney_test(s1_plus.at_parameter(0.0), (0.0, 0.0))


def test_whitney_true_on_deformed_locus(s1_plus):
    assert whitney_test(s1_plus.at_parameter(-1.0), (1.0, 0.0))


def test_whitney_needs_rank_one():
    with pytest.raises(DomainError):
        whitney_test(MapGerm.parse("u; v; 0"), (0.0, 0.0))


# -- invariants at cross-caps -----------------------------------------------------------


def test_model_umbrella_round_trip(rng):
    for _ in range(100):
        a20 = rng.uniform(-2.0, 2.0)
        a11 = rng.uniform(-2.0, 2.0)
        a02 = rng.uniform(1e-3, 3.0)
        scalars, inv = umbrella_invariants(model_umbrella_germ(a20, a11, a02), (0.0, 0.0))
        assert abs(inv.a20 - a20) <= 1e-12 * max(1, abs(a20))
        assert abs(inv.a11 - a11) <= 1e-12 * max(1, abs(a11))
        assert abs(inv.a02 - a02) <= 1e-12 * max(1, abs(a02))
        assert inv.a02 > 0
        assert scalars.C > 0


def test_model_umbrella_scalar_values():
    a20, a11, a02 = 0.7, -0.4, 1.3
    scalars, _ = umbrella_invariants(model_umbrella_germ(a20, a11, a02), (0.0, 0.0))
    assert abs(scalars.A - 1.0) <= 1e-12
    assert abs(scalars.B - a02**2) <= 1e-12
    assert abs(scalars.C - a02) <= 1e-12
    assert abs(scalars.D - 4 * a20 * a02) <= 1e-12
    assert abs(scalars.E_inv - 2 * a11 * a02**2) <= 1e-12


def test_invariants_on_model_locus(s1_plus):
    st = 0.1
    g = s1_plus.at_parameter(-(st**2))
    _, inv = umbrella_invariants(g, (st, 0.0))
    assert abs(inv.a20) <= 1e-10
    assert abs(inv.a11) <= 1e-10
    assert abs(inv.a02 - 50.0) <= 1e-8


def test_invariants_reject_non_umbrella(s1_plus):
    with pytest.raises(DomainError, match="cross-cap"):
        umbrella_invariants(s1_plus.at_parameter(0.0), (0.0, 0.0))


# -- curvature parabola ------------------------------------------------------------------


def test_parabola_half_line_at_s1(s1_plus):
    par = curvature_parabola(s1_plus.at_parameter(0.0), (0.0, 0.0))
    assert par.kind == "half-line"
    assert np.allclose(par.vertex, [0.0, 0.0], atol=1e-12)
    assert np.allclose(par.axis_dir, [1.0, 0.0], atol=1e-12)
    assert par.ku == pytest.approx(0.0, abs=1e-12)
    assert par.ka == pytest.approx(0.0, abs=1e-12)


def test_half_line_with_offsets():
    g = MapGerm.parse("u; v^2 + u^2; u^2 + v^3 + u^2*v")
    par = curvature_parabola(g, (0.0, 0.0))
    assert par.kind == "half-line"
    assert np.allclose(par.vertex, [2.0, 2.0], atol=1e-12)
    assert par.ku == pytest.approx(2.0, abs=1e-12)
    assert par.ka == pytest.approx(2.0, abs=1e-12)


def test_parabola_on_model_umbrella():
    a20, a11, a02 = 0.9, 0.5, 1.2
    par = curvature_parabola(model_umbrella_germ(a20, a11, a02), (0.0, 0.0))
    assert par.kind == "parabola"
    assert np.allclose(par.axis_dir, [0.0, 1.0], atol=1e-12)
    assert np.allclose(
        par.vertex, [-2 * a11 / a02, (a20 * a02 - a11**2) / a02], atol=1e-12
    )
    assert par.ku is None
    assert par.ka == pytest.approx(abs((a20 * a02 - a11**2) / a02), abs=1e-12)


# -- focal conics -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "s,expect",
    [(-1.0, "ellipse"), (-0.25, "parabola"), (-0.2, "hyperbola")],
)
def test_focal_conic_thresholds(s, expect):
    f = MapGerm.parse(EX4).at_parameter(s)
    u0 = math.sqrt(-s)
    conic = focal_conic(f, (u0, 0.0))
    assert conic.kind == expect


def test_focal_conic_example5_parabola():
    f = MapGerm.parse(EX5).at_parameter(-1.0)
    assert focal_conic(f, (1.0, 0.0)).kind == "parabola"


def test_focal_conic_degenerates_at_s1(s1_plus):
    conic = focal_conic(s1_plus.at_parameter(0.0), (0.0, 0.0))
    assert conic.kind == "double-or-single-line"
    ex4_s0 = MapGerm.parse(EX4).at_parameter(0.0)
    assert focal_conic(ex4_s0, (0.0, 0.0)).kind == "two-lines"


def test_focal_conic_determinants_are_whitney_scalars():
    """det Q = A C^2 / 4 for the 3x3 conic matrix Q and det M = -D / (4A),
    proved symbolically.  Both sides are invariant under rotations of R^3
    and under the choice of orthonormal normal-plane basis, so f_u = a e1
    with normal plane (e2, e3) is general."""
    sp = pytest.importorskip("sympy")
    a = sp.Symbol("a", positive=True)
    f_u = sp.Matrix([a, 0, 0])
    f_uu, f_uv, f_vv = (sp.Matrix(sp.symbols(f"{n}1:4")) for n in "xyz")

    def triple(x, y, z):
        return sp.Matrix.hstack(x, y, z).det()

    p_uu, p_uv, p_vv = (v[1:, :] for v in (f_uu, f_uv, f_vv))
    A = a**2
    M = (p_uu * p_vv.T + p_vv * p_uu.T) / 2 - p_uv * p_uv.T
    b = -A * p_vv
    Q = sp.Matrix.vstack(sp.Matrix.hstack(M, b / 2), sp.Matrix.hstack(b.T / 2, sp.zeros(1)))
    C = triple(f_u, f_uv, f_vv)
    D = triple(f_u, f_uu, f_vv) ** 2 + 4 * C * triple(f_u, f_uv, f_uu)
    assert sp.expand(Q.det() - A * C**2 / 4) == 0
    assert sp.expand(M.det() + D / (4 * A)) == 0


def test_isometry_invariance(rng):
    from crosscap.normal_form import random_rotation

    base = MapGerm.parse(EX4).at_parameter(-0.5)
    point = (math.sqrt(0.5), 0.0)
    _, inv0 = umbrella_invariants(base, point)
    par0 = curvature_parabola(base, point)
    kind0 = focal_conic(base, point).kind
    for _ in range(5):
        R = random_rotation(rng)
        shift = rng.uniform(-1, 1, size=3)
        comps = []
        for i in range(3):
            node = Num(float(shift[i]))
            for j in range(3):
                node = Add(node, Mul(Num(float(R[i, j])), base.components[j]))
            comps.append(node)
        moved = MapGerm(comps[0], comps[1], comps[2], kind="germ")
        _, inv = umbrella_invariants(moved, point)
        assert abs(inv.a20 - inv0.a20) <= 1e-9
        assert abs(inv.a11 - inv0.a11) <= 1e-9
        assert abs(inv.a02 - inv0.a02) <= 1e-9
        par = curvature_parabola(moved, point)
        assert par.kind == par0.kind
        assert abs(par.ka - par0.ka) <= 1e-9
        assert focal_conic(moved, point).kind == kind0


# -- fundamental forms ---------------------------------------------------------------------


def test_form_bundle_plane():
    f = MapGerm.parse("u; v; 0")
    assert form_bundle(f, (0.3, -0.7)).K == pytest.approx(0.0, abs=1e-14)


def test_form_bundle_sphere_patch():
    f = MapGerm.parse("u; v; sqrt(1 - u^2 - v^2)")
    fb = form_bundle(f, (0.0, 0.0))
    assert fb.K == pytest.approx(1.0, abs=1e-12)
    assert fb.K > 0


def test_form_bundle_vanishes_on_null_line(s1_plus):
    g = s1_plus.at_parameter(-0.04)
    for u0 in (-0.3, 0.0, 0.2):
        fb = form_bundle(g, (u0, 0.0))
        assert abs(fb.K) <= 1e-14
