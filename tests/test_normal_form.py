import math

import numpy as np
import pytest

from crosscap.errors import (
    ConsistencyError,
    DegeneracyError,
    GenericityError,
    UsageError,
)
from crosscap.germs import MapGerm, parse_expr
from crosscap.jets import Jet

from crosscap.normal_form import (
    DiffeoSpec,
    _project,
    apply_equivalence,
    classify,
    monomial_coefficients,
    normalize_parameter,
    normalized,
    random_diffeo,
    random_rotation,
    reduce,
    rotation_about_x,
    scalar_coefficients,
)


def pipeline(f, order=8):
    nf = normalize_parameter(reduce(f, order))
    return nf, scalar_coefficients(nf)


# -- fixed points of the reduction ----------------------------------------------


def test_reduce_expands_the_germ_once(s1_plus, jet_at_orders):
    reduce(s1_plus)
    assert jet_at_orders == [8]


def test_s1_plus_is_its_own_normal_form(s1_plus):
    nf = reduce(s1_plus)
    assert np.allclose(nf.rotation, np.eye(3), atol=1e-12)
    assert nf.f21.max_abs() <= 1e-10
    assert nf.f24.max_abs() <= 1e-10
    assert nf.f31.max_abs() <= 1e-10
    assert nf.f34.max_abs() <= 1e-10
    f32_expected = np.zeros_like(nf.f32.c)
    f32_expected[0, 1, 0] = 1.0
    assert np.max(np.abs(nf.f32.c - f32_expected)) <= 1e-10
    f33_expected = np.zeros_like(nf.f33.c)
    f33_expected[0, 1] = 1.0
    f33_expected[2, 0] = 1.0
    assert np.max(np.abs(nf.f33.c - f33_expected)) <= 1e-10


def test_reduction_invariants_hold(s1_plus, s1_minus):
    for f in (s1_plus, s1_minus):
        nf = reduce(f)
        assert abs(nf.f32.c[0, 0, 0]) <= 1e-10
        assert abs(nf.f33.c[0, 0]) <= 1e-10
        assert abs(nf.f33.c[1, 0]) <= 1e-10


def test_hand_split_polynomial_example():
    f = MapGerm.parse("u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s")
    nf, cs = pipeline(f)
    assert abs(cs.f21_0) <= 1e-10
    assert abs(cs.f31_0 - 1.0) <= 1e-10
    assert abs(cs.f24_00 - 1.0) <= 1e-10
    assert abs(cs.c20 - 1.0) <= 1e-10
    assert abs(cs.d2 - 1.0) <= 1e-10


def test_prerotated_and_sheared_input_reduces_back(s1_plus):
    rot = rotation_about_x(math.pi / 6)
    shear = DiffeoSpec(parse_expr("u"), parse_expr("v + u^2"), parse_expr("s"))
    g = apply_equivalence(s1_plus, shear, rot)
    _, cs_g = pipeline(g)
    _, cs_f = pipeline(s1_plus)
    assert np.max(np.abs(cs_g.as_vector() - cs_f.as_vector())) <= 1e-8


README_TRACE_GERM = "u; v^2; u^2 + v^3 + u^2*v + s*v"


@pytest.mark.parametrize(
    "theta",
    [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3,
     -math.pi / 2 + 0.01, -math.pi / 3, -math.pi / 12, math.pi / 2 - 0.01],
)
def test_source_rotation_reduces_back_through_either_pivot(s1_plus, theta):
    """A source rotation by theta gives df_0 e_u = cos(theta) f_u and
    df_0 e_v = -sin(theta) f_u.  Past |theta| = pi/4 the reduction
    quarter-turns the source before inverting x for u: (u, v) = (-v, u) for
    theta < 0, (v, -u) for theta > 0.  Within |theta| < pi/2, df_0 e_u keeps
    the direction of f_u, so the asymmetric trace germ keeps its
    representative; the symmetric model has only one."""
    c, s = math.cos(theta), math.sin(theta)
    rotate = DiffeoSpec(
        parse_expr(f"{c!r}*u - {s!r}*v"), parse_expr(f"{s!r}*u + {c!r}*v"), parse_expr("s")
    )
    germs = [s1_plus] + ([MapGerm.parse(README_TRACE_GERM)] if abs(theta) < math.pi / 2 else [])
    for f in germs:
        _, cs_g = pipeline(apply_equivalence(f, rotate, np.eye(3)))
        _, cs_f = pipeline(f)
        assert np.max(np.abs(cs_g.as_vector() - cs_f.as_vector())) <= 1e-8


# the entries that a source half-turn (u, v) -> (-u, -v) composed with the
# target half-turn diag(-1, 1, -1) negates: the two normal forms it relates
# are both reduced, so the normal form is unique only up to this half-turn
HALF_TURN_ODD = ("f21_u", "f31_0", "f24_00", "c1_0", "c3_0", "d3")


@pytest.mark.parametrize(
    "text",
    [
        README_TRACE_GERM,
        "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s",
        "u; -u^2 + v^2; u^2 + v^3 + v*s + u^2*v",
        # every half-turn-odd entry nonzero
        "u; v^2 + 0.3*u^2 + 0.2*u^3 + 0.4*u*s; 0.7*u^2 + 0.1*u^3"
        " + v^2*(1.1*v + 0.2*u + 0.3*s) + v*(s + 0.3*u*s + 1.2*u^2 - 0.4*u^3)",
    ],
    ids=["trace", "gauss-probe", "focal", "generic"],
)
def test_asymmetric_germs_keep_their_representative(text):
    """Criterion 02's recipe on germs whose two representatives differ: every
    seeded equivalence reduces to the germ's own coefficients, because the
    image x-axis points along df_0 e_u, which the seeded source changes
    (u + a v + ..., v + b u + ...) leave along f_u.  The
    half-turn maps the normal form to the other representative, which
    differs from it in exactly the half-turn-odd entries."""
    f = MapGerm.parse(text)
    _, cs_f = pipeline(f)
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = apply_equivalence(f, random_diffeo(rng), random_rotation(rng))
        _, cs_g = pipeline(g)
        assert np.max(np.abs(cs_g.as_vector() - cs_f.as_vector())) <= 1e-8

    half_turn = DiffeoSpec(parse_expr("-u"), parse_expr("-v"), parse_expr("s"))
    _, cs_h = pipeline(apply_equivalence(f, half_turn, np.diag([-1.0, 1.0, -1.0])))
    sign = np.array([-1.0 if k in HALF_TURN_ODD else 1.0 for k in cs_f.as_dict()])
    assert np.max(np.abs(cs_h.as_vector() - sign * cs_f.as_vector())) <= 1e-8


def test_cross_cap_deformation_rejected():
    f = MapGerm.parse("u; u*v + s*v; v^2")
    with pytest.raises(DegeneracyError, match="cross-cap"):
        reduce(f)


def test_moving_singular_curve_reported_not_repaired():
    # (f2)_v(0,0,s) = s: straightening the singular set moves the base
    # curve, so the u*s split of the second component must fail loudly
    f = MapGerm.parse("u; v^2 + s*v; v^3 + u^2*v + s*v")
    with pytest.raises(DegeneracyError, match="divisibility"):
        reduce(f)


# -- the stored components against the series ---------------------------------------


def reassemble(nf):
    """The normal form rebuilt from its six series by jet arithmetic."""
    u3, v3, s3 = Jet.coordinates(3, nf.order)
    uu, us = u3 * u3, u3 * s3
    jy = uu * nf.f21.embed(3, (0,)) + v3 * v3 + us * nf.f24.embed(3, (0, 2))
    jz = (
        uu * nf.f31.embed(3, (0,))
        + v3 * v3 * nf.f32
        + v3 * nf.f33.embed(3, (0, 2))
        + us * nf.f34.embed(3, (0, 2))
    )
    return u3, jy, jz


def series_monomials(nf):
    """The monomial coefficients read off the six series."""
    f21, f24, f31, f32, f33, f34 = nf.f21, nf.f24, nf.f31, nf.f32, nf.f33, nf.f34
    return {
        "b1": (0.0, f24.c[0, 0]),
        "b2": (f21.c[0], f24.c[1, 0]),
        "b3": (f21.c[1], f24.c[2, 0]),
        "a10": (0.0, f34.c[0, 0]),
        "a01": (0.0, f33.c[0, 1]),
        "a20": (f31.c[0], f34.c[1, 0]),
        "a11": (0.0, f33.c[1, 1]),
        "a02": (0.0, f32.c[0, 0, 1]),
        "a30": (f31.c[1], f34.c[2, 0]),
        "a21": (f33.c[2, 0], f33.c[2, 1]),
        "a12": (f32.c[1, 0, 0], f32.c[1, 0, 1]),
        "a03": (f32.c[0, 1, 0], f32.c[0, 1, 1]),
    }


def model_normal_forms(s1_plus, s1_minus, rng):
    """The models and three seeded equivalences of each, reduced and
    parameter-normalized."""
    out = []
    for f in (s1_plus, s1_minus):
        germs = [f] + [
            apply_equivalence(f, random_diffeo(rng), random_rotation(rng))
            for _ in range(3)
        ]
        for g in germs:
            nf = reduce(g)
            out += [nf, normalize_parameter(nf)]
    return out


def test_components_equal_the_series_reassembly(s1_plus, s1_minus, rng):
    for nf in model_normal_forms(s1_plus, s1_minus, rng):
        for got, want in zip(nf.components(), reassemble(nf)):
            assert got.c.tobytes() == want.c.tobytes()


def test_monomials_equal_the_series_read(s1_plus, s1_minus, rng):
    """Exact agreement, except that the series read takes the constant
    parts of a01 = f33(0,0), a11 (the u v coefficient) and a02 = f32(0,0,0)
    as 0, where the reduction only bounds them."""
    bounded = ("a01", "a11", "a02")
    for nf in model_normal_forms(s1_plus, s1_minus, rng):
        got, want = monomial_coefficients(nf), series_monomials(nf)
        for name, (c0, c1) in want.items():
            if name in bounded:
                assert abs(got[name][0]) <= 1e-10 and got[name][1] == c1
            else:
                assert got[name] == (c0, c1), name


def test_projection_checks_the_shape():
    u, v, s = Jet.coordinates(3, 6)
    jz = u * u + v * v * v + u * u * v + v * s
    # rounding-sized remainders are removed and v^2 is made exact
    noisy = u * u + (1.0 + 1e-15) * v * v + 1e-14 * (u * v + s * s)
    jy, _ = _project(noisy, jz)
    assert jy.c.tobytes() == (u * u + v * v).c.tobytes()
    # a pure-s term in y is not divisible by u s: bad input
    with pytest.raises(DegeneracyError, match="divisibility"):
        _project(u * u + v * v + s * s, jz)
    # a u v term in y contradicts the v^2 rescale: the reduction went wrong
    with pytest.raises(ConsistencyError, match="v\\^2"):
        _project(u * u + v * v + 1e-3 * u * v, jz)


# -- classification -----------------------------------------------------------------


def test_classify_models(s1_plus, s1_minus):
    cp = classify(reduce(s1_plus))
    cm = classify(reduce(s1_minus))
    assert cp.kind == "S1Plus" and abs(cp.discriminant - 2.0) <= 1e-10
    assert cm.kind == "S1Minus" and abs(cm.discriminant + 2.0) <= 1e-10


def test_classify_degenerate():
    f = MapGerm.parse("u; v^2; v*s")
    assert classify(reduce(f)).kind == "Degenerate"


# -- parameter normalization -----------------------------------------------------------


def test_normalize_noop_for_model(s1_plus):
    nf = reduce(s1_plus)
    nf2 = normalize_parameter(nf)
    assert np.max(np.abs(nf2.f33.c - nf.f33.c)) <= 1e-10


def test_normalize_rescales_parameter():
    f = MapGerm.parse("u; v^2; v*(u^2 + 2*s)")
    nf = normalize_parameter(reduce(f))
    # f33 = s + u^2 after the reparametrization s-hat = 2 s
    assert abs(nf.f33.c[0, 1] - 1.0) <= 1e-10
    assert abs(nf.f33.c[2, 0] - 1.0) <= 1e-10


def test_normalize_genericity_error():
    f = MapGerm.parse("u; v^2; v*(u^2 + s^2)")
    with pytest.raises(GenericityError):
        normalize_parameter(reduce(f))


def test_normalized_stores_no_error(reduce_calls):
    """A germ whose reduction or normalization raises raises again on the
    next call, which reduces it again: no error is stored."""
    cases = (("u; u*v + s*v; v^2", DegeneracyError), ("u; v^2; v*(u^2 + s^2)", GenericityError))
    for source, error in cases:
        f = MapGerm.parse(source)
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                normalized(f)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert reduce_calls == [8, 8, 8, 8]


# -- scalar coefficients -----------------------------------------------------------------


def test_scalar_coefficients_model(s1_plus):
    _, cs = pipeline(s1_plus)
    expect = dict(c1_0=0, c20=1, c3_0=0, c4_00=0, d1=0, d2=1, d3=0)
    for key, val in expect.items():
        assert abs(getattr(cs, key) - val) <= 1e-10, key


def test_scalar_coefficients_cubic():
    f = MapGerm.parse("u; v^2; v*(s + u^2 + u^3)")
    _, cs = pipeline(f)
    assert abs(cs.c3_0 - 1.0) <= 1e-10


def test_scalar_coefficients_mixed_us():
    f = MapGerm.parse("u; v^2; v^3 + u^2*v + v*s - v*s*u")
    _, cs = pipeline(f)
    assert abs(cs.c1_0 + 1.0) <= 1e-10


# -- monomial coefficients ------------------------------------------------------------------


def test_monomial_coefficients_models(s1_plus, s1_minus):
    mono_p = monomial_coefficients(reduce(s1_plus))
    assert abs(mono_p["a21"][0] - 1.0) <= 1e-10
    assert abs(mono_p["a03"][0] - 1.0) <= 1e-10
    for name in ("b1", "b2", "b3"):
        assert abs(mono_p[name][1]) <= 1e-10

    mono_m = monomial_coefficients(reduce(s1_minus))
    assert abs(mono_m["a03"][0] + 1.0) <= 1e-10


def test_monomial_coefficients_us_term():
    f = MapGerm.parse("u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s")
    mono = monomial_coefficients(reduce(f))
    assert abs(mono["b1"][1] - 1.0) <= 1e-10  # b1(s) = s + O(s^2)
    assert abs(mono["b1"][0]) <= 1e-10


# -- equivalences ------------------------------------------------------------------------


def test_apply_equivalence_validation(s1_plus):
    bad = DiffeoSpec(parse_expr("u"), parse_expr("v"), parse_expr("s + u"))
    with pytest.raises(UsageError, match="parameter component"):
        apply_equivalence(s1_plus, bad, np.eye(3))
    not_rot = np.diag([1.0, 1.0, 2.0])
    ident = DiffeoSpec(parse_expr("u"), parse_expr("v"), parse_expr("s"))
    with pytest.raises(UsageError, match="rotation"):
        apply_equivalence(s1_plus, ident, not_rot)
    reversing = DiffeoSpec(parse_expr("u"), parse_expr("v"), parse_expr("-s"))
    with pytest.raises(UsageError, match="orientation"):
        apply_equivalence(s1_plus, reversing, np.eye(3))


def test_identity_equivalence_is_noop(s1_plus):
    ident = DiffeoSpec(parse_expr("u"), parse_expr("v"), parse_expr("s"))
    g = apply_equivalence(s1_plus, ident, np.eye(3))
    assert np.allclose(
        g.evaluate((0.2, 0.1, -0.3)), s1_plus.evaluate((0.2, 0.1, -0.3))
    )


def test_parameter_rescale_equivalence(s1_plus):
    stretch = DiffeoSpec(parse_expr("u"), parse_expr("v"), parse_expr("2*s"))
    g = apply_equivalence(s1_plus, stretch, np.eye(3))
    _, cs_g = pipeline(g)
    _, cs_f = pipeline(s1_plus)
    assert np.max(np.abs(cs_g.as_vector() - cs_f.as_vector())) <= 1e-8


def test_random_equivalence_invariance_small(s1_plus, rng):
    _, cs_f = pipeline(s1_plus)
    base_kind = classify(reduce(s1_plus)).kind
    for _ in range(5):
        g = apply_equivalence(s1_plus, random_diffeo(rng), random_rotation(rng))
        nf_g = reduce(g)
        assert classify(nf_g).kind == base_kind
        cs_g = scalar_coefficients(normalize_parameter(nf_g))
        assert np.max(np.abs(cs_g.as_vector() - cs_f.as_vector())) <= 1e-8
