import numpy as np
import pytest

from crosscap.errors import DomainError, UsageError
from crosscap.germs import (
    MAX_DEPTH,
    MAX_NESTING,
    MODEL_CROSS_CAP,
    MODEL_S1_MINUS,
    MODEL_S1_PLUS,
    Add,
    MapGerm,
    Mul,
    Num,
    Sqrt,
    Sub,
    Var,
    admissibility_check,
    null_vector,
    parse_expr,
    print_expr,
    rank_at,
    substitute,
)
from crosscap.jets import Jet, jet_sqrt
from crosscap.normal_form import apply_equivalence, random_diffeo, random_rotation


# -- parsing ---------------------------------------------------------------------


def test_parse_model_deformations():
    f = MapGerm.parse(MODEL_S1_PLUS)
    assert f.kind == "deformation"
    assert np.allclose(f.evaluate((0.2, 0.3, -0.1)), [0.2, 0.09, 0.3 * (0.04 + 0.09) - 0.03])

    g = MapGerm.parse(MODEL_CROSS_CAP)
    assert g.kind == "germ"
    assert np.allclose(g.evaluate((2.0, 3.0)), [2.0, 6.0, 9.0])


def test_parse_example_germ_newline_and_comments():
    src = """
    # third component carries the deformation
    u
    v^2
    v^3 - v*s^2 + u^2*v
    """
    f = MapGerm.parse(src)
    assert f.kind == "deformation"
    assert np.allclose(f.evaluate((1.0, 1.0, 2.0)), [1.0, 1.0, 1.0 - 4.0 + 1.0])


def test_parse_print_round_trip():
    samples = [
        "u + v*s - 3.5",
        "1/2*u^2 - (u - v)*(u + v)",
        "-u^3 + sqrt(1 + v)/(2 - s)",
        "u - -v",
        "2/3 + v^-2",
    ]
    for text in samples:
        ast = parse_expr(text)
        printed = print_expr(ast)
        assert parse_expr(printed) == ast, text


def test_parse_errors_carry_location():
    with pytest.raises(UsageError, match="line 1, col 5"):
        parse_expr("u + @")
    with pytest.raises(UsageError, match="unknown identifier 'w'"):
        parse_expr("u + w")
    with pytest.raises(UsageError, match="three component"):
        MapGerm.parse("u; v^2")
    with pytest.raises(UsageError, match="integer literal"):
        parse_expr("u^v")


@pytest.mark.parametrize(
    "text",
    [
        "(" * MAX_NESTING + "u" + ")" * MAX_NESTING,
        "- " * MAX_NESTING + "u",
        "-" * MAX_NESTING,
        "*".join(["u"] * (MAX_DEPTH + 1)),
    ],
)
def test_deep_nesting_is_a_usage_error(text):
    with pytest.raises(UsageError, match="deep"):
        parse_expr(text)


def test_nesting_below_the_limits_parses():
    depth = MAX_NESTING - 1
    node = parse_expr("sqrt(" * depth + "1 + u" + ")" * depth)
    assert print_expr(node).count("sqrt(") == depth
    assert parse_expr(" + ".join(["u"] * MAX_DEPTH)) is not None


def test_germ_cannot_reference_parameter():
    with pytest.raises(UsageError):
        MapGerm.parse("u; v; s", kind="germ")


# -- jets of germs ------------------------------------------------------------------


def test_jet_at_polynomial_exact():
    f = MapGerm.parse("u; v^2; u^2*v + v^3")
    jx, jy, jz = f.jet_at((0.0, 0.0), 3)
    assert jx.c[1, 0] == 1.0
    assert jy.c[0, 2] == 1.0
    assert jz.c[2, 1] == 1.0 and jz.c[0, 3] == 1.0


def test_jet_at_constant_shift_vanishes():
    f = MapGerm.parse("u - 1; v^2 - 4; (u - 1)*(v - 2)")
    jets = f.jet_at((1.0, 2.0), 3)
    for j in jets:
        assert abs(j.c[0, 0]) <= 1e-12


def test_jet_at_matches_finite_differences():
    f = MapGerm.parse("u + u*v; v^2 - u^3; u^2*v + v^3 - u*v")
    p = (0.3, -0.2)
    jets = f.jet_at(p, 3)
    h = 1e-5

    def num(i, pt):
        return f.evaluate(pt)[i]

    for i in range(3):
        du = (num(i, (p[0] + h, p[1])) - num(i, (p[0] - h, p[1]))) / (2 * h)
        dv = (num(i, (p[0], p[1] + h)) - num(i, (p[0], p[1] - h))) / (2 * h)
        duu = (
            num(i, (p[0] + h, p[1])) - 2 * num(i, p) + num(i, (p[0] - h, p[1]))
        ) / h**2
        duv = (
            num(i, (p[0] + h, p[1] + h))
            - num(i, (p[0] + h, p[1] - h))
            - num(i, (p[0] - h, p[1] + h))
            + num(i, (p[0] - h, p[1] - h))
        ) / (4 * h**2)
        c = jets[i].c  # Taylor coefficients: duu is 2! c[2, 0]
        assert abs(c[1, 0] - du) <= 1e-6
        assert abs(c[0, 1] - dv) <= 1e-6
        assert abs(2.0 * c[2, 0] - duu) <= 1e-6
        assert abs(c[1, 1] - duv) <= 1e-6


def test_jet_at_sqrt_matches_jet_sqrt():
    f = MapGerm.parse("sqrt(1 + u); v; u*v")
    jx = f.jet_at((0.0, 0.0), 6)[0]
    expect = jet_sqrt(1 + Jet.variable(0, 2, 6))
    assert np.max(np.abs(jx.c - expect.c)) <= 1e-12


def _equivalences():
    """Seeded ``apply_equivalence`` germs of both models: their trees put
    one diffeo subtree object at every occurrence of u, v and s."""
    for seed in (1, 7):
        rng = np.random.default_rng(seed)
        for model in (MODEL_S1_PLUS, MODEL_S1_MINUS):
            f = MapGerm.parse(model)
            for _ in range(2):
                yield apply_equivalence(f, random_diffeo(rng), random_rotation(rng))


def _unshared(g):
    """The same germ with no shared interior node: ``substitute`` rebuilds
    every interior node at each visit."""
    return MapGerm(*(substitute(e, {}) for e in g.components), kind=g.kind)


def _assert_same_jets(got, expect):
    assert len(got) == len(expect) == 3
    for a, b in zip(got, expect):
        assert a.c.shape == b.c.shape
        assert np.array_equal(a.c, b.c)


def test_jet_at_shared_subtrees_match_unshared_walk_bit_for_bit():
    points = np.array([[0.1, -0.2, 0.05], [-0.3, 0.1, -0.1], [0.2, 0.25, 0.15]])
    for g in _equivalences():
        h = _unshared(g)
        assert h.components == g.components
        _assert_same_jets(g.jet_at((0.0, 0.0, 0.0), 8), h.jet_at((0.0, 0.0, 0.0), 8))
        _assert_same_jets(g.jet_at(points, 2), h.jet_at(points, 2))
        # successive calls at different points: no jet survives a call
        first = g.jet_at(points[0], 3)
        second = g.jet_at(points[1], 3)
        _assert_same_jets(first, h.jet_at(points[0], 3))
        _assert_same_jets(second, h.jet_at(points[1], 3))


def test_jet_at_shared_subtree_error_matches_unshared_walk():
    root = Sqrt(Sub(Var("u"), Num(1.0)))  # sqrt of -1 at the origin
    g = MapGerm(Var("u"), Add(Var("v"), root), Mul(root, root), kind="germ")
    messages = []
    for germ in (g, _unshared(g)):
        with pytest.raises(DomainError) as err:
            germ.jet_at((0.0, 0.0), 4)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "square root" in messages[0]


def test_jet_at_expands_shared_subtrees_once(monkeypatch):
    """Work, not time: the products made while expanding an equivalence's
    shared tree stay a small fraction of those of its unshared copy (121
    against 921 per germ at order 8).  Fails if ``substitute`` or
    ``apply_equivalence`` stop sharing subtrees, or ``jet_at`` re-expands
    them."""
    calls = []
    original = Jet.__mul__

    def counted(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)

    def products(germ):
        calls.clear()
        germ.jet_at((0.0, 0.0, 0.0), 8)
        return len(calls)

    for g in _equivalences():
        shared, unshared = products(g), products(_unshared(g))
        assert 4 * shared <= unshared, (shared, unshared)


def test_evaluate_domain_errors():
    f = MapGerm.parse("sqrt(u); v; 1/v")
    with pytest.raises(DomainError):
        f.evaluate((-1.0, 1.0))
    with pytest.raises(DomainError):
        f.evaluate((1.0, 0.0))
    with pytest.raises(DomainError, match="beyond the float range"):
        MapGerm.parse("u; v; u^9999").evaluate((2.0, 0.0))
    with pytest.raises(DomainError, match="non-finite"):
        MapGerm.parse("u; v; 1e308*u").evaluate((10.0, 0.0))


def test_substitute_is_simultaneous():
    swapped = substitute(parse_expr("u - v"), {"u": Var("v"), "v": Var("u")})
    assert swapped == parse_expr("v - u")
    assert print_expr(swapped) == "v - u"


def test_at_parameter():
    f = MapGerm.parse(MODEL_S1_PLUS)
    g = f.at_parameter(-1.0)
    assert g.kind == "germ"
    assert np.allclose(g.evaluate((1.0, 0.5)), f.evaluate((1.0, 0.5, -1.0)))


# -- rank and null vector -------------------------------------------------------------


def test_rank_and_null_at_s1_point(s1_plus):
    g = s1_plus.at_parameter(0.0)
    assert rank_at(g, (0.0, 0.0)) == 1
    assert np.allclose(null_vector(g, (0.0, 0.0)), [0.0, 1.0])


def test_rank_immersed_point():
    g = MapGerm.parse("u; v; 0")
    assert rank_at(g, (0.0, 0.0)) == 2
    with pytest.raises(DomainError):
        null_vector(g, (0.0, 0.0))


def test_rank_and_null_off_origin(s1_plus):
    g = s1_plus.at_parameter(-1.0)
    assert rank_at(g, (1.0, 0.0)) == 1
    assert np.allclose(null_vector(g, (1.0, 0.0)), [0.0, 1.0])


# -- admissibility -----------------------------------------------------------------


def test_models_admissible(s1_plus, s1_minus):
    examples = [
        s1_plus,
        s1_minus,
        MapGerm.parse("u; -u^2 + v^2; u^2 + v^3 + v*s + u^2*v"),
        MapGerm.parse("u; v^2; v^3 - v*s^2 + u^2*v"),
        MapGerm.parse("u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s"),
    ]
    for f in examples:
        report = admissibility_check(f)
        assert report.passed, report


def test_no_quadratic_normal_part_fails():
    f = MapGerm.parse("u; v^3; 0", kind="deformation")
    report = admissibility_check(f)
    assert not report.passed
    assert [c.name for c in report.failing()] == ["quadratic_normal_part"]


def test_example_with_empty_locus_still_admissible():
    # singular locus is empty for s != 0 here; that is flagged downstream,
    # not by the admissibility check
    f = MapGerm.parse("u; -u^2 + v^2; u^2 + v^3 + v*s^2 + u^2*v")
    report = admissibility_check(f)
    assert report.passed


def test_moving_base_curve_fails():
    f = MapGerm.parse("u; v^2 + s; u^2*v + v^3")
    report = admissibility_check(f)
    assert not report.passed
    assert [c.name for c in report.failing()] == ["parameter_axis_fixed"]


def test_admissibility_requires_deformation():
    with pytest.raises(UsageError):
        admissibility_check(MapGerm.parse(MODEL_CROSS_CAP))
