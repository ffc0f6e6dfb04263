import numpy as np
import pytest

from crosscap.deformation import (
    asymptotic_limits,
    default_k_grid,
    default_theta_grid,
    gauss_sign_probe,
    locus_expansion,
    richardson,
    singular_locus,
    trace,
    trajectory_geometry,
)
from crosscap.errors import DomainError, UsageError
from crosscap.germs import MapGerm
from crosscap.invariants import form_bundle
from crosscap.jets import Jet
from crosscap.normal_form import normalize_parameter, reduce, scalar_coefficients

F_PLUS = "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s"
F_MINUS = "u; v^2 + u*s; -u^2 + v^3 + u^2*v + v*s"
GRID = [0.1 * 2.0**-j for j in range(7)]


def seeded_germ(rng):
    """Random normal-form-shaped deformation with c2 in [0.5, 2]; c1 and c3
    keep opposite signs so the cubic locus coefficient stays away from 0."""
    c2 = float(rng.uniform(0.5, 2.0))
    c1 = float(rng.uniform(0.2, 0.5))
    c3 = -float(rng.uniform(0.2, 0.5))
    q0, q1, p0, p1 = (float(x) for x in rng.uniform(-0.5, 0.5, size=4))
    b0, d1, d3 = (float(x) for x in rng.uniform(-0.5, 0.5, size=3))
    d2 = float(rng.uniform(0.5, 1.5))
    y = f"v^2 + {p0!r}*u^2 + {p1!r}*u^3 + {b0!r}*u*s"
    z = (
        f"{q0!r}*u^2 + {q1!r}*u^3"
        f" + v^2*({d2!r}*v + {d1!r}*u + {d3!r}*s)"
        f" + v*(s + {c1!r}*u*s + {c2!r}*u^2 + {c3!r}*u^3)"
    )
    return MapGerm.parse(f"u; {y}; {z}")


# -- singular locus ---------------------------------------------------------------


def test_singular_locus_pair(s1_plus):
    nf = reduce(s1_plus)
    recs = singular_locus(nf, -0.01)
    assert len(recs) == 2
    us = sorted(r.point[0] for r in recs)
    assert np.allclose(us, [-0.1, 0.1], atol=1e-12)
    for r in recs:
        assert r.cls == "umbrella"
        assert r.point[1] == 0.0
        assert r.residual < 1e-10
        assert r.inv.a02 > 0


def test_singular_locus_empty_for_positive_parameter(s1_plus):
    assert singular_locus(reduce(s1_plus), 0.01) == []


def test_singular_locus_s1_record(s1_plus):
    recs = singular_locus(reduce(s1_plus), 0.0)
    assert len(recs) == 1
    assert recs[0].cls == "S1"
    assert abs(recs[0].point[0]) <= 1e-10


# -- locus expansion ---------------------------------------------------------------


def test_locus_expansion_model(s1_plus):
    nf = normalize_parameter(reduce(s1_plus))
    le = locus_expansion(scalar_coefficients(nf), nf)
    assert abs(le.alpha1 - 1.0) <= 1e-12
    assert abs(le.alpha2) <= 1e-12
    assert abs(le.alpha3) <= 1e-12


def test_locus_expansion_cubic_adjudication():
    f = MapGerm.parse("u; v^2; v*(s + u^2 + u^3)")
    nf = normalize_parameter(reduce(f))
    le = locus_expansion(scalar_coefficients(nf), nf)
    assert abs(le.alpha1 - 1.0) <= 1e-9
    assert abs(le.alpha2 + 0.5) <= 1e-9
    # oracle gives +5/8; the closed form carries the verified +5 c3^2 sign,
    # the text variants keep the published -5 c3^2 for reference
    assert abs(le.alpha3 - 0.625) <= 1e-9
    assert abs(le.alpha3_closed_form - le.alpha3) <= 1e-9
    assert abs(le.alpha3_text_statement + 0.625) <= 1e-9


def test_locus_expansion_parameter_coupling():
    m = 0.7
    f = MapGerm.parse(f"u; v^2; v*(s + u^2*(1 + {m}*s))")
    nf = normalize_parameter(reduce(f))
    le = locus_expansion(scalar_coefficients(nf), nf)
    assert abs(le.alpha3 - m / 2.0) <= 1e-9
    # the proof-side coefficient 14 would give 14 m / 8 instead
    assert abs(le.alpha3_text_proof - 14 * m / 8.0) <= 1e-9


def test_locus_expansion_matches_roots(rng):
    for _ in range(4):
        f = seeded_germ(rng)
        table, nf, cs = trace(f, GRID)
        le = locus_expansion(cs, nf)
        st = table.column("s_tilde")
        resid = np.abs(
            table.column("u_plus") - le.alpha1 * st - le.alpha2 * st**2
        )
        slope = np.polyfit(np.log(st), np.log(resid), 1)[0]
        assert slope >= 2.9


# -- trace and asymptotics ----------------------------------------------------------


def test_trace_model_closed_form(s1_plus):
    table, _, _ = trace(s1_plus, GRID)
    st = table.column("s_tilde")
    assert np.max(np.abs(table.column("a02") - 1.0 / (2 * st**2))) <= 1e-9 / st[-1] ** 2 * 1e-3
    assert np.allclose(table.column("u_plus"), st, atol=1e-12)
    assert np.allclose(table.column("u_minus"), -st, atol=1e-12)


def test_trace_blowup_limits():
    f = MapGerm.parse("u; v^2; u^2 + v^3 + u^2*v + s*v")
    table, _, cs = trace(f, GRID)
    rep = asymptotic_limits(table, cs)
    for name, target in (("a20", 0.5), ("a11", 0.5), ("a02", 0.5)):
        assert abs(rep.limits[name] - target) <= 1e-5, name
    assert {r.conic_kind for r in table.rows} == {"hyperbola"}
    assert not rep.bounded_flags["a20"]


def test_trace_empty_when_locus_on_other_side():
    f = MapGerm.parse("u; v^2; v*(s - u^2)")
    table, _, _ = trace(f, GRID)
    assert table.rows == ()


def test_asymptotics_grid_validation(s1_plus):
    table, _, cs = trace(s1_plus, GRID)
    with pytest.raises(UsageError):
        asymptotic_limits(
            trace(s1_plus, [0.1, 0.05, 0.03, 0.01])[0], cs
        )
    with pytest.raises(UsageError):
        asymptotic_limits(trace(s1_plus, GRID[:3])[0], cs)


def test_extrapolation_stability(s1_plus):
    f = MapGerm.parse("u; v^2; u^2 + v^3 + u^2*v + s*v")
    grid_half = [g / 2 for g in GRID]
    t1, _, cs = trace(f, GRID)
    t2, _, _ = trace(f, grid_half)
    r1 = asymptotic_limits(t1, cs)
    r2 = asymptotic_limits(t2, cs)
    for name in ("a20", "a11", "a02"):
        assert abs(r1.limits[name] - r2.limits[name]) <= 1e-6


def test_unsettled_extrapolation_is_domain_error():
    # ratio 1 + 1e-7: the tableau divides by q - 1 ~ 1e-7 and amplifies the
    # rounding of st^2 * a20 to ~1e18, so the error estimate is ~ the limit
    f = MapGerm.parse("u; v^2; u^2 + v^3 + u^2*v + s*v")
    table, _, cs = trace(f, [0.1 * 1.0000001**-j for j in range(6)])
    with pytest.raises(DomainError, match="not settled"):
        asymptotic_limits(table, cs)


def test_richardson_on_known_series():
    # q(h) = 3 + 2 h + h^2 sampled geometrically converges to 3
    hs = [0.2 * 2.0**-j for j in range(6)]
    vals = [3 + 2 * h + h * h for h in hs]
    assert abs(richardson(vals, 2.0)[0] - 3.0) <= 1e-12


# -- dichotomy flags ----------------------------------------------------------------


def test_dichotomy_flags(s1_plus, rng):
    table, _, cs = trace(s1_plus, GRID)
    rep = asymptotic_limits(table, cs)
    assert rep.bounded_flags["a20"] and rep.bounded_flags["a11"]
    assert not rep.bounded_flags["a02"]
    for _ in range(3):
        f = seeded_germ(rng)
        table, _, cs = trace(f, GRID)
        rep = asymptotic_limits(table, cs)
        assert rep.bounded_flags["a20"] == (abs(cs.f31_0) <= 1e-9)


# -- gauss sign probe ----------------------------------------------------------------


def test_gauss_probe_pointwise_signs():
    f = MapGerm.parse(F_PLUS)
    st = 0.1
    g = f.at_parameter(-(st**2))
    u_st = st  # F33 = s + u^2 for this germ
    k = 0.5
    K_up = form_bundle(g, (0.0, k * u_st)).K  # theta = pi/2
    K_down = form_bundle(g, (0.0, -k * u_st)).K  # theta = 3 pi/2
    assert K_up > 0 and K_down < 0

    fm = MapGerm.parse(F_MINUS)
    gm = fm.at_parameter(-(st**2))
    assert form_bundle(gm, (0.0, k * u_st)).K < 0
    assert form_bundle(gm, (0.0, -k * u_st)).K > 0


def test_gauss_probe_reports(s1_plus):
    for text in (F_PLUS, F_MINUS):
        nf = normalize_parameter(reduce(MapGerm.parse(text)))
        rep = gauss_sign_probe(nf, 0.05, search_s0=True)
        assert rep.agreement == 1.0
        assert rep.s_tilde_max_agree is not None
        # full agreement persists at half the reported threshold
        rep_half = gauss_sign_probe(
            nf, rep.s_tilde_max_agree / 2, search_s0=False
        )
        assert rep_half.agreement == 1.0
    nf0 = normalize_parameter(reduce(s1_plus))
    with pytest.raises(DomainError):
        gauss_sign_probe(nf0, 0.05)  # f31(0) = 0


def test_derivative_constructors_agree_at_probe_samples():
    """F_PLUS and F_MINUS are their own normal forms, so the normal-form
    jets and the germ's own expansion must give the same derivatives at
    every sample point of the probe (whose radius factor R is 1 here)."""
    for text in (F_PLUS, F_MINUS):
        f = MapGerm.parse(text)
        nf = normalize_parameter(reduce(f))
        for st in (0.025, 0.05, 0.1):
            s = -(st**2)
            frozen = f.at_parameter(s)
            u_st = gauss_sign_probe(nf, st, search_s0=False).u_of_st
            for theta in default_theta_grid():
                for frac in default_k_grid():
                    x, y = frac * u_st * np.cos(theta), frac * u_st * np.sin(theta)
                    got = nf.derivatives((x, y, s))
                    want = frozen.derivatives((x, y))
                    for a, b in ((got.grad, want.grad), (got.hess, want.hess)):
                        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_normal_form_partials_are_built_once(monkeypatch):
    """The partial cubes of a normal form are derived on its first
    ``derivatives`` call; a second probe on it derives none."""
    nf = normalize_parameter(reduce(MapGerm.parse(F_PLUS)))
    first = gauss_sign_probe(nf, 0.05)
    calls = []
    original = Jet.partial

    def counted(self, var):
        calls.append(var)
        return original(self, var)

    monkeypatch.setattr(Jet, "partial", counted)
    second = gauss_sign_probe(nf, 0.05)
    assert calls == []
    assert (second.u_of_st, second.agreement, second.s_tilde_max_agree) == (
        first.u_of_st,
        first.agreement,
        first.s_tilde_max_agree,
    )


def test_gauss_probe_needs_normalized_parameter():
    with pytest.raises(UsageError):
        gauss_sign_probe(reduce(MapGerm.parse(F_PLUS)), 0.05)


def test_default_grids():
    th = default_theta_grid()
    assert len(th) == 16
    assert not np.any(np.isclose(np.sin(th), 0.0, atol=1e-12))
    ks = default_k_grid()
    assert len(ks) == 8 and np.all((ks > 0) & (ks < 1))


# -- trajectory geometry ----------------------------------------------------------------


def test_trajectory_straight_line(s1_plus):
    rep = trajectory_geometry(s1_plus)
    assert rep.kappa0 <= 1e-12
    assert rep.recovery_skipped


def test_trajectory_plane_parabola():
    f = MapGerm.parse("u; v^2 + u^2; v^3 + u^2*v + s*v")
    rep = trajectory_geometry(f)
    assert abs(rep.kappa0 - 2.0) <= 1e-9
    assert abs(rep.kappa0 - rep.kappa0_from_invariants) <= 1e-9


def test_trajectory_recovers_parameter_coefficients():
    f = MapGerm.parse(
        "u; v^2 + u^2 + 0.3*u*s; v^3 + u^2*v + u^2 + s*v - 0.2*u*s"
    )
    rep = trajectory_geometry(f)
    assert not rep.recovery_skipped
    assert abs(rep.recovered_f24 - rep.f24_00) <= 1e-6
    assert abs(rep.recovered_f34 - rep.f34_00) <= 1e-6
    assert abs(rep.kappa0 - rep.kappa0_from_invariants) <= 1e-9


def test_trajectory_recovery_with_full_cubic_structure():
    # c1, c3, c4 all active alongside both curvature offsets
    f = MapGerm.parse(
        "u; v^2 + 0.2*u^2 + 0.3*u*s;"
        " 0.4*u^2 + 0.1*u^3 + v^3"
        " + v*(s + 0.3*u*s + u^2 - 0.25*u^3 + 0.15*u^4) - 0.2*u*s"
    )
    rep = trajectory_geometry(f)
    assert not rep.recovery_skipped
    assert abs(rep.recovered_f24 - rep.f24_00) <= 1e-6
    assert abs(rep.recovered_f34 - rep.f34_00) <= 1e-6


def test_trajectory_recovery_on_rich_germ(rng):
    for _ in range(3):
        f = seeded_germ(rng)
        rep = trajectory_geometry(f)
        if rep.recovery_skipped:
            continue
        assert abs(rep.recovered_f24 - rep.f24_00) <= 1e-6
        assert abs(rep.recovered_f34 - rep.f34_00) <= 1e-6
