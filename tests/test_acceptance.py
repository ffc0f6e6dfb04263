"""Acceptance suite: one test per criterion, each printing a PASS line with
the quantity it pinned.  Tolerances are fixed here, not tuned elsewhere.
"""

import math

import numpy as np

from conftest import compose_poly_1var, random_jet
from crosscap.deformation import (
    asymptotic_limits,
    gauss_sign_probe,
    locus_expansion,
    trace,
    trajectory_geometry,
)
from crosscap.germs import MODEL_S1_MINUS, MODEL_S1_PLUS, MapGerm
from crosscap.invariants import focal_conic, form_bundle, umbrella_invariants
from crosscap.jets import Jet, jet_recip, jet_sqrt, implicit_solve, invert_coordinate
from crosscap.normal_form import (
    apply_equivalence,
    classify,
    normalize_parameter,
    random_diffeo,
    random_rotation,
    reduce,
    scalar_coefficients,
)

GRID = [0.1 * 2.0**-j for j in range(7)]
F31_GERM = "u; v^2; u^2 + v^3 + u^2*v + s*v"
F_PLUS = "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s"
F_MINUS = "u; v^2 + u*s; -u^2 + v^3 + u^2*v + v*s"
EX4_VS = "u; -u^2 + v^2; u^2 + v^3 + v*s + u^2*v"
EX5 = "u; v^2; v^3 - v*s^2 + u^2*v"

# minimum of a02 over every cross-cap visited by the sweeps (criterion 10)
A02_SEEN = []


def _register_a02(table):
    if table.rows:
        A02_SEEN.append(float(np.min(table.column("a02"))))


def seeded_family(count=10, seed=11):
    """Normal-form-shaped germs with c2 in [0.5, 2].

    The signs of c1 and c3 are separated and the quartic term is left out
    so the cubic locus coefficient cannot cancel; otherwise the remainder
    would not show its s_tilde^3 scaling on the stated grid.
    """
    rng = np.random.default_rng(seed)
    germs = []
    for _ in range(count):
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
        germs.append(MapGerm.parse(f"u; {y}; {z}"))
    return germs


def _report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def test_criterion_01_normal_form_fixed_point():
    nf = reduce(MapGerm.parse(MODEL_S1_PLUS), 8)
    dev = max(
        nf.f21.max_abs(),
        nf.f24.max_abs(),
        nf.f31.max_abs(),
        nf.f34.max_abs(),
    )
    f32_target = np.zeros_like(nf.f32.c)
    f32_target[0, 1, 0] = 1.0
    dev = max(dev, float(np.max(np.abs(nf.f32.c - f32_target))))
    f33_target = np.zeros_like(nf.f33.c)
    f33_target[0, 1] = 1.0
    f33_target[2, 0] = 1.0
    dev = max(dev, float(np.max(np.abs(nf.f33.c - f33_target))))
    assert dev < 1e-10
    assert classify(nf).kind == "S1Plus"
    assert classify(reduce(MapGerm.parse(MODEL_S1_MINUS), 8)).kind == "S1Minus"
    _report(1, f"model reduction is exact to {dev:.2e}; sign rule classifies both models")


def test_criterion_02_equivalence_invariance():
    rng = np.random.default_rng(7)
    worst = 0.0
    for text in (MODEL_S1_PLUS, MODEL_S1_MINUS):
        f = MapGerm.parse(text)
        base = scalar_coefficients(normalize_parameter(reduce(f))).as_vector()
        for _ in range(20):
            g = apply_equivalence(f, random_diffeo(rng), random_rotation(rng))
            got = scalar_coefficients(normalize_parameter(reduce(g))).as_vector()
            worst = max(worst, float(np.max(np.abs(got - base))))
    assert worst < 1e-8
    _report(2, f"coefficients invariant under 20 x 2 random equivalences (max dev {worst:.2e})")


def test_criterion_03_locus_expansion():
    worst_slope = np.inf
    worst_resid = 0.0
    for f in seeded_family():
        table, nf, cs = trace(f, GRID)
        _register_a02(table)
        le = locus_expansion(cs, nf)
        # closed forms for the first two orders
        assert abs(le.alpha1 - 1.0 / cs.c20) <= 1e-9
        assert (
            abs(le.alpha2 - (cs.c1_0 * cs.c20**2 - cs.c3_0) / (2 * cs.c20**4))
            <= 1e-9
        )
        assert abs(le.alpha_oracle[0] - le.alpha1) <= 1e-9
        assert abs(le.alpha_oracle[1] - le.alpha2) <= 1e-9
        # alpha3 against the substitution oracle, independently recomputed
        t2 = Jet.variable(1, 2, 8)
        F = nf.f33.substitute(1, -(t2 * t2))
        residual = compose_poly_1var(F.c, le.alpha_oracle, 8)
        worst_resid = max(worst_resid, float(np.max(np.abs(residual[:9]))))
        assert abs(le.alpha3 - le.alpha_oracle[2]) <= 1e-9
        assert abs(le.alpha3_closed_form - le.alpha3) <= 1e-9
        # the text variants exist as annotations and stay un-asserted
        assert le.alpha3_text_statement != le.alpha3_text_proof or cs.c2_s0 == 0
        # empirical residual slope of |u(st) - a1 st - a2 st^2|
        st = table.column("s_tilde")
        resid = np.abs(table.column("u_plus") - le.alpha1 * st - le.alpha2 * st**2)
        slope = float(np.polyfit(np.log(st), np.log(resid), 1)[0])
        worst_slope = min(worst_slope, slope)
        assert slope >= 2.9
    assert worst_resid <= 1e-9
    _report(3, f"10 seeded germs: min residual slope {worst_slope:.3f}, oracle residual {worst_resid:.2e}")


def test_criterion_04_invariant_blowup():
    devs = []
    for text, targets in (
        (MODEL_S1_PLUS, (0.0, 0.0, 0.5)),
        (F31_GERM, (0.5, 0.5, 0.5)),
    ):
        table, _, cs = trace(MapGerm.parse(text), GRID)
        _register_a02(table)
        rep = asymptotic_limits(table, cs)
        for name, target in zip(("a20", "a11", "a02"), targets):
            dev = abs(rep.limits[name] - target)
            devs.append(dev)
            assert dev <= 1e-5, (text, name)
    _report(4, f"series limits of st^2 (a20, a11, a02) hit targets (max dev {max(devs):.2e})")


def test_criterion_05_dichotomy():
    cases = [MapGerm.parse(MODEL_S1_PLUS), MapGerm.parse(F31_GERM)] + seeded_family()
    for f in cases:
        table, _, cs = trace(f, GRID)
        if not table.rows:
            continue
        rep = asymptotic_limits(table, cs)
        assert rep.bounded_flags["a20"] == (abs(cs.f31_0) <= 1e-9)
        assert rep.bounded_flags["a02"] is False
    _report(5, "a20 bounded exactly when f31(0) = 0; a02 always divergent")


def test_criterion_06_gauss_sign_law():
    fp = MapGerm.parse(F_PLUS)
    fm = MapGerm.parse(F_MINUS)
    rep_p = gauss_sign_probe(normalize_parameter(reduce(fp)), 0.05)
    rep_m = gauss_sign_probe(normalize_parameter(reduce(fm)), 0.05)
    assert rep_p.agreement == 1.0 and rep_m.agreement == 1.0
    assert len(rep_p.thetas) * len(rep_p.k_fracs) == 16 * 8

    # K flips sign pointwise between the two germs
    st = 0.05
    gp = fp.at_parameter(-(st**2))
    gm = fm.at_parameter(-(st**2))
    u_st = rep_p.u_of_st
    flipped = 0
    for theta in rep_p.thetas:
        for frac in rep_p.k_fracs:
            x = frac * u_st * math.cos(theta)
            y = frac * u_st * math.sin(theta)
            kp = form_bundle(gp, (x, y)).K
            km = form_bundle(gm, (x, y)).K
            assert kp * km < 0
            flipped += 1
    _report(6, f"128/128 samples match the sign rule; all {flipped} signs flip between f+ and f-")


def test_criterion_07_focal_conic_thresholds():
    ex4 = MapGerm.parse(EX4_VS)
    kinds = {}
    for s in (-1.0, -0.25, -0.2):
        g = ex4.at_parameter(s)
        u0 = math.sqrt(-s)
        kinds[s] = focal_conic(g, (u0, 0.0)).kind
    kinds[0.0] = focal_conic(ex4.at_parameter(0.0), (0.0, 0.0)).kind
    assert kinds == {
        -1.0: "ellipse",
        -0.25: "parabola",
        -0.2: "hyperbola",
        0.0: "two-lines",
    }
    _, inv = umbrella_invariants(ex4.at_parameter(-0.25), (0.5, 0.0))
    assert abs(inv.a20) < 1e-8
    assert focal_conic(MapGerm.parse(EX5).at_parameter(-1.0), (1.0, 0.0)).kind == "parabola"

    # nonzero f31(0) forces hyperbolas along the whole small-parameter sweep
    sweep = [0.1 * 2.0**-j for j in range(7)]
    table, _, _ = trace(MapGerm.parse(F31_GERM), sweep)
    _register_a02(table)
    assert {row.conic_kind for row in table.rows} == {"hyperbola"}
    _report(7, "ellipse/parabola/hyperbola/two-lines thresholds and the all-hyperbola sweep hold")


def test_criterion_08_curvature_limits():
    f = MapGerm.parse("u; v^2 + u^2; u^2 + v^3 + u^2*v + s*v")  # f21 = f31 = 1
    table, _, cs = trace(f, GRID)
    rep = asymptotic_limits(table, cs)
    dev_ku = abs(rep.ku_ext_limit - 2.0 * abs(cs.f31_0))
    dev_ka = abs(rep.ka_limit - 2.0 * abs(cs.f21_0))
    assert dev_ku <= 1e-5 and dev_ka <= 1e-5
    _report(8, f"ku_ext -> 2|f31| and ka -> 2|f21| (devs {dev_ku:.2e}, {dev_ka:.2e})")


def test_criterion_09_trajectory_geometry():
    cases = [
        MODEL_S1_PLUS,  # straight line, kappa = 0
        "u; v^2 + u^2; v^3 + u^2*v + s*v",  # plane parabola, kappa = 2
        "u; v^2 + u^2 + 0.3*u*s; v^3 + u^2*v + u^2 + s*v - 0.2*u*s",
    ]
    for text in cases:
        rep = trajectory_geometry(MapGerm.parse(text))
        assert abs(rep.kappa0 - rep.kappa0_from_invariants) <= 1e-9
        if not rep.recovery_skipped:
            assert abs(rep.recovered_f24 - rep.f24_00) <= 1e-6
            assert abs(rep.recovered_f34 - rep.f34_00) <= 1e-6
    exact = trajectory_geometry(MapGerm.parse(cases[1]))
    assert abs(exact.kappa0 - 2.0) <= 1e-9
    _report(9, "kappa(0) = 2 sqrt(f21^2 + f31^2) on three germs; parameter coefficients recovered")


def test_criterion_10_model_round_trip():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        a20 = float(rng.uniform(-2.0, 2.0))
        a11 = float(rng.uniform(-2.0, 2.0))
        a02 = float(rng.uniform(1e-2, 3.0))
        germ = MapGerm.parse(
            f"u; u*v; ({a20!r}*u^2 + 2*{a11!r}*u*v + {a02!r}*v^2)/2"
        )
        _, inv = umbrella_invariants(germ, (0.0, 0.0))
        worst = max(
            worst,
            abs(inv.a20 - a20),
            abs(inv.a11 - a11),
            abs(inv.a02 - a02),
        )
        assert inv.a02 > 0
    assert worst <= 1e-12
    if not A02_SEEN:  # criteria 3-7 usually fill this; recompute if run alone
        table, _, _ = trace(MapGerm.parse(F31_GERM), GRID)
        _register_a02(table)
    assert min(A02_SEEN) > 0.0
    _report(10, f"100 model round trips within {worst:.2e}; min a02 seen in sweeps {min(A02_SEEN):.3g} > 0")


def test_criterion_11_jet_kernel_properties():
    rng = np.random.default_rng(5)
    rel = 1e-12
    worst = 0.0

    def dev(a, b):
        scale = max(a.max_abs(), b.max_abs(), 1.0)
        return float(np.max(np.abs(a.c - b.c))) / scale

    for _ in range(20):
        a = random_jet(rng, 3, 8)
        b = random_jet(rng, 3, 8)
        c = random_jet(rng, 3, 8)
        worst = max(worst, dev((a + b) + c, a + (b + c)))
        worst = max(worst, dev(a * b, b * a))
        worst = max(worst, dev(a * (b + c), a * b + a * c))
        for var in range(3):
            lhs = (a * b).partial(var)
            rhs = a.partial(var) * b + a * b.partial(var)
            mask = np.zeros_like(lhs.c)
            for idx in np.ndindex(*mask.shape):
                if sum(idx) <= 7:
                    mask[idx] = 1.0
            scale = max(lhs.max_abs(), rhs.max_abs(), 1.0)
            worst = max(worst, float(np.max(np.abs((lhs.c - rhs.c) * mask))) / scale)
        pos = random_jet(rng, 3, 8, scale=0.4) + 1.5
        root = jet_sqrt(pos)
        worst = max(worst, dev(root * root, pos))
        worst = max(worst, dev(jet_recip(pos) * pos, Jet.constant(1.0, 3, 8)))

    # implicit and inverse solves leave no residual
    v3 = Jet.variable(1, 3, 8)
    for _ in range(5):
        lam = random_jet(rng, 3, 8, scale=0.3)
        lam.c[0, 0, 0] = 0.0
        lam.c[0, 1, 0] = 1.5
        sigma = implicit_solve(lam)
        res = lam.substitute(1, sigma.embed(3, (0, 2)))
        worst = max(worst, res.max_abs() / (1 + lam.max_abs()))
        V = v3 + random_jet(rng, 3, 8, scale=0.2) * (v3 * v3)
        W = invert_coordinate(V, 1)
        worst = max(worst, dev(V.substitute(1, W), v3))
    assert worst < 1e-12
    _report(11, f"ring, Leibniz, sqrt, reciprocal and solver residuals all below {worst:.2e}")
