import hashlib
from dataclasses import fields

import numpy as np
import pytest

from crosscap import deformation, invariants
from crosscap.deformation import (
    TrajectoryReport,
    asymptotic_limits,
    default_k_grid,
    default_theta_grid,
    gauss_sign_probe,
    locus_expansion,
    singular_locus,
    trace,
    trajectory_geometry,
)
from crosscap.errors import ConsistencyError, DegeneracyError, DomainError, UsageError
from crosscap.germs import MapGerm
from crosscap.invariants import (
    focal_conic_from_frame,
    form_bundle,
    frame_at,
    invariants_from_frame,
)
from crosscap.jets import Jet
from crosscap.normal_form import normalize_parameter, normalized, reduce, scalar_coefficients
from crosscap.reports import trace_csv

F_PLUS = "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s"
F_MINUS = "u; v^2 + u*s; -u^2 + v^3 + u^2*v + v*s"
C2_ZERO = "u; v^2; u^2 + v^3 + u^3*v + s*v"  # f33 has no u^2 term: c2(0) = 0
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
        assert invariants_from_frame(r.frame)[1].a02 > 0


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


def test_trace_rows_hold_two_distinct_points():
    # for st >= 0.00625 the slice s + 0.05 u^2 + u^3 = 0 has one real root:
    # the minus point has met the third root and left the real line, so
    # Newton from the branch series at -st fails the residual test there
    table, _, _ = trace(MapGerm.parse("u; v^2; v*(s + 0.05*u^2 + u^3)"), GRID)
    assert table.column("s_tilde").tolist() == GRID[5:]
    assert np.all(table.column("u_minus") < 0)
    assert np.all(table.column("u_plus") > 0)


def test_trace_pair_matches_the_general_root_search(rng):
    """Wherever the np.roots search of ``singular_locus`` sees two distinct
    roots nearest to +-alpha1 st, ``trace`` has a row whose pair, read off
    the branch series, is those two roots to rounding."""
    compared = 0
    for _ in range(20):
        table, nf, _ = trace(seeded_germ(rng), GRID)
        rows = {row.s_tilde: row for row in table.rows}
        for st in GRID:
            us = [r.point[0] for r in singular_locus(nf, -st * st)]
            plus = min(us, key=lambda u: abs(u - nf.branch[0] * st), default=None)
            minus = min(us, key=lambda u: abs(u + nf.branch[0] * st), default=None)
            if plus == minus:
                continue
            row = rows[st]
            assert abs(row.u_plus - plus) <= 4.4e-16 * abs(plus), st
            assert abs(row.u_minus - minus) <= 4.4e-16 * abs(minus), st
            compared += 1
    assert compared >= 100


def test_trace_gives_no_row_where_the_pair_is_gone():
    """With c2(0) = 1e-6 the minus point meets a third root of
    s + 1e-6 u^2 + u^3 + u^6 at st ~ 4e-10 and leaves the real line.  Past
    that no st has a pair: not at 1e-3, where a nearest-root guess would
    pair u_plus with the unrelated root near u = -1, not at 0.5 or 1,
    where the branch series' start overflows on its way through Newton,
    and not at 1e-6 or 1e-9, where Newton ends at points whose slice values
    are as large as the terms summed there (an absolute residual test
    passed them at 1e-9)."""
    f = MapGerm.parse("u; v^2; u^2*v^2 + v^3 + v*(s + 1e-6*u^2 + u^3 + u^6)")
    table, _, _ = trace(f, [1.0, 0.5, 1e-3, 1e-6, 1e-9])
    assert table.rows == ()


def test_trace_keeps_the_small_st_cross_caps_of_a_small_c2():
    """C = O(st) at the pair, so the Whitney test is relative to the
    frame's scale: with c2(0) = 0.01, C is about 6e-10 at st = 1.49e-9, and
    the point is a cross-cap."""
    table, _, _ = trace(MapGerm.parse("u; v^2; v*(s + 0.01*u^2 + 5*u^3)"), [1e-8, 1.49e-9])
    assert table.column("s_tilde").tolist() == [1e-8, 1.49e-9]
    assert np.all(table.column("u_minus") < 0) and np.all(table.column("u_plus") > 0)


# SHA-256 of the trace.csv that the README trace command writes
README_TRACE_GERM = "u; v^2; u^2 + v^3 + u^2*v + s*v"
README_TRACE_CSV = "50f40bc3d81d45d2257d967333eba01a15524669654c263c5fc91a21ee9044db"


def test_trace_builds_geometry_once_per_row(monkeypatch):
    """The invariants and the focal conic are built at the reported plus
    points only, not at every locus root, and in one batched pass: one call
    each per ``trace``, on the frames of all 7 rows."""
    frames = []
    for name in ("invariants_from_frame", "focal_conic_from_frame"):
        original = getattr(deformation, name)

        def counted(frame, original=original, name=name):
            frames.append((name, frame.f_u.shape))
            return original(frame)

        monkeypatch.setattr(deformation, name, counted)
    table, _, _ = trace(MapGerm.parse(README_TRACE_GERM), GRID)
    assert len(table.rows) == 7
    assert sorted(frames) == [("focal_conic_from_frame", (7, 3)), ("invariants_from_frame", (7, 3))]
    assert hashlib.sha256(trace_csv(table).encode()).hexdigest() == README_TRACE_CSV


def _bits(values):
    return [v if isinstance(v, str) else np.float64(v).tobytes() for v in values]


def test_trace_rows_equal_the_geometry_at_their_point_bit_for_bit():
    """Each row of the batched pass equals ``frame_at`` of the derivatives at
    its own plus point, then the focal conic and the invariants of that one
    frame; its pair equals ``_pair_at`` at its st alone.  On the README trace
    germ and 30 seeded germs of the criterion-03 recipe."""
    rng = np.random.default_rng(31)
    germs = [MapGerm.parse(README_TRACE_GERM)] + [seeded_germ(rng) for _ in range(30)]
    for f in germs:
        table, nf, _ = trace(f, GRID)
        assert len(table.rows) == 7
        for row in table.rows:
            st = row.s_tilde
            assert deformation._pair_at(nf, [st]) == [(row.u_plus, row.u_minus)]
            frame = frame_at(nf.derivatives((row.u_plus, 0.0, -st * st)))
            assert frame.cross_cap is True
            kind = focal_conic_from_frame(frame).kind
            inv = invariants_from_frame(frame)[1]
            want = (inv.a20, inv.a11, inv.a02, inv.ku_ext, inv.ka, kind)
            got = (row.a20, row.a11, row.a02, row.ku_ext, row.ka, row.conic_kind)
            assert _bits(got) == _bits(want)


def _error_of(call):
    try:
        call()
    except (ConsistencyError, DomainError) as exc:
        return exc
    return None


def test_trace_raises_the_error_of_the_first_failing_st(monkeypatch):
    """A failing batch raises exactly what the first failing st of the grid,
    in grid order, raises on a grid of its own.  Tightened tolerances make the
    README germ's rows with st >= 0.0125 fail the cross-cap test and its rows
    whose conic identity is off by a rounding error fail the conic check;
    the per-point order (pair, derivatives, conic, cross-cap) decides within
    a row, and an earlier row wins over a later one of another kind."""
    f = MapGerm.parse(README_TRACE_GERM)
    monkeypatch.setattr(invariants, "WHITNEY_TOL", 0.9999)
    monkeypatch.setattr(invariants, "CONIC_TOL", 1e-17)
    grid = [GRID[6], GRID[3], GRID[4], GRID[2], float("nan")]
    alone = [_error_of(lambda st=st: trace(f, [st])) for st in grid]
    assert [type(e) for e in alone] == [
        type(None), DegeneracyError, ConsistencyError, ConsistencyError, DomainError
    ]
    assert "at st = 0.0125 is not a cross-cap" in str(alone[1])
    for n in (4, 5):  # without and with the nan
        for start in range(1, n):
            order = list(range(start, n)) + list(range(start))
            first = next(alone[i] for i in order if alone[i] is not None)
            got = _error_of(lambda: trace(f, [grid[i] for i in order]))
            assert (type(got), str(got)) == (type(first), str(first)), order


def test_c2_zero_is_one_degeneracy_error():
    f = MapGerm.parse(C2_ZERO)
    nf = normalize_parameter(reduce(f))
    cs = scalar_coefficients(nf)
    calls = (
        lambda: singular_locus(nf, -0.01),
        lambda: trace(f, GRID),
        lambda: locus_expansion(cs, nf),
        lambda: gauss_sign_probe(nf, 0.05),
        lambda: trajectory_geometry(f),
    )
    for call in calls:
        with pytest.raises(DegeneracyError, match=r"needs c2\(0\) != 0"):
            call()


def test_c2_zero_raises_again_on_the_stored_normal_form(reduce_calls):
    """The first call stores the normal form of C2_ZERO; every later call on
    the germ raises the same DegeneracyError from it."""
    f = MapGerm.parse(C2_ZERO)
    messages = []
    for call in (trace, trajectory_geometry) * 2:
        with pytest.raises(DegeneracyError) as info:
            call(f)
        messages.append(str(info.value))
    assert messages[:2] == messages[2:]
    assert reduce_calls == [8]


def test_trace_keeps_one_normal_form_per_germ_and_order(reduce_calls):
    f = MapGerm.parse(F_PLUS)
    nf8 = trace(f, GRID)[1]
    assert trace(f, GRID)[1] is nf8
    nf6 = trace(f, GRID, 6)[1]
    assert (nf6.order, nf8.order) == (6, 8)
    assert trace(f, GRID, 6)[1] is nf6 and trace(f, GRID, 8)[1] is nf8
    assert reduce_calls == [8, 6]


def test_c2_negative_has_no_pair_from_the_s1_point():
    # the cross-caps at u = +-1/sqrt(3) exist already at s = 0; for
    # c2(0) = -1 no pair is born at the S1 point, so none is traced
    f = MapGerm.parse("u; v^2; v*(s - u^2 + 3*u^4)")
    table, nf, cs = trace(f, GRID)
    assert table.rows == ()
    assert [r.cls for r in singular_locus(nf, -0.01)] == ["umbrella"] * 2
    with pytest.raises(DegeneracyError, match=r"needs c2\(0\) > 0"):
        locus_expansion(cs, nf)
    with pytest.raises(DegeneracyError, match=r"needs c2\(0\) > 0"):
        trajectory_geometry(f)
    g = MapGerm.parse("u; v^2 + u*s; u^2 + v^3 + v*(s - u^2 + 3*u^4)")
    with pytest.raises(DegeneracyError, match=r"needs c2\(0\) > 0"):
        gauss_sign_probe(normalize_parameter(reduce(g)), 0.05)


def test_asymptotics_do_not_depend_on_the_grid(rng):
    """The limits are read off the branch series, so any grid, geometric
    or not, short or with a ratio next to 1, gives the same numbers."""
    grids = (
        GRID,
        [0.1, 0.05, 0.03, 0.01],
        GRID[:3],
        [0.1 * 1.0000001**-j for j in range(6)],
    )
    for f in (MapGerm.parse("u; v^2; u^2 + v^3 + u^2*v + s*v"), seeded_germ(rng)):
        numbers = set()
        for grid in grids:
            table, _, cs = trace(f, grid)
            rep = asymptotic_limits(table, cs)
            numbers.add((tuple(rep.limits.items()), rep.ku_ext_limit, rep.ka_limit))
        assert len(numbers) == 1


def test_asymptotic_limits_match_closed_forms(rng):
    """st^2 (a20, a11, a02) -> (f31(0)^2, f31(0), 1) / (2 c2(0)),
    ku_ext -> 2|f31(0)| and ka -> 2|f21(0)|, to rounding."""
    germs = [seeded_germ(rng) for _ in range(40)] + [
        MapGerm.parse("u; v^2; u^2 + v^3 + u^2*v + s*v"),
        MapGerm.parse("u; v^2 + u^2; u^2 + v^3 + u^2*v + s*v"),
    ]
    for f in germs:
        table, _, cs = trace(f, GRID)
        rep = asymptotic_limits(table, cs)
        got = dict(rep.limits, ku_ext=rep.ku_ext_limit, ka=rep.ka_limit)
        want = dict(rep.theory, ku_ext=2.0 * abs(cs.f31_0), ka=2.0 * abs(cs.f21_0))
        for name, target in want.items():
            assert abs(got[name] - target) <= 1e-13 * max(1.0, abs(target)), name


def test_asymptotic_limits_scale_with_the_germ():
    """Multiplying the germ by lam scales the limits by lam^(-1/2, 1/2,
    3/2), also where the branch series has [u^2] = 1e12 against [t^2] = -1
    (1e-8).  At lam = 1e-9 and 1e-12 the rank and quadratic-normal-part
    tests of admissibility are relative to the germ's own scale, so it still
    reduces.  The pair is read off the branch series, so every grid point
    keeps its row at u = +-alpha1 st, however far the scale moves the pair
    from |u| ~ 1 (alpha1 = lam^(3/4) runs from 1e-9 to 5.6e3)."""
    for lam in (1e-12, 1e-9, 1e-8, 1e-7, 1e-5, 1e-3, 1.0, 1e2, 1e3, 1e4, 1e5):
        g = MapGerm.parse(
            f"{lam!r}*u; {lam!r}*v^2; {lam!r}*(u^2 + v^3 + u^2*v + s*v)"
        )
        table, nf, cs = trace(g, GRID)
        rep = asymptotic_limits(table, cs)
        want = (0.5 / lam**0.5, 0.5 * lam**0.5, 0.5 * lam**1.5)
        for name, target in zip(("a20", "a11", "a02"), want):
            assert abs(rep.limits[name] - target) <= 1e-13 * target, (lam, name)
        ku_want = 2.0 * abs(cs.f31_0)
        assert abs(rep.ku_ext_limit - ku_want) <= 1e-13 * max(1.0, ku_want), lam
        assert len(table.rows) == len(GRID), lam
        for row in table.rows:
            u_st = nf.branch[0] * row.s_tilde
            assert abs(row.u_plus - u_st) <= 4.4e-16 * u_st, (lam, row.s_tilde)
            assert abs(row.u_minus + u_st) <= 4.4e-16 * u_st, (lam, row.s_tilde)


def test_limits_do_not_depend_on_the_grid(s1_plus):
    f = MapGerm.parse("u; v^2; u^2 + v^3 + u^2*v + s*v")
    grid_half = [g / 2 for g in GRID]
    t1, _, cs = trace(f, GRID)
    t2, _, _ = trace(f, grid_half)
    r1 = asymptotic_limits(t1, cs)
    r2 = asymptotic_limits(t2, cs)
    for name in ("a20", "a11", "a02"):
        assert abs(r1.limits[name] - r2.limits[name]) <= 1e-6


def _on_branch_alone(nf, tables):
    """Each (u, s) table along the positive branch on its own, as a jet in
    st: s = -st^2 and then u = u(st) substituted into one table at a time."""
    order = nf.order
    t = Jet.variable(1, 2, order)
    s_t, u_t = -(t * t), Jet(1, order, np.r_[0.0, nf.branch, 0.0]).embed(2, (1,))
    on = [Jet(2, order, c, _trusted=True).substitute(1, s_t) for c in tables]
    return [j.substitute(0, u_t).c[0] for j in on]


def test_along_branch_equals_each_table_alone_bit_for_bit():
    """The nine jets of one batched pass equal, bit for bit, the v = 0 slices
    of y_u, y_uu, z_u, z_uu, z_uv, z_vv, x, y and z taken along the branch
    one table at a time.  On the README trace germ at orders 8, 4 and 12,
    and on 30 seeded germs of the criterion-03 recipe."""
    rng = np.random.default_rng(32)
    cases = [(MapGerm.parse(README_TRACE_GERM), order) for order in (8, 4, 12)]
    cases += [(seeded_germ(rng), 8) for _ in range(30)]
    for f, order in cases:
        nf = normalized(f, order)
        tables = list(nf._partials[1:, :, :, 0, :][[0, 0, 1, 1, 1, 1], [0, 2, 0, 2, 3, 4]])
        tables += [comp.c[:, 0, :] for comp in nf.components()]
        want = _on_branch_alone(nf, tables)
        assert [j.c.tobytes() for j in nf.along_branch] == [c.tobytes() for c in want]


def test_along_branch_is_built_once_per_normal_form(monkeypatch):
    """After ``trace``, the limits and the trajectory of the germ make the two
    batched substitutions of ``along_branch`` once, and then share it."""
    f = MapGerm.parse(README_TRACE_GERM)
    table, nf, cs = trace(f, GRID)
    calls = []
    original = Jet.substitute

    def counted(self, var, W):
        calls.append((var, self.c.shape))
        return original(self, var, W)

    monkeypatch.setattr(Jet, "substitute", counted)
    first = asymptotic_limits(table, cs)
    trajectory_geometry(f)
    second = asymptotic_limits(table, cs)
    assert calls == [(1, (9, 9, 9)), (0, (9, 9, 9))]
    assert first.limits == second.limits


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
        rep = gauss_sign_probe(nf, 0.05)
        assert rep.agreement == 1.0
        assert 0.0 < rep.s_tilde_max_agree <= 0.5
        # full agreement persists at half the reported threshold
        rep_half = gauss_sign_probe(nf, rep.s_tilde_max_agree / 2)
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
            u_st = gauss_sign_probe(nf, st).u_of_st
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


def test_trajectory_reuses_the_normal_form_trace_stored(reduce_calls):
    """``trajectory_geometry`` after ``trace`` on the same germ reduces
    nothing more, and gives field by field and bit for bit what it gives on
    a freshly parsed copy of the germ."""
    sources = (
        F_PLUS,
        "u; v^2 + u^2 + 0.3*u*s; v^3 + u^2*v + u^2 + s*v - 0.2*u*s",
        "u; v^2 + 0.2*u^2 + 0.3*u*s;"
        " 0.4*u^2 + 0.1*u^3 + v^3 + v*(s + 0.3*u*s + u^2 - 0.25*u^3) - 0.2*u*s",
    )
    for source in sources:
        f = MapGerm.parse(source)
        trace(f, GRID)
        shared = trajectory_geometry(f)
        assert reduce_calls == [8]
        fresh = trajectory_geometry(MapGerm.parse(source))
        for field in fields(TrajectoryReport):
            assert repr(getattr(shared, field.name)) == repr(getattr(fresh, field.name))
        reduce_calls.clear()


def test_trajectory_recovery_on_rich_germ(rng):
    for _ in range(3):
        f = seeded_germ(rng)
        rep = trajectory_geometry(f)
        if rep.recovery_skipped:
            continue
        assert abs(rep.recovered_f24 - rep.f24_00) <= 1e-6
        assert abs(rep.recovered_f34 - rep.f34_00) <= 1e-6
