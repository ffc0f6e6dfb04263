"""Parameter-sweep analytics over a deformation: find the singular points
at one parameter value, expand the cross-cap pair's locus in the
square-root parameter, trace the second-order invariants along a grid and
read their blow-up limits off series, probe the Gaussian-curvature sign
law, and extract the Frenet data of the singular-point trajectory.

Throughout, s = -st^2 with st >= 0, u(st) = ``NormalFormData.branch`` is
the positive branch of the singular locus and (u(st), u(-st)) the pair at
st (``_pair_at``).  Data at a source point (u, v, s) comes from
``NormalFormData.derivatives``, along (u(st), 0, -st^2) from ``_on_branch``.
``trace`` and ``trajectory_geometry`` take the germ and share its one
normal form per order (``normal_form.normalized``).

A cross-cap pair is born at the S1 point for s < 0 exactly when c2(0), the
u^2 coefficient of f33, is positive; ``_pair_alpha1`` decides this once and
every consumer reads it.  c2(0) = 0 is a DegeneracyError; c2(0) < 0 gives
``trace`` no rows and the other pair consumers a DegeneracyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, DegeneracyError, DomainError, UsageError
from .errors import float_contract
from .germs import MapGerm
from .invariants import (
    SecondOrderFrame,
    focal_conic_from_frame,
    form_bundle_from,
    frame_at,
    invariants_from_frame,
)
from .jets import Jet, jet_recip, jet_sqrt
from .normal_form import (
    CLASS_TOL,
    CoefficientSet,
    NormalFormData,
    normalized,
    scalar_coefficients,
)

LOCUS_RESIDUAL_TOL = 1e-10
ROOT_IMAG_TOL = 1e-8
DEFAULT_GRID = tuple(0.1 * 2.0**-j for j in range(7))


# -- singular locus --------------------------------------------------------------


@dataclass(frozen=True)
class SingularPointRecord:
    point: tuple
    cls: str  # "umbrella" | "S1" | "degenerate"
    frame: SecondOrderFrame
    residual: float


@float_contract
def singular_locus(nf: NormalFormData, s: float):
    """Singular points of the reduced germ at fixed parameter: v = 0 and
    f33(u, s) = 0 with |u| <= 1 (roots within 1e-7 count once), classified
    by the frame at each; callers build further geometry from the frames."""
    _pair_alpha1(nf)
    poly = _slice(nf, s)
    scale = np.max(np.abs(poly))
    top = max(np.flatnonzero(np.abs(poly) > 1e-13 * scale), default=0)
    raw = np.roots(poly[top::-1])
    real = raw[np.abs(raw.imag) <= ROOT_IMAG_TOL * (1 + np.abs(raw))].real
    records = []
    polished = (_newton(poly[: top + 1], r) for r in real)
    for u0 in sorted(x for x in polished if abs(x) <= 1.0):
        if records and abs(u0 - records[-1].point[0]) <= 1e-7:
            continue  # one root, found twice
        residual = abs(float(np.polynomial.polynomial.polyval(u0, poly)))
        if residual > LOCUS_RESIDUAL_TOL * (1.0 + float(scale)):
            raise ConsistencyError(
                f"root u = {u0:.6g} of the singular locus leaves residual "
                f"{residual:.3e}"
            )
        frame = frame_at(nf.derivatives((u0, 0.0, s)))
        if frame.cross_cap:
            cls = "umbrella"
        else:
            cls = "S1" if abs(u0) <= 1e-7 and abs(s) <= 1e-12 else "degenerate"
        records.append(SingularPointRecord((u0, 0.0), cls, frame, residual))
    return records


def _pair_alpha1(nf: NormalFormData, need: Optional[str] = None) -> Optional[float]:
    """The one decision on c2(0) = [u^2] f33(u, 0).  |c2(0)| <= CLASS_TOL is a
    DegeneracyError; c2(0) > 0 returns alpha1 = 1/sqrt(c2(0)), the slope of
    the cross-cap pair's positive branch u(st); c2(0) < 0 (no pair) returns
    None, or is a DegeneracyError when ``need`` names a caller of the pair."""
    c2_0 = float(nf.f33.c[2, 0])
    if abs(c2_0) <= CLASS_TOL:
        raise DegeneracyError(
            f"the singular locus needs c2(0) != 0 (it is {c2_0:.3e}); "
            "this degeneracy is unsupported"
        )
    if c2_0 > 0:
        return 1.0 / math.sqrt(c2_0)
    if need:
        raise DegeneracyError(f"{need} needs c2(0) > 0")
    return None


def _on_branch(nf: NormalFormData, tables) -> list:
    """(u, s) coefficient tables, such as v = 0 slices, along the positive
    branch u = u(st), s = -st^2 as jets in st; the caller decided c2(0) > 0."""
    order = nf.order
    t = Jet.variable(1, 2, order)
    s_t, u_t = -(t * t), Jet(1, order, np.r_[0.0, nf.branch, 0.0]).embed(2, (1,))
    on = [Jet(2, order, c, _trusted=True).substitute(1, s_t) for c in tables]
    return [Jet(1, order, j.substitute(0, u_t).c[0], _trusted=True) for j in on]


def _slice(nf: NormalFormData, s: float) -> np.ndarray:
    """f33(u, s) as coefficients in u; a non-finite s is a DomainError."""
    if not math.isfinite(s):
        raise DomainError(f"non-finite parameter value s = {s}")
    return nf.f33.subs(1, s).c


def _newton(poly, x):
    """Four Newton steps from x on ``poly`` (lowest degree first); stops at slope 0."""
    polyval, deriv = np.polynomial.polynomial.polyval, poly[1:] * np.arange(1, len(poly))
    for _ in range(4):
        dfx = polyval(x, deriv)
        if dfx == 0.0:
            break
        x -= polyval(x, poly) / dfx
    return x


def _pair_at(nf: NormalFormData, st: float):
    """The cross-caps (u_plus, u_minus) at s = -st^2 for c2(0) > 0: f33(u, -t^2)
    is even in t, so Newton on the slice p starts at the branch series at +-st.
    A point u is kept when |p(u)| <= LOCUS_RESIDUAL_TOL * sum_k |p_k| |u|^k,
    relative to the size of the terms summed there (past the series' reach
    Newton may overflow; a non-finite size fails).  None when st^2 = 0, when a
    point fails that test, or unless u_minus < u_plus."""
    s = -st * st
    poly = _slice(nf, s)
    if s == 0.0:
        return None
    polyval = np.polynomial.polynomial.polyval
    starts = [t * polyval(t, nf.branch) for t in (st, -st)]

    def is_root(u):
        size = polyval(abs(u), np.abs(poly))
        return math.isfinite(size) and abs(polyval(u, poly)) <= LOCUS_RESIDUAL_TOL * size

    with np.errstate(all="ignore"):
        pair = [_newton(poly, u) for u in starts]
        found = all(is_root(u) for u in pair) and pair[1] < pair[0]
    return (float(pair[0]), float(pair[1])) if found else None


# -- locus expansion ---------------------------------------------------------------


@dataclass(frozen=True)
class LocusExpansion:
    """Coefficients of u(st); alpha3 is taken from the series oracle, the
    closed forms are carried alongside (their third-order text variants
    disagree internally, so only orders one and two are asserted)."""

    alpha1: float
    alpha2: float
    alpha3: float
    alpha_oracle: np.ndarray
    alpha3_closed_form: float
    alpha3_text_statement: float
    alpha3_text_proof: float


@float_contract
def locus_expansion(cs: CoefficientSet, nf: NormalFormData) -> LocusExpansion:
    alpha1 = _pair_alpha1(nf, "locus expansion")
    c20 = cs.c20
    alpha2 = (cs.c1_0 * c20**2 - cs.c3_0) / (2.0 * c20**4)

    alphas = nf.branch

    def closed3(c3_sq_sign, c2s_factor):
        return (
            (cs.c1_0**2 + c2s_factor * cs.c2_s0) * c20**4
            - 2.0 * (3.0 * cs.c3_0 * cs.c1_0 + 2.0 * cs.c4_00) * c20**2
            + c3_sq_sign * 5.0 * cs.c3_0**2
        ) / (8.0 * c20**7)

    return LocusExpansion(
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=float(alphas[2]),
        alpha_oracle=alphas,
        alpha3_closed_form=closed3(+1.0, 4.0),
        alpha3_text_statement=closed3(-1.0, 4.0),
        alpha3_text_proof=closed3(-1.0, 14.0),
    )


# -- invariant tracing ----------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    s_tilde: float
    u_plus: float
    u_minus: float
    a20: float
    a11: float
    a02: float
    ku_ext: float
    ka: float
    conic_kind: str


@dataclass(frozen=True)
class TraceTable:
    """Trace rows and the normal form they were traced on."""

    rows: tuple
    nf: NormalFormData

    COLUMNS = tuple(f.name for f in fields(TraceRow))

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


@float_contract
def trace(f: MapGerm, s_tilde_grid: Sequence[float] = DEFAULT_GRID, order: int = 8):
    """Invariants of both cross-caps along a grid in st.

    Returns (TraceTable, NormalFormData, CoefficientSet); rows keep the
    positive-branch invariants and focal conic, built from the frame at
    u_plus only.  Each row holds the pair ``_pair_at`` reads off the branch
    series; an st without a pair gets no row, and c2(0) < 0 gives no rows
    at all.  The normal form is ``normalized(f, order)``, stored on ``f``, so
    a later ``trajectory_geometry(f, order)`` does not reduce ``f`` again.
    """
    nf = normalized(f, order)
    cs = scalar_coefficients(nf)
    if _pair_alpha1(nf) is None:
        return TraceTable((), nf), nf, cs
    rows = []
    for st in s_tilde_grid:
        if (pair := _pair_at(nf, st)) is None:
            continue
        u_plus, u_minus = pair
        frame = frame_at(nf.derivatives((u_plus, 0.0, -st * st)))
        kind = focal_conic_from_frame(frame).kind
        if not frame.cross_cap:
            raise DegeneracyError(
                f"trace: the point (u, 0) = ({u_plus:.6g}, 0) at st = {st:.6g} "
                "is not a cross-cap"
            )
        inv = invariants_from_frame(frame)[1]
        rows.append(
            TraceRow(st, u_plus, u_minus, inv.a20, inv.a11, inv.a02, inv.ku_ext, inv.ka, kind)
        )
    return TraceTable(tuple(rows), nf), nf, cs


# -- blow-up limits ----------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticReport:
    """Limits as st -> 0 of st^2 * (a20, a11, a02), ku_ext and ka at the
    positive-branch cross-cap, read off the constant terms of their series
    in st, with the closed-form targets of st^2 * (a20, a11, a02)."""

    limits: dict
    theory: dict
    residuals: dict
    bounded_flags: dict
    ku_ext_limit: float
    ka_limit: float


@float_contract
def asymptotic_limits(table: TraceTable, cs: CoefficientSet) -> AsymptoticReport:
    """Blow-up limits on ``table.nf``, read off series; the rows are not read.
    The formulas of ``SecondOrderFrame.scalars`` and ``invariants_from_frame``
    act on jets in st along the branch, where Ker df = <d_v> and, as
    y = y(u, 0, s) + v^2, f_u = (1, yu, zu), f_uu = (0, yuu, zuu),
    f_uv = (0, 0, zuv), f_vv = (0, 2, zvv).  C = O(st) divides by st.
    c2(0) < 0 is a DegeneracyError."""
    nf = table.nf
    _pair_alpha1(nf, "asymptotic limits")
    # v = 0 slices of (d_u, d_v, d_uu, d_uv, d_vv) of y and z
    part = nf._partials[1:, :, :, 0, :]
    yu, yuu, zu, zuu, zuv, zvv = _on_branch(nf, part[[0, 0, 1, 1, 1, 1], [0, 2, 0, 2, 3, 4]])
    A = 1.0 + yu * yu + zu * zu
    cross = yu * zvv - 2.0 * zu  # f_u x f_vv = (cross, -zvv, 2)
    B = cross * cross + zvv * zvv + 4.0
    C = -2.0 * zuv
    d_uuv = yuu * zvv - 2.0 * zuu
    d_uvu = -(zuv * yuu)
    D = d_uuv * d_uuv + 4.0 * C * d_uvu
    gram = A * (zvv * zuv) - (zu * zuv) * (2.0 * yu + zvv * zu)
    E = 2.0 * C * gram - B * d_uuv
    root_A, root_B = jet_sqrt(A), jet_sqrt(B)
    C_st = C.divide_monomial((1,))
    st2_over_C2 = jet_recip(C_st * C_st)
    scaled = {  # st^2 * (a20, a11, a02)
        "a20": 0.25 * jet_recip(A * root_A) * root_B * st2_over_C2 * D,
        "a11": 0.5 * jet_recip(root_A) * st2_over_C2 * E,
        "a02": root_A * B * root_B * st2_over_C2,
    }
    limits = {name: float(jet.c[0]) for name, jet in scaled.items()}
    # st^4 (a20 a02 - a11^2) vanishes to second order, so ka stays finite
    N = scaled["a20"] * scaled["a02"] - scaled["a11"] * scaled["a11"]
    ka_limit = abs(float(N.divide_monomial((2,)).c[0]) / limits["a02"])
    c2 = cs.c20**2
    theory = {
        "a20": cs.f31_0**2 / (2.0 * c2),
        "a11": cs.f31_0 / (2.0 * c2),
        "a02": 1.0 / (2.0 * c2),
    }
    residuals = {name: limits[name] - theory[name] for name in theory}
    bounded_a20 = abs(cs.f31_0) <= CLASS_TOL
    bounded_a11 = bounded_a20 and abs(3.0 * cs.f31_u - cs.d1 * cs.f21_0) <= CLASS_TOL
    bounded = {"a20": bounded_a20, "a11": bounded_a11, "a02": False}
    ku_ext_limit = 2.0 * abs(limits["a11"] / limits["a02"])
    return AsymptoticReport(limits, theory, residuals, bounded, ku_ext_limit, ka_limit)


# -- Gaussian curvature sign probe ------------------------------------------------------


@dataclass(frozen=True)
class GaussProbeReport:
    s_tilde: float
    thetas: np.ndarray
    k_fracs: np.ndarray
    u_of_st: float
    agreement: float  # fraction of samples whose K sign matches the product rule
    mismatches: tuple
    s_tilde_max_agree: float


def default_theta_grid() -> np.ndarray:
    """16 angles avoiding the singular line (multiples of pi)."""
    upper = (np.arange(8) + 0.5) / 8 * math.pi
    return np.concatenate([upper, upper + math.pi])


def default_k_grid() -> np.ndarray:
    return (np.arange(8) + 0.5) / 8


@float_contract
def gauss_sign_probe(nf: NormalFormData, s_tilde: float) -> GaussProbeReport:
    """Compare the sign of K = L N - M^2 near the singular segment with the
    sign of st * sin(theta) * f31(0).

    The sample points live in the source coordinates of the normal form,
    whose parameter must be normalized: the default theta grid times the
    default k grid, a fraction of the theta-dependent radius R.  A
    bisection then locates the largest st in (0, 1/2] for which every
    sample agrees (an st without a pair disagrees).  The samples ring u_plus
    of the pair at st (``_pair_at``).  An st < 0 is a DomainError; so are an
    st without a pair (st = 0, or st^2 below the float range) and c2(0) <= 0.
    """
    if not nf.parameter_normalized:
        raise UsageError("gauss_sign_probe needs a parameter-normalized normal form")
    if s_tilde < 0.0:
        raise DomainError(f"the sign probe needs st >= 0, got st = {s_tilde:g}")
    cs = scalar_coefficients(nf)
    if abs(cs.f31_0) <= CLASS_TOL:
        raise DomainError("the sign law needs f31(0) != 0")
    _pair_alpha1(nf, "the sign probe")
    thetas = default_theta_grid()
    k_fracs = default_k_grid()
    trig = _theta_trig(thetas)

    def probe(st):
        return _probe_once(nf, cs, st, thetas, k_fracs, trig)

    agreement, mismatches, u_st = probe(s_tilde)
    if u_st is None:
        raise DomainError(f"no cross-cap pair at st = {s_tilde:g}")

    lo, hi = 0.0, 0.5
    if probe(hi)[0] == 1.0:
        lo = hi
    else:
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            if probe(mid)[0] == 1.0:
                lo = mid
            else:
                hi = mid
    return GaussProbeReport(
        s_tilde=s_tilde,
        thetas=thetas,
        k_fracs=k_fracs,
        u_of_st=u_st,
        agreement=agreement,
        mismatches=mismatches,
        s_tilde_max_agree=lo,
    )


def _theta_trig(thetas):
    """sin, cos and sin^2 of the probe angles, through libm and Python's
    float ``**`` (numpy's ``power`` rounds x^2 differently on some x)."""
    sines = [math.sin(t) for t in thetas]
    cosines = [math.cos(t) for t in thetas]
    return np.array(sines), np.array(cosines), np.array([x**2 for x in sines])


def _probe_once(nf, cs, st, thetas, k_fracs, trig):
    """Sign agreement on the theta x k grid at one st and the pair's u_plus
    there (0 and None without a pair); the samples share s = -st^2, one batch."""
    if (pair := _pair_at(nf, st)) is None:
        return 0.0, (), None
    s, u_st = -st * st, pair[0]
    sin_t, cos_t, sin2_t = trig
    c2 = cs.c20**2
    shoulder = c2 + 3.0 * cs.d2
    if shoulder > 0.0:
        R = np.ones_like(sin_t)
    else:
        R = np.sqrt(c2 / (-sin2_t * shoulder + c2))
    predicted = np.copysign(1.0, st * sin_t * cs.f31_0)
    r = k_fracs * R[:, None] * u_st  # theta x k
    u, v = (r * cos_t[:, None]).ravel(), (r * sin_t[:, None]).ravel()
    K = form_bundle_from(nf.derivatives((u, v, s))).K
    n_k = len(k_fracs)
    bad = np.copysign(1.0, K) != np.repeat(predicted, n_k)
    mismatches = tuple(
        zip(
            np.repeat(thetas, n_k)[bad].tolist(),
            np.tile(k_fracs, len(thetas))[bad].tolist(),
            K[bad].tolist(),
        )
    )
    agreement = 1.0 - len(mismatches) / K.size
    return agreement, mismatches, u_st


# -- trajectory geometry ---------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryReport:
    """Frenet data of the singular-point trajectory st -> f(u(st), 0, -st^2)
    and the parameter coefficients recovered from it."""

    kappa0: float
    kappa0_from_invariants: float
    tau0: Optional[float]
    kappa_prime0: Optional[float]
    recovered_f24: Optional[float]
    recovered_f34: Optional[float]
    f24_00: float
    f34_00: float
    recovery_skipped: bool


@float_contract
def trajectory_geometry(f: MapGerm, order: int = 8) -> TrajectoryReport:
    """Frenet data at st = 0 of the singular-point trajectory
    gamma(st) = f(u(st), 0, -st^2) of the deformation ``f``, from its normal
    form at ``order``: the curvature kappa0 (and 2 hypot(f21(0), f31(0)),
    its value from the invariants), the torsion tau0, kappa'(0), and f24(0,0)
    and f34(0,0) recovered from them next to the normal form's own values.
    With kappa0 <= 1e-12 the torsion and the recovery are skipped.  The
    normal form is ``normalized(f, order)``, the one ``trace(f, grid,
    order)`` stored on ``f``, with its branch series and partials.
    c2(0) <= 0 is a DegeneracyError."""
    nf = normalized(f, order)
    cs = scalar_coefficients(nf)
    _pair_alpha1(nf, "trajectory geometry")

    # each component along u = u(st), v = 0, s = -st^2, as a jet in st
    gamma = _on_branch(nf, [comp.c[:, 0, :] for comp in nf.components()])

    g1 = np.array([g.c[1] for g in gamma])
    g2 = np.array([2.0 * g.c[2] for g in gamma])
    g3 = np.array([6.0 * g.c[3] for g in gamma])
    cross = np.cross(g1, g2)
    speed = float(np.linalg.norm(g1))
    kappa0 = float(np.linalg.norm(cross)) / speed**3
    kappa_inv = 2.0 * math.hypot(cs.f21_0, cs.f31_0)

    if kappa0 <= 1e-12:
        return TrajectoryReport(
            kappa0=kappa0,
            kappa0_from_invariants=kappa_inv,
            tau0=None,
            kappa_prime0=None,
            recovered_f24=None,
            recovered_f34=None,
            f24_00=cs.f24_00,
            f34_00=cs.f34_00,
            recovery_skipped=True,
        )

    tau0 = float(cross @ g3) / float(cross @ cross)

    # kappa(t) as a one-variable jet: |g' x g''|^2 / |g'|^6 under a sqrt
    dg = [g.partial(0) for g in gamma]
    ddg = [g.partial(0) for g in dg]
    cross_jet = [
        dg[1] * ddg[2] - dg[2] * ddg[1],
        dg[2] * ddg[0] - dg[0] * ddg[2],
        dg[0] * ddg[1] - dg[1] * ddg[0],
    ]
    num = cross_jet[0] * cross_jet[0] + cross_jet[1] * cross_jet[1] + cross_jet[2] * cross_jet[2]
    den = dg[0] * dg[0] + dg[1] * dg[1] + dg[2] * dg[2]
    kappa_jet = jet_sqrt(num * jet_recip(den * den * den))
    kappa_prime0 = float(kappa_jet.c[1])

    c20 = cs.c20
    rec_f24 = (
        2.0 * tau0 * cs.f31_0
        - 2.0 * kappa_prime0 * c20 * cs.f21_0 / kappa0
        + 6.0 * cs.f21_u
    ) / (6.0 * c20**2)
    rec_f34 = (
        -2.0 * tau0 * cs.f21_0
        - 2.0 * kappa_prime0 * c20 * cs.f31_0 / kappa0
        + 6.0 * cs.f31_u
    ) / (6.0 * c20**2)
    return TrajectoryReport(
        kappa0=kappa0,
        kappa0_from_invariants=kappa_inv,
        tau0=tau0,
        kappa_prime0=kappa_prime0,
        recovered_f24=rec_f24,
        recovered_f34=rec_f34,
        f24_00=cs.f24_00,
        f34_00=cs.f34_00,
        recovery_skipped=False,
    )
