"""Parameter-sweep analytics over a deformation: locate the pair of
cross-caps for negative parameter values, expand their locus in the
square-root parameter, trace the blow-up of the second-order invariants,
probe the Gaussian-curvature sign law, and extract the Frenet data of the
singular-point trajectory.

Throughout, s = -st^2 with st >= 0, and u(st) denotes the positive branch
of the singular locus of the reduced germ.  Pointwise data at a source
point (u, v, s) of the reduced germ comes from ``NormalFormData.derivatives``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, DegeneracyError, DomainError, UsageError
from .germs import MapGerm
from .invariants import (
    UmbrellaInvariants,
    focal_conic_from_frame,
    form_bundle_from,
    frame_at,
    invariants_from_frame,
    is_cross_cap,
)
from .jets import Jet, branch_solve, jet_recip, jet_sqrt
from .normal_form import (
    CLASS_TOL,
    CoefficientSet,
    NormalFormData,
    normalize_parameter,
    reduce as nf_reduce,
    scalar_coefficients,
)

LOCUS_RESIDUAL_TOL = 1e-10
ROOT_IMAG_TOL = 1e-8
DEFAULT_GRID = tuple(0.1 * 2.0**-j for j in range(7))


# -- singular locus --------------------------------------------------------------


@dataclass(frozen=True)
class SingularPointRecord:
    s_tilde: float
    point: tuple
    cls: str  # "umbrella" | "S1" | "degenerate"
    inv: Optional[UmbrellaInvariants]
    conic_kind: Optional[str]
    residual: float


def singular_locus(nf: NormalFormData, s: float):
    """Singular points of the reduced germ at fixed parameter: v = 0 and
    f33(u, s) = 0 with |u| <= 1, classified pointwise."""
    if abs(nf.f33.c[2, 0]) <= CLASS_TOL:
        raise DegeneracyError(
            "singular_locus needs c2(0) != 0; this degeneracy is unsupported"
        )
    poly, roots = _locus_roots(nf, s)
    st = math.sqrt(-s) if s <= 0 else float("nan")
    records = []
    for u0 in roots:
        residual = abs(float(np.polynomial.polynomial.polyval(u0, poly)))
        if residual > LOCUS_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(poly)))):
            raise ConsistencyError(
                f"root u = {u0:.6g} of the singular locus leaves residual "
                f"{residual:.3e}"
            )
        frame = frame_at(nf.derivatives((u0, 0.0, s)))
        kind = focal_conic_from_frame(frame).kind
        if is_cross_cap(frame):
            _, inv = invariants_from_frame(frame)
            records.append(
                SingularPointRecord(st, (u0, 0.0), "umbrella", inv, kind, residual)
            )
        else:
            cls = "S1" if abs(u0) <= 1e-7 and abs(s) <= 1e-12 else "degenerate"
            records.append(SingularPointRecord(st, (u0, 0.0), cls, None, kind, residual))
    return records


def _locus_roots(nf: NormalFormData, s: float):
    """Coefficients in u of the slice f33(u, s) and its real roots in
    |u| <= 1.  A non-finite s, or a slice that overflows, is a DomainError."""
    if not math.isfinite(s):
        raise DomainError(f"non-finite parameter value s = {s}")
    with np.errstate(over="ignore", invalid="ignore"):
        poly = nf.f33.subs(1, s).c
    if not np.all(np.isfinite(poly)):
        raise DomainError("non-finite coefficient in the singular-locus polynomial")
    scale = np.max(np.abs(poly))
    top = len(poly) - 1
    while top > 0 and abs(poly[top]) <= 1e-13 * scale:
        top -= 1
    if top == 0:
        return poly, []
    c = poly[: top + 1]
    raw = np.roots(c[::-1])
    real = [float(r.real) for r in raw if abs(r.imag) <= ROOT_IMAG_TOL * (1 + abs(r))]
    deriv = np.polynomial.polynomial.polyder(c)
    polished = []
    for r in real:
        x = r
        for _ in range(4):
            dfx = np.polynomial.polynomial.polyval(x, deriv)
            if dfx == 0.0:
                break
            x -= np.polynomial.polynomial.polyval(x, c) / dfx
        if abs(x) <= 1.0:
            polished.append(x)
    polished.sort()
    out = []
    for x in polished:
        if out and abs(x - out[-1]) <= 1e-7:
            continue
        out.append(x)
    return poly, out


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


def locus_expansion(cs: CoefficientSet, nf: NormalFormData) -> LocusExpansion:
    if cs.c2_0 <= CLASS_TOL:
        raise DegeneracyError("locus expansion needs c2(0) > 0")
    c20 = cs.c20
    alpha1 = 1.0 / c20
    alpha2 = (cs.c1_0 * c20**2 - cs.c3_0) / (2.0 * c20**4)

    alphas = branch_solve(_locus_equation(nf))

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


def _locus_equation(nf: NormalFormData) -> Jet:
    """f33(u, -t^2) as a jet in (u, t)."""
    order = nf.order
    u2, t2 = Jet.coordinates(2, order)
    return nf.f33.compose([u2, -(t2 * t2)])


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
    rows: tuple

    COLUMNS = (
        "s_tilde",
        "u_plus",
        "u_minus",
        "a20",
        "a11",
        "a02",
        "ku_ext",
        "ka",
        "conic_kind",
    )

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows])


def trace(f: MapGerm, s_tilde_grid: Sequence[float] = DEFAULT_GRID, order: int = 8):
    """Invariants of both cross-caps along a geometric grid in st.

    Returns (TraceTable, NormalFormData, CoefficientSet); rows keep the
    positive-branch invariants.
    """
    nf = normalize_parameter(nf_reduce(f, order))
    cs = scalar_coefficients(nf)
    rows = []
    for st in s_tilde_grid:
        s = -st * st
        _, roots = _locus_roots(nf, s)
        if not roots:
            continue
        alpha1 = 1.0 / cs.c20 if cs.c2_0 > 0 else 0.0
        u_plus = min(roots, key=lambda r: abs(r - alpha1 * st))
        u_minus = min(roots, key=lambda r: abs(r + alpha1 * st))
        frame = frame_at(nf.derivatives((u_plus, 0.0, s)))
        if not is_cross_cap(frame):
            raise DegeneracyError(
                f"trace: the point (u, 0) = ({u_plus:.6g}, 0) at st = {st:.6g} "
                "is not a cross-cap"
            )
        _, inv = invariants_from_frame(frame)
        kind = focal_conic_from_frame(frame).kind
        rows.append(
            TraceRow(
                s_tilde=st,
                u_plus=u_plus,
                u_minus=u_minus,
                a20=inv.a20,
                a11=inv.a11,
                a02=inv.a02,
                ku_ext=inv.ku_ext,
                ka=inv.ka,
                conic_kind=kind,
            )
        )
    return TraceTable(tuple(rows)), nf, cs


# -- Richardson extrapolation ------------------------------------------------------------


RICHARDSON_TOL = 1e-3


def richardson(values, ratio):
    """Limit of a sequence sampled on a geometric grid (largest step first);
    eliminates one power of the step per column.

    Returns (limit, error), where error is the last tableau difference
    |T_n,0 - T_n-1,0|, what the final column changed in the limit estimate
    (Sidi, Practical Extrapolation Methods, 2003); it is inf for a single
    value.
    """
    T = [float(v) for v in values]
    error = math.inf
    m = 1
    while len(T) > 1:
        q = ratio**m
        prev = T[0]
        T = [(q * T[i + 1] - T[i]) / (q - 1.0) for i in range(len(T) - 1)]
        error = abs(T[0] - prev)
        m += 1
    return T[0], error


@dataclass(frozen=True)
class AsymptoticReport:
    """Extrapolated limits of st^2 * (a20, a11, a02) with the closed-form
    targets, plus the finite limits of the two curvatures."""

    limits: dict
    theory: dict
    residuals: dict
    bounded_flags: dict
    ku_ext_limit: float
    ka_limit: float


def asymptotic_limits(table: TraceTable, cs: CoefficientSet) -> AsymptoticReport:
    st = table.column("s_tilde")
    if len(st) < 4:
        raise UsageError("asymptotic extrapolation needs at least 4 grid points")
    ratios = st[:-1] / st[1:]
    if np.max(np.abs(ratios - ratios[0])) > 1e-9 * ratios[0]:
        raise UsageError("asymptotic extrapolation needs a geometric grid")
    ratio = float(ratios[0])
    c2 = cs.c20**2
    theory = {
        "a20": cs.f31_0**2 / (2.0 * c2),
        "a11": cs.f31_0 / (2.0 * c2),
        "a02": 1.0 / (2.0 * c2),
    }
    limits = {}
    for name in ("a20", "a11", "a02"):
        limit, error = richardson(st**2 * table.column(name), ratio)
        if not error <= RICHARDSON_TOL * (1.0 + abs(limit)):
            raise DomainError(
                f"Richardson extrapolation of st^2 * {name} has not settled: "
                f"limit {limit:.6e}, error estimate {error:.3e}"
            )
        limits[name] = limit
    residuals = {name: limits[name] - theory[name] for name in theory}
    bounded_a20 = abs(cs.f31_0) <= CLASS_TOL
    bounded_a11 = bounded_a20 and abs(
        3.0 * cs.f31_u - cs.d1 * cs.f21_0
    ) <= CLASS_TOL
    return AsymptoticReport(
        limits=limits,
        theory=theory,
        residuals=residuals,
        bounded_flags={"a20": bounded_a20, "a11": bounded_a11, "a02": False},
        ku_ext_limit=richardson(table.column("ku_ext"), ratio)[0],
        ka_limit=richardson(table.column("ka"), ratio)[0],
    )


# -- Gaussian curvature sign probe ------------------------------------------------------


@dataclass(frozen=True)
class GaussProbeReport:
    s_tilde: float
    thetas: np.ndarray
    k_fracs: np.ndarray
    u_of_st: float
    agreement: float  # fraction of samples whose K sign matches the product rule
    mismatches: tuple
    s_tilde_max_agree: Optional[float]


def default_theta_grid() -> np.ndarray:
    """16 angles avoiding the singular line (multiples of pi)."""
    upper = (np.arange(8) + 0.5) / 8 * math.pi
    return np.concatenate([upper, upper + math.pi])


def default_k_grid() -> np.ndarray:
    return (np.arange(8) + 0.5) / 8


def gauss_sign_probe(
    nf: NormalFormData, s_tilde: float, search_s0: bool = True
) -> GaussProbeReport:
    """Compare the sign of K = L N - M^2 near the singular segment with the
    sign of st * sin(theta) * f31(0).

    The sample points live in the source coordinates of the normal form,
    whose parameter must be normalized: the default theta grid times the
    default k grid, a fraction of the theta-dependent radius R.  When
    ``search_s0`` is set, a bisection locates the largest st in (0, 1/2]
    for which every sample agrees.
    """
    if not nf.parameter_normalized:
        raise UsageError("gauss_sign_probe needs a parameter-normalized normal form")
    cs = scalar_coefficients(nf)
    if abs(cs.f31_0) <= CLASS_TOL:
        raise DomainError("the sign law needs f31(0) != 0")
    thetas = default_theta_grid()
    k_fracs = default_k_grid()

    agreement, mismatches, u_st = _probe_once(nf, cs, s_tilde, thetas, k_fracs)

    st_max = None
    if search_s0:
        lo, hi = 0.0, 0.5
        ok_hi, _, _ = _probe_once(nf, cs, hi, thetas, k_fracs)
        if ok_hi == 1.0:
            st_max = hi
        else:
            for _ in range(20):
                mid = 0.5 * (lo + hi)
                ok, _, _ = _probe_once(nf, cs, mid, thetas, k_fracs)
                if ok == 1.0:
                    lo = mid
                else:
                    hi = mid
            st_max = lo
    return GaussProbeReport(
        s_tilde=s_tilde,
        thetas=thetas,
        k_fracs=k_fracs,
        u_of_st=u_st,
        agreement=agreement,
        mismatches=mismatches,
        s_tilde_max_agree=st_max,
    )


def _probe_once(nf, cs, st, thetas, k_fracs):
    s = -st * st
    _, roots = _locus_roots(nf, s)
    if not roots:
        return 0.0, (), float("nan")
    alpha1 = 1.0 / cs.c20
    u_st = min(roots, key=lambda r: abs(r - alpha1 * st))
    c2 = cs.c20**2
    shoulder = c2 + 3.0 * cs.d2
    total = 0
    bad = []
    for theta in thetas:
        if shoulder > 0.0:
            R = 1.0
        else:
            R = math.sqrt(c2 / (-math.sin(theta) ** 2 * shoulder + c2))
        predicted = math.copysign(1.0, st * math.sin(theta) * cs.f31_0)
        for frac in k_fracs:
            r = frac * R * u_st
            point = (r * math.cos(theta), r * math.sin(theta), s)
            K = form_bundle_from(nf.derivatives(point)).K
            total += 1
            if math.copysign(1.0, K) != predicted:
                bad.append((float(theta), float(frac), float(K)))
    agreement = 1.0 - len(bad) / total
    return agreement, tuple(bad), u_st


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


def trajectory_geometry(f: MapGerm, order: int = 8) -> TrajectoryReport:
    nf = normalize_parameter(nf_reduce(f, order))
    cs = scalar_coefficients(nf)
    if cs.c2_0 <= CLASS_TOL:
        raise DegeneracyError("trajectory geometry needs c2(0) > 0")

    alphas = branch_solve(_locus_equation(nf))
    u_t = Jet(1, order, np.concatenate([[0.0], alphas, [0.0]]))
    t1 = Jet.variable(0, 1, order)
    zero = Jet.zeros(1, order)
    s_t = -(t1 * t1)
    gamma = [comp.compose([u_t, zero, s_t]) for comp in nf.components()]

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
