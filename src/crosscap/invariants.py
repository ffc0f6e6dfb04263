"""Second-order geometry at rank-1 points of a surface germ.

Everything here is read from one ``germs.PointDerivatives`` object: the
five derivative vectors f_u, f_v, f_uu, f_uv, f_vv at the point, taken in
source coordinates aligned so the kernel of df is the v-direction (with v
flipped, when needed, to make the triple determinant |f_u, f_uv, f_vv|
positive).  That convention pins the sign of the mixed invariant a11.
The ``(f, point)`` functions expand the germ once at the point and read
from that object; the ``*_from_frame`` functions serve callers that
already hold the derivatives, such as points of an assembled normal form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DomainError
from .germs import MapGerm, PointDerivatives

WHITNEY_TOL = 1e-9
CONIC_TOL = 1e-9
PARALLEL_TOL = 1e-9


# -- the derivative frame ------------------------------------------------------


@dataclass(frozen=True)
class SecondOrderFrame:
    """Derivatives at a rank-1 point, in kernel-aligned source coordinates."""

    f_u: np.ndarray
    f_v: np.ndarray
    f_uu: np.ndarray
    f_uv: np.ndarray
    f_vv: np.ndarray

    def triple(self, a, b, c):
        return float(np.linalg.det(np.column_stack([a, b, c])))


def frame_at(d: PointDerivatives) -> SecondOrderFrame:
    """Align the source so Ker df = <d_v> and flip v when needed for C > 0."""
    n = d.null_vector()
    t = np.array([n[1], -n[0]])
    f_u = d.grad @ t
    f_v = d.grad @ n
    f_uu = np.einsum("cij,i,j->c", d.hess, t, t)
    f_uv = np.einsum("cij,i,j->c", d.hess, t, n)
    f_vv = np.einsum("cij,i,j->c", d.hess, n, n)
    if float(np.linalg.det(np.column_stack([f_u, f_uv, f_vv]))) < 0.0:
        f_uv = -f_uv
        f_v = -f_v
    return SecondOrderFrame(f_u, f_v, f_uu, f_uv, f_vv)


def _plain_frame(f: MapGerm, point) -> SecondOrderFrame:
    if f.kind != "germ":
        raise DomainError(
            "pointwise invariants need a plain germ; freeze the parameter first"
        )
    return frame_at(f.derivatives(point))


def normal_plane_basis(f_u) -> np.ndarray:
    """Two orthonormal vectors spanning the plane normal to the image line.

    Gram-Schmidt of (e2, e3) against f_u, falling back to e1 when one of
    them is swallowed by the image direction; the first basis vector's
    largest component is made positive so plane coordinates are
    reproducible.
    """
    w = np.asarray(f_u, float)
    w = w / np.linalg.norm(w)
    basis = []
    for cand in (np.eye(3)[1], np.eye(3)[2], np.eye(3)[0]):
        res = cand - (cand @ w) * w
        for b in basis:
            res = res - (res @ b) * b
        norm = np.linalg.norm(res)
        if norm > 1e-12:
            basis.append(res / norm)
        if len(basis) == 2:
            break
    b1, b2 = basis
    if b1[np.argmax(np.abs(b1))] < 0.0:
        b1 = -b1
    return np.column_stack([b1, b2])


# -- Whitney-umbrella test and invariants -----------------------------------------


def whitney_test(f: MapGerm, point) -> bool:
    return is_cross_cap(_plain_frame(f, point))


def is_cross_cap(frame: SecondOrderFrame) -> bool:
    """A rank-1 point is a cross-cap iff |f_u, f_vv, f_uv| does not vanish."""
    det = frame.triple(frame.f_u, frame.f_vv, frame.f_uv)
    scale = (
        np.linalg.norm(frame.f_u)
        * np.linalg.norm(frame.f_vv)
        * np.linalg.norm(frame.f_uv)
    )
    return bool(abs(det) > WHITNEY_TOL * (scale + 1.0))


@dataclass(frozen=True)
class FundamentalScalars:
    """A = f_u.f_u, B = |f_u x f_vv|^2, C = |f_u, f_uv, f_vv|, and the two
    auxiliary determinant combinations D and E (E_inv here, to keep the
    first-fundamental-form letter free)."""

    A: float
    B: float
    C: float
    D: float
    E_inv: float


@dataclass(frozen=True)
class UmbrellaInvariants:
    a20: float
    a11: float
    a02: float
    ku_ext: float  # extended umbilic curvature 2|a11/a02|
    ka: float  # axial curvature |(a20 a02 - a11^2)/a02|


def fundamental_scalars(frame: SecondOrderFrame) -> FundamentalScalars:
    f_u, f_uu, f_uv, f_vv = frame.f_u, frame.f_uu, frame.f_uv, frame.f_vv
    A = float(f_u @ f_u)
    cross = np.cross(f_u, f_vv)
    B = float(cross @ cross)
    C = frame.triple(f_u, f_uv, f_vv)
    d_uuv = frame.triple(f_u, f_uu, f_vv)
    d_uvu = frame.triple(f_u, f_uv, f_uu)
    D = d_uuv**2 + 4.0 * C * d_uvu
    gram = (f_u @ f_u) * (f_vv @ f_uv) - (f_u @ f_uv) * (f_vv @ f_u)
    E = 2.0 * C * gram - B * d_uuv
    return FundamentalScalars(A, B, C, D, E)


def umbrella_invariants(f: MapGerm, point):
    return invariants_from_frame(_plain_frame(f, point))


def invariants_from_frame(frame: SecondOrderFrame):
    """The three second-order invariants at a cross-cap point.

    Returns (FundamentalScalars, UmbrellaInvariants); requires the
    Whitney-umbrella test to pass at the point.
    """
    if not is_cross_cap(frame):
        raise DomainError("the point is not a cross-cap")
    fs = fundamental_scalars(frame)
    A, B, C, D, E = fs.A, fs.B, fs.C, fs.D, fs.E_inv
    a20 = 0.25 * A ** (-1.5) * math.sqrt(B) / C**2 * D
    a11 = 0.5 / math.sqrt(A) / C**2 * E
    a02 = math.sqrt(A) * B**1.5 / C**2
    inv = UmbrellaInvariants(
        a20=a20,
        a11=a11,
        a02=a02,
        ku_ext=2.0 * abs(a11 / a02),
        ka=abs((a20 * a02 - a11**2) / a02),
    )
    return fs, inv


# -- curvature parabola ------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureParabola:
    """Image of the second fundamental form over unit-length directions,
    drawn in orthonormal coordinates of the normal plane."""

    plane_basis: np.ndarray  # 3x2
    kind: str  # "parabola" | "half-line" | "line" | "point"
    vertex: np.ndarray  # 2-vector in plane coordinates
    axis_dir: np.ndarray  # unit 2-vector
    ku: Optional[float]  # umbilic curvature; undefined for parabolas
    ka: Optional[float]  # axial curvature


def curvature_parabola(f: MapGerm, point) -> CurvatureParabola:
    return curvature_parabola_from_frame(_plain_frame(f, point))


def curvature_parabola_from_frame(frame: SecondOrderFrame) -> CurvatureParabola:
    basis = normal_plane_basis(frame.f_u)
    E1 = float(frame.f_u @ frame.f_u)
    q0 = basis.T @ frame.f_uu / E1
    q1 = 2.0 * basis.T @ frame.f_uv / math.sqrt(E1)
    q2 = basis.T @ frame.f_vv

    n2 = np.linalg.norm(q2)
    n1 = np.linalg.norm(q1)
    if n2 <= PARALLEL_TOL * (n1 + 1.0):
        if n1 <= PARALLEL_TOL:
            return CurvatureParabola(basis, "point", q0, np.zeros(2), None, None)
        axis = q1 / n1
        return CurvatureParabola(basis, "line", q0, axis, None, None)

    cross = q1[0] * q2[1] - q1[1] * q2[0]
    axis = q2 / n2
    if abs(cross) > PARALLEL_TOL * (n1 * n2 + 1.0):
        # genuine parabola: vertex where the tangent is orthogonal to the axis
        cstar = -float(q1 @ q2) / (2.0 * n2**2)
        vertex = q0 + cstar * q1 + cstar**2 * q2
        ka = abs(float(vertex @ axis))
        return CurvatureParabola(basis, "parabola", vertex, axis, None, ka)

    # degenerate direction: a half-line swept as c^2 + c * (q1 along q2)
    tau = float(q1 @ q2) / n2**2
    vertex = q0 - (tau**2 / 4.0) * q2
    nu2 = np.array([-axis[1], axis[0]])
    ku = abs(float(q0 @ nu2))
    ka = abs(float(vertex @ axis))
    return CurvatureParabola(basis, "half-line", vertex, axis, ku, ka)


# -- focal conic --------------------------------------------------------------------


@dataclass(frozen=True)
class FocalConic:
    """Quadratic form of the focal set in normal-plane coordinates:
    w^T M w + b.w + c = 0 with w = x - f(p)."""

    M: np.ndarray
    b: np.ndarray
    c: float
    kind: str
    plane_basis: np.ndarray


CONIC_KINDS = (
    "ellipse",
    "parabola",
    "hyperbola",
    "two-lines",
    "double-or-single-line",
    "degenerate-other",
)


def focal_conic(f: MapGerm, point) -> FocalConic:
    return focal_conic_from_frame(_plain_frame(f, point))


def crosscheck_conic_kind(kind, inv: UmbrellaInvariants) -> str:
    """Assert that the definition-based conic kind matches the sign rule
    a20 a02 < 0 (ellipse), > 0 (hyperbola), = 0 (parabola).

    Right at the parabola threshold the two routes may fall on different
    sides of their numeric tolerances, so disagreement only counts when the
    product is clearly away from zero.
    """
    expected = _conic_kind_from_invariants(inv.a20, inv.a02)
    if expected == kind:
        return kind
    near_threshold = abs(inv.a20 * inv.a02) <= 1e-6 * (1.0 + inv.a02**2)
    if near_threshold and {kind, expected} != {"ellipse", "hyperbola"}:
        return kind
    raise ConsistencyError(
        f"focal conic kind {kind!r} contradicts the invariant sign rule "
        f"{expected!r} (a20 = {inv.a20:.6e}, a02 = {inv.a02:.6e})"
    )


def focal_conic_from_frame(frame: SecondOrderFrame) -> FocalConic:
    """Critical-value conic of the squared-distance family at a rank-1 point.

    The determinant of the Hessian of D^x restricted to the affine normal
    plane is the quadratic form below; at cross-cap points the kind is
    cross-checked against the sign rule in terms of a20 a02.
    """
    basis = normal_plane_basis(frame.f_u)
    A = float(frame.f_u @ frame.f_u)
    p_uu = basis.T @ frame.f_uu
    p_uv = basis.T @ frame.f_uv
    p_vv = basis.T @ frame.f_vv
    # det Hess D^x = (w.f_uu - A)(w.f_vv) - (w.f_uv)^2, as a form in w
    M = 0.5 * (np.outer(p_uu, p_vv) + np.outer(p_vv, p_uu)) - np.outer(p_uv, p_uv)
    b = -A * p_vv
    c = 0.0
    kind = _classify_conic(M, b, c)
    if is_cross_cap(frame):
        crosscheck_conic_kind(kind, invariants_from_frame(frame)[1])
    return FocalConic(M, b, c, kind, basis)


def _classify_conic(M, b, c):
    Q = np.zeros((3, 3))
    Q[:2, :2] = M
    Q[:2, 2] = b / 2.0
    Q[2, :2] = b / 2.0
    Q[2, 2] = c
    scale = float(np.sum(Q * Q)) + 1e-300
    if not scale < 1e200:  # scale**1.5 below must stay a finite float
        raise DomainError(f"focal conic entries too large to classify ({scale:.3e})")
    dM = float(np.linalg.det(M))
    dQ = float(np.linalg.det(Q))
    small_dM = abs(dM) <= CONIC_TOL * scale
    small_dQ = abs(dQ) <= CONIC_TOL * scale**1.5
    if small_dM:
        if small_dQ:
            return "double-or-single-line"
        return "parabola"
    if dM < 0.0:
        return "hyperbola" if not small_dQ else "two-lines"
    if small_dQ:
        return "degenerate-other"  # a single real point
    # real ellipse iff the nonzero eigenvalue side matches the constant part
    return "ellipse" if dQ * (M[0, 0] + M[1, 1]) < 0.0 else "degenerate-other"


def _conic_kind_from_invariants(a20, a02):
    prod = a20 * a02
    if prod < -CONIC_TOL * (1.0 + a02**2):
        return "ellipse"
    if prod > CONIC_TOL * (1.0 + a02**2):
        return "hyperbola"
    return "parabola"


# -- fundamental forms and Gaussian curvature sign ----------------------------------


@dataclass(frozen=True)
class FormBundle:
    """First-form scalars, normal-scaled second-form scalars and their
    discriminant K = L N - M^2, whose sign is the Gaussian-curvature sign
    away from singular points."""

    E1: float
    F1: float
    G1: float
    L: float
    M: float
    N_: float
    K: float


def form_bundle(f: MapGerm, point) -> FormBundle:
    return form_bundle_from(f.derivatives(point))


def form_bundle_from(d: PointDerivatives) -> FormBundle:
    f_u, f_v = d.grad.T
    f_uu, f_uv, f_vv = d.hess[:, 0, 0], d.hess[:, 0, 1], d.hess[:, 1, 1]
    normal = np.cross(f_u, f_v)
    L = float(f_uu @ normal)
    M = float(f_uv @ normal)
    N_ = float(f_vv @ normal)
    return FormBundle(
        E1=float(f_u @ f_u),
        F1=float(f_u @ f_v),
        G1=float(f_v @ f_v),
        L=L,
        M=M,
        N_=N_,
        K=L * N_ - M * M,
    )
