"""Second-order geometry at rank-1 points of a surface germ.

Everything here is read from one ``germs.PointDerivatives`` object: the
derivative vectors f_u, f_uu, f_uv, f_vv at the point (f_v vanishes),
taken in source coordinates aligned so the kernel of df is the
v-direction (with v flipped, when needed, to make the Whitney triple
C = |f_u, f_uv, f_vv| positive).  That convention pins the sign of the
mixed invariant a11.
``frame_at`` decides once whether the point is a cross-cap (C does not
vanish) and stores the answer on the frame; everything else reads it:
the Whitney test, the invariants, the curvature parabola, which is a
non-degenerate parabola exactly at cross-caps (|q1 x q2| = 2C/A), and
the focal conic, which is non-degenerate exactly there and takes its
kind from det M = -D/(4A).
The ``(f, point)`` functions expand the germ once at the point and read
from that object; the ``*_from_frame`` functions serve callers that
already hold the derivatives, such as points of a normal form.
Derivatives at N points (a leading batch axis) pass through all of these
at once, each field then holding N values, each row bit-identical to its
point alone: dot products go through ``_dot``, and powers through
``germs.float_pow``, Python's ``**`` element by element (numpy's array
``power`` rounds some x differently from the scalar ``pow`` of one point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConsistencyError, DomainError, float_contract
from .germs import MapGerm, PointDerivatives, float_pow

WHITNEY_TOL = 1e-9
CONIC_TOL = 1e-9
PARALLEL_TOL = 1e-9


def _dot(a, b):
    """Row-wise a . b over a leading batch axis; matmul of 1 x 3 by 3 x 1
    rounds as the unbatched ``a @ b`` does (a plain sum of a * b does not)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(a):
    return np.sqrt(_dot(a, a))  # rounds as np.linalg.norm of one vector


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


# -- the derivative frame ------------------------------------------------------


@dataclass(frozen=True)
class FundamentalScalars:
    """A = f_u.f_u, B = |f_u x f_vv|^2, C = |f_u, f_uv, f_vv|, and the two
    auxiliary determinant combinations D and E (E_inv here, to keep the
    first-fundamental-form letter free).  E_inv is None in
    ``SecondOrderFrame.scalars``; ``invariants_from_frame``, its only
    reader, fills it in."""

    A: float
    B: float
    C: float
    D: float
    E_inv: Optional[float]


@dataclass(frozen=True)
class SecondOrderFrame:
    """Derivatives at a rank-1 point, in kernel-aligned source coordinates,
    with the Whitney triple C = |f_u, f_uv, f_vv| >= 0 and the cross-cap
    decision read from it."""

    f_u: np.ndarray
    f_uu: np.ndarray
    f_uv: np.ndarray
    f_vv: np.ndarray
    C: float
    cross_cap: bool

    def triple(self, a, b, c):
        return np.linalg.det(np.stack([a, b, c], axis=-1))

    @cached_property
    @float_contract
    def scalars(self) -> FundamentalScalars:
        """The fundamental scalars but E, computed on first use."""
        f_u, f_uu, f_uv, f_vv = self.f_u, self.f_uu, self.f_uv, self.f_vv
        A = _dot(f_u, f_u)
        cross = np.cross(f_u, f_vv)
        B = _dot(cross, cross)
        C = self.C
        d_uuv = self.triple(f_u, f_uu, f_vv)
        d_uvu = self.triple(f_u, f_uv, f_uu)
        D = float_pow(d_uuv, 2) + 4.0 * C * d_uvu
        return FundamentalScalars(A, B, C, D, None)


def frame_at(d: PointDerivatives) -> SecondOrderFrame:
    """Align the source so Ker df = <d_v>, flip v when needed for C >= 0,
    and decide the cross-cap test: C > WHITNEY_TOL |f_u| |f_vv| |f_uv|.
    C stays a numpy scalar, so a product with it that overflows raises."""
    n = d.null_vector()
    t = np.stack([n[..., 1], -n[..., 0]], axis=-1)
    f_u = (d.grad @ t[..., None])[..., 0]
    f_uu, f_uv, f_vv = (
        np.einsum("...cij,...i,...j->...c", d.hess, a, b) for a, b in ((t, t), (t, n), (n, n))
    )
    C = np.linalg.det(np.stack([f_u, f_uv, f_vv], axis=-1))
    flip = C < 0.0
    f_uv = np.where(flip[..., None], -f_uv, f_uv)
    C = np.where(flip, -C, C)[()]
    cc = C > WHITNEY_TOL * (_norm(f_u) * _norm(f_vv) * _norm(f_uv))
    return SecondOrderFrame(f_u, f_uu, f_uv, f_vv, C, cc if np.ndim(cc) else bool(cc))


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
    w = w / _norm(w)[..., None]
    b1 = b2 = np.zeros_like(w)
    found = np.zeros(w.shape[:-1], int)  # basis vectors per point so far
    for cand in np.eye(3)[[1, 2, 0]]:
        res = cand - _dot(cand, w)[..., None] * w
        res = np.where((found == 1)[..., None], res - _dot(res, b1)[..., None] * b1, res)
        norm = _norm(res)
        take = (found < 2) & (norm > 1e-12)
        unit = res / np.where(take, norm, 1.0)[..., None]
        b1 = np.where((take & (found == 0))[..., None], unit, b1)
        b2 = np.where((take & (found == 1))[..., None], unit, b2)
        found = found + take
    lead = np.take_along_axis(b1, np.argmax(np.abs(b1), axis=-1)[..., None], axis=-1)
    return np.stack([np.where(lead < 0.0, -b1, b1), b2], axis=-1)


# -- Whitney-umbrella test and invariants -----------------------------------------


@float_contract
def whitney_test(f: MapGerm, point) -> bool:
    """A rank-1 point is a cross-cap iff C = |f_u, f_uv, f_vv| does not vanish."""
    return _plain_frame(f, point).cross_cap


@dataclass(frozen=True)
class UmbrellaInvariants:
    a20: float
    a11: float
    a02: float
    ku_ext: float  # extended umbilic curvature 2|a11/a02|
    ka: float  # axial curvature |(a20 a02 - a11^2)/a02|


@float_contract
def umbrella_invariants(f: MapGerm, point):
    return invariants_from_frame(_plain_frame(f, point))


def invariants_from_frame(frame: SecondOrderFrame):
    """The three second-order invariants at a cross-cap point.

    Returns (FundamentalScalars, UmbrellaInvariants); requires the
    Whitney-umbrella test to pass at the point (at every point of a batch).
    """
    if not np.all(frame.cross_cap):
        raise DomainError("the point is not a cross-cap")
    fs = frame.scalars
    f_u, f_uv, f_vv = frame.f_u, frame.f_uv, frame.f_vv
    gram = _dot(f_u, f_u) * _dot(f_vv, f_uv) - _dot(f_u, f_uv) * _dot(f_vv, f_u)
    E = 2.0 * fs.C * gram - fs.B * frame.triple(f_u, frame.f_uu, f_vv)
    fs = replace(fs, E_inv=E)
    A, B, C2, D = fs.A, fs.B, float_pow(fs.C, 2), fs.D
    a20 = 0.25 * float_pow(A, -1.5) * np.sqrt(B) / C2 * D
    a11 = 0.5 / np.sqrt(A) / C2 * E
    a02 = np.sqrt(A) * float_pow(B, 1.5) / C2
    ka = abs((a20 * a02 - float_pow(a11, 2)) / a02)
    return fs, UmbrellaInvariants(a20, a11, a02, 2.0 * abs(a11 / a02), ka)


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


@float_contract
def curvature_parabola(f: MapGerm, point) -> CurvatureParabola:
    return curvature_parabola_from_frame(_plain_frame(f, point))


def curvature_parabola_from_frame(frame: SecondOrderFrame) -> CurvatureParabola:
    basis = normal_plane_basis(frame.f_u)
    E1 = float(frame.f_u @ frame.f_u)
    q0 = basis.T @ frame.f_uu / E1
    q1 = 2.0 * basis.T @ frame.f_uv / math.sqrt(E1)
    q2 = basis.T @ frame.f_vv

    n2 = np.linalg.norm(q2)
    if frame.cross_cap:
        # |q1 x q2| = 2C/A: a genuine parabola, with its vertex where the
        # tangent is orthogonal to the axis
        axis = q2 / n2
        cstar = -float(q1 @ q2) / (2.0 * n2**2)
        vertex = q0 + cstar * q1 + cstar**2 * q2
        ka = abs(float(vertex @ axis))
        return CurvatureParabola(basis, "parabola", vertex, axis, None, ka)

    n1 = np.linalg.norm(q1)
    if n2 <= PARALLEL_TOL * (n1 + 1.0):
        if n1 <= PARALLEL_TOL:
            return CurvatureParabola(basis, "point", q0, np.zeros(2), None, None)
        axis = q1 / n1
        return CurvatureParabola(basis, "line", q0, axis, None, None)

    # degenerate direction: a half-line swept as c^2 + c * (q1 along q2)
    axis = q2 / n2
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


@float_contract
def focal_conic(f: MapGerm, point) -> FocalConic:
    return focal_conic_from_frame(_plain_frame(f, point))


_CONIC_KINDS = np.array([  # by cross-cap (no, yes), then by det M: ~0, < 0, > 0
    ("double-or-single-line", "two-lines", "degenerate-other"),
    ("parabola", "hyperbola", "ellipse"),
])


def focal_conic_from_frame(frame: SecondOrderFrame) -> FocalConic:
    """Critical-value conic of the squared-distance family at a rank-1 point.

    The determinant of the Hessian of D^x restricted to the affine normal
    plane is the quadratic form below.  Its 3x3 matrix has determinant
    A C^2 / 4, so the conic is non-degenerate exactly at cross-caps (the
    frame's flag decides it), and det M = -D / (4A); the kind is read from
    det M, which is checked against that identity.  As c = 0 the conic
    passes through w = 0, so a non-degenerate conic with det M > 0 is a
    real ellipse.  At N points the first point failing the check raises,
    and ``kind`` is a list.
    """
    basis = normal_plane_basis(frame.f_u)
    fs = frame.scalars
    b_T = np.swapaxes(basis, -1, -2)
    p_uu, p_uv, p_vv = ((b_T @ v[..., None])[..., 0] for v in (frame.f_uu, frame.f_uv, frame.f_vv))
    # det Hess D^x = (w.f_uu - A)(w.f_vv) - (w.f_uv)^2, as a form in w
    M = 0.5 * (_outer(p_uu, p_vv) + _outer(p_vv, p_uu)) - _outer(p_uv, p_uv)
    b = -np.expand_dims(fs.A, -1) * p_vv
    dM = np.linalg.det(M)
    tol = CONIC_TOL * (np.sum(M * M, axis=(-2, -1)) + 0.5 * _dot(b, b))
    target = -fs.D / (4.0 * fs.A)
    if (bad := np.flatnonzero(abs(dM - target) > tol)).size:
        i = bad[0]
        raise ConsistencyError(
            f"focal conic det M = {np.ravel(dM)[i]:.6e} contradicts -D/(4A) = "
            f"{np.ravel(target)[i]:.6e}"
        )
    sign = np.where(abs(dM) <= tol, 0, np.where(dM < 0.0, 1, 2))
    kind = _CONIC_KINDS[np.asarray(frame.cross_cap, int), sign].tolist()
    return FocalConic(M, b, 0.0, kind, basis)


# -- fundamental forms and Gaussian curvature sign ----------------------------------


@dataclass(frozen=True)
class FormBundle:
    """Normal-scaled second-form scalars and their discriminant
    K = L N - M^2, whose sign is the Gaussian-curvature sign away from
    singular points.  Built from derivatives at N points, every field is
    an array of N values."""

    L: float
    M: float
    N_: float
    K: float


@float_contract
def form_bundle(f: MapGerm, point) -> FormBundle:
    return form_bundle_from(f.derivatives(point))


def form_bundle_from(d: PointDerivatives) -> FormBundle:
    """The second form at one point or, from batched derivatives, at N
    points."""
    f_u, f_v = d.grad[..., 0], d.grad[..., 1]
    f_uu, f_uv, f_vv = d.hess[..., 0, 0], d.hess[..., 0, 1], d.hess[..., 1, 1]
    normal = np.cross(f_u, f_v)
    L, M, N_ = _dot(f_uu, normal), _dot(f_uv, normal), _dot(f_vv, normal)
    return FormBundle(L, M, N_, L * N_ - M * M)
