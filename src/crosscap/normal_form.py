"""Constructive reduction of an admissible deformation to its rotation
normal form

    (u,  u^2 f21(u) + v^2 + u s f24(u,s),
         u^2 f31(u) + v^2 f32(u,v,s) + v f33(u,s) + u s f34(u,s))

using only a source diffeomorphism that preserves the parameter direction
and a single rotation of the target.  The surviving coefficients are
geometric data of the deformation; everything downstream (singular locus,
invariant asymptotics, focal conics) reads them off this form.

Pipeline: align the kernel of df_0 with the v-axis, rotate the image line
onto the x-axis, make the first component a coordinate, straighten the
singular set of the (x, y) part by an implicit solve, rescale v so the
quadratic part of the second component becomes exactly v^2, then split the
components into the six coefficient series.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, DegeneracyError, GenericityError, UsageError
from .germs import (
    Add,
    Expr,
    MapGerm,
    Mul,
    Num,
    PointDerivatives,
    Pow,
    Var,
    admissibility_from_jets,
    eval_jet,
    substitute,
    uses_variable,
)
from .jets import Jet, horner, implicit_solve, invert_coordinate, jet_sqrt

SPLIT_TOL = 1e-10  # Hadamard-division remainders above this signal bad input
CLASS_TOL = 1e-9  # classification / degeneracy threshold on the discriminant


# -- data types -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormData:
    """Rotation, source-change log, and the six coefficient series."""

    rotation: np.ndarray
    source_steps: tuple
    f21: Jet  # in u
    f24: Jet  # in (u, s)
    f31: Jet  # in u
    f32: Jet  # in (u, v, s)
    f33: Jet  # in (u, s)
    f34: Jet  # in (u, s)
    order: int
    parameter_normalized: bool = False

    def components(self):
        """Assembled normal-form jets (x, y, z) in (u, v, s)."""
        n = self.order
        u3, v3, s3 = Jet.coordinates(3, n)
        uu = u3 * u3
        us = u3 * s3
        jy = uu * self.f21.embed(3, (0,)) + v3 * v3 + us * self.f24.embed(3, (0, 2))
        jz = (
            uu * self.f31.embed(3, (0,))
            + v3 * v3 * self.f32
            + v3 * self.f33.embed(3, (0, 2))
            + us * self.f34.embed(3, (0, 2))
        )
        return u3, jy, jz

    @cached_property
    def _partials(self):
        """Coefficient cubes of d_u, d_v, d_uu, d_uv, d_vv of each assembled
        component (3 x 5 x cube), built on first use."""
        table = []
        for j in self.components():
            d_u, d_v = j.partial(0), j.partial(1)
            table.append(
                [d_u.c, d_v.c, d_u.partial(0).c, d_u.partial(1).c, d_v.partial(1).c]
            )
        return np.array(table)

    def derivatives(self, point) -> PointDerivatives:
        """First and second derivatives in (u, v) of the assembled normal
        form at the source point ``(u, v, s)``."""
        if len(point) != 3:
            raise UsageError(f"point arity {len(point)} != 3")
        vals = horner(self._partials, point)  # 3 x 5
        return PointDerivatives(vals[:, :2], vals[:, [2, 3, 3, 4]].reshape(3, 2, 2))


@dataclass(frozen=True)
class CoefficientSet:
    """Scalar invariants read off the normal form.

    The c's are the expansion of f33 = s + u s c1(s) + u^2 c2(s)
    + u^3 c3(s) + u^4 c4(u, s); the d's are the linear part of f32.
    When c2_0 < 0 the stored c20 satisfies c2_0 = -c20^2.
    """

    f21_0: float
    f21_u: float
    f31_0: float
    f31_u: float
    f24_00: float
    f34_00: float
    c1_0: float
    c2_0: float
    c20: float
    c2_s0: float
    c3_0: float
    c4_00: float
    d1: float
    d2: float
    d3: float
    df33_ds: float

    def as_dict(self):
        return asdict(self)

    def as_vector(self):
        return np.array(list(self.as_dict().values()))


@dataclass(frozen=True)
class Classification:
    kind: str  # "S1Plus" | "S1Minus" | "Degenerate"
    discriminant: float


# -- rotations -------------------------------------------------------------------


def rotation_to_e1(w) -> np.ndarray:
    """Product of two Givens rotations sending w to |w| e1."""
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(w) == 0.0:
        raise DegeneracyError("cannot align a zero vector with the x-axis")
    # first rotate in the (y, z) plane to kill the z component
    r_yz = math.hypot(w[1], w[2])
    if r_yz > 0.0:
        cth, sth = w[1] / r_yz, w[2] / r_yz
    else:
        cth, sth = 1.0, 0.0
    G1 = np.array([[1.0, 0.0, 0.0], [0.0, cth, sth], [0.0, -sth, cth]])
    w1 = G1 @ w
    # then rotate in the (x, y) plane to kill the y component, x > 0
    r_xy = math.hypot(w1[0], w1[1])
    cph, sph = w1[0] / r_xy, w1[1] / r_xy
    G2 = np.array([[cph, sph, 0.0], [-sph, cph, 0.0], [0.0, 0.0, 1.0]])
    return G2 @ G1


def rotation_about_x(theta) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random element of SO(3) via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _apply_matrix(T, jets):
    out = []
    for i in range(3):
        acc = None
        for j in range(3):
            coef = float(T[i, j])
            if coef == 0.0:
                continue
            term = jets[j] * coef
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else Jet.zeros(3, jets[0].order))
    return out


# -- the reduction -----------------------------------------------------------------


def reduce(f: MapGerm, order: int = 8) -> NormalFormData:
    """Reduce an admissible deformation to the normal form."""
    if f.kind != "deformation":
        raise UsageError("reduce needs a deformation")
    jets = f.jet_at((0.0, 0.0, 0.0), order)
    report = admissibility_from_jets(jets)
    if not report.passed:
        names = ", ".join(c.name for c in report.failing())
        raise DegeneracyError(f"deformation is not admissible: {names} failed")

    u3, v3, s3 = Jet.coordinates(3, order)
    steps = []

    # source linear change: kernel of df_0 becomes the v-direction
    n = PointDerivatives.from_jets(jets).null_vector()
    t = np.array([n[1], -n[0]])
    lin = np.column_stack([t, n])
    inner_u = float(t[0]) * u3 + float(n[0]) * v3
    inner_v = float(t[1]) * u3 + float(n[1]) * v3
    jets = [j.compose([inner_u, inner_v, s3]) for j in jets]
    steps.append(("source_linear", lin))

    # rotate the image line onto the x-axis
    w = PointDerivatives.from_jets(jets).grad[:, 0]
    T1 = rotation_to_e1(w)
    jets = _apply_matrix(T1, jets)

    # make the first component the coordinate u
    P = invert_coordinate(jets[0], 0)
    first_inverse = [P, v3, s3]
    jets = [u3, jets[1].compose(first_inverse), jets[2].compose(first_inverse)]
    steps.append(("source_straighten_u", P))

    # rotate about the x-axis: the v^2 part (f_vv / 2) moves entirely into
    # component 2
    cyy, czz = 0.5 * PointDerivatives.from_jets(jets).hess[1:, 1, 1]
    r = math.hypot(cyy, czz)
    if r <= CLASS_TOL:
        raise DegeneracyError(
            "the quadratic part in v vanishes in every normal direction"
        )
    T2 = rotation_about_x(math.atan2(czz, cyy))
    jets = _apply_matrix(T2, jets)

    # straighten the singular set of (u, f2): v -> v + sigma(u, s)
    lam = jets[1].partial(1)
    sigma = implicit_solve(lam)
    shift = [u3, v3 + sigma.embed(3, (0, 2)), s3]
    jets = [u3, jets[1].compose(shift), jets[2].compose(shift)]
    steps.append(("source_shift_v", sigma))

    # rescale v so that f2 = f2(u, 0, s) + v^2 exactly
    g = (jets[1] - jets[1].restrict(1)).divide_monomial((0, 2, 0), SPLIT_TOL)
    W = invert_coordinate(v3 * jet_sqrt(g), 1)
    rescale = [u3, W, s3]
    jets = [u3, jets[1].compose(rescale), jets[2].compose(rescale)]
    steps.append(("source_rescale_v", W))

    splits = _split_components(jets[1], jets[2], order)
    nf = NormalFormData(
        rotation=T2 @ T1,
        source_steps=tuple(steps),
        order=order,
        parameter_normalized=False,
        **splits,
    )
    _check_reassembly(nf, jets)
    return nf


def _split_components(jy, jz, order):
    """Split the reduced components into the six coefficient series."""
    f2_u0s = jy.subs(1, 0.0)  # (u, s)
    f2_u00 = f2_u0s.subs(1, 0.0)  # (u,)
    f21 = f2_u00.divide_monomial((2,), SPLIT_TOL)
    f24 = (f2_u0s - f2_u00.embed(2, (0,))).divide_monomial((1, 1), SPLIT_TOL)

    f3_u0s = jz.subs(1, 0.0)
    f3_u00 = f3_u0s.subs(1, 0.0)
    f31 = f3_u00.divide_monomial((2,), SPLIT_TOL)
    f34 = (f3_u0s - f3_u00.embed(2, (0,))).divide_monomial((1, 1), SPLIT_TOL)

    f33 = jz.partial(1).subs(1, 0.0)  # (u, s)
    f32 = (
        jz - f3_u0s.embed(3, (0, 2)) - Jet.variable(1, 3, order) * f33.embed(3, (0, 2))
    ).divide_monomial((0, 2, 0), SPLIT_TOL)

    scale = 1.0 + max(jy.max_abs(), jz.max_abs())
    if abs(f33.c[0, 0]) > SPLIT_TOL * scale:
        raise ConsistencyError("f33(0,0) did not vanish after reduction")
    if abs(f33.c[1, 0]) > SPLIT_TOL * scale:
        raise DegeneracyError(
            "the u*v coefficient survives the reduction: the germ at "
            "parameter 0 is a cross-cap, not an S1-type singularity"
        )
    if abs(f32.c[0, 0, 0]) > SPLIT_TOL * scale:
        raise ConsistencyError("f32(0,0,0) did not vanish after reduction")

    return dict(f21=f21, f24=f24, f31=f31, f32=f32, f33=f33, f34=f34)


def _check_reassembly(nf, jets):
    _, jy, jz = nf.components()
    scale = 1.0 + max(jets[1].max_abs(), jets[2].max_abs())
    dev = max(np.max(np.abs(jy.c - jets[1].c)), np.max(np.abs(jz.c - jets[2].c)))
    if dev > SPLIT_TOL * scale:
        raise ConsistencyError(
            f"reassembled normal form deviates from the reduced jets by {dev:.3e}"
        )


# -- classification and coefficients ------------------------------------------------


def classify(nf: NormalFormData) -> Classification:
    """Sign of (f32)_v(0,0,0) * (f33)_uu(0,0) separates the two families."""
    disc = nf.f32.c[0, 1, 0] * 2.0 * nf.f33.c[2, 0]
    if disc > CLASS_TOL:
        kind = "S1Plus"
    elif disc < -CLASS_TOL:
        kind = "S1Minus"
    else:
        kind = "Degenerate"
    return Classification(kind, float(disc))


def normalize_parameter(nf: NormalFormData) -> NormalFormData:
    """Reparametrize s so that f33(0, s) = s.

    Requires (d f33/ds)(0,0) != 0; the new parameter is the series inverse
    of s -> f33(0, s), substituted into every component, after which the
    six series are re-split.
    """
    order = nf.order
    h = Jet(1, order, nf.f33.c[0, :].copy())
    if abs(h.c[1]) <= CLASS_TOL:
        raise GenericityError(
            "cannot normalize the deformation parameter: d f33/ds (0,0) = 0"
        )
    hinv = invert_coordinate(h, 0)
    u3, v3, s3 = Jet.coordinates(3, order)
    sub = [u3, v3, hinv.embed(3, (2,))]
    _, jy, jz = nf.components()
    splits = _split_components(jy.compose(sub), jz.compose(sub), order)
    out = NormalFormData(
        rotation=nf.rotation,
        source_steps=nf.source_steps + (("reparametrize_s", hinv),),
        order=order,
        parameter_normalized=True,
        **splits,
    )
    dev = np.max(np.abs(out.f33.c[0, :] - np.eye(order + 1)[1]))
    if dev > SPLIT_TOL * (1.0 + out.f33.max_abs()):
        raise ConsistencyError(f"f33(0,s) != s after reparametrization ({dev:.3e})")
    return out


def scalar_coefficients(nf: NormalFormData) -> CoefficientSet:
    f33, f32 = nf.f33, nf.f32
    c2_0 = float(f33.c[2, 0])
    return CoefficientSet(
        f21_0=float(nf.f21.c[0]),
        f21_u=float(nf.f21.c[1]),
        f31_0=float(nf.f31.c[0]),
        f31_u=float(nf.f31.c[1]),
        f24_00=float(nf.f24.c[0, 0]),
        f34_00=float(nf.f34.c[0, 0]),
        c1_0=float(f33.c[1, 1]),
        c2_0=c2_0,
        c20=math.sqrt(abs(c2_0)),
        c2_s0=float(f33.c[2, 1]),
        c3_0=float(f33.c[3, 0]),
        c4_00=float(f33.c[4, 0]),
        d1=float(f32.c[1, 0, 0]),
        d2=float(f32.c[0, 1, 0]),
        d3=float(f32.c[0, 0, 1]),
        df33_ds=float(f33.c[0, 1]),
    )


_MONOMIAL_NAMES = (
    "b1",
    "b2",
    "b3",
    "a10",
    "a01",
    "a20",
    "a11",
    "a02",
    "a30",
    "a21",
    "a12",
    "a03",
)


def monomial_coefficients(nf: NormalFormData) -> dict:
    """Constant and s-linear parts of the monomial coefficients of the
    normal form, computed two ways and cross-checked.

    Route one re-expands the assembled components; route two reads the
    same data off the six coefficient series.  The b's are the pure-u
    coefficients of the second component minus v^2, the a_ij the u^i v^j
    coefficients of the third.
    """
    _, jy, jz = nf.components()
    route1 = {
        "b1": (jy.c[1, 0, 0], jy.c[1, 0, 1]),
        "b2": (jy.c[2, 0, 0], jy.c[2, 0, 1]),
        "b3": (jy.c[3, 0, 0], jy.c[3, 0, 1]),
        "a10": (jz.c[1, 0, 0], jz.c[1, 0, 1]),
        "a01": (jz.c[0, 1, 0], jz.c[0, 1, 1]),
        "a20": (jz.c[2, 0, 0], jz.c[2, 0, 1]),
        "a11": (jz.c[1, 1, 0], jz.c[1, 1, 1]),
        "a02": (jz.c[0, 2, 0], jz.c[0, 2, 1]),
        "a30": (jz.c[3, 0, 0], jz.c[3, 0, 1]),
        "a21": (jz.c[2, 1, 0], jz.c[2, 1, 1]),
        "a12": (jz.c[1, 2, 0], jz.c[1, 2, 1]),
        "a03": (jz.c[0, 3, 0], jz.c[0, 3, 1]),
    }
    f21, f24, f31, f32, f33, f34 = nf.f21, nf.f24, nf.f31, nf.f32, nf.f33, nf.f34
    route2 = {
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
    out = {}
    for name in _MONOMIAL_NAMES:
        r1, r2 = route1[name], route2[name]
        dev = max(abs(r1[0] - r2[0]), abs(r1[1] - r2[1]))
        if dev > 1e-9:
            raise ConsistencyError(
                f"monomial coefficient {name} disagrees between the two "
                f"routes by {dev:.3e}"
            )
        out[name] = (float(r1[0]), float(r1[1]))
    return out


# -- equivalences -------------------------------------------------------------------


@dataclass(frozen=True)
class DiffeoSpec:
    """Polynomial source change (phi1(u,v,s), phi2(u,v,s), phi3(s))."""

    comp_u: Expr
    comp_v: Expr
    comp_s: Expr

    def components(self):
        return (self.comp_u, self.comp_v, self.comp_s)


def apply_equivalence(f: MapGerm, diffeo: DiffeoSpec, rotation) -> MapGerm:
    """The composed deformation rotation . f . diffeo as a new MapGerm."""
    if f.kind != "deformation":
        raise UsageError("apply_equivalence needs a deformation")
    if uses_variable(diffeo.comp_s, "u") or uses_variable(diffeo.comp_s, "v"):
        raise UsageError("the parameter component of the diffeo may only use s")
    _validate_diffeo(diffeo)
    rotation = np.asarray(rotation, dtype=float)
    if np.max(np.abs(rotation @ rotation.T - np.eye(3))) > 1e-9 or (
        np.linalg.det(rotation) < 0.0
    ):
        raise UsageError("target change must be a rotation matrix")

    mapping = {
        "u": diffeo.comp_u,
        "v": diffeo.comp_v,
        "s": diffeo.comp_s,
    }
    composed = [substitute(comp, mapping) for comp in f.components]
    out = []
    for i in range(3):
        terms = [
            Mul(Num(float(rotation[i, j])), composed[j])
            for j in range(3)
            if rotation[i, j] != 0.0
        ]
        if not terms:
            out.append(Num(0.0))
            continue
        node = terms[0]
        for term in terms[1:]:
            node = Add(node, term)
        out.append(node)
    return MapGerm(out[0], out[1], out[2], kind="deformation")


def _validate_diffeo(diffeo):
    order = 2
    env = {name: Jet.variable(i, 3, order) for i, name in enumerate(("u", "v", "s"))}
    jets = [eval_jet(c, env) for c in diffeo.components()]
    origin = max(abs(j.c[0, 0, 0]) for j in jets)
    if origin > 1e-12:
        raise UsageError("diffeo must fix the origin")
    d_uv = PointDerivatives.from_jets(jets).grad[:2]
    ds = jets[2].c[0, 0, 1]
    if ds <= 0.0:
        raise UsageError("diffeo must preserve the parameter orientation")
    if np.linalg.det(d_uv) * ds <= 0.0:
        raise UsageError("diffeo must be orientation preserving")


def random_diffeo(rng, degree: int = 3, bound: float = 0.5) -> DiffeoSpec:
    """Seeded random triangular diffeo: identity plus bounded higher-order
    terms (and a bounded rescale of s), suitable for invariance probes.

    Pure-s monomials are excluded from the first two components so the
    composed map still fixes the parameter axis.
    """
    u, v, s = Var("u"), Var("v"), Var("s")

    def _pow(base, e):
        return base if e == 1 else Pow(base, e)

    def higher_terms():
        node = None
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                for k in range(degree + 1 - i - j):
                    if i + j + k < 2 or i + j + k > degree or (i == 0 and j == 0):
                        continue
                    mono: Expr = Num(float(rng.uniform(-bound, bound)))
                    for base, e in ((u, i), (v, j), (s, k)):
                        if e:
                            mono = Mul(mono, _pow(base, e))
                    node = mono if node is None else Add(node, mono)
        return node

    def perturbed(base_var, cross_var):
        node = Add(base_var, Mul(Num(float(rng.uniform(-bound, bound))), cross_var))
        high = higher_terms()
        return Add(node, high) if high is not None else node

    comp_u = perturbed(u, v)
    comp_v = perturbed(v, u)
    comp_s: Expr = Mul(Num(1.0 + float(rng.uniform(-bound, bound))), s)
    for e in (2, 3):
        comp_s = Add(comp_s, Mul(Num(float(rng.uniform(-bound, bound))), Pow(s, e)))
    return DiffeoSpec(comp_u, comp_v, comp_s)
