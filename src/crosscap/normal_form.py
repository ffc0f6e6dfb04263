"""Constructive reduction of an admissible deformation to its rotation
normal form

    (u,  u^2 f21(u) + v^2 + u s f24(u,s),
         u^2 f31(u) + v^2 f32(u,v,s) + v f33(u,s) + u s f34(u,s))

using only a source diffeomorphism that preserves the parameter direction
and a single rotation of the target.  The surviving coefficients are
geometric data of the deformation; everything downstream (singular locus,
invariant asymptotics, focal conics) reads them off this form.

Pipeline: rotate the image line of df_0 onto the x-axis, make the first
component the coordinate u (which puts the kernel of df_0 on the v-axis),
straighten the singular set of the (x, y) part by an implicit solve, rescale
v so the quadratic part of the second component becomes exactly v^2, check the
two reduced components against the normal-form shape and store them in
exactly that shape.  The six series are coefficient blocks of the stored
components, read by slicing.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, DegeneracyError, GenericityError, UsageError
from .errors import float_contract
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
from .jets import Jet, branch_solve, horner, implicit_solve, invert_coordinate, jet_sqrt

SPLIT_TOL = 1e-10  # remainders off the normal-form shape above this signal bad input
CLASS_TOL = 1e-9  # classification / degeneracy threshold on the discriminant


# -- data types -----------------------------------------------------------------


def _series(component, block):
    """A normal-form series: the ``block`` of the named component's
    coefficient cube, moved to the origin as a jet of the same order."""

    def read(nf) -> Jet:
        c = getattr(nf, component).c[block]
        pad = [(0, nf.order + 1 - n) for n in c.shape]
        return Jet(c.ndim, nf.order, np.pad(c, pad), _trusted=True)

    return cached_property(read)


@dataclass(frozen=True)
class NormalFormData:
    """Rotation and the components y, z in (u, v, s), stored in exactly
    the normal-form shape; the six coefficient series are coefficient
    blocks of them."""

    rotation: np.ndarray
    jy: Jet
    jz: Jet
    order: int
    parameter_normalized: bool = False

    def components(self):
        """Normal-form jets (x, y, z) in (u, v, s)."""
        return Jet.variable(0, 3, self.order), self.jy, self.jz

    f21 = _series("jy", np.s_[2:, 0, 0])  # in u
    f24 = _series("jy", np.s_[1:, 0, 1:])  # in (u, s)
    f31 = _series("jz", np.s_[2:, 0, 0])  # in u
    f32 = _series("jz", np.s_[:, 2:, :])  # in (u, v, s)
    f33 = _series("jz", np.s_[:, 1, :])  # in (u, s)
    f34 = _series("jz", np.s_[1:, 0, 1:])  # in (u, s)

    @cached_property
    def _partials(self):
        """Coefficient cubes of d_u, d_v, d_uu, d_uv, d_vv of each
        component (3 x 5 x cube), built on first use."""
        table = []
        for j in self.components():
            d_u, d_v = j.partial(0), j.partial(1)
            table.append(
                [d_u.c, d_v.c, d_u.partial(0).c, d_u.partial(1).c, d_v.partial(1).c]
            )
        return np.array(table)

    @cached_property
    def _f33_table(self) -> np.ndarray:
        """f33's table c[u, s] up to its last u row that is not all zero
        (two rows at least), built on first use: the u^k coefficients of a
        slice above that row vanish at every s."""
        c = self.f33.c
        return c[: max(np.flatnonzero(c.any(axis=1)).max(initial=0), 1) + 1]

    @cached_property
    def branch(self) -> np.ndarray:
        """alpha_1, alpha_2, ... of the positive branch u(st) of
        f33(u, -st^2) = 0, built on first use; callers decide c2(0) > 0."""
        t = Jet.variable(1, 2, self.order)
        alphas = branch_solve(self.f33.substitute(1, -(t * t)))
        alphas.setflags(write=False)
        return alphas

    @cached_property
    def along_branch(self) -> tuple:
        """Jets in st of y_u, y_uu, z_u, z_uu, z_uv, z_vv and of x, y, z along
        the positive branch (u(st), 0, -st^2), built on first use: the v = 0
        slices, stacked, take s = -st^2 and then u = u(st) in two batched
        substitutions.  Callers decide c2(0) > 0."""
        order = self.order
        t = Jet.variable(1, 2, order)
        u_t = Jet(1, order, np.r_[0.0, self.branch, 0.0]).embed(2, (1,))
        partials = self._partials[1:, :, :, 0, :][[0, 0, 1, 1, 1, 1], [0, 2, 0, 2, 3, 4]]
        slices = [j.c[:, 0, :] for j in self.components()]
        on = Jet(2, order, np.concatenate([partials, slices]), _trusted=True)
        rows = on.substitute(1, -(t * t)).substitute(0, u_t).c[:, 0]
        rows.setflags(write=False)
        return tuple(Jet(1, order, row, _trusted=True) for row in rows)

    @float_contract
    def derivatives(self, point) -> PointDerivatives:
        """First and second derivatives in (u, v) of the normal form at the
        source point ``(u, v, s)``.

        Coordinates may be 1-d arrays of N values (and the others scalars):
        one Horner pass then gives the derivatives at all N points, batched
        along a leading axis; a scalar ``s`` is evaluated once.
        """
        if len(point) != 3:
            raise UsageError(f"point arity {len(point)} != 3")
        vals = horner(self._partials, point)  # ... x 3 x 5
        hess = vals[..., [2, 3, 3, 4]].reshape(vals.shape[:-1] + (2, 2))
        return PointDerivatives(vals[..., :2], hess)


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


@float_contract
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


@float_contract
def reduce(f: MapGerm, order: int = 8) -> NormalFormData:
    """Reduce an admissible deformation to the normal form."""
    if f.kind != "deformation":
        raise UsageError("reduce needs a deformation")
    jets = f.jet_at((0.0, 0.0, 0.0), order)
    report = admissibility_from_jets(jets)
    if not report.passed:
        names = ", ".join(c.name for c in report.failing())
        raise DegeneracyError(f"deformation is not admissible: {names} failed")

    u3, v3, _ = Jet.coordinates(3, order)

    # the representative rule (the normal form is unique up to a half-turn of
    # source and target): the image x-axis points along df_0 e_u.  If |f_u| <
    # |f_v|, put (u, v) = (-v, u) when f_u . f_v >= 0, else (v, -u): a quarter
    # turn, exact on the cube, that keeps f_u's direction and the source
    # orientation.  Inverting x for u then leaves Ker df_0 = d_v
    g_u, g_v = PointDerivatives.from_jets(jets).grad.T
    if np.linalg.norm(g_u) < np.linalg.norm(g_v):
        flip = (-1.0) ** np.arange(order + 1)
        flip = flip[:, None, None] if g_u @ g_v >= 0.0 else flip[:, None]
        jets = [Jet(3, order, (j.c * flip).swapaxes(0, 1), _trusted=True) for j in jets]
        g_u = PointDerivatives.from_jets(jets).grad[:, 0]
    T1 = rotation_to_e1(g_u)
    jets = _apply_matrix(T1, jets)

    # make the first component the coordinate u
    P = invert_coordinate(jets[0], 0)
    jets = [u3, jets[1].substitute(0, P), jets[2].substitute(0, P)]

    # rotate about the x-axis: the v^2 part (f_vv / 2) moves entirely into
    # component 2
    cyy, czz = 0.5 * PointDerivatives.from_jets(jets).hess[1:, 1, 1]
    r = math.hypot(cyy, czz)
    if r <= CLASS_TOL * np.linalg.norm(g_u):
        raise DegeneracyError(
            "the quadratic part in v vanishes in every normal direction"
        )
    T2 = rotation_about_x(math.atan2(czz, cyy))
    jets = _apply_matrix(T2, jets)

    # straighten the singular set of (u, f2): v -> v + sigma(u, s)
    lam = jets[1].partial(1)
    sigma = implicit_solve(lam)
    shift = v3 + sigma.embed(3, (0, 2))
    jets = [u3, jets[1].substitute(1, shift), jets[2].substitute(1, shift)]

    # rescale v so that f2 = f2(u, 0, s) + v^2 exactly
    g = (jets[1] - jets[1].restrict(1)).divide_monomial((0, 2, 0))
    W = invert_coordinate(v3 * jet_sqrt(g), 1)
    jets = [u3, jets[1].substitute(1, W), jets[2].substitute(1, W)]

    jy, jz = _project(jets[1], jets[2])
    return NormalFormData(
        rotation=T2 @ T1,
        jy=jy,
        jz=jz,
        order=order,
        parameter_normalized=False,
    )


def _project(jy, jz):
    """Check the reduced components (y, z) against the normal-form shape
    and return them in exactly that shape.

    At v = 0 the pure-u part of each component must be divisible by u^2
    and its s-part by u s; a remainder there means the input violates the
    divisibility the reduction relies on.  The v-part of y must be v^2; a
    remainder there means the reduction itself went wrong.  The returned
    jets have the remainders zeroed and the v^2 cell of y set to 1.
    """
    for name, j in (("y", jy), ("z", jz)):
        col, face = j.c[:, 0, 0], j.c[:, 0, 1:]
        for part, block, rem, mono in (("pure-u", col, col[:2], "u^2"),
                                       ("s", face, face[0], "u*s")):
            size = float(np.max(np.abs(rem)))
            if size > SPLIT_TOL * (1.0 + float(np.max(np.abs(block)))):
                raise DegeneracyError(
                    f"the {part} part of the reduced {name} component leaves a "
                    f"remainder of size {size:.3e} on division by {mono}; the "
                    "input violates the divisibility this step relies on"
                )

    scale = 1.0 + max(jy.max_abs(), jz.max_abs())
    if abs(jz.c[0, 1, 0]) > SPLIT_TOL * scale:
        raise ConsistencyError("f33(0,0) did not vanish after reduction")
    if abs(jz.c[1, 1, 0]) > SPLIT_TOL * scale:
        raise DegeneracyError(
            "the u*v coefficient survives the reduction: the germ at "
            "parameter 0 is a cross-cap, not an S1-type singularity"
        )
    if abs(jz.c[0, 2, 0]) > SPLIT_TOL * scale:
        raise ConsistencyError("f32(0,0,0) did not vanish after reduction")
    vpart = jy.c[:, 1:, :].copy()
    vpart[0, 1, 0] -= 1.0
    dev = float(np.max(np.abs(vpart)))
    if dev > SPLIT_TOL * scale:
        raise ConsistencyError(
            f"the reduced y component deviates from y(u, 0, s) + v^2 by {dev:.3e}"
        )

    y = np.zeros_like(jy.c)
    y[:, 0, :] = jy.c[:, 0, :]
    y[0, 2, 0] = 1.0
    z = jz.c.copy()
    for c in (y, z):
        c[0, 0, :] = c[1, 0, 0] = 0.0
        c.setflags(write=False)  # every components() caller shares them
    order = jy.order
    return Jet(3, order, y, _trusted=True), Jet(3, order, z, _trusted=True)


# -- classification and coefficients ------------------------------------------------


@float_contract
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


@float_contract
def normalize_parameter(nf: NormalFormData) -> NormalFormData:
    """Reparametrize s so that f33(0, s) = s.

    Requires (d f33/ds)(0,0) != 0; the new parameter is the series inverse
    of s -> f33(0, s), substituted into both components, which are then
    projected onto the normal-form shape again.
    """
    order = nf.order
    h = Jet(1, order, nf.f33.c[0, :].copy())
    if abs(h.c[1]) <= CLASS_TOL:
        raise GenericityError(
            "cannot normalize the deformation parameter: d f33/ds (0,0) = 0"
        )
    hinv = invert_coordinate(h, 0)
    s_new = hinv.embed(3, (2,))
    jy, jz = _project(nf.jy.substitute(2, s_new), nf.jz.substitute(2, s_new))
    out = NormalFormData(
        rotation=nf.rotation,
        jy=jy,
        jz=jz,
        order=order,
        parameter_normalized=True,
    )
    dev = np.max(np.abs(out.f33.c[0, :] - np.eye(order + 1)[1]))
    if dev > SPLIT_TOL * (1.0 + out.f33.max_abs()):
        raise ConsistencyError(f"f33(0,s) != s after reparametrization ({dev:.3e})")
    return out


def normalized(f: MapGerm, order: int = 8) -> NormalFormData:
    """``normalize_parameter(reduce(f, order))``, computed once per germ and
    order.  The result is stored on ``f`` in a per-order dict in its
    ``__dict__``, where ``cached_property`` stores too, so the germ's fields,
    hash and equality are unchanged.  An error is not stored: a germ that
    raises raises again on the next call."""
    memo = vars(f).setdefault("_normalized", {})
    if order not in memo:
        memo[order] = normalize_parameter(reduce(f, order))
    return memo[order]


@float_contract
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


@float_contract
def monomial_coefficients(nf: NormalFormData) -> dict:
    """Constant and s-linear parts of the monomial coefficients of the
    normal form: b_i is the u^i coefficient of the second component minus
    v^2, a_ij the u^i v^j coefficient of the third."""
    out = {}
    for name in _MONOMIAL_NAMES:
        jet = nf.jy if name[0] == "b" else nf.jz
        i, j = int(name[1]), int(name[2:] or 0)
        out[name] = (float(jet.c[i, j, 0]), float(jet.c[i, j, 1]))
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


@float_contract
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
    jets = [eval_jet(c, env, {}) for c in diffeo.components()]
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
