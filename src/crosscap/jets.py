"""Truncated multivariate power-series ("jet") arithmetic.

A :class:`Jet` stores the Taylor coefficients of a smooth function about a
base point, indexed by multi-index up to a fixed total degree ``order``.
All operations truncate at that order and never extend it, so the ring
laws hold coefficientwise up to floating-point rounding.

Coefficients live in a dense cube ``c[i, j, k]`` with one axis per
variable (one, two or three); cells above total degree ``order`` stay
zero.  The truncated product, the kernel under composition and every
Newton solve, is one numpy reduction over a cached table of the cell
pairs whose degrees sum to at most ``order`` (the index-table form of
truncated Taylor arithmetic, Griewank & Walther, *Evaluating
Derivatives*, ch. 13).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegeneracyError, DomainError, UsageError

# Recorded in benchmark environment blocks; numpy is the only kernel.
KERNEL_BACKEND = "python"


@lru_cache(maxsize=None)
def _degrees(shape):
    """Total degree of every cell of a coefficient cube, flattened."""
    deg = np.indices(shape).sum(axis=0).ravel()
    deg.setflags(write=False)
    return deg


@lru_cache(maxsize=None)
def _degree_mask(shape, order):
    mask = (_degrees(shape) <= order).astype(float).reshape(shape)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _product_table(shape, order):
    """Flat cell pairs ``(p, q)`` with deg p + deg q <= order and the cell
    ``k`` of their product, ordered by p then q.  Order 8 in three
    variables has 3003 pairs."""
    deg = _degrees(shape)
    cells = np.flatnonzero(deg <= order)
    p, q = (x.ravel() for x in np.meshgrid(cells, cells, indexing="ij"))
    keep = deg[p] + deg[q] <= order
    p, q = p[keep], q[keep]
    k = np.ravel_multi_index(
        np.add(np.unravel_index(p, shape), np.unravel_index(q, shape)), shape
    )
    for table in (p, q, k):
        table.setflags(write=False)
    return p, q, k


class Jet:
    """Dense truncated Taylor polynomial in 1, 2 or 3 variables."""

    __slots__ = ("nvars", "order", "c")

    def __init__(self, nvars, order, coeffs, _trusted=False):
        if nvars not in (1, 2, 3):
            raise UsageError(f"jets support 1..3 variables, got {nvars}")
        if order < 1:
            raise UsageError(f"jet order must be >= 1, got {order}")
        shape = (order + 1,) * nvars
        c = np.asarray(coeffs, dtype=float)
        if c.shape != shape:
            raise UsageError(f"coefficient table has shape {c.shape}, expected {shape}")
        if not _trusted and nvars > 1:
            c = c * _degree_mask(shape, order)
        self.nvars = nvars
        self.order = order
        self.c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nvars, order):
        return cls(nvars, order, np.zeros((order + 1,) * nvars), _trusted=True)

    @classmethod
    def constant(cls, value, nvars, order):
        j = cls.zeros(nvars, order)
        j.c[(0,) * nvars] = value
        return j

    @classmethod
    def variable(cls, var, nvars, order):
        j = cls.zeros(nvars, order)
        idx = [0] * nvars
        idx[var] = 1
        j.c[tuple(idx)] = 1.0
        return j

    @classmethod
    def coordinates(cls, nvars, order):
        return tuple(cls.variable(i, nvars, order) for i in range(nvars))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.nvars != other.nvars or self.order != other.order:
            raise UsageError(
                f"jet mismatch: ({self.nvars} vars, order {self.order}) vs "
                f"({other.nvars} vars, order {other.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.nvars, self.order, self.c + other.c, _trusted=True)
        out = self.c.copy()
        out[(0,) * self.nvars] += other
        return Jet(self.nvars, self.order, out, _trusted=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            return Jet(self.nvars, self.order, self.c - other.c, _trusted=True)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.nvars, self.order, -self.c, _trusted=True)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.nvars, self.order, self.c * float(other), _trusted=True)
        self._check_compatible(other)
        a = self.c
        p, q, k = _product_table(a.shape, self.order)
        prod = np.bincount(k, weights=a.take(p) * other.c.take(q), minlength=a.size)
        return Jet(self.nvars, self.order, prod.reshape(a.shape), _trusted=True)

    def __rmul__(self, other):
        return self * other

    # -- coefficient access ------------------------------------------------

    def coeff(self, idx):
        """Coefficient of the monomial with exponents ``idx``."""
        if len(idx) != self.nvars:
            raise UsageError("multi-index arity mismatch")
        return float(self.c[tuple(idx)])

    def deriv0(self, idx):
        """Partial derivative at the base point: coeff times factorials."""
        fac = 1.0
        for e in idx:
            fac *= math.factorial(e)
        return self.coeff(idx) * fac

    def max_abs(self):
        return float(np.max(np.abs(self.c)))

    def __repr__(self):
        names = "uvs" if self.nvars > 1 else "t"
        terms = []
        for idx in zip(*np.nonzero(self.c)):
            mono = "".join(
                f"{names[i]}^{e}" if e > 1 else (names[i] if e == 1 else "")
                for i, e in enumerate(idx)
            )
            terms.append(f"{self.c[idx]:.6g}{('*' + mono) if mono else ''}")
            if len(terms) > 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<Jet {self.nvars}v order {self.order}: {body}>"

    # -- calculus ----------------------------------------------------------

    def partial(self, var):
        """Formal partial derivative; content of degree order-1 in the same table."""
        if var >= self.nvars:
            raise UsageError(f"variable {var} out of range for {self.nvars}-jet")
        n = self.order
        out = np.zeros_like(self.c)
        src = [slice(None)] * self.nvars
        dst = [slice(None)] * self.nvars
        src[var] = slice(1, None)
        dst[var] = slice(0, n)
        shape = [1] * self.nvars
        shape[var] = n
        out[tuple(dst)] = self.c[tuple(src)] * np.arange(1, n + 1).reshape(shape)
        return Jet(self.nvars, self.order, out, _trusted=True)

    def compose(self, inners: Sequence["Jet"]):
        """Substitute ``inners[i]`` for variable i; truncates at this order.

        Every inner jet must share one arity and this order and have zero
        constant term (otherwise truncation would not commute with
        substitution).
        """
        if len(inners) != self.nvars:
            raise UsageError(f"need {self.nvars} inner jets, got {len(inners)}")
        m = inners[0].nvars
        for g in inners:
            if g.nvars != m or g.order != self.order:
                raise UsageError("inner jets must share arity and order")
            if g.c[(0,) * m] != 0.0:
                raise UsageError("inner jet has nonzero constant term")
        res = _compose_rec(self.c, inners, 0)
        if not isinstance(res, Jet):
            res = Jet.constant(res, m, self.order)
        return res

    def eval(self, point):
        """Value of the stored polynomial at a numeric point (Horner)."""
        if len(point) != self.nvars:
            raise UsageError("point arity mismatch")
        return float(horner(self.c, point))

    def subs(self, var, value):
        """Substitute a numeric value for one variable; arity drops by one."""
        if self.nvars == 1:
            raise UsageError("cannot drop the last variable; use eval")
        acc = horner(np.moveaxis(self.c, var, -1), (value,))
        return Jet(self.nvars - 1, self.order, acc, _trusted=True)

    def restrict(self, var):
        """Keep only monomials free of ``var`` (same arity)."""
        out = np.zeros_like(self.c)
        idx = [slice(None)] * self.nvars
        idx[var] = 0
        out[tuple(idx)] = self.c[tuple(idx)]
        return Jet(self.nvars, self.order, out, _trusted=True)

    def embed(self, nvars, axes):
        """Inject into a larger variable set; ``axes[i]`` is the new index of
        old variable i."""
        if len(axes) != self.nvars:
            raise UsageError("axes arity mismatch")
        src = self.c
        if self.nvars > 1:
            # slot sorted(axes)[k] receives old variable argsort(axes)[k]
            src = np.transpose(src, np.argsort(axes))
        out = np.zeros((self.order + 1,) * nvars)
        idx = [0] * nvars
        for new in sorted(axes):
            idx[new] = slice(None)
        out[tuple(idx)] = src
        return Jet(nvars, self.order, out, _trusted=True)

    def divide_monomial(self, exponents, tol=1e-10):
        """Exact division by a monomial with the given exponents, as a
        coefficient shift.

        Any coefficient the division would discard must be below ``tol``
        times the coefficient scale; a larger remainder means a
        precondition of the caller was violated.
        """
        if len(exponents) != self.nvars:
            raise UsageError("exponent arity mismatch")
        scale = 1.0 + self.max_abs()
        rem = 0.0
        c = self.c
        for axis, e in enumerate(exponents):
            if e == 0:
                continue
            low = [slice(None)] * self.nvars
            low[axis] = slice(0, e)
            rem = max(rem, float(np.max(np.abs(c[tuple(low)]), initial=0.0)))
            shifted = np.zeros_like(c)
            dst = [slice(None)] * self.nvars
            dst[axis] = slice(0, c.shape[axis] - e)
            srcidx = [slice(None)] * self.nvars
            srcidx[axis] = slice(e, None)
            shifted[tuple(dst)] = c[tuple(srcidx)]
            c = shifted
        if rem > tol * scale:
            raise DegeneracyError(
                f"monomial division by exponents {tuple(exponents)} leaves a "
                f"remainder of size {rem:.3e}; the input violates the "
                "divisibility this step relies on"
            )
        return Jet(self.nvars, self.order, c, _trusted=True)


def horner(c, point):
    """Evaluate the trailing ``len(point)`` axes of a coefficient table at a
    numeric point; leading axes index a batch of polynomials."""
    for x in reversed(point):
        acc = c[..., -1]
        for i in range(c.shape[-1] - 2, -1, -1):
            acc = acc * x + c[..., i]
        c = acc
    return c


def _compose_rec(c, inners, depth):
    """Nested Horner over the coefficient cube; scalars stay scalars, so an
    all-zero slice passes through as 0.0 and costs no jet product."""
    if depth == len(inners):
        return float(c)
    res = _compose_rec(c[-1], inners, depth + 1)
    x = inners[depth]
    for i in range(c.shape[0] - 2, -1, -1):
        low = _compose_rec(c[i], inners, depth + 1)
        res = res * x + low if isinstance(res, Jet) or res != 0.0 else low
    return res


# -- reciprocal and square root ----------------------------------------------


def _newton_steps(order):
    return max(3, math.ceil(math.log2(order)) + 1)


def jet_recip(a: Jet) -> Jet:
    """Multiplicative inverse to the jet's order; constant term must be nonzero."""
    a0 = a.c[(0,) * a.nvars]
    if a0 == 0.0:
        raise DomainError("reciprocal of a jet with zero constant term")
    x = Jet.constant(1.0 / a0, a.nvars, a.order)
    for _ in range(_newton_steps(a.order)):
        x = x * (2.0 - a * x)
    return x


def jet_sqrt(a: Jet) -> Jet:
    """Square root with positive constant term, via inverse-sqrt Newton."""
    a0 = a.c[(0,) * a.nvars]
    if a0 <= 0.0:
        raise DomainError(
            f"jet square root needs a positive constant term, got {a0:.3e}"
        )
    y = Jet.constant(1.0 / math.sqrt(a0), a.nvars, a.order)
    for _ in range(_newton_steps(a.order)):
        y = y * (1.5 - 0.5 * a * y * y)
    return a * y


# -- implicit and inverse solves ----------------------------------------------


def _newton_solve(F, dF, path, slot, W, target=None):
    """Newton iteration in the series ring for F(path) = target (0 if None),
    with the unknown W in ``path[slot]`` and dF the partial of F in that slot.
    Each step doubles the contact order; W(0) stays 0 (the base point)."""
    for _ in range(_newton_steps(F.order)):
        path[slot] = W
        res = F.compose(path)
        if target is not None:
            res = res - target
        W = W - res * jet_recip(dF.compose(path))
        W.c[(0,) * W.nvars] = 0.0
    return W


def implicit_solve(lam: Jet) -> Jet:
    """Solve lam(u, sigma(u, s), s) = 0 for sigma(u, s) with sigma(0, 0) = 0.

    Requires lam(0) = 0 and a nonzero v-derivative at the base point.
    """
    if lam.nvars != 3:
        raise UsageError("implicit_solve expects a jet in (u, v, s)")
    if abs(lam.c[0, 0, 0]) > 1e-12 * (1.0 + lam.max_abs()):
        raise DegeneracyError("implicit_solve: lam(0) != 0")
    lv = lam.partial(1)
    if lv.c[0, 0, 0] == 0.0:
        raise DegeneracyError("implicit_solve: d lam/dv vanishes at the base point")
    u2, s2 = Jet.coordinates(2, lam.order)
    return _newton_solve(lam, lv, [u2, None, s2], 1, Jet.zeros(2, lam.order))


def invert_coordinate(V: Jet, var: int) -> Jet:
    """Solve V(..., W, ...) = x_var for W: invert one coordinate of a map
    fixing the remaining coordinates.

    V must vanish at 0 and have a nonzero derivative in its own variable.
    With one variable this is the compositional inverse of a series.
    """
    n, order = V.nvars, V.order
    if abs(V.c[(0,) * n]) > 1e-12 * (1.0 + V.max_abs()):
        raise DegeneracyError("invert_coordinate: component does not vanish at 0")
    dV = V.partial(var)
    d0 = dV.c[(0,) * n]
    if d0 == 0.0:
        raise DegeneracyError("invert_coordinate: unit derivative required at 0")
    coords = Jet.coordinates(n, order)
    xv = coords[var]
    return _newton_solve(V, dV, list(coords), var, xv * (1.0 / d0), target=xv)


# -- quadratic branch solve -----------------------------------------------------


def branch_solve(F: Jet) -> np.ndarray:
    """Positive branch u(t) of F(u(t), t) = 0 for F = -t^2 + (c u)^2 + higher.

    Returns the coefficients alpha_1 .. alpha_{N-1} of
    u(t) = sum_i alpha_i t^i.  The leading quadratic fixes
    alpha_1 = sqrt(-[t^2]F / [u^2]F) > 0; every later coefficient is a
    single linear solve obtained by zeroing the next residual coefficient.
    """
    if F.nvars != 2:
        raise UsageError("branch_solve expects a jet in (u, t)")
    order = F.order
    scale = 1.0 + F.max_abs()
    for idx in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if abs(F.c[idx]) > 1e-10 * scale:
            raise DegeneracyError(
                "branch_solve: F must have the shape -t^2 + (c u)^2 + higher "
                f"(coefficient {idx} is {F.c[idx]:.3e})"
            )
    cuu, ctt = F.c[2, 0], F.c[0, 2]
    if cuu <= 1e-10 * scale or ctt >= -1e-10 * scale:
        raise DegeneracyError(
            "branch_solve: leading quadratic is degenerate "
            f"([u^2] = {cuu:.3e}, [t^2] = {ctt:.3e})"
        )
    Fu = F.partial(0)
    t1 = Jet.variable(0, 1, order)
    alphas = np.zeros(order)  # alphas[i] multiplies t^(i+1)
    alphas[0] = math.sqrt(-ctt / cuu)
    for k in range(2, order):
        u_t = _series_from_alphas(alphas, order)
        res = F.compose([u_t, t1])
        slope = Fu.compose([u_t, t1]).c[1]
        alphas[k - 1] = -res.c[k + 1] / slope
    return alphas[: order - 1]


def _series_from_alphas(alphas, order):
    c = np.zeros(order + 1)
    c[1 : 1 + len(alphas)] = alphas
    return Jet(1, order, c, _trusted=True)
