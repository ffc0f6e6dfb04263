"""Truncated multivariate power-series ("jet") arithmetic.

A :class:`Jet` stores the Taylor coefficients of a smooth function about a
base point, indexed by multi-index up to a fixed total degree ``order``.
All operations truncate at that order and never extend it, so the ring
laws hold coefficientwise up to floating-point rounding.

Coefficients live in a dense cube ``c[i, j, k]`` with one axis per
variable (one, two or three); cells above total degree ``order`` stay
zero.  The truncated product, the kernel under ``Jet.substitute`` and
every series solve, is one numpy reduction over a cached table of the cell
pairs whose degrees sum to at most a given degree (the index-table form of
truncated Taylor arithmetic, Griewank & Walther, *Evaluating
Derivatives*, ch. 13): ``order`` for ``Jet.__mul__``, and at Horner step j
of ``Jet.substitute`` only ``order - j``, the degrees of the accumulator
that can still reach the result.

A jet may also carry a leading batch axis, ``c`` of shape ``(N, *cube)``:
N jets about N base points, or N tables substituted alike, propagated
together (vector-mode Taylor arithmetic, ibid.), with the one table of cell
pairs read along every row.  The ring operations, ``jet_recip`` and
``jet_sqrt`` accept batched jets and mix them with unbatched ones; each row
gets exactly the floating-point operations, in the same order, that the row
would get on its own.  So does ``Jet.substitute`` on a batched F, with an
unbatched W; the other calculus methods read one cube and need unbatched
jets.  ``horner`` likewise evaluates at arrays of points.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegeneracyError, DomainError, UsageError

# Recorded in benchmark environment blocks; numpy is the only kernel.
KERNEL_BACKEND = "python"

DIVIDE_TOL = 1e-10  # relative remainder that makes divide_monomial refuse


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
def _product_table(shape, degree):
    """Flat cell pairs ``(p, q)`` with deg p + deg q <= degree and the cell
    ``k`` of their product, ordered by p then q: a lower degree keeps a
    subsequence of the pairs of a higher one.  Degree 8 in three variables
    has 3003 pairs."""
    deg = _degrees(shape)
    cells = np.flatnonzero(deg <= degree)
    p, q = (x.ravel() for x in np.meshgrid(cells, cells, indexing="ij"))
    keep = deg[p] + deg[q] <= degree
    p, q = p[keep], q[keep]
    k = np.ravel_multi_index(
        np.add(np.unravel_index(p, shape), np.unravel_index(q, shape)), shape
    )
    for table in (p, q, k):
        table.setflags(write=False)
    return p, q, k


def _truncated_product(a, b, nvars, degree):
    """Product of two coefficient tables in ``nvars`` variables (either may
    carry a batch axis), its cells of total degree <= ``degree`` only; the
    cells above are exactly +0.0.  A batch reads the one ``_product_table``
    along each row of its (N, cells) view and offsets row r's product cells
    by r * cells, so it stays one ``np.bincount`` and every cell sums its
    pairs in the p-then-q order of the row alone."""
    cube = a.shape[a.ndim - nvars :]
    p, q, k = _product_table(cube, degree)
    if a.ndim == b.ndim == nvars:
        prod = np.bincount(k, weights=a.take(p) * b.take(q), minlength=a.size)
        return prod.reshape(cube)
    cells = math.prod(cube)  # an unbatched operand is one row, broadcast
    w = a.reshape(-1, cells)[:, p] * b.reshape(-1, cells)[:, q]
    k = k + np.arange(0, len(w) * cells, cells)[:, None]
    prod = np.bincount(k.ravel(), weights=w.ravel(), minlength=len(w) * cells)
    return prod.reshape((len(w),) + cube)


def _origin(c, nvars):
    """Index of the constant term of a coefficient table (of every row of a
    batch)."""
    return (0,) * nvars if c.ndim == nvars else (slice(None),) + (0,) * nvars


class Jet:
    """Dense truncated Taylor polynomial in 1, 2 or 3 variables, or a batch
    of them along a leading axis."""

    __slots__ = ("nvars", "order", "c")

    def __init__(self, nvars, order, coeffs, _trusted=False):
        if nvars not in (1, 2, 3):
            raise UsageError(f"jets support 1..3 variables, got {nvars}")
        if order < 1:
            raise UsageError(f"jet order must be >= 1, got {order}")
        shape = (order + 1,) * nvars
        c = np.asarray(coeffs, dtype=float)
        if c.shape != shape and (c.ndim != nvars + 1 or c.shape[1:] != shape):
            raise UsageError(
                f"coefficient table has shape {c.shape}, expected {shape} "
                "or a batch (N, ...) of them"
            )
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
        """Constant jet; an array of N values gives a batch of N constants."""
        batch = value.shape if isinstance(value, np.ndarray) else ()
        j = cls(nvars, order, np.zeros(batch + (order + 1,) * nvars), _trusted=True)
        j.c[_origin(j.c, nvars)] = value
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
        out[_origin(out, self.nvars)] += other
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
        prod = _truncated_product(self.c, other.c, self.nvars, self.order)
        return Jet(self.nvars, self.order, prod, _trusted=True)

    def __rmul__(self, other):
        return self * other

    # -- coefficient access ------------------------------------------------

    def max_abs(self):
        return float(np.max(np.abs(self.c)))

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

    def substitute(self, var, W):
        """Substitute the jet W for variable ``var``, truncating at this order:
        Horner over the slabs F_j along ``var``, F(..., W, ...) = sum_j F_j W^j,
        where all-zero leading slabs cost no product.  W must be unbatched,
        share this arity and order and have zero constant term (otherwise
        truncation would not commute with substitution).

        Since W(0) = 0, the accumulator of slabs j .. order is multiplied by
        W j more times, so only its degrees <= order - j can reach the
        result: the product of Horner step j keeps just those (Brent & Kung,
        J. ACM 25, 1978).  The result is bit-identical to Horner with full
        products: each kept cell sums the same pairs in the same order, every
        slab F_j lies at degree <= order - j, and a dropped term only ever
        meets W(0) = +-0 or falls above the order; ``np.bincount`` sums from
        +0.0, so adding such a zero changes no cell, not even its sign.

        A batched F (``NormalFormData.along_branch`` stacks nine tables)
        substitutes every row at once, each row bit-identical to the row on
        its own.  The batch starts at the first slab live in any
        row, so a row that starts later, at F_j, first has +0.0 + F_j in place
        of a copy of F_j; only at j = 0 does no later product make that sign
        of zero irrelevant, so the rows free of ``var`` are set as alone."""
        self._check_compatible(W)
        if not 0 <= var < self.nvars or W.c.ndim != W.nvars or W.c[(0,) * W.nvars]:
            raise UsageError(
                f"substitute needs 0 <= var < {self.nvars} and an unbatched jet "
                "with zero constant term"
            )
        free = (slice(None),) * (self.c.ndim - self.nvars + var) + (0,)  # after the batch axis
        acc = None
        for j in range(self.order, -1, -1):
            slab = self.c[free[:-1] + (j,)]
            if acc is not None:
                acc = _truncated_product(acc, W.c, self.nvars, self.order - j)
                acc[free] += slab
            elif slab.any():
                acc = np.zeros_like(self.c)
                acc[free] = slab
        if acc is None:
            return Jet(self.nvars, self.order, np.zeros_like(self.c), _trusted=True)
        if acc.ndim > self.nvars:  # rows free of var: F_0, or +0.0 if it is zero
            by_var = np.moveaxis(self.c, var + 1, 1).reshape(len(acc), self.order + 1, -1)
            var_free = ~by_var[:, 1:].any(axis=(1, 2))
            acc[var_free] = 0.0
            own = (var_free & by_var[:, 0].any(axis=1),) + free[1:]
            acc[own] = self.c[own]
        return Jet(self.nvars, self.order, acc, _trusted=True)

    def subs(self, var, value):
        """Substitute a numeric value for one variable; arity drops by one."""
        if self.nvars == 1:
            raise UsageError("cannot drop the last variable; use horner")
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

    def divide_monomial(self, exponents):
        """Exact division by a monomial with the given exponents, as a
        coefficient shift.

        Any coefficient the division would discard must be below
        ``DIVIDE_TOL`` times the coefficient scale; a larger remainder means
        a precondition of the caller was violated.
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
        if rem > DIVIDE_TOL * scale:
            raise DegeneracyError(
                f"monomial division by exponents {tuple(exponents)} leaves a "
                f"remainder of size {rem:.3e}; the input violates the "
                "divisibility this step relies on"
            )
        return Jet(self.nvars, self.order, c, _trusted=True)


def horner(c, point):
    """Evaluate the trailing ``len(point)`` axes of a coefficient table at a
    numeric point; leading axes index a batch of polynomials.

    A coordinate may be a 1-d numpy array of N values (all array
    coordinates of one call share N); the result then gains a leading axis
    of length N, one entry per point, and each entry is computed with the
    same operations as at that point alone.  An axis of one cell never
    meets its coordinate, so there the table is repeated over the N points
    by hand.  The last axis is evaluated first, so scalar trailing
    coordinates (the shared s of a probe) are evaluated once, before the
    table is spread over the points.

    Only the live box of the table is evaluated: each trailing axis is cut
    after its last index that holds a nonzero cell in any polynomial of the
    batch (keeping at least two cells, so that an array coordinate still
    spreads the table over its points), once, before any coordinate spreads
    the table.  The slabs cut off are zero, and for a finite x, ``0 * x + c``
    is ``c`` whenever ``c`` is nonzero, so a nonzero result is bit-identical
    to the full Horner scheme's (the sparse form of Pena & Sauer, SIAM J.
    Numer. Anal. 37, 2000).  An exact zero result may carry the other sign:
    the full scheme can reach it through cut ``-0.0`` cells.  A non-finite
    coordinate is a DomainError: the full scheme would turn it into nan
    (``0 * inf``) in the cut slabs, and the cut alone would hide that.
    """
    if not all(np.isfinite(x).all() for x in point):
        raise DomainError("non-finite coordinate in a Horner evaluation")
    live = np.nonzero(c.reshape((-1,) + c.shape[c.ndim - len(point):]).any(axis=0))
    c = c[(...,) + tuple(slice(max(k.max(initial=0), 1) + 1) for k in live)]
    batched = 0
    for x in reversed(point):
        if isinstance(x, np.ndarray) and x.ndim:
            x = np.reshape(x, (-1,) + (1,) * (c.ndim - 1 - batched))
            if not batched and c.shape[-1] == 1:  # x would never meet the table
                c = np.repeat(c[np.newaxis], len(x), axis=0)
            batched = 1
        acc = c[..., -1]
        for i in range(c.shape[-1] - 2, -1, -1):
            acc = acc * x + c[..., i]
        c = acc
    return c


# -- series solves -------------------------------------------------------------


def _series_solve(residual, W, slope):
    """Solve residual(W) = 0 for a jet W by the fixed-slope iteration
    W <- W - residual(W) / slope, run ``W.order`` times.

    ``slope`` is the derivative of the residual in W at the base point: a
    float, or one value per row of a batch.  The error factor of a step,
    1 - residual'(W) / slope, vanishes at the base point, so each step raises
    the order of contact of W with the solution by one.  A start that is
    right at the base point (order of contact >= 1) is therefore exact to
    the truncation order after ``order`` steps.

    The loop stops early at an exact fixed point, a step whose update has
    the bytes of W: the residual is a function of W alone, so every later
    step would return those bytes again, and the result, its errors and its
    signed zeros are those of all ``order`` steps.  Bytes, not ``==``, so
    that a -0.0/+0.0 flip counts as a change.
    """
    slope = np.reshape(slope, np.shape(slope) + (1,) * W.nvars)
    for _ in range(W.order):
        c = W.c - residual(W).c / slope
        if c.tobytes() == W.c.tobytes():
            break
        W = Jet(W.nvars, W.order, c, _trusted=True)
    return W


def _without_constant(F, message):
    """F with its constant term set to exactly 0, so that substituting the
    iterate keeps W(0) = 0; the term must vanish up to rounding."""
    origin = (0,) * F.nvars
    if abs(F.c[origin]) > 1e-12 * (1.0 + F.max_abs()):
        raise DegeneracyError(message)
    c = F.c.copy()
    c[origin] = 0.0
    return Jet(F.nvars, F.order, c, _trusted=True)


def jet_recip(a: Jet) -> Jet:
    """Multiplicative inverse to the jet's order; constant term must be
    nonzero (in every row of a batch)."""
    a0 = a.c[_origin(a.c, a.nvars)]
    if np.any(a0 == 0.0):
        raise DomainError("reciprocal of a jet with zero constant term")
    return _series_solve(lambda x: a * x - 1.0, Jet.constant(1.0 / a0, a.nvars, a.order), a0)


def jet_sqrt(a: Jet) -> Jet:
    """Square root with positive constant term (in every row of a batch)."""
    a0 = a.c[_origin(a.c, a.nvars)]
    low = a0 <= 0.0
    if np.any(low):
        raise DomainError(
            "jet square root needs a positive constant term, got "
            f"{np.extract(low, a0)[0]:.3e}"
        )
    y0 = np.sqrt(a0)
    return _series_solve(lambda y: y * y - a, Jet.constant(y0, a.nvars, a.order), 2.0 * y0)


def implicit_solve(lam: Jet) -> Jet:
    """Solve lam(u, sigma(u, s), s) = 0 for sigma(u, s) with sigma(0, 0) = 0.

    Requires lam(0) = 0 and a nonzero v-derivative at the base point.
    """
    if lam.nvars != 3:
        raise UsageError("implicit_solve expects a jet in (u, v, s)")
    lam = _without_constant(lam, "implicit_solve: lam(0) != 0")
    slope = lam.c[0, 1, 0]
    if slope == 0.0:
        raise DegeneracyError("implicit_solve: d lam/dv vanishes at the base point")
    # the iterate is a jet in (u, v, s) that does not depend on v
    sigma = _series_solve(lambda W: lam.substitute(1, W), Jet.zeros(3, lam.order), slope)
    return sigma.subs(1, 0.0)


def invert_coordinate(V: Jet, var: int) -> Jet:
    """Solve V(..., W, ...) = x_var for W: invert one coordinate of a map
    fixing the remaining coordinates.

    V must vanish at 0 and have a nonzero derivative in its own variable.
    With one variable this is the compositional inverse of a series.
    """
    V = _without_constant(V, "invert_coordinate: component does not vanish at 0")
    slope = V.c[tuple(int(i == var) for i in range(V.nvars))]
    if slope == 0.0:
        raise DegeneracyError("invert_coordinate: unit derivative required at 0")
    xv = Jet.variable(var, V.nvars, V.order)
    return _series_solve(lambda W: V.substitute(var, W) - xv, Jet.zeros(V.nvars, V.order), slope)


def branch_solve(F: Jet) -> np.ndarray:
    """Positive branch u(t) of F(u(t), t) = 0 for F = -t^2 + (c u)^2 + higher.

    Returns the coefficients alpha_1 .. alpha_{N-1} of
    u(t) = sum_i alpha_i t^i.  The leading quadratic fixes
    alpha_1 = sqrt(-[t^2]F / [u^2]F) > 0.  The blow-up u = t (alpha_1 + x)
    turns the branch into a simple root x(t) of
    G(x, t) = F(t (alpha_1 + x), t) / t^2, with x(0) = 0 and slope
    dG/dx(0, 0) = 2 [u^2]F alpha_1; x(t) gives alpha_2, alpha_3, ...
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
    cuu, ctt = F.c[2, 0], F.c[0, 2]  # each against the largest |F| on its own axis
    on_u, on_t = (1.0 + np.max(np.abs(axis)) for axis in (F.c[:, 0], F.c[0, :]))
    if cuu <= 1e-10 * on_u or ctt >= -1e-10 * on_t:
        raise DegeneracyError(
            "branch_solve: leading quadratic is degenerate "
            f"([u^2] = {cuu:.3e}, [t^2] = {ctt:.3e})"
        )
    alpha1 = math.sqrt(-ctt / cuu)
    low = F.c.copy()
    low[0, 0] = low[1, 0] = low[0, 1] = 0.0  # checked to vanish; t^2 then divides
    x, t = Jet.coordinates(2, order)
    G = Jet(2, order, low, _trusted=True).substitute(0, t * (alpha1 + x)).divide_monomial((0, 2))
    exact = max(order - 2, 1)  # the division by t^2 leaves G exact to this degree
    G = Jet(2, exact, G.c[: exact + 1, : exact + 1])
    G.c[0, 0] = 0.0  # vanishes by the choice of alpha_1
    x_t = _series_solve(lambda W: G.substitute(0, W), Jet.zeros(2, exact), G.c[1, 0])
    return np.concatenate(([alpha1], x_t.c[0, 1 : order - 1]))
