import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import compose_poly_1var, random_jet
from crosscap import jets
from crosscap.errors import DegeneracyError, DomainError, UsageError
from crosscap.jets import (
    Jet,
    branch_solve,
    horner,
    implicit_solve,
    invert_coordinate,
    jet_recip,
    jet_sqrt,
)

REL = 1e-12


def rel_close(a, b, tol=REL):
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return np.max(np.abs(a.c - b.c)) <= tol * scale


# -- arithmetic -----------------------------------------------------------------


def test_product_of_conjugates_is_difference_of_squares():
    u = Jet.variable(0, 1, 3)
    prod = (1 + u) * (1 - u)
    assert np.allclose(prod.c, [1.0, 0.0, -1.0, 0.0])


def test_additive_identity(rng):
    a = random_jet(rng, 3, 8)
    assert rel_close(a + Jet.zeros(3, 8), a)
    assert rel_close(a + 0.0, a)


def test_square_of_sum():
    u, v = Jet.coordinates(2, 2)
    q = (u + v) * (u + v)
    expect = Jet.zeros(2, 2)
    expect.c[2, 0] = 1.0
    expect.c[1, 1] = 2.0
    expect.c[0, 2] = 1.0
    assert np.allclose(q.c, expect.c)


def test_arity_mismatch_rejected():
    with pytest.raises(UsageError):
        Jet.variable(0, 2, 3) + Jet.variable(0, 3, 3)
    with pytest.raises(UsageError):
        Jet.variable(0, 2, 3) * Jet.variable(0, 2, 4)


def test_ring_laws_random(rng):
    for _ in range(25):
        a = random_jet(rng, 3, 8)
        b = random_jet(rng, 3, 8)
        c = random_jet(rng, 3, 8)
        assert rel_close((a + b) + c, a + (b + c))
        assert rel_close(a * b, b * a)
        assert rel_close(a * (b + c), a * b + a * c)
        assert rel_close((a * b) * c, a * (b * c))


# -- partial derivatives ----------------------------------------------------------


def test_partial_examples():
    u, v = Jet.coordinates(2, 3)
    m = u * u * v
    du = m.partial(0)
    assert du.c[1, 1] == 2.0 and np.count_nonzero(du.c) == 1
    const = Jet.constant(7.0, 2, 3)
    assert const.partial(1).max_abs() == 0.0

    u3, v3, s3 = Jet.coordinates(3, 3)
    f24 = Jet.constant(1.0, 3, 3)
    term = u3 * s3 * f24
    ds = term.partial(2)
    assert np.allclose(ds.c, u3.c)


def test_partial_out_of_range():
    with pytest.raises(UsageError):
        Jet.variable(0, 2, 3).partial(2)


def test_leibniz_rule(rng):
    order = 8
    for _ in range(10):
        a = random_jet(rng, 3, order)
        b = random_jet(rng, 3, order)
        for var in range(3):
            lhs = (a * b).partial(var)
            rhs = a.partial(var) * b + a * b.partial(var)
            # contents beyond order-1 are truncation artifacts of the rule
            diff = lhs - rhs
            mask = np.zeros_like(diff.c)
            for idx in np.ndindex(*diff.c.shape):
                if sum(idx) <= order - 1:
                    mask[idx] = 1.0
            scale = max(lhs.max_abs(), rhs.max_abs(), 1.0)
            assert np.max(np.abs(diff.c * mask)) <= REL * scale


# -- substitution -----------------------------------------------------------------


def test_substitute_identity(rng):
    a = random_jet(rng, 3, 6)
    for var in range(3):
        assert rel_close(a.substitute(var, Jet.variable(var, 3, 6)), a)


def test_substitute_linear_shear():
    u, v, s = Jet.coordinates(3, 3)
    for var, shear in ((0, u + 0.5 * v), (1, v - 2.0 * s), (2, s + 0.25 * u)):
        res = (u * v * s).substitute(var, shear)
        factors = [u, v, s]
        factors[var] = shear
        assert np.allclose(res.c, (factors[0] * factors[1] * factors[2]).c)


def test_substitute_rejects_constant_term():
    u, v = Jet.coordinates(2, 3)
    with pytest.raises(UsageError):
        (u * v).substitute(0, 1.0 + v)


def test_substitute_rejects_arity_and_order_mismatch():
    outer = Jet.variable(0, 2, 3)
    batch = Jet(2, 3, np.stack([outer.c, outer.c]))
    for bad in (Jet.variable(0, 1, 3), Jet.variable(0, 3, 3), Jet.variable(0, 2, 4), batch):
        with pytest.raises(UsageError):
            outer.substitute(0, bad)
    with pytest.raises(UsageError):
        outer.substitute(2, outer)  # no third variable


def _dyadic_jet(rng, nvars, order, constant=True):
    shape = (order + 1,) * nvars
    c = rng.integers(-16, 17, size=shape) / 8.0
    c *= rng.random(size=shape) < 0.5
    if not constant:
        c[(0,) * nvars] = 0.0
    return Jet(nvars, order, c)


def test_substitute_matches_sympy_oracle():
    """Every axis of random dyadic jets in 1-3 variables at orders 1-5
    against sympy's exact substitution F(..., W, ...), truncated at total
    degree ``order``."""
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(7)
    for trial in range(30):
        nvars, order = 1 + trial % 3, 1 + (trial // 3) % 5
        ring, *xs = sp.ring([f"x{i}" for i in range(nvars)], sp.QQ)

        def exact(jet):
            terms = {
                tuple(int(e) for e in idx): sp.QQ(int(jet.c[idx] * 8), 8)
                for idx in zip(*np.nonzero(jet.c))
            }
            return ring(terms or 0)

        F = _dyadic_jet(rng, nvars, order)
        for var in range(nvars):
            W = _dyadic_jet(rng, nvars, order, constant=False)
            args = list(xs)
            args[var] = exact(W)
            image = ring.zero  # expanded term by term: F's monomials with W put in
            for mono, coeff in exact(F).terms():
                image += coeff * math.prod(x**e for x, e in zip(args, mono) if e)
            want = np.zeros(F.c.shape)
            for mono, coeff in image.terms():
                if sum(mono) <= order:
                    want[mono] = float(coeff)
            got = F.substitute(var, W).c
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def full_substitute(F, var, W):
    """Horner with full products, ``acc * W + slab``: the reference for the
    degree-truncated pass of ``Jet.substitute``."""
    acc = None
    for j in range(F.order, -1, -1):
        cut = (slice(None),) * var + (j,)
        if acc is None and not F.c[cut].any():
            continue
        slab = np.zeros_like(F.c)
        slab[cut[:-1] + (0,)] = F.c[cut]
        slab = Jet(F.nvars, F.order, slab, _trusted=True)
        acc = slab if acc is None else acc * W + slab
    return acc if acc is not None else Jet.zeros(F.nvars, F.order)


def _cells(rng, shape, dense):
    """Uniform cells, all of them or about a third, the rest zeros of
    either sign."""
    c = rng.uniform(-2.0, 2.0, shape)
    zero = rng.random(shape) >= (1.0 if dense else 0.3)
    c[zero] = rng.choice([0.0, -0.0], size=shape)[zero]
    return c


@st.composite
def substitutions(draw):
    """F, var and W in 1-3 variables at orders 1-8: F and W dense or sparse,
    F with 0 .. order + 1 all-zero leading slabs along ``var`` (order of
    them leave F free of ``var``), and W(0) = +0.0 or -0.0."""
    nvars, order = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    var = draw(st.integers(0, nvars - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (order + 1,) * nvars
    F = _cells(rng, shape, draw(st.booleans()))
    lead = draw(st.integers(0, order + 1))
    leading = (slice(None),) * var + (slice(order + 1 - lead, None),)
    F[leading] = draw(st.sampled_from([0.0, -0.0]))
    W = _cells(rng, shape, draw(st.booleans()))
    W[(0,) * nvars] = draw(st.sampled_from([0.0, -0.0]))
    return Jet(nvars, order, F), var, Jet(nvars, order, W)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=substitutions())
def test_substitute_matches_full_order_horner_bit_for_bit(case):
    """The degree-truncated Horner pass gives every cell of the full-product
    Horner pass, the sign of every zero included."""
    F, var, W = case
    got, ref = F.substitute(var, W).c, full_substitute(F, var, W).c
    assert got.tobytes() == ref.tobytes()


def test_substitute_truncates_each_horner_step(monkeypatch):
    """Work, not time: a dense order-8 substitution in three variables asks
    the product kernel for degrees 1 .. 8, 6,434 cell pairs, where a full
    product at every Horner step takes 8 x 3,003 = 24,024."""
    degrees = []
    kernel = jets._truncated_product

    def counted(a, b, nvars, degree):
        degrees.append(degree)
        return kernel(a, b, nvars, degree)

    monkeypatch.setattr(jets, "_truncated_product", counted)
    rng = np.random.default_rng(3)
    F = Jet(3, 8, rng.uniform(1.0, 2.0, (9, 9, 9)))
    W = Jet(3, 8, rng.uniform(1.0, 2.0, (9, 9, 9)))
    W.c[0, 0, 0] = 0.0
    F.substitute(1, W)
    assert degrees == list(range(1, 9))
    assert sum(len(jets._product_table((9, 9, 9), d)[0]) for d in degrees) == 6434
    assert 8 * len(jets._product_table((9, 9, 9), 8)[0]) == 24024


# -- sqrt / recip ------------------------------------------------------------------


def test_sqrt_series_and_square_back(rng):
    a = 1 + 2 * Jet.variable(0, 1, 2)
    r = jet_sqrt(a)
    assert np.allclose(r.c, [1.0, 1.0, -0.5])
    for _ in range(10):
        b = random_jet(rng, 3, 8, scale=0.4) + 1.5
        rb = jet_sqrt(b)
        assert rel_close(rb * rb, b)


def test_sqrt_constant():
    r = jet_sqrt(Jet.constant(4.0, 2, 4))
    assert r.c[0, 0] == 2.0 and np.count_nonzero(r.c) == 1


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        jet_sqrt(Jet.variable(0, 2, 4))  # zero constant term
    with pytest.raises(DomainError):
        jet_sqrt(Jet.constant(-1.0, 2, 4))


def test_recip_geometric_series(rng):
    u = Jet.variable(0, 1, 3)
    r = jet_recip(1 - u)
    assert np.allclose(r.c, [1.0, 1.0, 1.0, 1.0])
    for _ in range(10):
        b = random_jet(rng, 2, 8, scale=0.4) - 1.7
        assert rel_close(jet_recip(b) * b, Jet.constant(1.0, 2, 8))
    with pytest.raises(DomainError):
        jet_recip(Jet.variable(1, 2, 8))


# -- implicit solve ----------------------------------------------------------------


def lam_from(expr_coeffs):
    lam = Jet.zeros(3, 8)
    for idx, val in expr_coeffs.items():
        lam.c[idx] = val
    return lam


def test_implicit_solve_linear():
    lam = lam_from({(0, 1, 0): 2.0, (1, 0, 0): 1.0})  # 2v + u
    sigma = implicit_solve(lam)
    assert abs(sigma.c[1, 0] + 0.5) <= REL
    assert np.count_nonzero(np.abs(sigma.c) > REL) == 1


def test_implicit_solve_trivial():
    sigma = implicit_solve(lam_from({(0, 1, 0): 2.0}))
    assert sigma.max_abs() <= REL


def test_implicit_solve_quadratic_residual(rng):
    lam = lam_from({(0, 1, 0): 2.0, (2, 0, 0): 1.0, (1, 0, 1): 1.0})
    sigma = implicit_solve(lam)
    assert abs(sigma.c[2, 0] + 0.5) <= REL and abs(sigma.c[1, 1] + 0.5) <= REL
    # residual lam(u, sigma, s) vanishes to order N
    res = lam.substitute(1, sigma.embed(3, (0, 2)))
    assert res.max_abs() <= REL
    # a generic random solvable case
    lam2 = random_jet(rng, 3, 8, scale=0.3)
    lam2.c[0, 0, 0] = 0.0
    lam2.c[0, 1, 0] = 1.3
    res2 = lam2.substitute(1, implicit_solve(lam2).embed(3, (0, 2)))
    assert res2.max_abs() <= REL * (1 + lam2.max_abs())


def test_implicit_solve_degenerate():
    with pytest.raises(DegeneracyError):
        implicit_solve(lam_from({(1, 0, 0): 1.0}))  # d lam / dv = 0


# -- map inversion -----------------------------------------------------------------


def test_map_invert_scaling():
    _, v3, _ = Jet.coordinates(3, 8)
    W = invert_coordinate(2 * v3, 1)
    assert abs(W.c[0, 1, 0] - 0.5) <= REL


def test_map_invert_identity():
    _, v3, _ = Jet.coordinates(3, 8)
    W = invert_coordinate(v3, 1)
    assert rel_close(W, v3)


def test_map_invert_two_sided(rng):
    u3, v3, _ = Jet.coordinates(3, 8)
    V = v3 * (1 + u3)
    W = invert_coordinate(V, 1)
    # v(1 - u + u^2 - ...) is the expected inverse second component
    geom = v3 * jet_recip(1 + u3)
    assert rel_close(W, geom)
    assert rel_close(V.substitute(1, W), v3)
    assert rel_close(W.substitute(1, V), v3)
    # random perturbation with unit v-derivative
    V2 = v3 + random_jet(rng, 3, 8, scale=0.2) * (v3 * v3)
    W2 = invert_coordinate(V2, 1)
    assert rel_close(V2.substitute(1, W2), v3, tol=1e-11)


def test_map_invert_shape_errors():
    v3 = Jet.variable(1, 3, 8)
    with pytest.raises(DegeneracyError):
        invert_coordinate(v3 * v3, 1)  # zero v-derivative


def test_invert_series_round_trip():
    t = Jet.variable(0, 1, 8)
    h = 2 * t + t * t
    hinv = invert_coordinate(h, 0)
    assert rel_close(h.substitute(0, hinv), t)


# -- branch solve ------------------------------------------------------------------


def branch_F(entries, order=8):
    F = Jet.zeros(2, order)
    for idx, val in entries.items():
        F.c[idx] = val
    return F


def test_branch_solve_exact_line():
    F = branch_F({(0, 2): -1.0, (2, 0): 1.0})
    alphas = branch_solve(F)
    assert abs(alphas[0] - 1.0) <= REL
    assert np.max(np.abs(alphas[1:])) <= REL


def test_branch_solve_cubic_term():
    F = branch_F({(0, 2): -1.0, (2, 0): 1.0, (3, 0): 1.0})
    alphas = branch_solve(F)
    assert abs(alphas[0] - 1.0) <= REL
    assert abs(alphas[1] + 0.5) <= REL
    assert abs(alphas[2] - 0.625) <= REL  # +5/8, from the residual oracle
    residual = compose_poly_1var(F.c, alphas, 8)
    assert np.max(np.abs(residual[: 8 + 1])) <= 1e-10


def test_branch_solve_parameter_coupling():
    m = 0.7
    # -t^2 + (1 + m (-t^2)) u^2
    F = branch_F({(0, 2): -1.0, (2, 0): 1.0, (2, 2): -m})
    alphas = branch_solve(F)
    assert abs(alphas[0] - 1.0) <= REL
    assert abs(alphas[1]) <= REL
    assert abs(alphas[2] - m / 2.0) <= REL
    residual = compose_poly_1var(F.c, alphas, 8)
    assert np.max(np.abs(residual[: 8 + 1])) <= 1e-10


def test_branch_solve_degenerate():
    with pytest.raises(DegeneracyError):
        branch_solve(branch_F({(0, 2): -1.0}))  # no u^2 part
    with pytest.raises(DegeneracyError):
        branch_solve(branch_F({(0, 2): -1.0, (2, 0): 1.0, (1, 0): 0.5}))


# -- monomial division ---------------------------------------------------------------


def test_divide_monomial():
    u3, v3, s3 = Jet.coordinates(3, 6)
    j = u3 * u3 * (1 + v3 + s3)
    q = j.divide_monomial((2, 0, 0))
    assert rel_close(q, 1 + v3 + s3)
    with pytest.raises(DegeneracyError):
        (u3 + v3).divide_monomial((1, 1, 0))


def test_eval_and_subs():
    u3, v3, s3 = Jet.coordinates(3, 4)
    j = u3 * u3 + 3 * v3 * s3 + 2
    assert math.isclose(horner(j.c, (0.5, 2.0, -1.0)), 0.25 - 6.0 + 2.0)
    js = j.subs(2, -1.0)
    assert js.nvars == 2
    assert math.isclose(horner(js.c, (0.5, 2.0)), 0.25 - 6.0 + 2.0)
    with pytest.raises(UsageError, match="use horner"):
        Jet.variable(0, 1, 4).subs(0, 1.0)


# -- horner --------------------------------------------------------------------------


def full_horner(c, point):
    """Horner over every cell of the table, one point at a time: the
    reference for the live box and for array coordinates."""
    arrays = [len(x) for x in point if isinstance(x, np.ndarray) and x.ndim]
    if arrays:
        return np.stack([
            full_horner(c, tuple(x[i] if isinstance(x, np.ndarray) and x.ndim else x
                                 for x in point))
            for i in range(arrays[0])
        ])
    for x in reversed(point):
        acc = c[..., -1]
        for i in range(c.shape[-1] - 2, -1, -1):
            acc = acc * x + c[..., i]
        c = acc
    return c


CELLS = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)
COORDS = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0)


@st.composite
def tables_and_points(draw):
    """A table with 0-2 batch axes and 1-3 trailing axes of 1-5 cells whose
    trailing slabs past a random cut are zero (of either sign), and a point
    of scalar and length-N array coordinates."""
    n_batch, n_axes = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(n_batch))
    shape += tuple(draw(st.integers(1, 5)) for _ in range(n_axes))
    c = draw(hnp.arrays(float, shape, elements=CELLS))
    for axis in range(n_batch, len(shape)):
        cut = draw(st.integers(0, shape[axis]))
        index = (slice(None),) * axis + (slice(cut, None),)
        c[index] = draw(st.sampled_from([0.0, -0.0]))
    n = draw(st.integers(1, 4))
    point = tuple(
        draw(hnp.arrays(float, n, elements=COORDS) | COORDS) for _ in range(n_axes)
    )
    return c, point


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(case=tables_and_points())
@example(case=(np.array([-0.0, -0.0, 0.0]), (2.0,)))  # the cut gives -0.0, the full scheme +0.0
@example(case=(np.zeros((2, 3, 4)), (np.array([1.0, -1.0]), 0.5)))
# a one-cell trailing axis at an array coordinate still spreads the table
@example(case=(np.ones((3, 2, 1)), (np.array([1.0, 2.0]), np.array([3.0, 4.0]))))
def test_horner_live_box_matches_the_full_scheme(case):
    """Nonzero results are bit-identical to Horner over the whole table; an
    exact zero may only change its sign."""
    c, point = case
    got, ref = np.asarray(horner(c, point)), np.asarray(full_horner(c, point))
    assert got.shape == ref.shape
    zero = ref == 0.0
    assert np.array_equal(got == 0.0, zero)
    assert np.array_equal(got[~zero], ref[~zero])


@pytest.mark.parametrize(
    "point",
    [(np.inf,), (np.nan,), (-np.inf,), (np.array([0.5, np.inf]),)],
)
def test_horner_refuses_a_non_finite_coordinate(point):
    """At inf the full scheme gives nan (0 * inf in the zero slab); the cut
    alone would give 2 * inf + 1 = inf in the first row."""
    with pytest.raises(DomainError, match="non-finite coordinate"):
        horner(np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 0.0]]), point)
