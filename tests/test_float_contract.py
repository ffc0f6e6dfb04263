"""The library's floating-point contract: every entry point returns or raises
a CrosscapError, never a numpy warning or a value computed past the float
range, because each one runs under ``errors.float_contract``."""

import inspect
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import crosscap
from crosscap import (
    CrosscapError,
    DegeneracyError,
    DomainError,
    MapGerm,
    NormalFormData,
    curvature_parabola,
    focal_conic,
    form_bundle,
    gauss_sign_probe,
    locus_expansion,
    monomial_coefficients,
    normalize_parameter,
    reduce,
    scalar_coefficients,
    singular_locus,
    trace,
    trajectory_geometry,
    umbrella_invariants,
    whitney_test,
)
from crosscap.errors import float_contract
from crosscap.invariants import SecondOrderFrame

FAMILY = settings(derandomize=True, deadline=None, database=None, max_examples=40)
SCALES = st.floats(-200.0, 300.0).map(lambda e: 10.0**e)  # log-uniform
COEFFICIENTS = st.sampled_from(["0", "1", "-1", "0.5", "-2"])
POINTWISE = (whitney_test, umbrella_invariants, curvature_parabola, focal_conic, form_bundle)


def outcome(call, *args):
    """The call's result, or the CrosscapError it raised; anything else
    (a numpy warning under the "error" filter included) fails the test."""
    try:
        return call(*args)
    except CrosscapError as exc:
        return exc


@FAMILY
@given(lam=SCALES, a=COEFFICIENTS, b=COEFFICIENTS, c=COEFFICIENTS,
       k=st.sampled_from([2, 3]), mu=SCALES, must_raise=st.just(()))
# the admissibility test overflows: a DomainError, not a failed clause
@example(lam=1e300, a="0.5", b="1e-12", c="2", k=3, mu=1e-3, must_raise=("reduce",))
# the frozen germ's frame overflows at (0, 0): no parabola may come back
@example(lam=1e-3, a="0", b="2", c="2", k=3, mu=1e300,
         must_raise=("curvature_parabola",))
def test_library_calls_return_or_raise_crosscap_errors(lam, a, b, c, k, mu, must_raise):
    f = MapGerm.parse(
        f"{lam!r}*u; {lam!r}*(v^2 + {a}*u*s); "
        f"{lam!r}*({b}*u^2 + v^3 + {c}*u^{k}*v + s*{mu!r}*v)"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {
            "trace": outcome(trace, f),
            "trajectory_geometry": outcome(trajectory_geometry, f),
            "reduce": outcome(reduce, f),
        }
        nf = results["reduce"]
        if isinstance(nf, NormalFormData):
            results["singular_locus"] = outcome(singular_locus, nf, -0.01)
            results["monomial_coefficients"] = outcome(monomial_coefficients, nf)
            nfn = results["normalize_parameter"] = outcome(normalize_parameter, nf)
            if isinstance(nfn, NormalFormData):
                results["locus_expansion"] = outcome(
                    lambda: locus_expansion(scalar_coefficients(nfn), nfn)
                )
                results["gauss_sign_probe"] = outcome(gauss_sign_probe, nfn, 0.05)
        frozen = f.at_parameter(-0.01)
        for call in POINTWISE:
            results[call.__name__] = outcome(call, frozen, (0.0, 0.0))
    for name in must_raise:
        assert isinstance(results[name], DomainError), results[name]
        assert not isinstance(results[name], DegeneracyError), results[name]


# Callables of ``crosscap.__all__`` that run without the guard: the DSL's
# text functions and the random tree builder do no float arithmetic, and
# the series-ring routines of ``jets`` are jet arithmetic, which follows
# the caller's numpy error state as the Jet operators do.
UNGUARDED = {
    "parse_expr", "print_expr", "random_diffeo",
    "jet_recip", "jet_sqrt", "implicit_solve", "invert_coordinate", "branch_solve",
}
GUARDED_METHODS = (
    MapGerm.evaluate,
    MapGerm.jet_at,
    MapGerm.derivatives,
    NormalFormData.derivatives,
    SecondOrderFrame.scalars.func,
)


def carries_guard(fn):
    return fn.__code__ is float_contract(fn).__code__


def test_every_entry_point_carries_the_float_guard():
    functions = {
        name for name in crosscap.__all__ if inspect.isfunction(getattr(crosscap, name))
    }
    assert UNGUARDED <= functions
    unguarded = {name for name in functions if not carries_guard(getattr(crosscap, name))}
    assert unguarded == UNGUARDED
    assert all(carries_guard(method) for method in GUARDED_METHODS)
