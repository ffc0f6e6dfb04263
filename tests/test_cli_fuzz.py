"""Fuzz the CLI contract: whatever the numbers or the germ source, a run ends
with exit code 0, 2, 3 or 4 and a JSON report (or JSON error) on stdout,
never with a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crosscap import cli
from crosscap.germs import MODEL_S1_PLUS

GP_GERM = "u; v^2 + u*s; u^2 + v^3 + u^2*v + v*s"  # the README gauss-probe germ
FUZZ = settings(derandomize=True, deadline=None, database=None)
NUMBERS = st.floats() | st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e308, -1e308])


def edge_cases(*names):
    """@example decorators putting nan, +-inf and 1e308 into every argument."""

    def apply(test):
        for value in (float("nan"), float("inf"), float("-inf"), 1e308):
            test = example(**{name: value for name in names})(test)
        return test

    return apply


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


def run_cli(*argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(list(argv))
    assert code in (0, 2, 3, 4)
    report = json.loads(stdout.getvalue())
    assert ("error" in report) == (code != 0)


@settings(FUZZ, max_examples=20)
@given(s=NUMBERS, u=NUMBERS, v=NUMBERS)
@edge_cases("s", "u", "v")
@example(s=1.9953857197677707e102, u=0.0, v=1.0)  # focal conic beyond float range
def test_analyze_numbers(s, u, v):
    run_cli("analyze", "--germ", MODEL_S1_PLUS, "--order", "4", f"--s={s!r}",
            f"--point={u!r},{v!r}")


@settings(FUZZ, max_examples=20)
@given(s=NUMBERS)
@edge_cases("s")
def test_focal_numbers(out_dir, s):
    run_cli("focal", "--germ", MODEL_S1_PLUS, "--order", "4", f"--s={s!r}",
            "--out", out_dir)


@settings(FUZZ, max_examples=8)
@given(s_tilde=NUMBERS)
@edge_cases("s_tilde")
def test_gauss_probe_numbers(s_tilde):
    run_cli("gauss-probe", "--germ", GP_GERM, "--order", "4", f"--s-tilde={s_tilde!r}")


@settings(FUZZ, max_examples=20)
@given(s=NUMBERS, a=NUMBERS, b=NUMBERS)
@edge_cases("s", "a", "b")
def test_mesh_numbers(out_dir, s, a, b):
    run_cli("mesh", "--germ", MODEL_S1_PLUS, "--order", "4", f"--s={s!r}",
            f"--u-range={a!r}:{b!r}", "--nu", "2", "--nv", "2", "--out", out_dir)


# -- S1 families ---------------------------------------------------------------------

COEFFICIENTS = st.sampled_from(["0", "1", "-1", "0.5", "-2"])


@settings(FUZZ, max_examples=25)
@given(a=COEFFICIENTS, b=COEFFICIENTS, c=COEFFICIENTS, k=st.sampled_from([2, 3]))
@example(a="0", b="1", c="1", k=3)  # c2(0) = 0
def test_s1_families(out_dir, a, b, c, k):
    """The analytics commands on S1 deformations whose c2(0), the u^2 v
    coefficient of the last component, may be positive, negative or 0."""
    germ = f"u; v^2 + {a}*u*s; {b}*u^2 + v^3 + {c}*u^{k}*v + s*v"
    run_cli("trace", "--germ", germ, "--out", out_dir)
    run_cli("gauss-probe", "--germ", germ)
    run_cli("focal", "--germ", germ, "--s=-0.01", "--out", out_dir)
    run_cli("mesh", "--germ", germ, "--nu", "2", "--nv", "2", "--s=-0.01",
            "--out", out_dir)


# -- DSL sources ---------------------------------------------------------------------

LITERALS = st.one_of(
    st.integers(0, 9).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(0.0, 1e308).map(repr),
)


def expressions(depth):
    """DSL expression source of nesting depth at most ``depth``."""
    leaf = st.sampled_from(["u", "v", "s"]) | LITERALS
    if depth == 0:
        return leaf
    sub = expressions(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(sub, st.integers(-3, 12)).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda e: f"sqrt({e})"),
        sub.map(lambda e: f"-{e}"),
    )


@settings(FUZZ, max_examples=40)
@given(components=st.tuples(expressions(4), expressions(4), expressions(4)))
@example(components=("u", "v^2", "v*(u^2 + v^2) + s*v"))
@example(components=("u", "v", "u^9999"))
@example(components=("1e308*u", "v", "1e308*1e308"))
@example(components=("u", "v^2", "0/0"))
def test_dsl_sources(components):
    run_cli("analyze", "--germ", "; ".join(components), "--order", "4",
            "--point=0.5,0.25", "--s=0.1")
