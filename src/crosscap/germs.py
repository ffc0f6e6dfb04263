"""Map-germs and deformations: a small expression DSL, exact jets, and the
admissibility tests that the normal-form reduction relies on.

A germ is a triple of expressions in (u, v); a deformation additionally
uses the parameter s and must fix the origin along the parameter axis.
Jets of a germ are computed by evaluating the expression tree in jet
arithmetic, so every Taylor coefficient comes from the exact chain rule;
a subtree shared by identity is expanded once per ``jet_at`` call.
``PointDerivatives`` holds the first and second derivatives at one point,
or at each of N points along a leading batch axis, and is the only place
they are read out of jets.  Values, jets and derivatives at an (N, nvars)
array of points come from one walk of the expression tree over the whole
batch, with the same floating-point operations per point as N walks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import DomainError, UsageError, float_contract
from .jets import Jet, jet_recip, jet_sqrt

# -- expression trees ---------------------------------------------------------

Number = Union[float, Fraction]


@dataclass(frozen=True)
class Num:
    value: Number


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Sqrt:
    arg: "Expr"


Expr = Union[Num, Var, Add, Sub, Mul, Div, Neg, Pow, Sqrt]

_VARS = ("u", "v", "s")


# -- tokenizer / parser --------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<rational>\d+\s*/\s*\d+(?![\d.]))
  | (?P<number>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^();])
  | (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(source):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m.group()
        if kind == "bad":
            raise UsageError(f"unexpected character {text!r} at line {line}, col {col}")
        if kind not in ("space",):
            tokens.append(_Token(kind, text, line, col))
        if kind == "newline":
            line += 1
            col = 1
        else:
            col += len(text)
    return tokens


def _strip_comments(source):
    return re.sub(r"#[^\n]*", "", source)


MAX_NESTING = 100  # parentheses, sqrt( and unary signs; bounds the parser's recursion
MAX_DEPTH = 250  # expression-tree depth; bounds the recursion of every tree walk


class _Parser:
    """Recursive-descent parser for one expression (a token slice)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise UsageError("unexpected end of expression")
        self.pos += 1
        return tok

    def _expect_op(self, text):
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise UsageError(
                f"expected {text!r} at line {tok.line}, col {tok.col}, got {tok.text!r}"
            )

    def parse(self):
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise UsageError(
                f"trailing input {tok.text!r} at line {tok.line}, col {tok.col}"
            )
        depth, level = 0, [node]
        while level:  # breadth first, so a deep tree cannot overflow the stack
            depth += 1
            level = [child for n in level for child in _children(n)]
        if depth > MAX_DEPTH:
            raise UsageError(
                f"expression tree is {depth} levels deep (limit {MAX_DEPTH}); "
                "group long sums or products with parentheses"
            )
        return node

    def _expr(self):
        node = self._term()
        while (tok := self._peek()) and tok.kind == "op" and tok.text in "+-":
            self._next()
            rhs = self._term()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
        return node

    def _term(self):
        node = self._factor()
        while (tok := self._peek()) and tok.kind == "op" and tok.text in "*/":
            self._next()
            rhs = self._factor()
            node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
        return node

    def _factor(self):
        if self.depth == MAX_NESTING:
            raise UsageError(f"expression nests deeper than {MAX_NESTING} levels")
        self.depth += 1
        tok = self._peek()
        if tok and tok.kind == "op" and tok.text in "+-":
            self._next()
            arg = self._factor()
            node = arg if tok.text == "+" else Neg(arg)
        else:
            node = self._power()
        self.depth -= 1
        return node

    def _power(self):
        base = self._atom()
        tok = self._peek()
        if tok and tok.kind == "op" and tok.text == "^":
            self._next()
            base = Pow(base, self._int_exponent())
        return base

    def _int_exponent(self):
        sign = 1
        tok = self._next()
        if tok.kind == "op" and tok.text == "-":
            sign = -1
            tok = self._next()
        if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
            raise UsageError(
                f"power exponent must be an integer literal "
                f"(line {tok.line}, col {tok.col})"
            )
        return sign * _int_literal(tok.text, tok)

    def _atom(self):
        tok = self._next()
        if tok.kind == "rational":
            p, q = (_int_literal(part, tok) for part in tok.text.split("/"))
            if q == 0:
                raise UsageError(f"zero denominator at line {tok.line}, col {tok.col}")
            return Num(Fraction(p, q))
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text == "sqrt":
                self._expect_op("(")
                arg = self._expr()
                self._expect_op(")")
                return Sqrt(arg)
            if tok.text in _VARS:
                return Var(tok.text)
            raise UsageError(
                f"unknown identifier {tok.text!r} at line {tok.line}, col {tok.col}"
            )
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            self._expect_op(")")
            return node
        raise UsageError(
            f"unexpected token {tok.text!r} at line {tok.line}, col {tok.col}"
        )


def _int_literal(text, tok):
    try:
        return int(text)
    except ValueError:  # Python refuses more than sys.get_int_max_str_digits()
        raise UsageError(
            f"integer literal too long at line {tok.line}, col {tok.col}"
        ) from None


def parse_expr(text) -> Expr:
    tokens = [t for t in _tokenize(_strip_comments(text)) if t.kind != "newline"]
    return _Parser(tokens).parse()


# -- printing ------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 2, 3, 4


def _prec(node):
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return _PREC_ATOM


def print_expr(node) -> str:
    """Stable textual form: parse(print_expr(ast)) reproduces the ast."""

    def wrap(child, minimum):
        text = print_expr(child)
        return f"({text})" if _prec(child) < minimum else text

    if isinstance(node, Num):
        if isinstance(node.value, Fraction):
            return f"{node.value.numerator}/{node.value.denominator}"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Add):
        return f"{wrap(node.left, _PREC_ADD)} + {wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{wrap(node.left, _PREC_ADD)} - {wrap(node.right, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{wrap(node.left, _PREC_MUL)}*{wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{wrap(node.left, _PREC_MUL)}/{wrap(node.right, _PREC_MUL + 1)}"
    if isinstance(node, Neg):
        return f"-{wrap(node.arg, _PREC_NEG + 1)}"
    if isinstance(node, Pow):
        exp = str(node.exponent) if node.exponent >= 0 else f"-{-node.exponent}"
        return f"{wrap(node.base, _PREC_ATOM)}^{exp}"
    if isinstance(node, Sqrt):
        return f"sqrt({print_expr(node.arg)})"
    raise UsageError(f"cannot print node {node!r}")


# -- evaluation ----------------------------------------------------------------


def eval_number(node, env):
    """Value of the tree at the point ``env`` (name to value).

    The values may be floats or 1-d arrays of one length N, the coordinates
    of N points; the result is then an array of N values (or a float where
    the subtree is constant).  Powers and square roots go through Python's
    float ``**`` element by element: numpy's ``power`` and ``sqrt`` round
    differently on some inputs, and every point must get the value its own
    evaluation would.
    """
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Add):
        return eval_number(node.left, env) + eval_number(node.right, env)
    if isinstance(node, Sub):
        return eval_number(node.left, env) - eval_number(node.right, env)
    if isinstance(node, Mul):
        return eval_number(node.left, env) * eval_number(node.right, env)
    if isinstance(node, Div):
        denom = eval_number(node.right, env)
        if np.any(denom == 0.0):
            raise DomainError("division by zero while evaluating a germ")
        return eval_number(node.left, env) / denom
    if isinstance(node, Neg):
        return -eval_number(node.arg, env)
    if isinstance(node, Pow):
        base = eval_number(node.base, env)
        if node.exponent < 0 and np.any(base == 0.0):
            raise DomainError("zero raised to a negative power")
        return float_pow(base, node.exponent)
    if isinstance(node, Sqrt):
        arg = eval_number(node.arg, env)
        negative = np.less(arg, 0.0)
        if np.any(negative):
            raise DomainError(
                f"sqrt of a negative value {np.extract(negative, arg)[0]:.3e}"
            )
        return float_pow(arg, 0.5)
    raise UsageError(f"cannot evaluate node {node!r}")


def float_pow(x, e):
    """Python's float ``x ** e``, element by element on an array: numpy's
    array ``power`` rounds some x differently from the scalar ``pow`` of one
    point."""
    return float(x) ** e if np.ndim(x) == 0 else np.array([v**e for v in x.tolist()])


def eval_jet(node, env, memo) -> Jet:
    """Evaluate the tree in jet arithmetic (exact chain rule).

    ``memo``, a fresh dict per evaluation, maps id(node) to the node's jet,
    so a subtree shared by identity (``substitute`` builds such trees) is
    expanded once however often it occurs.  Jets are never changed in
    place, so a hit is the jet a recomputation would give.
    """
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Num):
        some = next(iter(env.values()))
        jet = Jet.constant(float(node.value), some.nvars, some.order)
    elif isinstance(node, Var):
        jet = env[node.name]
    elif isinstance(node, Add):
        jet = eval_jet(node.left, env, memo) + eval_jet(node.right, env, memo)
    elif isinstance(node, Sub):
        jet = eval_jet(node.left, env, memo) - eval_jet(node.right, env, memo)
    elif isinstance(node, Mul):
        jet = eval_jet(node.left, env, memo) * eval_jet(node.right, env, memo)
    elif isinstance(node, Div):
        jet = eval_jet(node.left, env, memo) * jet_recip(eval_jet(node.right, env, memo))
    elif isinstance(node, Neg):
        jet = -eval_jet(node.arg, env, memo)
    elif isinstance(node, Pow):
        jet = _jet_pow(eval_jet(node.base, env, memo), node.exponent)
    elif isinstance(node, Sqrt):
        jet = jet_sqrt(eval_jet(node.arg, env, memo))
    else:
        raise UsageError(f"cannot evaluate node {node!r}")
    memo[id(node)] = jet
    return jet


def _jet_pow(base, exponent):
    if exponent < 0:
        return _jet_pow(jet_recip(base), -exponent)
    result = Jet.constant(1.0, base.nvars, base.order)
    power = base
    e = exponent
    while e:
        if e & 1:
            result = result * power
        power = power * power if e > 1 else power
        e >>= 1
    return result


def substitute(node, mapping) -> Expr:
    """Replace the variables named in ``mapping`` by their expressions, all
    in one pass (replacements are not substituted into again)."""
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Num):
        return node
    if isinstance(node, (Add, Sub, Mul, Div)):
        return type(node)(substitute(node.left, mapping), substitute(node.right, mapping))
    if isinstance(node, (Neg, Sqrt)):
        return type(node)(substitute(node.arg, mapping))
    if isinstance(node, Pow):
        return Pow(substitute(node.base, mapping), node.exponent)
    raise UsageError(f"cannot substitute into node {node!r}")


def _children(node):
    if isinstance(node, (Add, Sub, Mul, Div)):
        return (node.left, node.right)
    if isinstance(node, (Neg, Sqrt)):
        return (node.arg,)
    if isinstance(node, Pow):
        return (node.base,)
    return ()


def uses_variable(node, name) -> bool:
    if isinstance(node, Var):
        return node.name == name
    return any(uses_variable(child, name) for child in _children(node))


# -- map germs -------------------------------------------------------------------


@dataclass(frozen=True)
class MapGerm:
    """Three components into R^3; a plain germ in (u, v) or a one-parameter
    deformation in (u, v, s)."""

    x: Expr
    y: Expr
    z: Expr
    kind: str  # "germ" | "deformation"

    @property
    def components(self):
        return (self.x, self.y, self.z)

    @property
    def nvars(self):
        return 2 if self.kind == "germ" else 3

    @classmethod
    def parse(cls, text, kind: Optional[str] = None) -> "MapGerm":
        exprs = parse_germ_source(text)
        uses_s = any(uses_variable(e, "s") for e in exprs)
        if kind is None:
            kind = "deformation" if uses_s else "germ"
        if kind not in ("germ", "deformation"):
            raise UsageError(f"unknown germ kind {kind!r}")
        if kind == "germ" and uses_s:
            raise UsageError("a plain germ cannot reference the parameter s")
        return cls(*exprs, kind=kind)

    def _coordinates(self, point):
        """The batch shape and the coordinates of ``point``: () and one
        float per variable, or (N,) and the nvars columns of an (N, nvars)
        array of N points."""
        pts = np.asarray(point, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.nvars:
            arity = pts.shape[-1] if pts.ndim else 0
            raise UsageError(f"point arity {arity} != {self.nvars}")
        if pts.ndim == 1:
            return (), pts.tolist()
        return pts.shape[:1], list(pts.T)

    @float_contract
    def evaluate(self, point) -> np.ndarray:
        """Values at ``point``, shape (3,); at an (N, nvars) array of
        points, shape (N, 3).  A non-finite value is a DomainError naming
        the first point that has one."""
        batch, coords = self._coordinates(point)
        env = dict(zip(_VARS, coords))
        values = np.empty(batch + (3,))
        for k, e in enumerate(self.components):
            values[..., k] = eval_number(e, env)
        finite = np.isfinite(values).all(axis=-1)
        if not np.all(finite):
            bad = np.reshape(point, (-1, self.nvars))[np.argmin(finite.ravel())]
            raise DomainError(f"non-finite germ value at {[float(x) for x in bad]}")
        return values

    @float_contract
    def jet_at(self, point, order) -> tuple:
        """Taylor jets of the three components about ``point``; about an
        (N, nvars) array of points they are batched jets, one row per point."""
        nv = self.nvars
        batch, coords = self._coordinates(point)
        env = {
            name: Jet.constant(x, nv, order) + Jet.variable(i, nv, order)
            for i, (name, x) in enumerate(zip(_VARS, coords))
        }
        memo = {}  # shared by the components: apply_equivalence shares subtrees
        jets = tuple(eval_jet(e, env, memo) for e in self.components)
        if batch:  # a component free of the variables is one jet for all rows
            cube = (order + 1,) * nv
            jets = tuple(
                Jet(nv, order, np.broadcast_to(j.c, batch + cube), _trusted=True)
                for j in jets
            )
        return jets

    @float_contract
    def derivatives(self, point) -> "PointDerivatives":
        """First and second derivatives at ``point`` (or at each of an
        (N, nvars) array of points) from one order-2 jet."""
        return PointDerivatives.from_jets(self.jet_at(point, 2))

    def at_parameter(self, s0) -> "MapGerm":
        """Freeze the deformation parameter; the result is a plain germ."""
        if self.kind != "deformation":
            raise UsageError("at_parameter needs a deformation")
        s0 = float(s0)
        if not math.isfinite(s0):
            raise DomainError(f"non-finite parameter value s = {s0}")
        sub = {"s": Num(s0)}
        return MapGerm(*(substitute(e, sub) for e in self.components), kind="germ")


def parse_germ_source(text):
    """Split DSL source into exactly three component expressions.

    Components are separated by ';' when present, otherwise by newlines;
    '#' starts a comment.
    """
    stripped = _strip_comments(text)
    tokens = _tokenize(stripped)
    sep = "op_semi" if any(t.kind == "op" and t.text == ";" for t in tokens) else "newline"
    groups, current = [], []
    for tok in tokens:
        is_sep = (
            tok.kind == "op" and tok.text == ";"
            if sep == "op_semi"
            else tok.kind == "newline"
        )
        if is_sep:
            if current:
                groups.append(current)
                current = []
        elif tok.kind != "newline":
            current.append(tok)
    if current:
        groups.append(current)
    if len(groups) != 3:
        raise UsageError(
            f"a germ needs exactly three component expressions, found {len(groups)}"
        )
    return tuple(_Parser(g).parse() for g in groups)


# -- pointwise derivatives -----------------------------------------------------------

RANK_TOL = 1e-9  # singular value below RANK_TOL * sigma_max counts as zero


@dataclass(frozen=True)
class PointDerivatives:
    """First and second derivatives in (u, v) of a map into R^3 at one point,
    or at each of N points.

    ``grad[..., c, i]`` is d f_c / d x_i and ``hess[..., c, i, j]`` is
    d^2 f_c / d x_i d x_j with x = (u, v); a further parameter variable,
    if any, is held fixed.  At N points the arrays carry a leading batch
    axis, shapes (N, 3, 2) and (N, 3, 2, 2).  This is the one source of
    pointwise derivative data: rank, kernel, the second-order frame and
    everything built on it are read from here, at one point or at N;
    ``MapGerm.derivatives`` and ``NormalFormData.derivatives`` build it.
    Non-finite entries raise DomainError.
    """

    grad: np.ndarray  # 3 x 2, or N x 3 x 2
    hess: np.ndarray  # 3 x 2 x 2, or N x 3 x 2 x 2

    def __post_init__(self):
        if not (np.all(np.isfinite(self.grad)) and np.all(np.isfinite(self.hess))):
            raise DomainError("non-finite derivative at the requested point")

    @classmethod
    def from_jets(cls, jets) -> "PointDerivatives":
        """Read the low coefficients of three jets expanded about the point
        (or batched about N points), with u and v as their first two
        variables."""
        pad = (0,) * (jets[0].nvars - 2)
        cubes = [j.c[(..., slice(0, 3), slice(0, 3)) + pad] for j in jets]
        low = np.stack(np.broadcast_arrays(*cubes), axis=-3)  # ... x component x 3 x 3
        grad = low[..., [1, 0], [0, 1]]
        hess = low[..., [[2, 1], [1, 0]], [[0, 1], [1, 2]]] * [[2.0, 1.0], [1.0, 2.0]]
        return cls(grad, hess)

    def rank(self):
        """The rank of df: an int, or at N points a list of N ints."""
        sv = np.linalg.svd(self.grad, compute_uv=False)
        return (sv > RANK_TOL * sv[..., :1]).sum(axis=-1).tolist()

    def null_vector(self) -> np.ndarray:
        """Unit generator of Ker df at a rank-1 point (at each of N points);
        the first entry larger than the rank tolerance is made positive."""
        rank = np.asarray(self.rank())
        if (rank != 1).any():
            raise DomainError(f"null_vector needs a rank-1 point, got rank {rank[rank != 1][0]}")
        n = np.linalg.svd(self.grad)[2][..., -1, :]
        # a unit 2-vector: when its first entry is not larger, the second is
        lead = np.where(abs(n[..., 0]) > RANK_TOL, n[..., 0], n[..., 1])
        return np.where((lead < 0.0)[..., None], -n, n)


@float_contract
def rank_at(f: MapGerm, point) -> int:
    return f.derivatives(point).rank()


@float_contract
def null_vector(f: MapGerm, point) -> np.ndarray:
    return f.derivatives(point).null_vector()


# -- admissibility ---------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    clauses: tuple

    def failing(self):
        return [c for c in self.clauses if not c.passed]


@float_contract
def admissibility_check(f: MapGerm, order: int = 8) -> AdmissibilityReport:
    """Check the hypotheses of the normal-form reduction (see
    ``admissibility_from_jets``) on the germ's jets at the origin."""
    if f.kind != "deformation":
        raise UsageError("admissibility_check needs a deformation")
    return admissibility_from_jets(f.jet_at((0.0, 0.0, 0.0), order))


def admissibility_from_jets(jets) -> AdmissibilityReport:
    """Admissibility of a deformation from its jets in (u, v, s) at 0.

    (i) the parameter axis maps to the origin, (ii) the differential at the
    base point has rank one, and (iii) the second derivative along the null
    direction has a component normal to the image line (so the quadratic
    part in v survives some rotation).
    """
    clauses = []

    axis_dev = max(j.subs(0, 0.0).subs(0, 0.0).max_abs() for j in jets)
    scale = 1.0 + max(j.max_abs() for j in jets)
    ok_axis = axis_dev <= 1e-10 * scale
    clauses.append(
        Clause(
            "parameter_axis_fixed",
            ok_axis,
            f"max |f(0,0,s)| coefficient = {axis_dev:.3e}",
        )
    )

    d = PointDerivatives.from_jets(jets)
    rank = d.rank()
    clauses.append(Clause("rank_one", rank == 1, f"rank df_0 = {rank}"))

    ok_two_jet = False
    detail = "skipped (rank != 1)"
    if rank == 1:
        n = d.null_vector()
        t = np.array([n[1], -n[0]])
        h_nn = d.hess @ n @ n
        w = d.grad @ t
        w_hat = w / np.linalg.norm(w)
        ortho = h_nn - (h_nn @ w_hat) * w_hat
        size = float(np.linalg.norm(ortho))
        ok_two_jet = size > 1e-9 * np.linalg.norm(h_nn)
        detail = f"|pi(f_nn)| = {size:.3e}"
    clauses.append(Clause("quadratic_normal_part", ok_two_jet, detail))

    return AdmissibilityReport(all(c.passed for c in clauses), tuple(clauses))


# -- standard model germs ----------------------------------------------------------

MODEL_S1_PLUS = "u; v^2; v*(u^2 + v^2) + s*v"
MODEL_S1_MINUS = "u; v^2; v*(u^2 - v^2) + s*v"
MODEL_CROSS_CAP = "u; u*v; v^2"
