"""Deterministic file emitters: JSON with sorted keys and 17-digit floats,
fixed-column CSV, SVG conic drawings, and OBJ meshes.

Identical inputs must produce byte-identical files, so every number is
formatted through one code path and no locale or hash ordering leaks in.
The SVG drawer draws the kind the focal conic was classified as; it does
not classify the conic again.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .invariants import FocalConic, form_bundle


def fmt_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def to_json(obj, indent=0) -> str:
    """Minimal JSON writer with sorted keys and reproducible floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + to_json(v, indent + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{key}": ' + to_json(obj[key], indent + 1)
            for key in sorted(obj)
        )
        return "{\n" + items + "\n" + pad + "}"
    raise UsageError(f"cannot serialize object of type {type(obj).__name__}")


def trace_csv(table) -> str:
    lines = [",".join(table.COLUMNS)]
    for row in table.rows:
        cells = []
        for name in table.COLUMNS:
            value = getattr(row, name)
            cells.append(value if isinstance(value, str) else f"{float(value):.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- SVG conic -------------------------------------------------------------------

_SVG_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-5 -5 10 10" '
    'width="400" height="400">\n'
    '<rect x="-5" y="-5" width="10" height="10" fill="white"/>\n'
)


def conic_svg(conic: FocalConic) -> str:
    """Draw the conic in the normal-plane coordinates, y axis upward."""
    parts = [_SVG_HEADER, '<g transform="scale(1,-1)" stroke="black" ']
    parts.append('stroke-width="0.03" fill="none">\n')
    for branch in _conic_branches(conic):
        points = " ".join(f"{fmt_float(x)},{fmt_float(y)}" for x, y in branch)
        parts.append(f'<polyline points="{points}"/>\n')
    parts.append("</g>\n")
    parts.append(
        f'<text x="-4.7" y="-4.4" font-size="0.5" fill="black">{conic.kind}</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _conic_branches(conic: FocalConic, span=8.0, samples=129):
    """Sampled point chains covering the zero set of w^T M w + b.w + c,
    drawn as the classified ``conic.kind``; M is not classified again."""
    M, b, c = conic.M, conic.b, conic.c
    evals, evecs = np.linalg.eigh(M)
    line_ts = np.linspace(-span, span, 2)

    if conic.kind == "double-or-single-line":
        scale = float(np.sum(M * M) + b @ b + c * c) + 1e-300
        if np.all(np.abs(evals) <= 1e-9 * math.sqrt(scale)):
            # M ~ 0: the single line b.w + c = 0
            nb = np.linalg.norm(b)
            if nb == 0.0:
                return []
            direction = np.array([-b[1], b[0]]) / nb
            base = -c * b / nb**2
            return [[tuple(base + t * direction) for t in line_ts]]
    if conic.kind in ("parabola", "double-or-single-line"):
        # one curved direction d1 and one flat direction d0
        i1 = int(np.argmax(np.abs(evals)))
        l1 = evals[i1]
        d1, d0 = evecs[:, i1], evecs[:, 1 - i1]
        b1, b0 = float(b @ d1), float(b @ d0)
        if conic.kind == "parabola":
            chain = []
            for y1 in np.linspace(-span, span, samples):
                y0 = -(l1 * y1 * y1 + b1 * y1 + c) / b0
                chain.append(tuple(y1 * d1 + y0 * d0))
            return [chain]
        # parallel or double lines l1 y1^2 + b1 y1 = 0 (c = 0)
        roots = sorted({(-b1 - abs(b1)) / (2 * l1), (-b1 + abs(b1)) / (2 * l1)})
        return [[tuple(root * d1 + t * d0) for t in line_ts] for root in roots]

    center = np.linalg.solve(M, -b / 2.0)
    cprime = float(c + b @ center / 2.0)
    if conic.kind == "degenerate-other":
        return [[tuple(center)]]
    if conic.kind == "ellipse":
        (l0, l1), (d0, d1) = evals, evecs.T
        r0sq, r1sq = -cprime / l0, -cprime / l1
        if r0sq <= 0.0 or r1sq <= 0.0:
            return []  # imaginary ellipse
        r0, r1 = math.sqrt(r0sq), math.sqrt(r1sq)
        ts = np.linspace(0.0, 2.0 * math.pi, samples)
        return [
            [
                tuple(center + r0 * math.cos(t) * d0 + r1 * math.sin(t) * d1)
                for t in ts
            ]
        ]

    # hyperbola or two crossing lines: l0 > 0 > l1
    (l1, l0), (d1, d0) = evals, evecs.T
    branches = []
    if conic.kind == "two-lines":
        slope = math.sqrt(-l0 / l1)
        for sgn in (1.0, -1.0):
            direction = d1 + sgn * slope * d0
            direction = direction / np.linalg.norm(direction)
            branches.append([tuple(center + t * direction) for t in line_ts])
        return branches
    tmax = math.asinh(span)
    ts = np.linspace(-tmax, tmax, samples)
    if cprime < 0.0:
        a_len, b_len = math.sqrt(-cprime / l0), math.sqrt(cprime / l1)
        trans, conj = d0, d1
    else:
        a_len, b_len = math.sqrt(cprime / -l1), math.sqrt(cprime / l0)
        trans, conj = d1, d0
    for sgn in (1.0, -1.0):
        branches.append(
            [
                tuple(
                    center
                    + sgn * a_len * math.cosh(t) * trans
                    + b_len * math.sinh(t) * conj
                )
                for t in ts
            ]
        )
    return branches


# -- OBJ meshes -------------------------------------------------------------------

# Every vertex of a mesh is evaluated in one batch, about 1.4 kB per vertex
# for a K-sign mesh of a germ with a division and a square root; at this
# bound (a 400 x 400 grid) that is about 230 MB.
MAX_MESH_VERTICES = 160_000


def mesh_obj(f, u_range, v_range, nu, nv):
    """Row-major triangulated evaluation of a plain germ over a grid.

    Returns (obj_text, vertices), where vertices is the (nu * nv, 2) array
    of source points in OBJ order; per-vertex scalars are emitted
    separately.  All vertices are evaluated as one batch, so the grid is
    bounded by ``MAX_MESH_VERTICES``.
    """
    if nu < 2 or nv < 2:
        raise UsageError("mesh needs at least a 2 x 2 grid")
    if nu * nv > MAX_MESH_VERTICES:
        raise UsageError(
            f"mesh grid {nu} x {nv} exceeds the limit of {MAX_MESH_VERTICES} vertices"
        )
    us = np.linspace(u_range[0], u_range[1], nu)
    vs = np.linspace(v_range[0], v_range[1], nv)
    vertices = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    values = f.evaluate(vertices)
    i, j = np.meshgrid(np.arange(nu - 1), np.arange(nv - 1), indexing="ij")
    a = (i * nv + j + 1).ravel()  # corners a, b = a + nv, c = b + 1, d = a + 1
    faces = np.stack([a, a + nv, a + nv + 1, a, a + nv + 1, a + 1], axis=-1)
    text = (
        "# crosscap surface mesh\n"
        + "v %.17g %.17g %.17g\n" * len(values) % tuple(values.ravel().tolist())
        + "f %d %d %d\nf %d %d %d\n" * len(a) % tuple(faces.ravel().tolist())
    )
    return text, vertices


def mesh_k_signs(f, vertices) -> str:
    """One Gauss-sign per vertex (-1, 0, 1), aligned with the OBJ order;
    the vertices are expanded as one batch of order-2 jets."""
    K = form_bundle(f, vertices).K
    signs = np.sign(K).astype(int)
    return "%d\n" * len(signs) % tuple(signs.tolist())
