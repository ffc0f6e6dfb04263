"""Command-line surface: analyze | normal-form | trace | focal |
gauss-probe | mesh.

Every command prints a JSON report to stdout and, once it has succeeded,
writes its artifacts into --out; a failed command writes nothing.  Exit
codes: 0 success, 2 usage, 3 math-domain (floating-point overflow
included, through ``errors.float_contract``), 4 internal-consistency.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import deformation as da
from . import invariants as pi
from . import normal_form as nfm
from .errors import ConsistencyError, DomainError, GenericityError, UsageError
from .errors import float_contract
from .germs import MapGerm
from .reports import conic_svg, mesh_k_signs, mesh_obj, to_json, trace_csv


class _ArgumentParser(argparse.ArgumentParser):
    """Reports malformed arguments as UsageError (subcommand parsers are
    built from this class too)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every later
    ``main`` call of the process (``parse_args`` leaves it unchanged)."""
    p = _ArgumentParser(
        prog="crosscap",
        description="Normal forms and invariant sweeps for one-parameter "
        "deformations of rank-1 surface germs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_default=None):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--germ", help="inline germ source (three expressions)")
        g.add_argument("--file", help="path to a germ source file")
        sp.add_argument("--order", type=int, default=8, help="jet order (4..12)")
        sp.add_argument("--out", default=out_default, help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="seed recorded in reports")

    sp = sub.add_parser("analyze", help="pointwise report at a source point")
    common(sp)
    sp.add_argument("--point", default="0,0", help="source point 'u,v'")
    sp.add_argument("--s", type=float, default=0.0, help="parameter value")

    sp = sub.add_parser("normal-form", help="reduce a deformation and report")
    common(sp)

    sp = sub.add_parser("trace", help="invariants along a geometric grid in st")
    common(sp, out_default=".")
    sp.add_argument(
        "--s-tilde-grid",
        default="0.1:2:7",
        help="grid spec 'start:ratio:count' (st_j = start * ratio^-j)",
    )

    sp = sub.add_parser("focal", help="focal conic at a singular point")
    common(sp, out_default=".")
    sp.add_argument("--s", type=float, default=0.0, help="parameter value")
    sp.add_argument("--point", default=None, help="override point 'u,v'")

    sp = sub.add_parser("gauss-probe", help="Gaussian curvature sign law probe")
    common(sp)
    sp.add_argument("--s-tilde", type=float, default=0.05)

    sp = sub.add_parser("mesh", help="triangulated OBJ mesh at fixed parameter")
    common(sp, out_default=".")
    sp.add_argument("--s", type=float, default=0.0, help="parameter value")
    sp.add_argument("--u-range", default="-1:1")
    sp.add_argument("--v-range", default="-1:1")
    sp.add_argument("--nu", type=int, default=50)
    sp.add_argument("--nv", type=int, default=50)
    sp.add_argument("--k-sign", action="store_true", help="emit per-vertex K signs")
    return p


# -- helpers -----------------------------------------------------------------------


def _load_germ(args) -> MapGerm:
    if args.germ is not None:
        return MapGerm.parse(args.germ)
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read germ file {args.file!r}: {exc}") from None
    return MapGerm.parse(text)


def _check_order(order):
    if not 4 <= order <= 12:
        raise UsageError(f"jet order must be in [4, 12], got {order}")


def _parse_numbers(text, sep, types, form):
    parts = text.split(sep)
    try:
        if len(parts) == len(types):
            return [t(part) for t, part in zip(types, parts)]
    except ValueError:
        pass
    raise UsageError(f"{form}, got {text!r}")


def _parse_point(text):
    return tuple(_parse_numbers(text, ",", (float, float), "point must be 'u,v'"))


# A trace grid is built as a list before any point is traced; a ratio-2
# grid stops giving rows after about 21 points.
MAX_GRID_POINTS = 10_000


def _parse_grid(text):
    start, ratio, count = _parse_numbers(
        text, ":", (float, float, int), "grid must be 'start:ratio:count'"
    )
    if not (count >= 1 and start > 0 and ratio > 1.0):  # rejects nan too
        raise UsageError("grid needs start > 0, ratio > 1 and count >= 1")
    if count > MAX_GRID_POINTS:
        raise UsageError(f"grid count {count} exceeds the limit of {MAX_GRID_POINTS} points")
    return [start * ratio**-j for j in range(count)]


def _parse_range(text):
    a, b = _parse_numbers(text, ":", (float, float), "range must be 'a:b'")
    if not b > a:
        raise UsageError("range needs b > a")
    return (a, b)


def _outdir(args):
    if args.out is None:
        return None
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {args.out!r}: {exc}") from None
    return path


def _meta(args):
    return {"command": args.command, "order": args.order, "seed": args.seed}


def _conic_dict(conic):
    return {
        "kind": conic.kind,
        "matrix": conic.M,
        "linear": conic.b,
        "constant": conic.c,
        "plane_basis": conic.plane_basis,
    }


def _parabola_dict(par):
    return {
        "kind": par.kind,
        "vertex": par.vertex,
        "axis": par.axis_dir,
        "umbilic_curvature": par.ku,
        "axial_curvature": par.ka,
        "plane_basis": par.plane_basis,
    }


def _series_dict(nf):
    return {
        "f21": nf.f21.c,
        "f24": nf.f24.c,
        "f31": nf.f31.c,
        "f32": nf.f32.c,
        "f33": nf.f33.c,
        "f34": nf.f34.c,
    }


def _reduction_block(germ, order):
    """Reduce and classify; parameter normalization failure is reported, not
    fatal."""
    nf = nfm.reduce(germ, order)
    cls = nfm.classify(nf)
    note = None
    try:
        nf = nfm.normalize_parameter(nf)
    except GenericityError as exc:
        note = str(exc)
    cs = nfm.scalar_coefficients(nf)
    block = {
        "classification": cls.kind,
        "discriminant": cls.discriminant,
        "parameter_normalized": nf.parameter_normalized,
        "coefficients": cs.as_dict(),
    }
    if note:
        block["genericity_note"] = note
    return nf, cs, block


# -- commands ----------------------------------------------------------------------


def cmd_analyze(args):
    _check_order(args.order)
    germ = _load_germ(args)
    point = _parse_point(args.point)
    report = _meta(args)

    if germ.kind == "deformation":
        _, _, block = _reduction_block(germ, args.order)
        report["deformation"] = block
        frozen = germ.at_parameter(args.s)
        report["s"] = args.s
    else:
        frozen = germ

    d = frozen.derivatives(point)
    rank = d.rank()
    report["point"] = list(point)
    report["rank"] = rank
    if rank != 1:
        report["regular"] = rank == 2
        report["note"] = "no rank-1 singular point at the requested point"
    else:
        frame = pi.frame_at(d)
        report["whitney_umbrella"] = frame.cross_cap
        report["curvature_parabola"] = _parabola_dict(
            pi.curvature_parabola_from_frame(frame)
        )
        report["focal_conic"] = _conic_dict(pi.focal_conic_from_frame(frame))
        if frame.cross_cap:
            scalars, inv = pi.invariants_from_frame(frame)
            report["fundamental_scalars"] = {
                "A": scalars.A,
                "B": scalars.B,
                "C": scalars.C,
                "D": scalars.D,
                "E": scalars.E_inv,
            }
            report["invariants"] = {
                "a20": inv.a20,
                "a11": inv.a11,
                "a02": inv.a02,
                "ku_ext": inv.ku_ext,
                "ka": inv.ka,
            }
    return report, {"analyze.json": None}


def cmd_normal_form(args):
    _check_order(args.order)
    germ = _load_germ(args)
    nf, _, block = _reduction_block(germ, args.order)
    report = _meta(args)
    report.update(block)
    report["rotation"] = nf.rotation
    report["series"] = _series_dict(nf)
    report["monomials"] = {
        k: list(v) for k, v in nfm.monomial_coefficients(nf).items()
    }
    return report, {"normal_form.json": None}


def cmd_trace(args):
    _check_order(args.order)
    germ = _load_germ(args)
    grid = _parse_grid(args.s_tilde_grid)
    table, _, cs = da.trace(germ, grid, args.order)
    report = _meta(args)
    report["grid"] = grid
    report["rows"] = len(table.rows)
    if table.rows:
        rep = da.asymptotic_limits(table, cs)
        report["asymptotics"] = {
            "limits": rep.limits,
            "theory": rep.theory,
            "residuals": rep.residuals,
            "bounded": rep.bounded_flags,
            "ku_ext_limit": rep.ku_ext_limit,
            "ka_limit": rep.ka_limit,
        }
        report["all_conics"] = sorted({r.conic_kind for r in table.rows})
    else:
        report["asymptotics"] = None
        report["note"] = "no cross-cap pair on the grid; no asymptotics"
    return report, {"trace.csv": trace_csv(table), "trace_asymptotics.json": None}


def cmd_focal(args):
    _check_order(args.order)
    germ = _load_germ(args)
    report = _meta(args)
    if germ.kind == "deformation":
        nf = nfm.reduce(germ, args.order)
        if args.point is not None:
            point = _parse_point(args.point)
            frame = pi.frame_at(nf.derivatives((*point, args.s)))
        else:
            records = da.singular_locus(nf, args.s)
            if not records:
                raise DomainError(f"no singular point at s = {args.s}")
            umb = [r for r in records if r.cls == "umbrella" and r.point[0] > 0]
            record = umb[0] if umb else records[0]
            point, frame = record.point, record.frame
        report["s"] = args.s
        report["coordinates"] = "normal-form source"
    else:
        if args.point is None:
            raise UsageError("a plain germ needs an explicit --point")
        point = _parse_point(args.point)
        frame = pi.frame_at(germ.derivatives(point))
    conic = pi.focal_conic_from_frame(frame)
    report["point"] = list(point)
    report["conic"] = _conic_dict(conic)
    return report, {"focal.svg": conic_svg(conic), "focal.json": None}


def cmd_gauss_probe(args):
    _check_order(args.order)
    germ = _load_germ(args)
    nf = nfm.normalized(germ, args.order)
    rep = da.gauss_sign_probe(nf, args.s_tilde)
    report = _meta(args)
    report.update(
        {
            "s_tilde": rep.s_tilde,
            "u_of_st": rep.u_of_st,
            "agreement": rep.agreement,
            "mismatch_count": len(rep.mismatches),
            "s_tilde_max_agree": rep.s_tilde_max_agree,
            "theta_count": len(rep.thetas),
            "k_count": len(rep.k_fracs),
        }
    )
    return report, {"gauss_probe.json": None}


def cmd_mesh(args):
    _check_order(args.order)
    germ = _load_germ(args)
    frozen = germ.at_parameter(args.s) if germ.kind == "deformation" else germ
    obj_text, vertices = mesh_obj(
        frozen, _parse_range(args.u_range), _parse_range(args.v_range), args.nu, args.nv
    )
    report = _meta(args)
    report["vertices"] = len(vertices)
    report["s"] = args.s
    files = {"mesh.obj": obj_text}
    if args.k_sign:
        files["mesh_ksign.txt"] = mesh_k_signs(frozen, vertices)
    return report, files


_COMMANDS = {
    "analyze": cmd_analyze,
    "normal-form": cmd_normal_form,
    "trace": cmd_trace,
    "focal": cmd_focal,
    "gauss-probe": cmd_gauss_probe,
    "mesh": cmd_mesh,
}


def main(argv=None) -> int:
    """Run one command under ``float_contract``: overflow, invalid
    operations and division by zero in it are math-domain errors (exit 3).

    A command returns its report and the files to write into --out, name
    to text, where None stands for the report's own JSON.
    """
    try:
        args = build_parser().parse_args(argv)
        report, files = float_contract(_COMMANDS[args.command])(args)
        text = to_json(report)
        out = _outdir(args)
        if out is not None:
            for name, body in files.items():
                body = text + "\n" if body is None else body
                (out / name).write_text(body, encoding="utf-8")
        print(text)
        return 0
    except UsageError as exc:
        print(to_json({"error": {"type": "usage", "message": str(exc)}}))
        return 2
    except DomainError as exc:
        print(to_json({"error": {"type": "math-domain", "message": str(exc)}}))
        return 3
    except ConsistencyError as exc:
        print(to_json({"error": {"type": "internal-consistency", "message": str(exc)}}))
        return 4


if __name__ == "__main__":
    sys.exit(main())
