"""The three benchmark workloads: seeded inputs, one item, and its check.

Each workload object is built from a seed and hands out inputs with
``next_input`` (not timed).  ``run`` is the timed item, which goes through
crosscap's public API by module attribute so that a traced run sees every
call.  ``check`` raises ``CheckFailed`` when the output misses an
acceptance tolerance; ``run`` may raise any library error.  Both count as
a failed item.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from crosscap import cli
from crosscap import deformation as dfm
from crosscap import germs
from crosscap import normal_form as nfm

ORDER = 8


class CheckFailed(Exception):
    """An item's output is outside its acceptance tolerance."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


class EquivReduce:
    """Criterion-02 traffic: reduce seeded random equivalences of the two
    S1 models and compare the scalar invariants with the models' own.

    Every input is a fresh germ (no work shared between or inside items),
    with expression trees of thousands of nodes and dense order-8 jets, so
    the kernel's flop rate and ``Jet.compose`` dominate.
    """

    name = "equiv-reduce"
    trace_items = 4

    def __init__(self, seed, scratch):
        self.models = [germs.MapGerm.parse(t) for t in (germs.MODEL_S1_PLUS, germs.MODEL_S1_MINUS)]
        self.expected = [self._coefficients(f) for f in self.models]
        self.rng = np.random.default_rng(seed)
        self.count = 0

    @staticmethod
    def _coefficients(f):
        return nfm.scalar_coefficients(nfm.normalize_parameter(nfm.reduce(f, ORDER))).as_vector()

    def next_input(self):
        k = self.count % 2
        self.count += 1
        g = nfm.apply_equivalence(self.models[k], nfm.random_diffeo(self.rng),
                                  nfm.random_rotation(self.rng))
        return k, g

    def run(self, inp):
        return self._coefficients(inp[1])

    def check(self, inp, out):
        dev = float(np.max(np.abs(out - self.expected[inp[0]])))
        _require(dev <= 1e-8, f"coefficients deviate from the model's by {dev:.3e} > 1e-8")


def normal_form_family(rng, f31_0=None):
    """A germ source in normal-form shape (the criterion-03 recipe): c2 in
    [0.5, 2], c1 and c3 of opposite signs, no quartic term.  ``f31_0``
    replaces the random u^2 coefficient of the third component."""
    c2 = float(rng.uniform(0.5, 2.0))
    c1 = float(rng.uniform(0.2, 0.5))
    c3 = -float(rng.uniform(0.2, 0.5))
    q0, q1, p0, p1 = (float(x) for x in rng.uniform(-0.5, 0.5, size=4))
    b0, d1, d3 = (float(x) for x in rng.uniform(-0.5, 0.5, size=3))
    d2 = float(rng.uniform(0.5, 1.5))
    if f31_0 is not None:
        q0 = f31_0
    y = f"v^2 + {p0!r}*u^2 + {p1!r}*u^3 + {b0!r}*u*s"
    z = (
        f"{q0!r}*u^2 + {q1!r}*u^3"
        f" + v^2*({d2!r}*v + {d1!r}*u + {d3!r}*s)"
        f" + v*(s + {c1!r}*u*s + {c2!r}*u^2 + {c3!r}*u^3)"
    )
    return f"u; {y}; {z}"


class Sweep:
    """Criterion-03 traffic: parse a seeded normal-form-shaped deformation,
    trace it on the default grid, extrapolate, expand the locus and take
    the trajectory's Frenet data.

    Trees are small and jets sparse, so per-call overhead rather than
    flops bounds the kernel.  ``trace`` and ``trajectory_geometry`` each
    reduce the same germ, so half of the reductions repeat work done
    earlier in the same item.
    """

    name = "sweep"
    trace_items = 40

    def __init__(self, seed, scratch):
        self.rng = np.random.default_rng(seed)

    def next_input(self):
        return normal_form_family(self.rng)

    def run(self, source):
        f = germs.MapGerm.parse(source)
        table, nf, cs = dfm.trace(f)
        return (
            cs,
            dfm.asymptotic_limits(table, cs),
            dfm.locus_expansion(cs, nf),
            dfm.trajectory_geometry(f),
        )

    def check(self, source, out):
        cs, asym, locus, traj = out
        dev = max(abs(asym.limits[k] - asym.theory[k]) for k in asym.theory)
        _require(dev <= 1e-5, f"Richardson limits miss theory by {dev:.3e} > 1e-5")
        dev = abs(traj.kappa0 - traj.kappa0_from_invariants)
        _require(dev <= 1e-9, f"kappa0 misses the invariant form by {dev:.3e} > 1e-9")
        if not traj.recovery_skipped:
            dev = max(abs(traj.recovered_f24 - traj.f24_00), abs(traj.recovered_f34 - traj.f34_00))
            _require(dev <= 1e-6, f"recovered f24/f34 miss by {dev:.3e} > 1e-6")
        dev = abs(locus.alpha_oracle[0] - 1.0 / cs.c20)
        _require(dev <= 1e-9, f"alpha1 misses 1/c20 by {dev:.3e} > 1e-9")


MESH_S = "-0.25"
MESH_N = 20
POINTWISE_POOL = 2
GAUSS_KEYS = {"agreement", "command", "k_count", "mismatch_count", "order", "s_tilde",
              "s_tilde_max_agree", "seed", "theta_count", "u_of_st"}
MESH_KEYS = {"command", "order", "s", "seed", "vertices"}


class Pointwise:
    """Sample-point traffic through the command line, in process: for one
    deformation with f31(0) != 0, ``gauss-probe`` at the default
    ``--s-tilde`` (with the s0 bisection) and ``mesh --k-sign`` on a
    20 x 20 grid at s = -0.25, both with ``--out`` in a temporary directory.

    Every sample point re-evaluates an expression tree as order-2 jets, so
    the kernel sees many tiny products and its per-call cost dominates.
    Inputs cycle through a pool of two germs so that each later run of a
    germ is compared byte for byte with its first run.
    """

    name = "pointwise"
    trace_items = 2

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(POINTWISE_POOL):
            f31_0 = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0))
            self.pool.append(normal_form_family(rng, f31_0))
        self.scratch = Path(scratch)
        self.count = 0
        self.first_bytes = {}

    def next_input(self):
        k = self.count % len(self.pool)
        self.count += 1
        return k, self.pool[k]

    def run(self, inp):
        source = inp[1]
        commands = (
            ["gauss-probe", "--germ", source],
            ["mesh", "--germ", source, "--s", MESH_S, "--k-sign",
             "--nu", str(MESH_N), "--nv", str(MESH_N)],
        )
        results = []
        for argv in commands:
            out = tempfile.mkdtemp(dir=self.scratch)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv + ["--out", out])
            results.append((code, stdout.getvalue(), out))
        return results

    def check(self, inp, out):
        record = []
        try:
            for (code, stdout, outdir), keys in zip(out, (GAUSS_KEYS, MESH_KEYS)):
                _require(code == 0, f"exit code {code}: {stdout.strip()[:200]}")
                try:
                    report = json.loads(stdout)
                except json.JSONDecodeError as exc:
                    raise CheckFailed(f"stdout is not JSON: {exc}") from exc
                _require(set(report) == keys, f"report keys {sorted(report)}")
                files = {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}
                if report["command"] == "mesh":
                    n = MESH_N * MESH_N
                    _require(report["vertices"] == n, f"{report['vertices']} vertices != {n}")
                    lines = files["mesh_ksign.txt"].decode().splitlines()
                    _require(len(lines) == n, f"{len(lines)} K-sign lines != {n}")
                record.append((stdout.encode(), files))
        finally:
            for _, _, outdir in out:
                shutil.rmtree(outdir, ignore_errors=True)
        first = self.first_bytes.setdefault(inp[0], record)
        _require(record == first, "report bytes differ from the first run of this input")


WORKLOADS = {w.name: w for w in (EquivReduce, Sweep, Pointwise)}
