#!/usr/bin/env python3
"""Layered benchmark for crosscap.

Usage (from the repository root):

    python3 perfbench/run.py --workload {equiv-reduce,sweep,pointwise} \\
        --seed N --seconds S --trace {0,1}

Drives the library in this process, single-threaded, as a closed loop with
one caller: each item starts when the previous one returns.  Inputs come
from the seed and are made outside the timed region; every output is
checked.  Human-readable lines go first; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs items for ``--seconds`` seconds with tracing off and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs a
fixed number of items (so counts repeat exactly) once untraced and once
with every public entry point wrapped, and reports the per-layer metrics
of BENCHMARK.json plus the tracing overhead; spans are written to
``.perfbench/``.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# one thread: keep the BLAS behind numpy from starting a worker pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_RUNS = 9
# The first call made after import when measuring set-up: a small command
# that touches every layer but deformation and writes no file.
WARMUP_ARGV = ["analyze", "--germ", "u; v^2; v*(u^2 + v^2) + s*v", "--point", "0,0", "--s", "0"]
SETUP_SNIPPET = f"""
import contextlib, io, time
t0 = time.perf_counter()
import crosscap
from crosscap import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({WARMUP_ARGV!r})
elapsed = time.perf_counter() - t0
assert code == 0, code
print(repr(elapsed))
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description="Layered benchmark for crosscap.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared = _declared_metrics()
    crosscap = _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = _environment(crosscap, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    WORKDIR.mkdir(exist_ok=True)
    scratch = WORKDIR / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        _warm_up()
        if args.trace:
            result = _traced_run(workload, args, env)
        else:
            result = _timed_run(workload, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    names = set(result["metrics"])
    expected = declared["per_layer" if args.trace else "end_to_end"]
    if names != set(expected):
        sys.exit(f"metric names do not match BENCHMARK.json: {sorted(names ^ set(expected))}")
    for name, unit in expected.items():
        value = result["metrics"][name]
        result["metrics"][name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value!r} {unit}")
    print(json.dumps(result, sort_keys=True))


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}


def _import_library():
    if not (SRC / "crosscap" / "__init__.py").is_file():
        sys.stderr.write(f"crosscap sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crosscap

    if SRC not in Path(crosscap.__file__).resolve().parents:
        sys.stderr.write(f"imported crosscap from {crosscap.__file__}, not from {SRC}\n")
        sys.exit(2)
    return crosscap


def _environment(crosscap, seed):
    import numpy
    from crosscap import jets

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "crosscap": crosscap.__version__,
        "kernel_backend": jets.KERNEL_BACKEND,
        "commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _warm_up():
    import contextlib
    import io

    from crosscap import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(WARMUP_ARGV)


def _run_item(workload, inp, failures):
    """Run and check one item; returns its latency in seconds."""
    t0 = time.perf_counter()
    try:
        out = workload.run(inp)
        elapsed = time.perf_counter() - t0
        workload.check(inp, out)
    except Exception as exc:  # every failed item is counted, by error class
        elapsed = time.perf_counter() - t0
        failures[type(exc).__name__] += 1
        if sum(failures.values()) == 1:
            print(f"first failure: {type(exc).__name__}: {exc}")
    return elapsed


def _timed_run(workload, args):
    # Set-up samples are spread over the run, each in a fresh interpreter
    # between two items, so they do not all fall in one phase of a
    # machine whose speed drifts; the loop's deadline skips their time.
    setup = []
    failures = Counter()
    latencies = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        now = time.perf_counter()
        if len(setup) < SETUP_RUNS and now >= start + len(setup) * args.seconds / SETUP_RUNS:
            setup.append(_setup_sample())
            deadline += time.perf_counter() - now
            continue
        if now >= deadline:
            break
        inp = workload.next_input()
        latencies.append(_run_item(workload, inp, failures))
    while len(setup) < SETUP_RUNS:
        setup.append(_setup_sample())
    attempted = len(latencies)
    failed = sum(failures.values())
    tail_value, tail_pct, beyond = _tail(latencies)
    print(f"workload {workload.name}: closed loop, 1 caller, {attempted} items in "
          f"{sum(latencies):.3f} s of item time")
    print(f"item_ms_tail is p{tail_pct:.1f} of {attempted} samples ({beyond} beyond it)")
    print(f"fail_frac {failed / attempted!r} (failed {failed} of {attempted}) {dict(failures)}")
    print(f"setup_s samples {setup}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "items_per_s": (attempted - failed) / sum(latencies),
            "item_ms_p50": 1e3 * statistics.median(latencies),
            "item_ms_tail": 1e3 * tail_value,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def _tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With ten samples or fewer no
    such percentile exists and the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _setup_sample():
    """Seconds to import crosscap and make the warm-up call in a fresh
    interpreter (interpreter start-up itself is not counted)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _traced_run(workload, args, env):
    from tracer import Tracer

    inputs = [workload.next_input() for _ in range(workload.trace_items)]
    failures = Counter()
    untraced = sum(_run_item(workload, inp, failures) for inp in inputs)

    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for item_id, inp in enumerate(inputs):
            tracer.start_item(item_id)
            traced += _run_item(workload, inp, failures)
    finally:
        tracer.uninstall()
    if tracer.missing:
        print(f"not traced (absent from the library): {tracer.missing}")

    spans_path = WORKDIR / f"spans-{workload.name}.npz"
    tracer.save(spans_path, env)
    attempted = 2 * len(inputs)
    failed = sum(failures.values())
    print(f"workload {workload.name}: {len(inputs)} items untraced ({untraced:.3f} s) then "
          f"traced ({traced:.3f} s); {len(tracer.start)} spans written to {spans_path}")
    print(f"fail_frac {failed / attempted!r} (failed {failed} of {attempted}) {dict(failures)}")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    metrics = layer_metrics(tracer.summary(), tracer.counters)
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(spans, counters):
    """Per-layer metrics from span totals (see tracer.Tracer.summary)."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def incl(name):
        return spans.get(name, {}).get("s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer)

    kernel_calls = calls("kernel.mul_trunc")
    flops = counters["kernel.flops_computed"]
    reduces = calls("normal_form.reduce")
    return {
        "kernel.calls": kernel_calls,
        "kernel.self_s": own("kernel.mul_trunc"),
        "kernel.us_per_call": 1e6 * own("kernel.mul_trunc") / kernel_calls if kernel_calls else 0.0,
        "kernel.flops_computed": flops,
        "kernel.bytes_computed": counters["kernel.bytes_computed"],
        "kernel.useful_frac": counters["kernel.flops_useful"] / flops if flops else 0.0,
        "jets.mul.calls": calls("jets.mul"),
        "jets.compose.calls": calls("jets.compose"),
        "jets.compose.s": incl("jets.compose"),
        "jets.compose.self_s": own("jets.compose"),
        "jets.invert_coordinate.s": incl("jets.invert_coordinate"),
        "jets.implicit_solve.s": incl("jets.implicit_solve"),
        "jets.branch_solve.s": incl("jets.branch_solve"),
        "jets.recip_sqrt.calls": calls("jets.recip_sqrt"),
        "jets.eval.calls": calls("jets.eval"),
        "jets.eval.s": incl("jets.eval"),
        "jets.self_s": layer_self("jets"),
        "germs.parse.s": incl("germs.parse"),
        "germs.jet_at.calls": calls("germs.jet_at"),
        "germs.jet_at.s": incl("germs.jet_at"),
        "germs.eval_jet.nodes": counters["germs.eval_jet.nodes"],
        "germs.admissibility.s": incl("germs.admissibility"),
        "germs.jacobian_uv.calls": calls("germs.jacobian_uv"),
        "germs.germ_from_jets.s": incl("germs.germ_from_jets"),
        "germs.evaluate.calls": calls("germs.evaluate"),
        "germs.self_s": layer_self("germs"),
        "normal_form.reduce.calls": reduces,
        "normal_form.reduce.s": incl("normal_form.reduce"),
        "normal_form.reduce.self_s": own("normal_form.reduce"),
        "normal_form.reduce.repeat_frac":
            counters["normal_form.reduce.repeats"] / reduces if reduces else 0.0,
        "normal_form.normalize_parameter.s": incl("normal_form.normalize_parameter"),
        "normal_form.scalar_coefficients.s": incl("normal_form.scalar_coefficients"),
        "invariants.form_bundle.calls": calls("invariants.form_bundle"),
        "invariants.form_bundle.s": incl("invariants.form_bundle"),
        "invariants.frame.calls": calls("invariants.frame"),
        "invariants.frame.s": incl("invariants.frame"),
        "invariants.focal_conic.s": incl("invariants.focal_conic"),
        "invariants.self_s": layer_self("invariants"),
        "deformation.trace.s": incl("deformation.trace"),
        "deformation.trace.points": counters["deformation.trace.points"],
        "deformation.trajectory_geometry.s": incl("deformation.trajectory_geometry"),
        "deformation.locus_expansion.s": incl("deformation.locus_expansion"),
        "deformation.gauss_sign_probe.s": incl("deformation.gauss_sign_probe"),
        "deformation.probe.samples": counters["deformation.probe.samples"],
        "deformation.self_s": layer_self("deformation"),
        "reports.to_json.s": incl("reports.to_json"),
        "reports.mesh_obj.s": incl("reports.mesh_obj"),
        "reports.mesh_k_signs.s": incl("reports.mesh_k_signs"),
        "reports.bytes_out": counters["reports.bytes_out"],
        "cli.gauss_probe.s": incl("cli.gauss_probe"),
        "cli.mesh.s": incl("cli.mesh"),
        "cli.self_s": layer_self("cli"),
    }


if __name__ == "__main__":
    main()
