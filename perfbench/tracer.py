"""Span tracer that wraps crosscap's public entry points from outside.

Every wrapped function is rebound at each name where a caller looks it
up: the attribute of every ``crosscap.*`` module that holds the function
(so ``from .x import y`` copies are covered), the values of module-level
dicts such as ``cli._COMMANDS``, methods on the library's classes, and
the kernel function on the module ``jets`` calls it through.  Nothing in the library is edited and ``uninstall``
restores every binding.

A span records (name, start, end, parent span, item id).  ``start`` and
``end`` bracket the wrapped call only; the wrapper's own bookkeeping is
stored as the span's ``cover`` (the whole wrapper interval), so a parent's
self time, its duration minus the cover of its children, excludes the
tracer's cost.  ``germs.eval_jet`` runs once per expression node and is
only counted; its small wrapper cost stays in ``jet_at``.  Spans live in flat arrays and are written to an ``.npz``
file when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, span name).  An attribute "owner.name" is replaced on
# the owner (a class, or the kernel module that ``jets`` calls through);
# a plain attribute is rebound in every crosscap module that holds it.
TARGETS = (
    ("crosscap.jets", "_backend.mul_trunc", "kernel.mul_trunc"),
    ("crosscap.jets", "Jet.__mul__", "jets.mul"),
    ("crosscap.jets", "Jet.__rmul__", "jets.rmul"),
    ("crosscap.jets", "Jet.__add__", "jets.add"),
    ("crosscap.jets", "Jet.__radd__", "jets.add"),
    ("crosscap.jets", "Jet.__sub__", "jets.sub"),
    ("crosscap.jets", "Jet.__rsub__", "jets.sub"),
    ("crosscap.jets", "Jet.__neg__", "jets.neg"),
    ("crosscap.jets", "Jet.zeros", "jets.zeros"),
    ("crosscap.jets", "Jet.constant", "jets.constant"),
    ("crosscap.jets", "Jet.variable", "jets.variable"),
    ("crosscap.jets", "Jet.coordinates", "jets.coordinates"),
    ("crosscap.jets", "Jet.copy", "jets.copy"),
    ("crosscap.jets", "Jet.coeff", "jets.coeff"),
    ("crosscap.jets", "Jet.deriv0", "jets.deriv0"),
    ("crosscap.jets", "Jet.max_abs", "jets.max_abs"),
    ("crosscap.jets", "Jet.partial", "jets.partial"),
    ("crosscap.jets", "Jet.compose", "jets.compose"),
    ("crosscap.jets", "Jet.eval", "jets.eval"),
    ("crosscap.jets", "Jet.subs", "jets.subs"),
    ("crosscap.jets", "Jet.restrict", "jets.restrict"),
    ("crosscap.jets", "Jet.embed", "jets.embed"),
    ("crosscap.jets", "Jet.divide_monomial", "jets.divide_monomial"),
    ("crosscap.jets", "jet_recip", "jets.recip_sqrt"),
    ("crosscap.jets", "jet_sqrt", "jets.recip_sqrt"),
    ("crosscap.jets", "implicit_solve", "jets.implicit_solve"),
    ("crosscap.jets", "invert_coordinate", "jets.invert_coordinate"),
    ("crosscap.jets", "map_invert", "jets.map_invert"),
    ("crosscap.jets", "invert_series", "jets.invert_series"),
    ("crosscap.jets", "branch_solve", "jets.branch_solve"),
    ("crosscap.germs", "MapGerm.parse", "germs.parse"),
    ("crosscap.germs", "MapGerm.jet_at", "germs.jet_at"),
    ("crosscap.germs", "MapGerm.evaluate", "germs.evaluate"),
    ("crosscap.germs", "MapGerm.at_parameter", "germs.at_parameter"),
    ("crosscap.germs", "admissibility_check", "germs.admissibility"),
    ("crosscap.germs", "jacobian_uv", "germs.jacobian_uv"),
    ("crosscap.germs", "rank_at", "germs.rank_at"),
    ("crosscap.germs", "null_vector", "germs.null_vector"),
    ("crosscap.germs", "germ_from_jets", "germs.germ_from_jets"),
    ("crosscap.normal_form", "reduce", "normal_form.reduce"),
    ("crosscap.normal_form", "normalize_parameter", "normal_form.normalize_parameter"),
    ("crosscap.normal_form", "scalar_coefficients", "normal_form.scalar_coefficients"),
    ("crosscap.normal_form", "classify", "normal_form.classify"),
    ("crosscap.normal_form", "monomial_coefficients", "normal_form.monomial_coefficients"),
    ("crosscap.normal_form", "NormalFormData.components", "normal_form.components"),
    ("crosscap.invariants", "form_bundle", "invariants.form_bundle"),
    ("crosscap.invariants", "frame_at", "invariants.frame"),
    ("crosscap.invariants", "frame_from_vectors", "invariants.frame"),
    ("crosscap.invariants", "focal_conic", "invariants.focal_conic"),
    ("crosscap.invariants", "focal_conic_from_frame", "invariants.focal_conic"),
    ("crosscap.invariants", "invariants_from_frame", "invariants.invariants_from_frame"),
    ("crosscap.invariants", "crosscheck_conic_kind", "invariants.crosscheck_conic_kind"),
    ("crosscap.invariants", "umbrella_invariants", "invariants.umbrella_invariants"),
    ("crosscap.invariants", "curvature_parabola", "invariants.curvature_parabola"),
    ("crosscap.invariants", "whitney_test", "invariants.whitney_test"),
    ("crosscap.deformation", "trace", "deformation.trace"),
    ("crosscap.deformation", "asymptotic_limits", "deformation.asymptotic_limits"),
    ("crosscap.deformation", "locus_expansion", "deformation.locus_expansion"),
    ("crosscap.deformation", "trajectory_geometry", "deformation.trajectory_geometry"),
    ("crosscap.deformation", "gauss_sign_probe", "deformation.gauss_sign_probe"),
    ("crosscap.deformation", "singular_locus", "deformation.singular_locus"),
    ("crosscap.reports", "to_json", "reports.to_json"),
    ("crosscap.reports", "mesh_obj", "reports.mesh_obj"),
    ("crosscap.reports", "mesh_k_signs", "reports.mesh_k_signs"),
    ("crosscap.reports", "trace_csv", "reports.trace_csv"),
    ("crosscap.reports", "conic_svg", "reports.conic_svg"),
    ("crosscap.cli", "main", "cli.main"),
    ("crosscap.cli", "cmd_analyze", "cli.analyze"),
    ("crosscap.cli", "cmd_normal_form", "cli.normal_form"),
    ("crosscap.cli", "cmd_trace", "cli.trace"),
    ("crosscap.cli", "cmd_focal", "cli.focal"),
    ("crosscap.cli", "cmd_gauss_probe", "cli.gauss_probe"),
    ("crosscap.cli", "cmd_mesh", "cli.mesh"),
)

# Called once per expression-tree node (its recursion goes through the
# module global), so it is counted rather than recorded as a span.
NODE_COUNTER = ("crosscap.germs", "eval_jet", "germs.eval_jet.nodes")

REPORT_EMITTERS = ("reports.to_json", "reports.mesh_obj", "reports.mesh_k_signs",
                   "reports.trace_csv", "reports.conic_svg")


@functools.lru_cache(maxsize=None)
def _dense_block_tables(shape, order):
    """Per left-operand cell (i, j, k) of the dense truncated product: the
    size of the block of ``b`` swept into ``out[i:, j:, k:]`` and how many
    of those cells land on output degree <= order."""
    n0, n1, n2 = shape
    i, j, k = np.indices(shape)
    deg = i + j + k
    block = (n0 - i) * (n1 - j) * (n2 - k)
    useful = np.zeros(shape, dtype=np.int64)
    for idx in zip(*np.nonzero(deg <= order)):
        sub = deg[: n0 - idx[0], : n1 - idx[1], : n2 - idx[2]]
        useful[idx] = np.count_nonzero(sub <= order - deg[idx])
    return deg <= order, block, useful


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._open = []  # open spans per name id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.nested = array("b")  # an enclosing span has the same name
        self.stack = []
        self.counters = Counter()
        self.current_item = -1
        self._seen_reduce = set()
        self._restore = []
        self.missing = []

    # -- installation ---------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "crosscap" or n.startswith("crosscap."))]
        hooks = {
            "kernel.mul_trunc": self._kernel_hook,
            "normal_form.reduce": self._reduce_hook,
            "invariants.form_bundle": self._form_bundle_hook,
            "deformation.trace": self._trace_hook,
        }
        for name in REPORT_EMITTERS:
            hooks[name] = self._bytes_out_hook
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, method = attr.rpartition(".")
            if owner:
                self._wrap_method(module, owner, method, span, hooks.get(span))
            elif hasattr(module, attr):
                fn = getattr(module, attr)
                self._rebind(modules, fn, self._wrap(fn, span, hooks.get(span)))
            else:
                self.missing.append(f"{module_name}.{attr}")
        module_name, attr, counter = NODE_COUNTER
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
        else:
            self._rebind(modules, fn, self._count(fn, counter))

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()

    def _wrap_method(self, module, owner, method, span, hook):
        cls = getattr(module, owner, None)  # a class or a module
        raw = None if cls is None else cls.__dict__.get(method)
        if raw is None:
            self.missing.append(f"{module.__name__}.{owner}.{method}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, span, hook))
        else:
            wrapped = self._wrap(raw, span, hook)
        setattr(cls, method, wrapped)
        self._restore.append(lambda: setattr(cls, method, raw))

    def _rebind(self, modules, fn, wrapper):
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is fn:
                    setattr(module, key, wrapper)
                    self._restore.append(functools.partial(setattr, module, key, fn))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            value[dkey] = wrapper
                            self._restore.append(
                                functools.partial(value.__setitem__, dkey, fn))

    def _span_id(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return sid

    def _wrap(self, fn, name, hook=None):
        sid = self._span_id(name)
        tr = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            idx = len(tr.start)
            tr.name.append(sid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.item.append(tr.current_item)
            nested = tr._open[sid] > 0
            tr.nested.append(nested)
            tr.start.append(0.0)
            tr.end.append(0.0)
            tr.cover.append(0.0)
            tr.stack.append(idx)
            tr._open[sid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tr.stack.pop()
                tr._open[sid] -= 1
                tr.start[idx] = t0
                tr.end[idx] = t1
                tr.cover[idx] = t1 - enter
            if hook is not None:
                hook(args, kwargs, result, nested)
            tr.cover[idx] = clock() - enter
            return result

        return functools.update_wrapper(wrapper, fn)

    def _count(self, fn, counter):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- hooks (run outside the span's [start, end]) ---------------------

    def start_item(self, item_id):
        self.current_item = item_id
        self._seen_reduce.clear()

    def _kernel_hook(self, args, kwargs, result, nested):
        a, order = args[0], args[3]
        live, block, useful = _dense_block_tables(a.shape, int(order))
        swept = (a != 0.0) & live
        cells = int(block[swept].sum())
        self.counters["kernel.flops_computed"] += 2 * cells
        self.counters["kernel.flops_useful"] += 2 * int(useful[swept].sum())
        # read a once; per block read b and read-modify-write out
        self.counters["kernel.bytes_computed"] += 8 * (a.size + 3 * cells)

    def _reduce_hook(self, args, kwargs, result, nested):
        germ = args[0]
        order = args[1] if len(args) > 1 else kwargs.get("order", 8)
        key = (hash(germ), order)
        if key in self._seen_reduce:
            self.counters["normal_form.reduce.repeats"] += 1
        self._seen_reduce.add(key)

    def _form_bundle_hook(self, args, kwargs, result, nested):
        probe = self._ids.get("deformation.gauss_sign_probe")
        if probe is not None and self._open[probe] > 0:
            self.counters["deformation.probe.samples"] += 1

    def _trace_hook(self, args, kwargs, result, nested):
        self.counters["deformation.trace.points"] += len(result[0].rows)

    def _bytes_out_hook(self, args, kwargs, result, nested):
        if nested:
            return
        text = result[0] if isinstance(result, tuple) else result
        self.counters["reports.bytes_out"] += len(text.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "cover": np.frombuffer(self.cover, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "item": np.frombuffer(self.item, dtype=np.int32).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
        }

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts outermost spans of a name only (recursion is
        not added twice) and leaves out the bookkeeping of every wrapper
        below the span; self time is the duration minus the cover of the
        direct children.
        """
        cols = self.arrays()
        n = len(self.names)
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_cover = np.zeros_like(dur)
        np.add.at(child_cover, parent[has_parent], cols["cover"][has_parent])
        # children are recorded after their parent, so one backward pass
        # sums each span's descendant bookkeeping
        below = [0.0] * len(dur)
        wrapper = (cols["cover"] - dur).tolist()
        for i, p in zip(range(len(dur) - 1, -1, -1), parent[::-1].tolist()):
            if p >= 0:
                below[p] += wrapper[i] + below[i]
        incl = np.where(cols["nested"], 0.0, dur - np.array(below))
        ids = cols["name"]
        calls = np.bincount(ids, minlength=n)
        incl_s = np.bincount(ids, weights=incl, minlength=n)
        self_s = np.bincount(ids, weights=dur - child_cover, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl_s[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path, meta):
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), meta=np.array(repr(meta)), **cols)
