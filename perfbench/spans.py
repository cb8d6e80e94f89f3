"""Spans around the public functions of torusorbits, installed from outside.

Tracer.install() replaces every public function of the traced modules,
and a few hot methods, with a wrapper that records one span: name, parent
span, start and end.  A function is replaced in every torusorbits
namespace that imported it (strata.block_ldu, dynamics.block_ldu,
forms.split_cm, ...), so calls through any of those names are seen.  The
spans stay in memory, in flat arrays, until the run ends; save() writes
them out and layer_metrics() turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children; one process and one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

MODULES = ("numfield", "rootdata", "decomp", "strata", "dynamics", "forms",
           "config", "cli")

# hot methods, as (module, class, method); aliases such as
# FieldElement.__rmul__ = __mul__ are replaced along with the method
METHODS = (
    ("numfield", "FieldElement", "__mul__"),
    ("numfield", "FieldElement", "inverse"),
    ("numfield", "NumberField", "places"),
    ("numfield", "NumberField", "normalized_abs"),
    ("rootdata", "WeylElement", "matrix"),
    ("decomp", "MatrixK", "__mul__"),
    ("decomp", "MatrixK", "inverse"),
)


def direct_scan_bytes(side: int, dim: int, n: int, complex_places: list) -> int:
    """Bytes of the arrays one direct systole scan allocates, computed from
    their shapes and dtypes (dynamics._direct_scan and _value_array); cache
    traffic is not measured.

    Once per scan: the meshgrid of the trailing coordinates and its stacked
    copy.  Per point: the int64 lead column and coordinate row, their
    float64 copy, and per place the (n,) product (complex128 at a complex
    place), its absolute value, the row maximum, the square at a complex
    place, and the running product after the first place."""
    tail = side ** (dim - 1)
    once = 2 * (dim - 1) * tail * 8
    per_point = 8 + dim * 8 + dim * 8
    for v, is_complex in enumerate(complex_places):
        per_point += n * (16 if is_complex else 8) + n * 8 + 8
        per_point += 8 if is_complex else 0
        per_point += 8 if v else 0
    return once + per_point * side * tail


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()
        self._restore = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(args, kwargs, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- installation --

    def install(self) -> None:
        mods = {m: importlib.import_module(f"torusorbits.{m}") for m in MODULES}
        hooks = self._result_hooks()
        replaced = {}
        for modname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                key = f"{modname}.{attr}"
                if key == "dynamics.systole":
                    replaced[obj] = self._systole_wrapper(obj, mods["dynamics"])
                else:
                    replaced[obj] = self.wrap(key, obj, hooks.get(key))
        for modname in [m for m in sys.modules
                        if m == "torusorbits" or m.startswith("torusorbits.")]:
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._set(mod, attr, replaced[obj])
        for modname, clsname, meth in METHODS:
            cls = getattr(mods[modname], clsname)
            orig = cls.__dict__[meth]
            wrapper = self.wrap(f"{modname}.{clsname}.{meth}", orig)
            for attr, obj in list(vars(cls).items()):
                if obj is orig:
                    self._set(cls, attr, wrapper)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _systole_wrapper(self, fn, dynamics):
        """Label each systole step by the path its input takes: the direct
        scan when (2h+1)^(n deg) <= DIRECT_SCAN_CAP, the ellipsoid search
        otherwise."""
        direct = self.wrap("dynamics.systole_direct", fn)
        ellipsoid = self.wrap("dynamics.systole_ellipsoid", fn)
        counts = self.counts

        def systole(inp, torus, height):
            side = 2 * height + 1
            dim = inp.n * inp.field.degree
            if side ** dim > dynamics.DIRECT_SCAN_CAP:
                return ellipsoid(inp, torus, height)
            counts["dynamics.direct_scan_steps"] += 1
            counts["dynamics.direct_scan_points"] += side ** dim - 1
            counts["dynamics.direct_scan_bytes"] += direct_scan_bytes(
                side, dim, inp.n, [not p.is_real for p in inp.field.places()])
            return direct(inp, torus, height)
        systole.__wrapped__ = fn
        return systole

    def _result_hooks(self):
        c = self.counts

        def block_ldu(args, kwargs, out):
            c["decomp.block_ldu_hits"] += out is not None

        def enumerate_strata(args, kwargs, out):
            c["strata.pairs"] += out.pair_count
            c["strata.records"] += len(out.records)

        def closure_poset(args, kwargs, out):
            c["strata.poset_edges"] += len(out)

        def cm_check(args, kwargs, out):
            c["forms.cm_points_checked"] += out.checked
            for p in out.points:
                c[f"forms.cm_{p.branch}_points"] += 1

        def window_scan(args, kwargs, out):
            c["forms.window_candidates"] += out.npoints

        def density_report(args, kwargs, out):
            c["forms.points_used"] += out.points_used
            c["forms.points_in_window"] += out.points_in_window

        return {"decomp.block_ldu": block_ldu,
                "strata.enumerate_strata": enumerate_strata,
                "strata.closure_poset": closure_poset,
                "forms.cm_obstruction_check": cm_check,
                "forms.window_scan": window_scan,
                "forms.density_report": density_report}

    # -- results --

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def aggregate(self):
        """Per span name: calls, self seconds and inclusive seconds."""
        name, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_t, minlength=k)
        incl_s = np.bincount(name, weights=dur, minlength=k)
        out = {}
        for i, nm in enumerate(self.names):
            out[nm] = (int(calls[i]), float(self_s[i]), float(incl_s[i]))
        return out, self_t

    def config_load_seconds(self, self_t) -> float:
        """Self time of config spans made under a config.load_* call."""
        name = self.name
        parent = self.parent
        is_config = [nm.startswith("config.") for nm in self.names]
        is_load = [nm.startswith("config.load_") for nm in self.names]
        inside = bytearray(len(name))
        total = 0.0
        for i in range(len(name)):
            nid = name[i]
            if not is_config[nid]:
                continue
            p = parent[i]
            if is_load[nid] or (p >= 0 and inside[p]):
                inside[i] = 1
                total += float(self_t[i])
        return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# metric name -> unit, in the order they are reported
LAYER_UNITS = {
    "numfield.fe_mul_calls": "count", "numfield.fe_mul_s": "s",
    "numfield.fe_inv_calls": "count", "numfield.fe_inv_s": "s",
    "numfield.split_cm_calls": "count", "numfield.split_cm_s": "s",
    "numfield.fast_norm_calls": "count", "numfield.fast_norm_s": "s",
    "numfield.normalized_abs_calls": "count", "numfield.normalized_abs_s": "s",
    "numfield.places_s": "s", "numfield.unit_closure_classify_s": "s",
    "numfield.self_s": "s",
    "rootdata.weyl_matrix_calls": "count", "rootdata.weyl_matrix_s": "s",
    "rootdata.parabolic_descriptor_s": "s", "rootdata.self_s": "s",
    "decomp.block_ldu_calls": "count", "decomp.block_ldu_s": "s",
    "decomp.block_ldu_hit_ratio": "ratio",
    "decomp.matmul_calls": "count", "decomp.matmul_s": "s",
    "decomp.matinv_calls": "count", "decomp.matinv_s": "s",
    "decomp.cell_membership_s": "s", "decomp.self_s": "s",
    "strata.enumerate_s": "s", "strata.closure_poset_s": "s",
    "strata.closed_strata_s": "s", "strata.genericity_check_s": "s",
    "strata.pairs": "count", "strata.records": "count",
    "strata.merged_pairs": "count", "strata.poset_edges": "count",
    "strata.self_s": "s",
    "dynamics.systole_calls": "count", "dynamics.systole_direct_s": "s",
    "dynamics.systole_ellipsoid_s": "s",
    "dynamics.direct_scan_points": "points/step",
    "dynamics.direct_scan_bytes": "bytes/step",
    "dynamics.evaluate_product_s": "s", "dynamics.check_boundedness_s": "s",
    "dynamics.self_s": "s",
    "forms.scan_values_s": "s", "forms.cm_check_s": "s",
    "forms.cm_point_us": "us", "forms.cm_ray_points": "count",
    "forms.cm_norm_product_points": "count", "forms.window_scan_s": "s",
    "forms.window_candidates": "count", "forms.window_useful_ratio": "ratio",
    "forms.density_report_s": "s", "forms.norm_product_spectrum_s": "s",
    "forms.self_s": "s",
    "config.load_s": "s", "config.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.
    Times are self times; a layer the workload does not reach reads 0.
    trace.overhead_ratio needs an untraced run too and is left out."""
    agg, self_t = tracer.aggregate()
    cnt = tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names):
        return sum(agg.get(nm, (0, 0.0, 0.0))[1] for nm in names)

    def module_self(mod):
        return sum(v[1] for nm, v in agg.items() if nm.startswith(mod + "."))

    fe_mul = "numfield.FieldElement.__mul__"
    fe_inv = "numfield.FieldElement.inverse"
    norm_abs = "numfield.NumberField.normalized_abs"
    direct = "dynamics.systole_direct"
    ellipsoid = "dynamics.systole_ellipsoid"
    cm = "forms.cm_obstruction_check"
    v = {
        "numfield.fe_mul_calls": calls(fe_mul),
        "numfield.fe_mul_s": self_s(fe_mul),
        "numfield.fe_inv_calls": calls(fe_inv),
        "numfield.fe_inv_s": self_s(fe_inv),
        "numfield.split_cm_calls": calls("numfield.split_cm"),
        "numfield.split_cm_s": self_s("numfield.split_cm"),
        "numfield.fast_norm_calls": calls("numfield.fast_norm"),
        "numfield.fast_norm_s": self_s("numfield.fast_norm"),
        "numfield.normalized_abs_calls": calls(norm_abs),
        "numfield.normalized_abs_s": self_s(norm_abs),
        "numfield.places_s": self_s("numfield.NumberField.places"),
        "numfield.unit_closure_classify_s":
            self_s("numfield.unit_closure_classify"),
        "numfield.self_s": module_self("numfield"),
        "rootdata.weyl_matrix_calls": calls("rootdata.WeylElement.matrix"),
        "rootdata.weyl_matrix_s": self_s("rootdata.WeylElement.matrix"),
        "rootdata.parabolic_descriptor_s":
            self_s("rootdata.parabolic_descriptor"),
        "rootdata.self_s": module_self("rootdata"),
        "decomp.block_ldu_calls": calls("decomp.block_ldu"),
        "decomp.block_ldu_s": self_s("decomp.block_ldu"),
        "decomp.block_ldu_hit_ratio":
            _ratio(cnt["decomp.block_ldu_hits"], calls("decomp.block_ldu")),
        "decomp.matmul_calls": calls("decomp.MatrixK.__mul__"),
        "decomp.matmul_s": self_s("decomp.MatrixK.__mul__"),
        "decomp.matinv_calls": calls("decomp.MatrixK.inverse"),
        "decomp.matinv_s": self_s("decomp.MatrixK.inverse"),
        "decomp.cell_membership_s": self_s("decomp.cell_membership"),
        "decomp.self_s": module_self("decomp"),
        "strata.enumerate_s": self_s("strata.enumerate_strata"),
        "strata.closure_poset_s": self_s("strata.closure_poset"),
        "strata.closed_strata_s": self_s("strata.closed_strata"),
        "strata.genericity_check_s": self_s("strata.genericity_check"),
        "strata.pairs": cnt["strata.pairs"],
        "strata.records": cnt["strata.records"],
        "strata.merged_pairs": cnt["strata.pairs"] - cnt["strata.records"],
        "strata.poset_edges": cnt["strata.poset_edges"],
        "strata.self_s": module_self("strata"),
        "dynamics.systole_calls": calls(direct) + calls(ellipsoid),
        "dynamics.systole_direct_s": self_s(direct),
        "dynamics.systole_ellipsoid_s": self_s(ellipsoid),
        "dynamics.direct_scan_points": _ratio(
            cnt["dynamics.direct_scan_points"], cnt["dynamics.direct_scan_steps"]),
        "dynamics.direct_scan_bytes": _ratio(
            cnt["dynamics.direct_scan_bytes"], cnt["dynamics.direct_scan_steps"]),
        "dynamics.evaluate_product_s": self_s("dynamics.evaluate_product"),
        "dynamics.check_boundedness_s": self_s("dynamics.check_boundedness"),
        "dynamics.self_s": module_self("dynamics"),
        "forms.scan_values_s": self_s("forms.scan_values"),
        "forms.cm_check_s": self_s(cm),
        "forms.cm_point_us": 1e6 * _ratio(agg.get(cm, (0, 0.0, 0.0))[2],
                                          cnt["forms.cm_points_checked"]),
        "forms.cm_ray_points": cnt["forms.cm_ray_points"],
        "forms.cm_norm_product_points": cnt["forms.cm_norm-product_points"],
        "forms.window_scan_s": self_s("forms.window_scan"),
        "forms.window_candidates": cnt["forms.window_candidates"],
        "forms.window_useful_ratio": _ratio(cnt["forms.points_in_window"],
                                            cnt["forms.points_used"]),
        "forms.density_report_s": self_s("forms.density_report"),
        "forms.norm_product_spectrum_s": self_s("forms.norm_product_spectrum"),
        "forms.self_s": module_self("forms"),
        "config.load_s": tracer.config_load_seconds(self_t),
        "config.self_s": module_self("config"),
        "cli.self_s": module_self("cli"),
    }
    return {name: (v[name], unit) for name, unit in LAYER_UNITS.items()
            if name in v}
