"""Command line driver.

One process, batch in, deterministic machine-readable out: JSON (records),
DOT (closure posets), CSV (scans, traces), or a one-line summary.  Exit
codes: 0 success, 2 validation/configuration error, 3 invariant violation.
Every structured output embeds the field label, the order used (Z[theta]),
the working precision, and the package version, so results are auditable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from . import config as cfg
from . import decomp as dc
from . import dynamics as dy
from . import forms as fm
from . import numfield as nf
from . import rootdata as rd
from . import strata as st
from .errors import InvariantViolation, TorusOrbitsError, ValidationError


def _env_default(name, fallback=None):
    return os.environ.get(f"TORUSORBITS_{name.upper()}", fallback)


def _meta(field, precision=nf.DEFAULT_PRECISION):
    """The meta block; precision is the working precision the command
    actually used, which only units classify takes from --precision."""
    return {
        "field": field.label if field else None,
        "order": "Z[theta]",
        "precision_bits": precision,
        "version": __version__,
    }


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_field(args):
    if not args.field:
        raise ValidationError("--field is required")
    return cfg.load_field(args.field)


def _load_matrix(field, spec, n):
    if spec == "id":
        if not n:
            raise ValidationError("--n is required with the id shorthand")
        return dc.MatrixK.identity(field, n)
    return cfg.load_matrix(field, spec)


def _subset(field_n, spec):
    if spec in (None, "", "empty"):
        return rd.RootSubset.empty(field_n)
    if spec == "full":
        return rd.RootSubset.full(field_n)
    idx = [int(t) for t in spec.split(",") if t]
    return rd.RootSubset.make(field_n, idx)


# -- strata ------------------------------------------------------------------


def cmd_strata(args):
    field = _load_field(args)
    g1 = _load_matrix(field, args.g1, args.n)
    g2 = _load_matrix(field, args.g2, args.n)
    sset = st.enumerate_strata(g1, g2)
    edges = st.closure_poset(sset)
    counts = st.verify_counts(sset)
    st.closed_strata(sset)  # raises MinimalNotBorel on a broken poset
    if args.format == "summary":
        _emit_text(st.summary_line(sset) + "\n", args.out)
        return 0
    if args.format == "dot":
        _emit_text(_poset_dot(sset, edges), args.out)
        return 0
    payload = {
        "meta": _meta(field),
        "summary": st.summary_line(sset),
        "counts": {
            "strata": counts.strata, "closed": counts.closed,
            "pairs": counts.pair_count, "bound": counts.strata_bound,
            "closed_bound": counts.closed_bound,
        },
        "records": [_record_json(i, rec) for i, rec in enumerate(sset.records)],
        "poset_edges": [list(e) for e in edges],
    }
    _emit(payload, args.out)
    return 0


def _record_json(i, rec):
    return {
        "index": i,
        "is_closed": rec.is_closed,
        "levi_rank_marker": rec.levi_rank_marker,
        "pairs": [{
            "subset": sorted(p.subset.simples),
            "w1": str(p.witnesses[0]),
            "w2": str(p.witnesses[1]),
            "first_positions": [list(x) for x in p.first.sorted_positions()],
            "second_positions": [list(x) for x in p.second.sorted_positions()],
        } for p in rec.pairs],
        "representative": [
            [cfg.elem_to_list(x) for x in row]
            for comp in rec.representative for row in comp.rows
        ],
    }


def _poset_dot(sset, edges):
    lines = ["digraph closure {"]
    for i, rec in enumerate(sset.records):
        p = rec.pair
        label = (f"S{sorted(p.subset.simples)}/w1={p.witnesses[0]}"
                 f"/w2={p.witnesses[1]}")
        shape = "doublecircle" if rec.is_closed else "ellipse"
        lines.append(f'  n{i} [label="{label}", shape={shape}];')
    for a, b in edges:
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_closed(args):
    field = _load_field(args)
    if args.g:
        if args.g1 or args.g2:
            raise ValidationError("pass either --g components or --g1/--g2")
        comps = tuple(_load_matrix(field, spec, args.n) for spec in args.g)
        inp = st.OrbitInput(comps)
        payload = {
            "meta": _meta(field),
            "components": len(comps),
            "is_orbit_closed": st.is_orbit_closed(inp),
        }
        if len(comps) == 2:
            sset = st.enumerate_strata(*comps)
            payload["closed_count"] = len(st.closed_strata(sset))
        _emit(payload, args.out)
        return 0
    if not (args.g1 and args.g2):
        raise ValidationError("need --g1 and --g2, or repeated --g")
    g1 = _load_matrix(field, args.g1, args.n)
    g2 = _load_matrix(field, args.g2, args.n)
    sset = st.enumerate_strata(g1, g2)
    closed = st.closed_strata(sset)
    payload = {
        "meta": _meta(field),
        "is_orbit_closed": st.is_orbit_closed(sset.input),
        "closed_count": len(closed),
        "records": [_record_json(i, rec) for i, rec in enumerate(sset.records)
                    if rec.is_closed],
    }
    _emit(payload, args.out)
    return 0


# -- units / cm ---------------------------------------------------------------


def cmd_units_classify(args):
    field = _load_field(args)
    rep = nf.unit_closure_classify(field, args.place,
                                   precision_bits=args.precision)
    if args.format == "summary":
        _emit_text(rep.classification + "\n", args.out)
        return 0
    payload = {
        "meta": _meta(field, args.precision),
        "target_place": rep.target_place,
        "classification": rep.classification,
        "log_vectors": rep.log_vectors,
        "relations": [list(r) for r in rep.relations],
        "gap_statistic": rep.gap_statistic,
        "notes": rep.notes,
    }
    _emit(payload, args.out)
    return 0


def cmd_cm_check(args):
    field = _load_field(args)
    form = cfg.load_form(field, args.form)
    scan = fm.scan_values(form, args.height, sample=args.sample,
                          seed=args.seed)
    rep = fm.cm_obstruction_check(form, scan, index_l=args.index_l)
    payload = {
        "meta": _meta(field),
        "constant": cfg.rat_to_str(rep.constant),
        "index_l": rep.index_l,
        "checked": rep.checked,
        "violations": [[i, msg] for i, msg in rep.violations],
        "branches": {
            "norm_product": sum(1 for p in rep.points if p.branch == "norm-product"),
            "ray": sum(1 for p in rep.points if p.branch == "ray"),
        },
    }
    _emit(payload, args.out)
    return 0


# -- forms ---------------------------------------------------------------------


def cmd_forms_scan(args):
    field = _load_field(args)
    form = cfg.load_form(field, args.form)
    scan = fm.scan_values(form, args.height, sample=args.sample, seed=args.seed)
    if args.format == "csv":
        lines = ["point;degenerate;" + ";".join(f"value_place{v}"
                                                for v in range(form.r))]
        cap = min(scan.npoints, args.limit or scan.npoints)
        for i in range(cap):
            vals = scan.exact_values(i)
            cells = [",".join(cfg.elem_to_list(val)) for val in vals]
            pt = ",".join(str(int(x)) for x in scan.points[i])
            lines.append(f"{pt};{int(bool(scan.degenerate[i]))};" + ";".join(cells))
        _emit_text("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "meta": _meta(field),
        "height": scan.height,
        "mode": scan.mode,
        "points": scan.npoints,
        "degenerate": int(scan.degenerate.sum()),
    }
    _emit(payload, args.out)
    return 0


def cmd_forms_density(args):
    field = _load_field(args)
    form = cfg.load_form(field, args.form)
    scan = fm.scan_values(form, args.height, sample=args.sample, seed=args.seed)
    window = None
    if args.window:
        lo, hi = (float(t) for t in args.window.split(","))
        window = tuple((lo, hi) for _ in range(form.r))
    rep = fm.density_report(scan, window=window, eps=args.eps)
    payload = {
        "meta": _meta(field),
        "height": rep.height, "eps": rep.eps, "window": list(rep.window),
        "cells_total": rep.cells_total, "cells_hit": rep.cells_hit,
        "coverage": rep.coverage, "points_used": rep.points_used,
        "points_in_window": rep.points_in_window, "mode": rep.mode,
    }
    _emit(payload, args.out)
    return 0


def cmd_forms_spectrum(args):
    field = _load_field(args)
    form = cfg.load_form(field, args.form)
    scan = fm.scan_values(form, args.height, sample=args.sample, seed=args.seed)
    rep = fm.two_place_spectrum(scan, clip=args.clip)
    payload = {
        "meta": _meta(field),
        "height": rep.height, "clip": rep.clip,
        "rational_form": rep.rational_form,
        "constant": cfg.rat_to_str(rep.constant) if rep.constant is not None else None,
        "values": [cfg.rat_to_str(v) if isinstance(v, Fraction) else v
                   for v in rep.values[:args.limit or None]],
        "min_value": rep.min_value, "min_gap": rep.min_gap,
        "count": rep.count_nonzero, "note": rep.note,
    }
    _emit(payload, args.out)
    return 0


def cmd_forms_to_group(args):
    field = _load_field(args)
    form = cfg.load_form(field, args.form)
    alphas, inp = fm.form_to_group(form)
    payload = {
        "meta": _meta(field),
        "alphas": [cfg.elem_to_list(a) for a in alphas],
        "components": [cfg.matrix_to_dict(c) for c in inp.components],
    }
    _emit(payload, args.out)
    return 0


def cmd_forms_reduce(args):
    field = _load_field(args)
    form = cfg.load_form(field, args.form)
    reduced, phi = fm.reduce_variables(form, seed=args.seed)
    payload = {
        "meta": _meta(field),
        "n": reduced.n, "m": reduced.m,
        "substitution": [[cfg.elem_to_list(x) for x in row] for row in phi],
        "factors": [[[cfg.elem_to_list(c) for c in fac] for fac in place]
                    for place in reduced.factors],
    }
    _emit(payload, args.out)
    return 0


# -- dynamics -------------------------------------------------------------------


def cmd_dyn_systole(args):
    field = _load_field(args)
    g1 = _load_matrix(field, args.g1, args.n)
    g2 = _load_matrix(field, args.g2, args.n)
    inp = st.OrbitInput((g1, g2))
    torus = [[Fraction(1)] * inp.n for _ in range(inp.r)]
    enc, wit = dy.systole(inp, torus, args.height)
    payload = {
        "meta": _meta(field),
        "height": args.height,
        "value": float(enc.mid),
        "enclosure": [float(enc.lo), float(enc.hi)],
        "witness": [int(x) for x in wit],
    }
    _emit(payload, args.out)
    return 0


def cmd_dyn_path(args):
    field = _load_field(args)
    g1 = _load_matrix(field, args.g1, args.n)
    g2 = _load_matrix(field, args.g2, args.n)
    path = cfg.load_path(args.path)
    inp = st.OrbitInput((g1, g2))
    trace = dy.run_path(inp, path, args.height)
    if args.format == "csv":
        lines = ["step,systole,witness"]
        for s in trace.steps:
            wit = " ".join(str(int(x)) for x in s.witness)
            lines.append(f"{s.step},{s.value!r},{wit}")
        lines.append(f"# verdict={trace.verdict}")
        _emit_text("\n".join(lines) + "\n", args.out)
        return 0
    payload = {
        "meta": _meta(field),
        "verdict": trace.verdict,
        "bounded_margin": trace.bounded_margin,
        "final_value": trace.final_value,
        "steps": [{"step": s.step, "value": s.value,
                   "witness": [int(x) for x in s.witness]}
                  for s in trace.steps],
    }
    _emit(payload, args.out)
    return 0


def cmd_dyn_bounded(args):
    field = _load_field(args)
    g1 = _load_matrix(field, args.g1, args.n)
    g2 = _load_matrix(field, args.g2, args.n)
    path = cfg.load_path(args.path)
    subset = _subset(g1.n, args.subset)
    rep = dy.check_boundedness(g1, g2, subset, path, Fraction(args.C),
                               height=args.height)
    payload = {
        "meta": _meta(field),
        "membership": rep.membership,
        "products_bounded": rep.products_bounded,
        "product_band": list(rep.product_band),
        "verdict": rep.trace.verdict,
        "predicted_bounded": rep.predicted_bounded,
        "observed_bounded": rep.observed_bounded,
        "agrees": rep.agrees,
    }
    _emit(payload, args.out)
    return 0


# -- bruhat ---------------------------------------------------------------------


def cmd_bruhat_cell(args):
    field = _load_field(args)
    h = _load_matrix(field, args.h, args.n)
    w = dc.bruhat_cell(h)
    payload = {
        "meta": _meta(field),
        "convention": "h in V-minus . w . P (lower unipotent x upper Borel)",
        "cell": str(w),
        "permutation": [p + 1 for p in w.perm],
    }
    _emit(payload, args.out)
    return 0


def cmd_bruhat_ldu(args):
    field = _load_field(args)
    h = _load_matrix(field, args.h, args.n)
    subset = _subset(h.n, args.subset)
    dec = dc.block_ldu(h, subset)
    if dec is None:
        payload = {
            "meta": _meta(field),
            "subset": sorted(subset.simples),
            "present": False,
        }
    else:
        payload = {
            "meta": _meta(field),
            "subset": sorted(subset.simples),
            "present": True,
            "v_minus": cfg.matrix_to_dict(dec.v_minus),
            "levi": cfg.matrix_to_dict(dec.levi),
            "v_plus": cfg.matrix_to_dict(dec.v_plus),
        }
    _emit(payload, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusorbits",
        description="exact stratification of locally divergent torus orbit "
                    "closures and decomposable form scans")
    ap.add_argument("--field", default=_env_default("field"),
                    help="field config JSON")
    ap.add_argument("--precision", type=int,
                    default=int(_env_default("precision", "128")),
                    help="working precision in bits of units classify")
    ap.add_argument("--seed", type=int, default=int(_env_default("seed", "0")))
    ap.add_argument("--out", default=None, help="output file (default stdout)")
    ap.add_argument("--format", default="json",
                    choices=["json", "dot", "csv", "summary"])
    sub = ap.add_subparsers(dest="command", required=True)

    def matrix_args(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--g1", required=True)
        p.add_argument("--g2", required=True)

    p = sub.add_parser("strata", help="enumerate the orbit closure strata")
    matrix_args(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("closed", help="closed strata and orbit closedness")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--g1", default=None)
    p.add_argument("--g2", default=None)
    p.add_argument("--g", action="append", default=None,
                   help="repeatable: one component per place (r >= 2)")
    p.set_defaults(func=cmd_closed)

    p = sub.add_parser("units", help="unit group computations")
    usub = p.add_subparsers(dest="subcommand", required=True)
    pc = usub.add_parser("classify")
    pc.add_argument("--place", type=int, default=0)
    pc.set_defaults(func=cmd_units_classify)

    p = sub.add_parser("cm", help="CM obstruction checks")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pc = csub.add_parser("check")
    pc.add_argument("--form", required=True)
    pc.add_argument("--height", type=int, default=10)
    pc.add_argument("--sample", type=int, default=None)
    pc.add_argument("--index-l", dest="index_l", type=int, required=True)
    pc.set_defaults(func=cmd_cm_check)

    p = sub.add_parser("forms", help="decomposable form operations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    ps = fsub.add_parser("scan")
    ps.add_argument("--form", required=True)
    ps.add_argument("--height", type=int, required=True)
    ps.add_argument("--sample", type=int, default=None)
    ps.add_argument("--limit", type=int, default=None)
    ps.set_defaults(func=cmd_forms_scan)
    pd = fsub.add_parser("density")
    pd.add_argument("--form", required=True)
    pd.add_argument("--height", type=int, required=True)
    pd.add_argument("--sample", type=int, default=None)
    pd.add_argument("--eps", type=float, default=0.25)
    pd.add_argument("--window", default=None, help="lo,hi per place")
    pd.set_defaults(func=cmd_forms_density)
    pp = fsub.add_parser("spectrum")
    pp.add_argument("--form", required=True)
    pp.add_argument("--height", type=int, required=True)
    pp.add_argument("--sample", type=int, default=None)
    pp.add_argument("--clip", type=float, default=10.0)
    pp.add_argument("--limit", type=int, default=None)
    pp.set_defaults(func=cmd_forms_spectrum)
    pg = fsub.add_parser("to-group")
    pg.add_argument("--form", required=True)
    pg.set_defaults(func=cmd_forms_to_group)
    pr = fsub.add_parser("reduce")
    pr.add_argument("--form", required=True)
    pr.set_defaults(func=cmd_forms_reduce)

    p = sub.add_parser("dynamics", help="divergence and boundedness diagnostics")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    py = dsub.add_parser("systole")
    py.add_argument("--n", type=int, default=None)
    py.add_argument("--g1", required=True)
    py.add_argument("--g2", required=True)
    py.add_argument("--height", type=int, default=10)
    py.set_defaults(func=cmd_dyn_systole)
    pp = dsub.add_parser("path")
    pp.add_argument("--n", type=int, default=None)
    pp.add_argument("--g1", required=True)
    pp.add_argument("--g2", required=True)
    pp.add_argument("--path", required=True)
    pp.add_argument("--height", type=int, default=20)
    pp.set_defaults(func=cmd_dyn_path)
    pb = dsub.add_parser("bounded")
    pb.add_argument("--n", type=int, default=None)
    pb.add_argument("--g1", required=True)
    pb.add_argument("--g2", required=True)
    pb.add_argument("--path", required=True)
    pb.add_argument("--subset", default="")
    pb.add_argument("--C", default="4")
    pb.add_argument("--height", type=int, default=20)
    pb.set_defaults(func=cmd_dyn_bounded)

    p = sub.add_parser("bruhat", help="cell and block factorization")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    pc = bsub.add_parser("cell")
    pc.add_argument("--n", type=int, default=None)
    pc.add_argument("--h", required=True)
    pc.set_defaults(func=cmd_bruhat_cell)
    pl = bsub.add_parser("ldu")
    pl.add_argument("--n", type=int, default=None)
    pl.add_argument("--h", required=True)
    pl.add_argument("--subset", default="")
    pl.set_defaults(func=cmd_bruhat_ldu)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (TorusOrbitsError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
