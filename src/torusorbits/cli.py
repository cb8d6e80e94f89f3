"""Command line driver.

One process, batch in, deterministic machine-readable out: JSON, and
where a command offers it DOT (closure posets), CSV (scans, traces) or a
one-line summary.  Exit codes: 0 success, 2 validation/configuration error
(among them a --format the command cannot write), 3 invariant violation.
Each cmd_* returns its output, a dict or text; main adds to every dict the
meta block (field label, the order Z[theta], working precision, version).
In a dict, the records and edges of strata and closed are iterators of
item texts, which main writes in chunks (config.json_chunks).
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
    """The meta block main adds to every JSON output; precision is the
    working precision the command actually used, which only units classify
    takes from --precision (and so returns its own meta)."""
    return {"field": field.label, "order": "Z[theta]",
            "precision_bits": precision, "version": __version__}


def _load_matrix(field, spec, n):
    if spec == "id":
        if not n:
            raise ValidationError("--n is required with the id shorthand")
        return dc.MatrixK.identity(field, n)
    return cfg.load_matrix(field, spec)


def _pair(field, args):
    """g1 and g2 from --g1 and --g2."""
    return (_load_matrix(field, args.g1, args.n),
            _load_matrix(field, args.g2, args.n))


def _scan(field, args):
    """The --form file and its scan at --height (--sample, --seed)."""
    form = cfg.load_form(field, args.form)
    return form, fm.scan_values(form, args.height, sample=args.sample,
                                seed=args.seed)


def _subset(field_n, spec):
    if spec in (None, "", "empty"):
        return rd.RootSubset.empty(field_n)
    if spec == "full":
        return rd.RootSubset.full(field_n)
    idx = _parse("--subset", spec,
                 lambda s: [int(t) for t in s.split(",") if t])
    return rd.RootSubset.make(field_n, idx)


def _parse(flag, value, parse):
    """parse(value), a malformed value a ValidationError naming the flag."""
    try:
        return parse(value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"malformed {flag} {value!r}") from None


# -- strata ------------------------------------------------------------------


def cmd_strata(field, args):
    sset = st.enumerate_strata(*_pair(field, args))
    edges = st.closure_poset(sset)
    counts = st.verify_counts(sset)
    st.closed_strata(sset)  # raises MinimalNotBorel on a broken poset
    if args.format == "summary":
        return st.summary_line(sset, counts) + "\n"
    if args.format == "dot":
        return _poset_dot(sset, edges)
    return {
        "summary": st.summary_line(sset, counts),
        "counts": {
            "strata": counts.strata, "closed": counts.closed,
            "pairs": counts.pair_count, "bound": counts.strata_bound,
            "closed_bound": counts.closed_bound,
        },
        "records": _record_texts(sset.records),
        "poset_edges": (cfg.json_block("[", [str(i), str(j)], "]", 2)
                        for i, j in edges),
    }


def _record_texts(records, closed_only=False):
    """The JSON text of each record (of each closed one for closed_only) as
    an item of the top-level records list, at depth 2.  The records share
    few parts: a few hundred distinct representative rows (one element per
    table id, MinorTable.matrix), one position list per parabolic
    descriptor, one subset per block shape, one name per Weyl element.
    Each part is rendered once, at the depth where it appears, and each
    record is a join of part texts (an int is its own JSON text)."""
    texts = {}
    flags = cfg.json_at(False, 0), cfg.json_at(True, 0)

    def text(key, value, depth):
        out = texts.get(key)
        if out is None:
            out = texts[key] = cfg.json_at(value(), depth)
        return out

    def pair(p):
        (w1, w2), first, second = p.witnesses, p.first, p.second
        fields = (("first_positions", first, first.sorted_positions),
                  ("second_positions", second, second.sorted_positions),
                  ("subset", p.subset, lambda: sorted(p.subset.simples)),
                  ("w1", w1, w1.__str__), ("w2", w2, w2.__str__))
        return cfg.json_block("{", [f'"{name}": {text(id(part), value, 5)}'
                                    for name, part, value in fields], "}", 4)

    for i, rec in enumerate(records):
        if rec.is_closed or not closed_only:
            rows = [text(tuple(map(id, r)),
                         lambda: list(map(cfg.elem_to_list, r)), 4)
                    for comp in rec.representative for r in comp.rows]
            pairs = list(map(pair, rec.pairs))
            yield cfg.json_block("{", [
                f'"index": {i}', f'"is_closed": {flags[rec.is_closed]}',
                f'"levi_rank_marker": {rec.levi_rank_marker}',
                f'"pairs": {cfg.json_block("[", pairs, "]", 3)}',
                f'"representative": {cfg.json_block("[", rows, "]", 3)}'],
                "}", 2)


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


def cmd_closed(field, args):
    if args.g:
        if args.g1 or args.g2:
            raise ValidationError("pass either --g components or --g1/--g2")
        comps = tuple(_load_matrix(field, spec, args.n) for spec in args.g)
        out = {"components": len(comps),
               "is_orbit_closed": st.is_orbit_closed(st.OrbitInput(comps))}
        if len(comps) == 2:
            out["closed_count"] = len(st.closed_strata(st.enumerate_strata(*comps)))
        return out
    if not (args.g1 and args.g2):
        raise ValidationError("need --g1 and --g2, or repeated --g")
    sset = st.enumerate_strata(*_pair(field, args))
    return {
        "closed_count": len(st.closed_strata(sset)),
        "is_orbit_closed": st.is_orbit_closed(sset.input),
        "records": _record_texts(sset.records, closed_only=True),
    }


# -- units / cm ---------------------------------------------------------------


def cmd_units_classify(field, args):
    rep = nf.unit_closure_classify(field, args.place,
                                   precision_bits=args.precision)
    if args.format == "summary":
        return rep.classification + "\n"
    return {
        "meta": _meta(field, args.precision),
        "target_place": rep.target_place,
        "classification": rep.classification,
        "log_vectors": rep.log_vectors,
        "relations": [list(r) for r in rep.relations],
        "gap_statistic": rep.gap_statistic,
        "notes": rep.notes,
    }


def cmd_cm_check(field, args):
    rep = fm.cm_obstruction_check(*_scan(field, args), index_l=args.index_l)
    return {
        "constant": cfg.rat_to_str(rep.constant),
        "index_l": rep.index_l,
        "checked": rep.checked,
        "violations": [[i, msg] for i, msg in rep.violations],
        "branches": {
            "norm_product": sum(1 for p in rep.points if p.branch == "norm-product"),
            "ray": sum(1 for p in rep.points if p.branch == "ray"),
        },
    }


# -- forms ---------------------------------------------------------------------


def cmd_forms_scan(field, args):
    form, scan = _scan(field, args)
    if args.format == "csv":
        lines = ["point;degenerate;" + ";".join(f"value_place{v}"
                                                for v in range(form.r))]
        for i in range(min(scan.npoints, args.limit or scan.npoints)):
            cells = [",".join(cfg.elem_to_list(v)) for v in scan.exact_values(i)]
            pt = ",".join(str(int(x)) for x in scan.points[i])
            lines.append(f"{pt};{int(bool(scan.degenerate[i]))};" + ";".join(cells))
        return "\n".join(lines) + "\n"
    return {
        "height": scan.height,
        "mode": scan.mode,
        "points": scan.npoints,
        "degenerate": int(scan.degenerate.sum()),
    }


def cmd_forms_density(field, args):
    bounds = None
    if args.window:
        # lo,hi: partition leaves "" (not a float) for a missing bound
        bounds = _parse("--window", args.window,
                        lambda s: tuple(float(t) for t in s.partition(",")[::2]))
    # a bad window or cell size is refused before the scan
    fm._check_window([bounds] if bounds else [], args.eps)
    form, scan = _scan(field, args)
    window = None if bounds is None else (bounds,) * form.r
    rep = fm.density_report(scan, window=window, eps=args.eps)
    return {
        "height": rep.height, "eps": rep.eps, "window": list(rep.window),
        "cells_total": rep.cells_total, "cells_hit": rep.cells_hit,
        "coverage": rep.coverage, "points_used": rep.points_used,
        "points_in_window": rep.points_in_window, "mode": rep.mode,
    }


def cmd_forms_spectrum(field, args):
    rep = fm.two_place_spectrum(_scan(field, args)[1], clip=args.clip)
    return {
        "height": rep.height, "clip": rep.clip,
        "rational_form": rep.rational_form,
        "constant": cfg.rat_to_str(rep.constant) if rep.constant is not None else None,
        "values": [cfg.rat_to_str(v) if isinstance(v, Fraction) else v
                   for v in rep.values[:args.limit or None]],
        "min_value": rep.min_value, "min_gap": rep.min_gap,
        "count": rep.count_nonzero, "note": rep.note,
    }


def cmd_forms_to_group(field, args):
    alphas, inp = fm.form_to_group(cfg.load_form(field, args.form))
    return {
        "alphas": [cfg.elem_to_list(a) for a in alphas],
        "components": [cfg.matrix_to_dict(c) for c in inp.components],
    }


def cmd_forms_reduce(field, args):
    form = cfg.load_form(field, args.form)
    reduced, phi = fm.reduce_variables(form, seed=args.seed)
    return {
        "n": reduced.n, "m": reduced.m,
        "substitution": [[cfg.elem_to_list(x) for x in row] for row in phi],
        "factors": [[[cfg.elem_to_list(c) for c in fac] for fac in place]
                    for place in reduced.factors],
    }


# -- dynamics -------------------------------------------------------------------


def cmd_dyn_systole(field, args):
    inp = st.OrbitInput(_pair(field, args))
    torus = [[Fraction(1)] * inp.n for _ in range(inp.r)]
    enc, wit = dy.systole(inp, torus, args.height)
    return {
        "height": args.height,
        "value": float(enc.mid),
        "enclosure": [float(enc.lo), float(enc.hi)],
        "witness": [int(x) for x in wit],
    }


def cmd_dyn_path(field, args):
    pair = _pair(field, args)
    path = cfg.load_path(args.path)
    trace = dy.run_path(st.OrbitInput(pair), path, args.height)
    if args.format == "csv":
        lines = ["step,systole,witness"]
        for s in trace.steps:
            wit = " ".join(str(int(x)) for x in s.witness)
            lines.append(f"{s.step},{s.value!r},{wit}")
        lines.append(f"# verdict={trace.verdict}")
        return "\n".join(lines) + "\n"
    return {
        "verdict": trace.verdict,
        "bounded_margin": trace.bounded_margin,
        "final_value": trace.final_value,
        "steps": [{"step": s.step, "value": s.value,
                   "witness": [int(x) for x in s.witness]}
                  for s in trace.steps],
    }


def cmd_dyn_bounded(field, args):
    g1, g2 = _pair(field, args)
    path = cfg.load_path(args.path)
    rep = dy.check_boundedness(g1, g2, _subset(g1.n, args.subset), path,
                               _parse("--C", args.C, Fraction),
                               height=args.height)
    return {
        "membership": rep.membership,
        "products_bounded": rep.products_bounded,
        "product_band": list(rep.product_band),
        "verdict": rep.trace.verdict,
        "predicted_bounded": rep.predicted_bounded,
        "observed_bounded": rep.observed_bounded,
        "agrees": rep.agrees,
    }


# -- bruhat ---------------------------------------------------------------------


def cmd_bruhat_cell(field, args):
    w = dc.bruhat_cell(_load_matrix(field, args.h, args.n))
    return {
        "convention": "h in V-minus . w . P (lower unipotent x upper Borel)",
        "cell": str(w),
        "permutation": [p + 1 for p in w.perm],
    }


def cmd_bruhat_ldu(field, args):
    h = _load_matrix(field, args.h, args.n)
    subset = _subset(h.n, args.subset)
    dec = dc.block_ldu(h, subset)
    out = {"subset": sorted(subset.simples), "present": dec is not None}
    if dec is not None:
        out.update(v_minus=cfg.matrix_to_dict(dec.v_minus),
                   levi=cfg.matrix_to_dict(dec.levi),
                   v_plus=cfg.matrix_to_dict(dec.v_plus))
    return out


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusorbits",
        description="exact stratification of locally divergent torus orbit "
                    "closures and decomposable form scans")
    ap.add_argument("--field", default=_env_default("field"),
                    help="field config JSON")
    # a string default goes through type=int only when the flag is absent,
    # and a bad one is a usage error (exit 2)
    ap.add_argument("--precision", type=int,
                    default=_env_default("precision", "128"),
                    help="working precision in bits of units classify")
    ap.add_argument("--seed", type=int, default=_env_default("seed", "0"))
    ap.add_argument("--out", default=None, help="output file (default stdout)")
    ap.add_argument("--format", default="json",
                    choices=["json", "dot", "csv", "summary"])
    sub = ap.add_subparsers(dest="command", required=True)

    def inputs(p, *flags, required=True):
        """--n, the size of the id shorthand, and input files named by
        flags (--g1, --g2, --h, --form)."""
        for flag in flags:
            if flag == "--n":
                p.add_argument("--n", type=int, default=None)
            else:
                p.add_argument(flag, required=required)

    def scan_args(p, height=None):
        inputs(p, "--form")
        p.add_argument("--height", type=int, default=height,
                       required=height is None)
        p.add_argument("--sample", type=int, default=None)

    p = sub.add_parser("strata", help="enumerate the orbit closure strata")
    inputs(p, "--n", "--g1", "--g2")
    p.set_defaults(func=cmd_strata, formats=("json", "summary", "dot"))

    p = sub.add_parser("closed", help="closed strata and orbit closedness")
    inputs(p, "--n", "--g1", "--g2", required=False)
    p.add_argument("--g", action="append", default=None,
                   help="repeatable: one component per place (r >= 2)")
    p.set_defaults(func=cmd_closed)

    p = sub.add_parser("units", help="unit group computations")
    usub = p.add_subparsers(dest="subcommand", required=True)
    pc = usub.add_parser("classify")
    pc.add_argument("--place", type=int, default=0)
    pc.set_defaults(func=cmd_units_classify, formats=("json", "summary"))

    p = sub.add_parser("cm", help="CM obstruction checks")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pc = csub.add_parser("check")
    scan_args(pc, height=10)
    pc.add_argument("--index-l", dest="index_l", type=int, required=True)
    pc.set_defaults(func=cmd_cm_check)

    p = sub.add_parser("forms", help="decomposable form operations")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    ps = fsub.add_parser("scan")
    scan_args(ps)
    ps.add_argument("--limit", type=int, default=None)
    ps.set_defaults(func=cmd_forms_scan, formats=("json", "csv"))
    pd = fsub.add_parser("density")
    scan_args(pd)
    pd.add_argument("--eps", type=float, default=0.25)
    pd.add_argument("--window", default=None, help="lo,hi per place")
    pd.set_defaults(func=cmd_forms_density)
    pp = fsub.add_parser("spectrum")
    scan_args(pp)
    pp.add_argument("--clip", type=float, default=10.0)
    pp.add_argument("--limit", type=int, default=None)
    pp.set_defaults(func=cmd_forms_spectrum)
    pg = fsub.add_parser("to-group")
    inputs(pg, "--form")
    pg.set_defaults(func=cmd_forms_to_group)
    pr = fsub.add_parser("reduce")
    inputs(pr, "--form")
    pr.set_defaults(func=cmd_forms_reduce)

    p = sub.add_parser("dynamics", help="divergence and boundedness diagnostics")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    py = dsub.add_parser("systole")
    inputs(py, "--n", "--g1", "--g2")
    py.add_argument("--height", type=int, default=10)
    py.set_defaults(func=cmd_dyn_systole)
    pp = dsub.add_parser("path")
    inputs(pp, "--n", "--g1", "--g2")
    pp.add_argument("--path", required=True)
    pp.add_argument("--height", type=int, default=20)
    pp.set_defaults(func=cmd_dyn_path, formats=("json", "csv"))
    pb = dsub.add_parser("bounded")
    inputs(pb, "--n", "--g1", "--g2")
    pb.add_argument("--path", required=True)
    pb.add_argument("--subset", default="")
    pb.add_argument("--C", default="4")
    pb.add_argument("--height", type=int, default=20)
    pb.set_defaults(func=cmd_dyn_bounded)

    p = sub.add_parser("bruhat", help="cell and block factorization")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    pc = bsub.add_parser("cell")
    inputs(pc, "--n", "--h")
    pc.set_defaults(func=cmd_bruhat_cell)
    pl = bsub.add_parser("ldu")
    inputs(pl, "--n", "--h")
    pl.add_argument("--subset", default="")
    pl.set_defaults(func=cmd_bruhat_ldu)

    return ap


def main(argv=None) -> int:
    """Parse argv, load --field, run the command and write what it returns:
    a dict as JSON with the meta block added, in chunks, text as it is."""
    args = build_parser().parse_args(argv)
    try:
        formats = getattr(args, "formats", ("json",))
        if args.format not in formats:
            command = f"{args.command} {getattr(args, 'subcommand', '')}".strip()
            raise ValidationError(f"{command} has no --format {args.format}; "
                                  f"its formats: {', '.join(formats)}")
        if not args.field:
            raise ValidationError("--field is required")
        field = cfg.load_field(args.field)
        out = args.func(field, args)
        chunks = (cfg.json_chunks({"meta": _meta(field), **out})
                  if isinstance(out, dict) else [out])
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
        return 0
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (TorusOrbitsError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
