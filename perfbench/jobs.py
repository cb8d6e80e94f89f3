"""Inputs, jobs and output checks of the torusorbits benchmark.

Every input comes from the test-suite fields (tests/conftest.py) and the
acceptance matrices (tests/test_acceptance.py).  The workload seed drives
only the seeded parts: the random non-generic SL4 matrix of `strata`, the
CM sample points of `forms`, and the job order of `bounded`, which has no
seeded input.

A job returns its output; its check returns a list of problems, empty when
the output is right.  Fixed inputs are checked against pinned values (the
EXPECTED table), seeded inputs against invariants.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from torusorbits import cli
from torusorbits import config as cfg
from torusorbits import decomp as dc
from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import rootdata as rd

WORKLOADS = ("strata", "bounded", "forms")

# Pinned outputs of the fixed inputs.  The strata, verdict and unit-closure
# values are the acceptance criteria; the unipotent SL4 counts, the window
# cells and the spectrum figures were recorded from the seed code.
EXPECTED = {
    "strata.sl4_generic": (1077, 576),
    "strata.sl4_unipotent": (126, 55),
    "strata.sl3_generic": (55, 36),
    "units.sqrt2": "discrete",
    "units.cubic": "positive_reals",
    "units.quartic": "circle",
    "bounded.sl2-a TT": True,
    "bounded.sl2-b TT": True,
    "bounded.sl3-psi TT": True,
    "bounded.sl3-borel FF": False,
    "cm.constant": "1/256",
    "density.cells_hit": {8: 19248, 16: 33561},
    "spectrum.min_value": 1.0,
    "spectrum.min_gap": 1.0,
}

HEIGHT = 20                 # dynamics bounded, as in acceptance 8
SL2_STEPS = 8               # shortened SL2 paths; the verdicts still hold
SL3_STEPS = 30              # full acceptance-8 paths
CM_HEIGHT = 10
CM_SAMPLE = 1000
CM_INDEX_L = 2
LADDER = (8, 16)
WINDOW = ((-5.0, 5.0),) * 3
SPECTRUM_CLIP = 10.0


@dataclass
class Job:
    """One unit of work: run() returns the output, check(out) the problems.

    tag names the headline metric the job's time counts towards; items is
    the work count behind a throughput (path steps, CM points x forms).
    """
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    tag: str = ""
    items: int = 0


@dataclass
class Inputs:
    workdir: Path
    files: dict = field(default_factory=dict)
    objects: dict = field(default_factory=dict)


# -- fields and matrices -------------------------------------------------------


def make_fields():
    sqrt2 = nf.create_field([-2, 0, 1], declared_units=[[1, 1]],
                            label="q-sqrt2")
    cubic = nf.create_field([-1, -3, 0, 1],
                            declared_units=[[0, 1, 0], [-2, 0, 1]],
                            label="cyclic-cubic")
    quartic = nf.create_field([1, -2, 1, -2, 1],
                              declared_units=[[0, 1, 0, 0], [2, 0, 2, -1]],
                              label="circle-quartic")
    zeta8 = nf.create_field(
        [1, 0, 0, 0, 1], declared_units=[[1, 1, 0, -1]], label="q-zeta8",
        cm_structure=dict(subfield_poly=[-2, 0, 1], subfield_gen=[0, 1, 0, -1],
                          d=[1, 0, 0, 0], relative_gen=[0, 0, 1, 0]))
    return {"sqrt2": sqrt2, "cubic": cubic, "quartic": quartic,
            "zeta8": zeta8}


def _random_element(K, rng, span, denom):
    """A nonzero element with small random rational coordinates."""
    while True:
        x = K.element([Fraction(rng.randint(-span, span), rng.randint(1, denom))
                       for _ in range(K.degree)])
        if not x.is_zero():
            return x


# Weyl element of the random non-generic SL4, as the permutation i -> perm[i]
RANDOM_SL4_WEYL = (3, 0, 2, 1)


def random_nongeneric_sl4(K, rng):
    """u1 * w * u2 * d: two elementary factors with random nonzero entries,
    a fixed Weyl element and a diagonal factor with a random nonzero
    exponent.  The factors' positions are fixed so that the zero pattern,
    and with it the stratum count and the job's cost (about 1.5 s), does not
    depend on the seed; the product always keeps zero entries, so the input
    is never generic."""
    n = 4
    w = next(x for x in rd.all_weyl(n) if x.perm == RANDOM_SL4_WEYL)
    unit = K.element([1, 1])
    e = rng.choice((-2, -1, 1, 2))
    return (dc.unipotent_matrix(K, n, {(0, 3): _random_element(K, rng, 3, 2)})
            * w.matrix(K)
            * dc.unipotent_matrix(K, n, {(0, 2): _random_element(K, rng, 3, 2)})
            * dc.diagonal_matrix(K, [unit ** e] + [K.one] * (n - 2)
                                 + [unit ** (-e)]))


def _ramp(n, steps, idx, s_rate, t_rate):
    def step(k, rate):
        e = [0] * (n - 1)
        e[idx] = rate * k
        return e
    return {"n": n, "bases": ["2", "2"],
            "schedules": [[step(k, s_rate) for k in range(steps)],
                          [step(k, t_rate) for k in range(steps)]]}


def _full_ramp(n, steps, s_rate, t_rate):
    return {"n": n, "bases": ["2", "2"],
            "schedules": [[[s_rate * k] * (n - 1) for k in range(steps)],
                          [[t_rate * k] * (n - 1) for k in range(steps)]]}


# -- set-up ----------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path) -> Inputs:
    """Build the fields and inputs of one workload and write the JSON the
    CLI jobs read."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    inp = Inputs(workdir)
    fields = make_fields()
    for name, K in fields.items():
        inp.files[f"field.{name}"] = _save(workdir / f"field-{name}.json",
                                           cfg.field_to_dict(K))
    {"strata": _setup_strata, "bounded": _setup_bounded,
     "forms": _setup_forms}[workload](inp, fields, seed)
    return inp


def _save(path: Path, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _save_matrix(inp, name, m):
    inp.files[name] = _save(inp.workdir / f"{name}.json", cfg.matrix_to_dict(m))


def _setup_strata(inp, fields, seed):
    K = fields["sqrt2"]
    _save_matrix(inp, "sl4_generic", dc.MatrixK.from_rational_rows(
        K, [[Fraction(1, 12)] * 4, [1, 2, 4, 8], [1, 3, 9, 27],
            [1, 4, 16, 64]]))
    _save_matrix(inp, "sl4_unipotent", dc.unipotent_matrix(
        K, 4, {(1, 0): K.one, (2, 1): K.theta, (3, 2): K.one}))
    _save_matrix(inp, "sl4_random", random_nongeneric_sl4(K, random.Random(seed)))
    _save_matrix(inp, "sl3_generic", dc.MatrixK.from_rational_rows(
        K, [[Fraction(1, 2)] * 3, [1, 2, 4], [1, 3, 9]]))
    quartic = fields["quartic"]
    inp.objects["quartic_complex_place"] = next(
        p.index for p in quartic.places() if not p.is_real)


def _setup_bounded(inp, fields, seed):
    K = fields["sqrt2"]
    theta = K.theta
    u = K.element([1, 1])
    h2a = dc.unipotent_matrix(K, 2, {(1, 0): K.one}) * \
        dc.diagonal_matrix(K, [K.element([2]), K.element([Fraction(1, 2)])])
    h2b = dc.unipotent_matrix(K, 2, {(1, 0): theta}) * \
        dc.diagonal_matrix(K, [u, u.inverse()])
    h3 = dc.unipotent_matrix(K, 3, {(2, 0): K.one, (2, 1): theta})
    h3t = rd.longest_element(3).matrix(K) * \
        dc.unipotent_matrix(K, 3, {(0, 1): K.one})
    _save_matrix(inp, "h2a", h2a)
    _save_matrix(inp, "h2b", h2b)
    _save_matrix(inp, "h3", h3)
    _save_matrix(inp, "h3t", h3t)
    paths = {
        "ramp2": _ramp(2, SL2_STEPS, 0, 1, -1),
        "ramp3": _ramp(3, SL3_STEPS, 1, 1, -1),
        "full3": _full_ramp(3, SL3_STEPS, 2, -1),
    }
    for name, data in paths.items():
        inp.files[f"path.{name}"] = _save(inp.workdir / f"path-{name}.json", data)
    # name, g1, n, subset, path, steps
    configs = [
        ("sl2-a TT", "h2a", 2, "", "ramp2", SL2_STEPS),
        ("sl2-b TT", "h2b", 2, "", "ramp2", SL2_STEPS),
        ("sl3-psi TT", "h3", 3, "1", "ramp3", SL3_STEPS),
        ("sl3-borel FF", "h3t", 3, "", "full3", SL3_STEPS),
    ]
    random.Random(seed).shuffle(configs)
    inp.objects["bounded_configs"] = configs


def _setup_forms(inp, fields, seed):
    Kz = fields["zeta8"]
    sqrt2 = Kz.element([0, 1, 0, -1])
    three = Kz.element([3])
    f0 = fm.make_form(Kz, [[[1, 0], [0, 1]]] * 2)
    ff = fm.make_form(Kz, [[[1, sqrt2], [sqrt2, three]]] * 2)
    inp.files["form.cm_f0"] = _save(inp.workdir / "form-cm_f0.json",
                                    cfg.form_to_dict(f0))
    inp.files["form.cm_ff"] = _save(inp.workdir / "form-cm_ff.json",
                                    cfg.form_to_dict(ff))
    inp.objects["cm_seed"] = seed
    Kc = fields["cubic"]
    half = Kc.from_rational(Fraction(1, 2))
    inp.objects["cubic_form"] = fm.make_form(Kc, [
        [[1, 0], [0, 1]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
    ], scalars=[half] * 3)
    inp.objects["norm_form"] = fm.make_form(fields["sqrt2"],
                                            [[[1, 0], [0, 1]]] * 2)


# -- jobs ------------------------------------------------------------------------


def build_jobs(workload: str, inp: Inputs, expected=None) -> list:
    expected = EXPECTED if expected is None else expected
    return {"strata": _strata_jobs, "bounded": _bounded_jobs,
            "forms": _forms_jobs}[workload](inp, expected)


def run_cli(inp: Inputs, name: str, field_key: str, argv: list) -> dict:
    """One CLI call, in process, with JSON written to a file and read back."""
    out = inp.workdir / f"out-{name.replace(' ', '_')}.json"
    code = cli.main(["--field", inp.files[field_key], "--out", str(out)] + argv)
    if code != 0:
        raise RuntimeError(f"torusorbits exited with code {code}")
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _strata_jobs(inp, expected):
    def strata_job(name, n, pinned, tag=""):
        argv = ["strata", "--n", str(n), "--g1", inp.files[name], "--g2", "id"]
        return Job(name, lambda: run_cli(inp, name, "field.sqrt2", argv),
                   lambda out: check_strata(out, expected.get(f"strata.{name}")
                                            if pinned else None),
                   tag=tag)

    def units_job(key, place, extra=None):
        argv = ["units", "classify", "--place", str(place)]
        want = expected[f"units.{key}"]

        def check(out):
            problems = []
            if out["classification"] != want:
                problems.append(f"classification {out['classification']!r}, "
                                f"expected {want!r}")
            if extra:
                problems += extra(out)
            return problems
        return Job(f"units-{key}",
                   lambda: run_cli(inp, f"units-{key}", f"field.{key}", argv),
                   check)

    def gap_small(out):
        gap = out["gap_statistic"]
        return [] if gap is not None and gap < 1e-2 else [f"gap {gap}"]

    return [
        strata_job("sl4_generic", 4, True, tag="stratify_sl4_s"),
        strata_job("sl4_unipotent", 4, True),
        strata_job("sl4_random", 4, False),
        strata_job("sl3_generic", 3, True),
        units_job("sqrt2", 0),
        units_job("cubic", 0, gap_small),
        units_job("quartic", inp.objects["quartic_complex_place"]),
    ]


def check_strata(out: dict, pinned=None) -> list:
    """Pinned (strata, closed) when given, and always the counting
    invariants of verify_counts plus consistency of the JSON records."""
    c = out["counts"]
    recs = out["records"]
    problems = []
    if pinned is not None and (c["strata"], c["closed"]) != tuple(pinned):
        problems.append(f"strata/closed {c['strata']}/{c['closed']}, "
                        f"expected {pinned[0]}/{pinned[1]}")
    if len(recs) != c["strata"]:
        problems.append(f"{len(recs)} records for {c['strata']} strata")
    if sum(1 for r in recs if r["is_closed"]) != c["closed"]:
        problems.append("closed flags disagree with the closed count")
    if not 1 <= c["closed"] <= min(c["strata"], c["closed_bound"]):
        problems.append(f"closed count {c['closed']} out of bounds")
    if not c["strata"] <= c["pairs"] <= c["bound"]:
        problems.append(f"pairs {c['pairs']} / strata {c['strata']} "
                        f"exceed the bound {c['bound']}")
    return problems


def _bounded_jobs(inp, expected):
    jobs = []
    for name, g1, n, subset, path, steps in inp.objects["bounded_configs"]:
        argv = ["dynamics", "bounded", "--n", str(n), "--g1", inp.files[g1],
                "--g2", "id", "--path", inp.files[f"path.{path}"],
                "--subset", subset, "--height", str(HEIGHT)]
        want = expected[f"bounded.{name}"]

        def check(out, want=want):
            problems = []
            if out["predicted_bounded"] is not want:
                problems.append(f"predicted_bounded {out['predicted_bounded']}, "
                                f"expected {want}")
            if out["agrees"] is not True:
                problems.append(f"verdict {out['verdict']} disagrees")
            return problems
        jobs.append(Job(f"bounded {name}",
                        lambda name=name, argv=argv:
                            run_cli(inp, name, "field.sqrt2", argv),
                        check, tag="systole_steps_per_s", items=steps))
    return jobs


def _forms_jobs(inp, expected):
    jobs = []
    for key in ("cm_f0", "cm_ff"):
        argv = ["--seed", str(inp.objects["cm_seed"]), "cm", "check",
                "--form", inp.files[f"form.{key}"],
                "--height", str(CM_HEIGHT), "--sample", str(CM_SAMPLE),
                "--index-l", str(CM_INDEX_L)]

        def check(out):
            problems = []
            if out["violations"]:
                problems.append(f"{len(out['violations'])} CM violations")
            if out["checked"] != CM_SAMPLE:
                problems.append(f"checked {out['checked']} of {CM_SAMPLE}")
            if sum(out["branches"].values()) != out["checked"]:
                problems.append("branch counts do not add up")
            if out["constant"] != expected["cm.constant"]:
                problems.append(f"constant {out['constant']}")
            return problems
        jobs.append(Job(f"cm {key}",
                        lambda key=key, argv=argv:
                            run_cli(inp, key, "field.zeta8", argv),
                        check, tag="cm_points_per_s", items=CM_SAMPLE))
    jobs.append(Job("density ladder", lambda: density_ladder(inp),
                    lambda out: check_ladder(out, expected),
                    tag="density_ladder_s"))
    jobs.append(Job("norm-product spectrum", lambda: spectrum_ladder(inp),
                    lambda out: check_spectrum(out, expected)))
    return jobs


def density_ladder(inp: Inputs) -> dict:
    form = inp.objects["cubic_form"]
    out = {}
    for H in LADDER:
        scan = fm.window_scan(form, H, WINDOW)
        rep = fm.density_report(scan, window=WINDOW, eps=0.25)
        out[H] = rep
    return out


def check_ladder(out: dict, expected) -> list:
    problems = []
    want = expected["density.cells_hit"]
    for H, rep in out.items():
        if rep.cells_hit != want[H]:
            problems.append(f"H={H}: {rep.cells_hit} cells hit, "
                            f"expected {want[H]}")
    covs = [out[H].coverage for H in LADDER]
    if any(b <= a for a, b in zip(covs, covs[1:])):
        problems.append(f"coverage not increasing: {covs}")
    return problems


def spectrum_ladder(inp: Inputs) -> list:
    form = inp.objects["norm_form"]
    return [fm.norm_product_spectrum(form, H, clip=SPECTRUM_CLIP)
            for H in LADDER]


def check_spectrum(reps: list, expected) -> list:
    problems = []
    for rep in reps:
        if rep.min_gap != expected["spectrum.min_gap"] or \
           rep.min_value != expected["spectrum.min_value"]:
            problems.append(f"H={rep.height}: gap {rep.min_gap}, "
                            f"min {rep.min_value}")
    return problems
