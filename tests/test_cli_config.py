import argparse
import hashlib
import json
import random
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from torusorbits import config as cfg
from torusorbits import decomp as dc
from torusorbits import dynamics as dy
from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import rootdata as rd
from torusorbits import strata as st
from torusorbits.cli import build_parser, main
from torusorbits.errors import InvariantViolation, ValidationError

from conftest import NONCONVERGENT_CUBIC, generic_sl, random_sl, records_json


@pytest.fixture()
def workdir(tmp_path, Ksqrt2):
    cfg.save_field(Ksqrt2, tmp_path / "field.json")
    g1 = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]])
    cfg.save_matrix(g1, tmp_path / "g1.json")
    form = {"n": 2, "m": 2,
            "factors": [[["1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]] * 2,
            "scalars": [["1", "0"], ["1", "0"]]}
    (tmp_path / "f0.json").write_text(json.dumps(form))
    path = {"n": 2, "bases": ["2", "2"],
            "schedules": [[[k] for k in range(8)],
                          [[-k] for k in range(8)]]}
    (tmp_path / "path.json").write_text(json.dumps(path))
    return tmp_path


def test_field_roundtrip_bit_exact(tmp_path, Kzeta8):
    cfg.save_field(Kzeta8, tmp_path / "z8.json")
    K2 = cfg.load_field(tmp_path / "z8.json")
    assert K2.min_poly == Kzeta8.min_poly
    assert [u.coeffs for u in K2.units] == [u.coeffs for u in Kzeta8.units]
    assert K2.cm_structure.d.coeffs == Kzeta8.cm_structure.d.coeffs


def test_matrix_roundtrip_rejects_bad_det(tmp_path, Ksqrt2):
    g = dc.MatrixK.from_rational_rows(Ksqrt2, [[1, Fraction(1, 3)], [2, 2]])
    cfg.save_matrix(g, tmp_path / "m.json")
    data = json.loads((tmp_path / "m.json").read_text())
    back = cfg.matrix_from_dict(Ksqrt2, data)
    assert back == g
    # a well-formed determinant that is not the matrix's (which is 4/3)
    data["det"] = cfg.elem_to_list(Ksqrt2.element([5]))
    with pytest.raises(ValidationError,
                       match="declared determinant does not match"):
        cfg.matrix_from_dict(Ksqrt2, data)


def test_rational_string_roundtrip():
    for q in (Fraction(3, 7), Fraction(-11, 4), Fraction(5), Fraction(0)):
        assert cfg.rat_from_str(cfg.rat_to_str(q)) == q


JSON_TEXT = (hs.text() | hs.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f",
                                         "\u00e9\u2202\U0001f600", "1"]))
JSON_SCALARS = (hs.none() | hs.booleans() | hs.integers()
                | hs.integers(min_value=-2 ** 200, max_value=2 ** 200)
                | hs.floats() | hs.sampled_from([-0.0, float("nan"),
                                                 float("inf"), -float("inf")])
                | JSON_TEXT)
# scalars that compare equal across types, in sibling flat lists
EQUAL_SCALARS = hs.sampled_from([0, 1, 0.0, 1.0, False, True, "1"])
JSON_TREES = hs.recursive(
    JSON_SCALARS,
    lambda kids: (hs.lists(kids, max_size=4)
                  | hs.lists(kids, max_size=4).map(tuple)
                  | hs.lists(kids, max_size=3).map(lambda xs: [xs, xs, [xs]])
                  | hs.dictionaries(JSON_TEXT, kids, max_size=4)
                  | hs.dictionaries(hs.integers(), kids, max_size=3)
                  | hs.lists(hs.lists(EQUAL_SCALARS, max_size=2), max_size=6)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_json_text_matches_json_dumps(tree):
    """The package's JSON writer against the encoder it replaces, on trees
    with repeated subtrees."""
    assert cfg.json_text(tree) == json.dumps(tree, indent=2,
                                             sort_keys=True) + "\n"


@pytest.mark.parametrize("tree", [[1, True, 1.0, "1"], [[1], [True], [1.0]],
                                  {"a": [1], "b": [True], "c": [[1.0]]}])
def test_json_text_keeps_equal_scalars_apart(tree):
    """1, True and 1.0 compare equal; each keeps its own text."""
    assert cfg.json_text(tree) == json.dumps(tree, indent=2,
                                             sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None)
@given(hs.dictionaries(JSON_TEXT, JSON_TREES, max_size=4),
       hs.integers(1, 64))
def test_json_chunks_match_json_text(tree, chunk):
    """json_chunks, in chunks of any size, against json_text on dicts whose
    list values are passed as iterators of their item texts."""
    streamed = {k: iter([cfg.json_at(x, 2) for x in v])
                if isinstance(v, list) else v for k, v in tree.items()}
    with mock.patch.object(cfg, "JSON_CHUNK", chunk):
        assert "".join(cfg.json_chunks(streamed)) == cfg.json_text(tree)


def test_cli_strata_summary(workdir, capsys):
    rc = main(["--field", str(workdir / "field.json"), "--format", "summary",
               "strata", "--n", "2", "--g1", str(workdir / "g1.json"),
               "--g2", "id"])
    assert rc == 0
    assert capsys.readouterr().out == "strata=5 closed=4 bound=5 generic=true\n"


def test_cli_units_classify(workdir, capsys):
    rc = main(["--field", str(workdir / "field.json"), "--format", "summary",
               "units", "classify", "--place", "0"])
    assert rc == 0
    assert capsys.readouterr().out == "discrete\n"


def test_cli_units_classify_does_not_depend_on_precision(tmp_path, capsys,
                                                        Kquartic):
    # at the complex place theta has modulus one, proved exactly, so its
    # log modulus prints as 0.0, not an enclosure's midpoint near 0
    cfg.save_field(Kquartic, tmp_path / "field.json")
    for place in range(3):
        outs = []
        for bits in (128, 256):
            assert main(["--field", str(tmp_path / "field.json"),
                         "--precision", str(bits), "units", "classify",
                         "--place", str(place)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].replace('"precision_bits": 128',
                               '"precision_bits": 256') == outs[1]
    assert json.loads(outs[0])["log_vectors"][0][0] == 0.0


def test_cli_units_classify_decides_a_relation_of_large_height(tmp_path,
                                                              capsys,
                                                              Kquartic):
    # u2 and u2 theta^150 share their modulus at the complex place, so the
    # relation (1, -1) leaves one moving unit and the closure is the
    # circle; verifying it means deciding theta^-150, with coefficients
    # near 10^40, on the circle
    u2 = Kquartic.element([2, 0, 2, -1])
    K = nf.create_field([1, -2, 1, -2, 1], declared_units=[
        [2, 0, 2, -1], [int(c) for c in (u2 * Kquartic.theta ** 150).coeffs]],
        label="circle-quartic")
    cfg.save_field(K, tmp_path / "field.json")
    assert main(["--field", str(tmp_path / "field.json"), "units",
                 "classify", "--place", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["classification"], out["relations"]) == ("circle", [[1, -1]])


def test_cli_units_classify_refuses_a_cm_field_without_its_presentation(
        tmp_path, capsys, Kzeta16):
    cfg.save_field(Kzeta16, tmp_path / "field.json")
    assert main(["--field", str(tmp_path / "field.json"), "units",
                 "classify"]) == 2
    assert capsys.readouterr().err == (
        "error: degree > 2 needs a declared CM presentation\n")


def test_cli_bruhat_cell(workdir, tmp_path, capsys, Ksqrt2):
    anti = dc.MatrixK.from_rational_rows(Ksqrt2,
                                         [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    cfg.save_matrix(anti, tmp_path / "anti.json")
    rc = main(["--field", str(workdir / "field.json"),
               "bruhat", "cell", "--h", str(tmp_path / "anti.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["permutation"] == [3, 2, 1]


@pytest.mark.parametrize("cmd", [["cell"], ["ldu", "--subset", "1"]])
def test_cli_bruhat_refuses_n_over_the_minor_table_cap(workdir, capsys, cmd):
    rc = main(["--field", str(workdir / "field.json"), "bruhat", cmd[0],
               "--h", "id", "--n", "11", *cmd[1:]])
    assert rc == 2
    assert "n <= 10" in capsys.readouterr().err


def test_cli_dot_output(workdir, capsys):
    rc = main(["--field", str(workdir / "field.json"), "--format", "dot",
               "strata", "--n", "2", "--g1", str(workdir / "g1.json"),
               "--g2", "id"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph closure {")
    assert "doublecircle" in out            # closed nodes marked


def test_cli_dynamics_bounded(workdir, capsys, Ksqrt2):
    h = dc.unipotent_matrix(Ksqrt2, 2, {(1, 0): Ksqrt2.one}) * \
        dc.diagonal_matrix(Ksqrt2, [Ksqrt2.element([2]),
                                    Ksqrt2.element([Fraction(1, 2)])])
    cfg.save_matrix(h, workdir / "hb.json")
    rc = main(["--field", str(workdir / "field.json"),
               "dynamics", "bounded", "--n", "2",
               "--g1", str(workdir / "hb.json"), "--g2", "id",
               "--path", str(workdir / "path.json"),
               "--C", "4", "--height", "6"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["membership"] is True
    assert out["agrees"] is True


def test_cli_validation_error_exit_2(workdir, capsys):
    rc = main(["--field", str(workdir / "missing.json"), "--format", "summary",
               "units", "classify"])
    assert rc == 2


def test_cli_refuses_a_field_whose_roots_do_not_converge(tmp_path, capsys):
    field = tmp_path / "field.json"
    field.write_text(json.dumps(
        {"min_poly": [str(c) for c in NONCONVERGENT_CUBIC], "units": []}))
    rc = main(["--field", str(field), "units", "classify"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_forms_pipeline(workdir, capsys):
    rc = main(["--field", str(workdir / "field.json"),
               "forms", "to-group", "--form", str(workdir / "f0.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alphas"] == [["1", "0"], ["1", "0"]]


def test_cli_determinism(workdir):
    cmd = [sys.executable, "-m", "torusorbits.cli",
           "--field", str(workdir / "field.json"), "--seed", "7",
           "strata", "--n", "2", "--g1", str(workdir / "g1.json"),
           "--g2", "id"]
    outs = {subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(3)}
    assert len(outs) == 1


def test_meta_embedded(workdir, capsys):
    rc = main(["--field", str(workdir / "field.json"),
               "closed", "--n", "2", "--g1", str(workdir / "g1.json"),
               "--g2", "id"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["meta"]["order"] == "Z[theta]"
    assert out["meta"]["field"] == "q-sqrt2"
    assert out["meta"]["precision_bits"] == 128
    # meta reports the precision a command used: --precision reaches only
    # units classify, every other command works at the default
    rc = main(["--field", str(workdir / "field.json"), "--precision", "256",
               "closed", "--n", "2", "--g1", str(workdir / "g1.json"),
               "--g2", "id"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["meta"]["precision_bits"] == nf.DEFAULT_PRECISION == 128
    rc = main(["--field", str(workdir / "field.json"), "--precision", "256",
               "units", "classify"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["meta"]["precision_bits"] == 256


def test_ellipsoid_matches_direct_scan(Ksqrt2, monkeypatch):
    # the exact-ellipsoid path must find the same minimum as the full scan
    import random
    from torusorbits import dynamics
    rng = random.Random(71)
    i3 = dc.MatrixK.identity(Ksqrt2, 3)
    from conftest import random_sl
    for trial in range(4):
        g = random_sl(Ksqrt2, 3, rng)
        inp = st.OrbitInput((g, i3))
        a = Fraction(2) ** rng.randint(0, 6)
        torus = [(a, Fraction(1), 1 / a), (1 / a, Fraction(1), a)]
        enc_direct, _ = dynamics.systole(inp, torus, 2)
        monkeypatch.setattr(dynamics, "DIRECT_SCAN_CAP", 0)
        enc_fp, _ = dynamics.systole(inp, torus, 2)
        monkeypatch.undo()
        assert abs(float(enc_direct.mid) - float(enc_fp.mid)) < 1e-9


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fmt", ["json", "summary", "dot"])
def test_cli_strata_golden(tmp_path, Ksqrt2, fmt, monkeypatch):
    """`strata` on the acceptance SL3 input, byte for byte against the
    committed output in tests/golden/strata_sl3.<fmt>; rewrite those files
    only for an intended change of the output."""
    monkeypatch.delenv("TORUSORBITS_PRECISION", raising=False)
    cfg.save_field(Ksqrt2, tmp_path / "field.json")
    cfg.save_matrix(dc.MatrixK.from_rational_rows(
        Ksqrt2, [[Fraction(1, 2)] * 3, [1, 2, 4], [1, 3, 9]]),
        tmp_path / "g1.json")
    out = tmp_path / f"strata.{fmt}"
    # the counts are checked once; the summary formats that report
    reports = []
    verify = st.verify_counts
    monkeypatch.setattr(st, "verify_counts",
                        lambda s: reports.append(s) or verify(s))
    rc = main(["--field", str(tmp_path / "field.json"), "--format", fmt,
               "--out", str(out), "strata", "--n", "3",
               "--g1", str(tmp_path / "g1.json"), "--g2", "id"])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"strata_sl3.{fmt}").read_bytes()
    assert len(reports) == 1


# The `strata` JSON of two SL4 inputs of the benchmark, too large for a
# golden file: (records, sha256 of the output bytes).
STRATA_SL4_SHA256 = {
    "generic": (1077, "b6f2d429d7dddeb8cc444319c9527fd7"
                      "8767568ba4e7b2cdc20349e9f174a153"),
    "unipotent": (126, "c32310ca16e140d19e3fac701ab36ae3"
                       "8d180260a933c2e7fd550eae10b6f6c5"),
}


@pytest.mark.parametrize("case", list(STRATA_SL4_SHA256))
def test_cli_strata_sl4_sha256(tmp_path, Ksqrt2, case, monkeypatch):
    """`strata` on the generic (Vandermonde-type) and the unipotent SL4
    input, byte for byte through the sha256 of the output."""
    monkeypatch.delenv("TORUSORBITS_PRECISION", raising=False)
    K = Ksqrt2
    g1 = (dc.MatrixK.from_rational_rows(
        K, [[Fraction(1, 12)] * 4, [1, 2, 4, 8], [1, 3, 9, 27],
            [1, 4, 16, 64]]) if case == "generic" else
        dc.unipotent_matrix(K, 4, {(1, 0): K.one, (2, 1): K.theta,
                                   (3, 2): K.one}))
    cfg.save_field(K, tmp_path / "field.json")
    cfg.save_matrix(g1, tmp_path / "g1.json")
    out = tmp_path / "strata.json"
    assert main(["--field", str(tmp_path / "field.json"), "--out", str(out),
                 "strata", "--n", "4", "--g1", str(tmp_path / "g1.json"),
                 "--g2", "id"]) == 0
    records, digest = STRATA_SL4_SHA256[case]
    data = out.read_bytes()
    assert len(json.loads(data)["records"]) == records
    assert hashlib.sha256(data).hexdigest() == digest


def _strata_inputs(tmp, K, g1, g2):
    """The field and the two components as CLI input files in tmp."""
    cfg.save_field(K, tmp / "field.json")
    cfg.save_matrix(g1, tmp / "g1.json")
    cfg.save_matrix(g2, tmp / "g2.json")
    return ["--field", str(tmp / "field.json")], \
        ["--g1", str(tmp / "g1.json"), "--g2", str(tmp / "g2.json")]


@settings(max_examples=8, deadline=None)
@given(data=hs.data())
def test_streamed_strata_json_matches_the_dict_writer(Ksqrt2, data):
    """`strata` and `closed` JSON, written record by record from rendered
    parts, against json_text of the records as dicts (conftest.records_json)
    on random SL3 and SL4 inputs, generic or not, with an identity or a
    random g2."""
    n = data.draw(hs.sampled_from([3, 3, 4]))
    rng = random.Random(data.draw(hs.integers(0, 2 ** 32)))
    g1 = (generic_sl(Ksqrt2, n, rng) if data.draw(hs.booleans())
          else random_sl(Ksqrt2, n, rng, steps=data.draw(hs.integers(1, 8))))
    g2 = (dc.MatrixK.identity(Ksqrt2, n) if data.draw(hs.booleans())
          else random_sl(Ksqrt2, n, rng))
    s = st.enumerate_strata(g1 * g2, g2)
    edges = st.closure_poset(s)
    counts = st.verify_counts(s)
    want = {
        "strata": {
            "summary": st.summary_line(s, counts),
            "counts": {"strata": counts.strata, "closed": counts.closed,
                       "pairs": counts.pair_count,
                       "bound": counts.strata_bound,
                       "closed_bound": counts.closed_bound},
            "records": records_json(s.records),
            "poset_edges": [list(e) for e in edges]},
        "closed": {
            "closed_count": counts.closed,
            "is_orbit_closed": st.is_orbit_closed(s.input),
            "records": records_json(s.records, closed_only=True)}}
    with tempfile.TemporaryDirectory() as tmp:
        field, comps = _strata_inputs(Path(tmp), Ksqrt2, g1 * g2, g2)
        for command, body in want.items():
            out = Path(tmp) / f"{command}.json"
            assert main(field + ["--out", str(out), command] + comps) == 0
            text = out.read_text()
            meta = json.loads(text)["meta"]
            assert text == cfg.json_text({"meta": meta, **body})


def test_strata_json_streams_in_bounded_memory(tmp_path, Ksqrt2, monkeypatch):
    """Writing the generic SL4 `strata` JSON (3.5 MB) takes at most 4 MiB
    above what the enumeration holds (13.7 MiB when the records were built
    as dicts and rendered as one string), and gives the pinned bytes."""
    monkeypatch.delenv("TORUSORBITS_PRECISION", raising=False)
    g1 = dc.MatrixK.from_rational_rows(
        Ksqrt2, [[Fraction(1, 12)] * 4, [1, 2, 4, 8], [1, 3, 9, 27],
                 [1, 4, 16, 64]])
    field, comps = _strata_inputs(tmp_path, Ksqrt2, g1,
                                  dc.MatrixK.identity(Ksqrt2, 4))
    start, chunks = [], cfg.json_chunks

    def json_chunks(obj):
        start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return chunks(obj)

    monkeypatch.setattr(cfg, "json_chunks", json_chunks)
    out = tmp_path / "strata.json"
    tracemalloc.start()
    try:
        assert main(field + ["--out", str(out), "strata"] + comps) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start[0] <= 4 << 20
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        STRATA_SL4_SHA256["generic"][1]


ACCEPTANCE_8_INPUTS = ("sl2a", "sl2b", "sl3psi", "sl3borel")


def _acceptance_8_path(case, K):
    """g1 (g2 is the identity) and the torus path of one of acceptance 8's
    four boundedness inputs: the SL2 ramps on 8 steps, taking the direct
    scan, and the SL3 paths on their first 10, taking the ellipsoid
    search."""
    u = K.element([1, 1])
    if case == "sl2a":
        g1 = dc.unipotent_matrix(K, 2, {(1, 0): K.one}) * \
            dc.diagonal_matrix(K, [K.element([2]), K.element([Fraction(1, 2)])])
    elif case == "sl2b":
        g1 = dc.unipotent_matrix(K, 2, {(1, 0): K.theta}) * \
            dc.diagonal_matrix(K, [u, u.inverse()])
    elif case == "sl3psi":
        g1 = dc.unipotent_matrix(K, 3, {(2, 0): K.one, (2, 1): K.theta})
    else:
        g1 = rd.longest_element(3).matrix(K) * \
            dc.unipotent_matrix(K, 3, {(0, 1): K.one})
    schedules = {
        "sl2a": ([[k] for k in range(8)], [[-k] for k in range(8)]),
        "sl2b": ([[k] for k in range(8)], [[-k] for k in range(8)]),
        "sl3psi": ([[0, k] for k in range(10)], [[0, -k] for k in range(10)]),
        "sl3borel": ([[2 * k] * 2 for k in range(10)],
                     [[-k] * 2 for k in range(10)]),
    }[case]
    return g1, {"n": g1.n, "bases": ["2", "2"], "schedules": list(schedules)}


KERNEL_CASES = {
    "bruhat_cell": ["bruhat", "cell", "--h", "h.json"],
    "bruhat_ldu": ["bruhat", "ldu", "--h", "ldu.json", "--subset", "1"],
    "bruhat_ldu_absent": ["bruhat", "ldu", "--h", "h.json"],
    "forms_reduce": ["forms", "reduce", "--form", "form.json"],
    "forms_to_group": ["forms", "to-group", "--form", "form.json"],
    "cm_check": ["--seed", "7", "cm", "check", "--form", "form.json",
                 "--height", "10", "--sample", "200", "--index-l", "2"],
    "cm_check_ff": ["--seed", "31", "cm", "check", "--form", "form.json",
                    "--height", "10", "--sample", "500",
                    "--index-l", "2"],
    "dynamics_systole": ["dynamics", "systole", "--g1", "g1.json",
                         "--g2", "g2.json", "--height", "6"],
    "dynamics_path": ["--format", "csv", "dynamics", "path",
                      "--g1", "g1.json", "--g2", "g2.json",
                      "--path", "path.json", "--height", "4"],
    "dynamics_path_ellipsoid": ["--format", "csv", "dynamics", "path",
                                "--g1", "h3.json", "--g2", "i3.json",
                                "--path", "path3.json", "--height", "8"],
    "dynamics_path_h20": ["--format", "csv", "dynamics", "path",
                          "--g1", "g1.json", "--g2", "g2.json",
                          "--path", "path2.json", "--height", "20"],
    **{f"dynamics_path_acc8_{name}": [
        "--format", "csv", "dynamics", "path", "--g1", f"{name}.json",
        "--g2", "i2.json" if name.startswith("sl2") else "i3.json",
        "--path", f"{name}_path.json",
        "--height", "20"] for name in ACCEPTANCE_8_INPUTS},
    "forms_density": ["forms", "density", "--form", "form.json",
                      "--height", "5", "--window=-20,20",
                      "--eps", "0.5"],
    "forms_density_zeta8": ["--seed", "5", "forms", "density",
                            "--form", "form.json", "--height", "2",
                            "--sample", "300", "--window=0,2000",
                            "--eps", "1"],
    "forms_spectrum": ["forms", "spectrum", "--form", "form.json",
                       "--height", "8", "--clip", "100"],
    "forms_spectrum_zeta8": ["--seed", "5", "forms", "spectrum",
                             "--form", "form.json", "--height", "5",
                             "--sample", "300", "--clip", "1e15"],
    "closed": ["closed", "--g1", "g1.json", "--g2", "g2.json"],
    "closed_g2": ["closed", "--g", "g1.json", "--g", "g2.json"],
    "closed_g3": ["closed", "--g", "g1.json", "--g", "g2.json",
                  "--g", "i2.json"],
    "units_classify": ["units", "classify"],
    "forms_scan": ["forms", "scan", "--form", "form.json", "--height", "3"],
    "forms_scan_csv": ["--format", "csv", "forms", "scan", "--form",
                       "form.json", "--height", "3", "--limit", "12"],
    "dynamics_path_json": ["dynamics", "path", "--g1", "g1.json",
                           "--g2", "g2.json", "--path", "path.json",
                           "--height", "4"],
    "dynamics_bounded": ["dynamics", "bounded", "--g1", "sl2a.json",
                         "--g2", "i2.json", "--path", "sl2a_path.json",
                         "--C", "4", "--height", "6"],
}


def _kernel_case(case, tmp_path, Ksqrt2, Kzeta8):
    """Inputs and CLI arguments for one exact linear-algebra or float-image
    path: Bruhat rank profiles, block LDU pivot blocks, determinants and
    inverses in the group bridge, ranks in the variable reduction, the CM
    split, the systole scan, the numeric form values at real and complex
    places and the exact two-place spectrum, and every other command's JSON
    or CSV.  Returns the arguments and the golden file name."""
    K = Kzeta8 if case in ("forms_to_group", "cm_check", "cm_check_ff",
                           "forms_density_zeta8",
                           "forms_spectrum_zeta8") else Ksqrt2
    cfg.save_field(K, tmp_path / "field.json")
    s = Ksqrt2.theta
    h = dc.MatrixK(Ksqrt2, [[0, 1, s], [1, s, 0], [s, 2, 1]])
    ldu = dc.MatrixK(Ksqrt2, [[1, s, 0], [s, 3, 1], [0, 1, s + 2]])
    cfg.save_matrix(h, tmp_path / "h.json")
    cfg.save_matrix(ldu, tmp_path / "ldu.json")
    cfg.save_matrix(dc.MatrixK(Ksqrt2, [[1, s], [s, 3]]), tmp_path / "g1.json")
    cfg.save_matrix(dc.MatrixK.from_rational_rows(Ksqrt2, [[1, 1], [1, 2]]),
                    tmp_path / "g2.json")
    (tmp_path / "path.json").write_text(json.dumps(
        {"n": 2, "bases": ["2", "2"],
         "schedules": [[[k] for k in range(6)], [[k] for k in range(6)]]}))
    # acceptance 8's sl3-psi input and ramp: at height 8 the 17^6-point box
    # exceeds DIRECT_SCAN_CAP, so every step takes the ellipsoid search
    cfg.save_matrix(dc.unipotent_matrix(Ksqrt2, 3, {(2, 0): Ksqrt2.one,
                                                   (2, 1): s}),
                    tmp_path / "h3.json")
    cfg.save_matrix(dc.MatrixK.identity(Ksqrt2, 3), tmp_path / "i3.json")
    (tmp_path / "path3.json").write_text(json.dumps(
        {"n": 3, "bases": ["2", "2"],
         "schedules": [[[0, k] for k in range(4)],
                       [[0, -k] for k in range(4)]]}))
    # acceptance 8's four boundedness inputs at height 20, g2 the identity
    cfg.save_matrix(dc.MatrixK.identity(Ksqrt2, 2), tmp_path / "i2.json")
    for name in ACCEPTANCE_8_INPUTS:
        g, path = _acceptance_8_path(name, Ksqrt2)
        cfg.save_matrix(g, tmp_path / f"{name}.json")
        (tmp_path / f"{name}_path.json").write_text(json.dumps(path))
    # height 20 on SL2 over Q(sqrt 2): the full 41^4-point direct scan
    (tmp_path / "path2.json").write_text(json.dumps(
        {"n": 2, "bases": ["2", "2"], "schedules": [[[2], [3]], [[-2], [-3]]]}))
    if K is Kzeta8:
        r2 = Kzeta8.element([0, 1, 0, -1])
        form = fm.make_form(Kzeta8, [[[1, r2], [r2, 3]]] * 2)
    elif case == "forms_density":
        form = fm.make_form(Ksqrt2, [[[1, s], [1, -s]], [[2, s], [1, 1]]],
                            scalars=[Ksqrt2.element([1, 1]), 3])
    elif case == "forms_spectrum":
        form = fm.make_form(Ksqrt2, [[[1, 0], [0, 1]]] * 2)
    else:
        form = fm.make_form(Ksqrt2, [[[1, 0, s], [0, 1, 1]],
                                     [[1, 1, 0], [0, s, 1]]])
    (tmp_path / "form.json").write_text(json.dumps(cfg.form_to_dict(form)))
    tail = KERNEL_CASES[case]
    golden = f"{case}.csv" if "csv" in tail else f"{case}.json"
    args = ["--field", str(tmp_path / "field.json"),
            "--out", str(tmp_path / "out")]
    return args + [str(tmp_path / t) if t.endswith(".json") else t
                   for t in tail], golden


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_cli_kernel_golden(tmp_path, Ksqrt2, Kzeta8, case, monkeypatch):
    """The CLI paths through exact elimination and through the float images
    of field elements, byte for byte against tests/golden/<case>.json (or
    .csv)."""
    monkeypatch.delenv("TORUSORBITS_PRECISION", raising=False)
    monkeypatch.delenv("TORUSORBITS_SEED", raising=False)
    args, golden = _kernel_case(case, tmp_path, Ksqrt2, Kzeta8)
    assert main(args) == 0
    assert (tmp_path / "out").read_bytes() == (GOLDEN / golden).read_bytes()


def _commands(parser, prefix=()):
    """Every (command, subcommand) of the parser, subcommand None for a
    command without subcommands."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {(prefix + (None,))[:2]}
    return {c for name, p in subs[0].choices.items()
            for c in _commands(p, prefix + (name,))}


def test_every_command_has_a_golden_case():
    """A new command or subcommand cannot ship without its bytes pinned:
    each one needs a case of test_cli_kernel_golden (strata is pinned by
    test_cli_strata_golden)."""
    ap = build_parser()
    covered = {("strata", None)}
    for tail in KERNEL_CASES.values():
        args = ap.parse_args(["--field", "field.json", *tail])
        covered.add((args.command, getattr(args, "subcommand", None)))
    assert _commands(ap) == covered


# The formats a command writes besides JSON.
FORMATS = {("strata", None): ("json", "summary", "dot"),
           ("units", "classify"): ("json", "summary"),
           ("forms", "scan"): ("json", "csv"),
           ("dynamics", "path"): ("json", "csv")}


def _command_args():
    """Each command's arguments, from its first golden case (global flags
    dropped)."""
    out = {("strata", None): ["strata", "--n", "2", "--g1", "id", "--g2", "id"]}
    ap = build_parser()
    for tail in KERNEL_CASES.values():
        while tail[0] in ("--format", "--seed"):
            tail = tail[2:]
        args = ap.parse_args(["--field", "field.json", *tail])
        out.setdefault((args.command, getattr(args, "subcommand", None)), tail)
    return out


COMMAND_ARGS = _command_args()


@pytest.mark.parametrize("fmt", ["json", "dot", "csv", "summary"])
@pytest.mark.parametrize("command", sorted(COMMAND_ARGS, key=str),
                         ids=lambda c: "-".join(filter(None, c)))
def test_cli_refuses_a_format_the_command_cannot_write(tmp_path, capsys,
                                                       command, fmt):
    """A --format the command cannot write exits 2 with one error line
    naming the command's formats, before --field is read; a format it
    writes goes on to read --field (missing here)."""
    field = tmp_path / "none.json"
    rc = main(["--field", str(field), "--format", fmt, *COMMAND_ARGS[command]])
    formats = FORMATS.get(command, ("json",))
    name = " ".join(filter(None, command))
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{field}'\n"
        if fmt in formats else
        f"error: {name} has no --format {fmt}; its formats: "
        f"{', '.join(formats)}\n")


FIELD = ["--field", "field.json"]
ERROR_CASES = {
    "no_field": (["strata", "--n", "2", "--g1", "id", "--g2", "id"],
                 "error: --field is required"),
    "id_without_n": ([*FIELD, "strata", "--g1", "id", "--g2", "id"],
                     "error: --n is required with the id shorthand"),
    "g_with_g1": ([*FIELD, "closed", "--g", "g1.json", "--g1", "g1.json"],
                  "error: pass either --g components or --g1/--g2"),
    "closed_neither": ([*FIELD, "closed"],
                       "error: need --g1 and --g2, or repeated --g"),
    "det_not_one": ([*FIELD, "closed", "--g1", "det2.json", "--g2", "g1.json"],
                    "error: components must have determinant one"),
    "missing_path": ([*FIELD, "dynamics", "path", "--g1", "g1.json", "--g2",
                      "id", "--n", "2", "--path", "none.json"],
                     "error: [Errno 2] No such file or directory: "
                     "'{tmp}/none.json'"),
    "unwritable_out": ([*FIELD, "--out", "no/out.json", "strata",
                        "--g1", "g1.json", "--g2", "id", "--n", "2"],
                       "error: [Errno 2] No such file or directory: "
                       "'{tmp}/no/out.json'"),
    "failed_hypothesis": ([*FIELD, "dynamics", "bounded", "--g1", "g1.json",
                           "--g2", "id", "--n", "2", "--path", "down.json"],
                          "error: first place root value fell below 1/C"),
    # malformed input files
    "field_without_min_poly": (["--field", "bad.json", "units", "classify"],
                               "error: field config {tmp}/bad.json misses "
                               "key 'min_poly'"),
    "matrix_without_rows": ([*FIELD, "bruhat", "cell", "--h", "bad.json"],
                            "error: matrix {tmp}/bad.json misses key 'rows'"),
    "list_as_matrix": ([*FIELD, "bruhat", "cell", "--h", "list.json"],
                       "error: matrix {tmp}/list.json is malformed: list "
                       "indices must be integers or slices, not str"),
    "coefficient_x": ([*FIELD, "bruhat", "cell", "--h", "x.json"],
                      "error: matrix {tmp}/x.json: expected a rational "
                      "string, got 'x'"),
    "path_exponent_x": ([*FIELD, "dynamics", "path", "--g1", "g1.json",
                         "--g2", "id", "--n", "2", "--path", "xexp.json"],
                        "error: torus path {tmp}/xexp.json is malformed: "
                        "invalid literal for int() with base 10: 'x'"),
    "path_base_x": ([*FIELD, "dynamics", "path", "--g1", "g1.json",
                     "--g2", "id", "--n", "2", "--path", "xbase.json"],
                    "error: torus path {tmp}/xbase.json: expected a rational "
                    "string, got 'x'"),
    "path_without_bases": ([*FIELD, "dynamics", "path", "--g1", "g1.json",
                            "--g2", "id", "--n", "2", "--path", "bad.json"],
                           "error: torus path {tmp}/bad.json misses key "
                           "'bases'"),
    "form_without_factors": ([*FIELD, "forms", "reduce", "--form", "bad.json"],
                             "error: form {tmp}/bad.json misses key "
                             "'factors'"),
    # an 11 x 11 matrix: its declared determinant is past the minors' cap
    "matrix_11x11": ([*FIELD, "bruhat", "cell", "--h", "big.json"],
                     "error: matrix {tmp}/big.json: the table of minors "
                     "supports n <= 10"),
    # malformed flag values
    "bounded_C_x": ([*FIELD, "dynamics", "bounded", "--g1", "g1.json",
                     "--g2", "id", "--n", "2", "--path", "path.json",
                     "--C", "x"],
                    "error: malformed --C 'x'"),
    "density_window_1": ([*FIELD, "forms", "density", "--form", "f0.json",
                          "--height", "2", "--window", "1"],
                         "error: malformed --window '1'"),
    # window bounds and cell sizes that are not finite, and empty windows
    "density_window_reversed": ([*FIELD, "forms", "density", "--form",
                                 "f0.json", "--height", "1", "--window=5,-5"],
                                "error: window bounds must be finite with "
                                "lo < hi"),
    "density_window_nan": ([*FIELD, "forms", "density", "--form", "f0.json",
                            "--height", "1", "--window", "nan,5"],
                           "error: window bounds must be finite with lo < hi"),
    "density_window_inf": ([*FIELD, "forms", "density", "--form", "f0.json",
                            "--height", "1", "--window=-5,inf"],
                           "error: window bounds must be finite with lo < hi"),
    "density_eps_inf": ([*FIELD, "forms", "density", "--form", "f0.json",
                         "--height", "1", "--eps", "inf"],
                        "error: eps must be finite and positive"),
    "ldu_subset_a": ([*FIELD, "bruhat", "ldu", "--h", "g1.json",
                      "--subset", "a"],
                     "error: malformed --subset 'a'"),
    # a path without steps, and paths whose torus images or ladder Grams
    # overflow floats
    "path_no_steps": ([*FIELD, "dynamics", "path", "--g1", "id", "--g2", "id",
                       "--n", "2", "--path", "empty.json"],
                      "error: torus path {tmp}/empty.json: all places need "
                      "the same number of steps, at least one"),
    "bounded_no_steps": ([*FIELD, "dynamics", "bounded", "--g1", "id",
                          "--g2", "id", "--n", "2", "--path", "empty.json"],
                         "error: torus path {tmp}/empty.json: all places "
                         "need the same number of steps, at least one"),
    "path_torus_overflow": ([*FIELD, "dynamics", "path", "--g1", "id",
                             "--g2", "id", "--n", "2", "--height", "3",
                             "--path", "far2.json"],
                            "error: the torus images overflow floats"),
    "path_ladder_overflow": ([*FIELD, "dynamics", "path", "--g1", "id",
                              "--g2", "id", "--n", "3", "--height", "20",
                              "--path", "far3.json"],
                             "error: the ladder's Grams overflow floats"),
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_cli_error_paths(workdir, Ksqrt2, capsys, monkeypatch, case):
    """Each error path's exit status and its one stderr line; a .json
    argument names a file in the work directory."""
    monkeypatch.delenv("TORUSORBITS_FIELD", raising=False)
    cfg.save_matrix(dc.MatrixK.from_rational_rows(Ksqrt2, [[2, 0], [0, 1]]),
                    workdir / "det2.json")
    (workdir / "down.json").write_text(json.dumps(
        {"n": 2, "bases": ["2", "2"],
         "schedules": [[[-k] for k in range(4)], [[-k] for k in range(4)]]}))
    (workdir / "bad.json").write_text(json.dumps(
        {"label": "bad", "n": 2, "m": 2, "schedules": []}))
    (workdir / "list.json").write_text("[1, 2]")
    (workdir / "big.json").write_text(json.dumps(
        {"rows": [[["1" if i == j else "0", "0"] for j in range(11)]
                  for i in range(11)], "det": ["1", "0"]}))
    (workdir / "x.json").write_text(json.dumps(
        {"rows": [[["x", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}))
    for name, bases, exponent in (("xexp", "2", "x"), ("xbase", "x", 1)):
        (workdir / f"{name}.json").write_text(json.dumps(
            {"n": 2, "bases": [bases, "2"],
             "schedules": [[[exponent]], [[0]]]}))
    for name, n, schedules in (("empty", 2, [[], []]),
                               ("far2", 2, [[[2000]], [[-2000]]]),
                               ("far3", 3, [[[0, 200]], [[0, -200]]])):
        (workdir / f"{name}.json").write_text(json.dumps(
            {"n": n, "bases": ["2", "2"], "schedules": schedules}))
    argv, line = ERROR_CASES[case]
    assert main([str(workdir / t) if t.endswith(".json") else t
                 for t in argv]) == 2
    assert capsys.readouterr().err == line.format(tmp=workdir) + "\n"


def test_cli_subset_full(workdir, capsys):
    assert main(["--field", str(workdir / "field.json"), "bruhat", "ldu",
                 "--h", "id", "--n", "2", "--subset", "full"]) == 0
    assert json.loads(capsys.readouterr().out)["subset"] == [1]


def test_cli_invariant_violation_exits_3(workdir, capsys, monkeypatch):
    def violated(*args, **kwargs):
        raise InvariantViolation("recomposition failed")

    monkeypatch.setattr(nf, "unit_closure_classify", violated)
    assert main(["--field", str(workdir / "field.json"), "units",
                 "classify"]) == 3
    assert capsys.readouterr().err == ("invariant violation: recomposition "
                                       "failed\n")


@pytest.mark.parametrize("flags", [["--window=5,-5"], ["--eps", "inf"]])
def test_cli_density_refuses_before_the_scan(workdir, capsys, monkeypatch,
                                             flags):
    def scan_values(*args, **kwargs):
        raise AssertionError("the scan ran before the window was checked")

    monkeypatch.setattr(fm, "scan_values", scan_values)
    assert main(["--field", str(workdir / "field.json"), "forms", "density",
                 "--form", str(workdir / "f0.json"), "--height", "30",
                 "--sample", "1000000", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name, value", [("seed", "abc"), ("precision", ""),
                                         ("precision", "1e3")])
def test_cli_malformed_env_override(workdir, capsys, monkeypatch, name, value):
    """A malformed TORUSORBITS_ override is a usage error (exit 2) when its
    flag is absent, and unused when the flag is given."""
    monkeypatch.setenv(f"TORUSORBITS_{name.upper()}", value)
    argv = ["--field", str(workdir / "field.json"), "--format", "summary",
            "units", "classify"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"argument --{name}: invalid int value: {value!r}"
            in capsys.readouterr().err)
    assert main([f"--{name}", "128", *argv]) == 0
    assert capsys.readouterr().out == "discrete\n"
