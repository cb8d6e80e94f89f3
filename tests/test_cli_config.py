import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torusorbits import config as cfg
from torusorbits import decomp as dc
from torusorbits import dynamics as dy
from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import strata as st
from torusorbits.cli import main


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
    data["det"] = [["5", "0"], ["0", "0"]][0:1] + [["0"] * 1]
    data["det"] = [["5"], ["0"]]
    with pytest.raises(Exception):
        cfg.matrix_from_dict(Ksqrt2, data)


def test_rational_string_roundtrip():
    for q in (Fraction(3, 7), Fraction(-11, 4), Fraction(5), Fraction(0)):
        assert cfg.rat_from_str(cfg.rat_to_str(q)) == q


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


def test_cli_bruhat_cell(workdir, tmp_path, capsys, Ksqrt2):
    anti = dc.MatrixK.from_rational_rows(Ksqrt2,
                                         [[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    cfg.save_matrix(anti, tmp_path / "anti.json")
    rc = main(["--field", str(workdir / "field.json"),
               "bruhat", "cell", "--h", str(tmp_path / "anti.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["permutation"] == [3, 2, 1]


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
    rc = main(["--field", str(tmp_path / "field.json"), "--format", fmt,
               "--out", str(out), "strata", "--n", "3",
               "--g1", str(tmp_path / "g1.json"), "--g2", "id"])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"strata_sl3.{fmt}").read_bytes()


def _kernel_case(case, tmp_path, Ksqrt2, Kzeta8):
    """Inputs and CLI arguments for one exact linear-algebra or float-image
    path: Bruhat rank profiles, block LDU pivot blocks, determinants and
    inverses in the group bridge, ranks in the variable reduction, the CM
    split, the systole scan, the numeric form values at real and complex
    places and the exact two-place spectrum.  Returns the arguments and the
    golden file name."""
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
    tail = {
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
    }[case]
    golden = f"{case}.csv" if "csv" in tail else f"{case}.json"
    args = ["--field", str(tmp_path / "field.json"),
            "--out", str(tmp_path / "out")]
    return args + [str(tmp_path / t) if t.endswith(".json") else t
                   for t in tail], golden


@pytest.mark.parametrize("case", ["bruhat_cell", "bruhat_ldu",
                                  "bruhat_ldu_absent", "forms_reduce",
                                  "forms_to_group", "cm_check",
                                  "cm_check_ff", "dynamics_systole", "dynamics_path",
                                  "dynamics_path_ellipsoid",
                                  "dynamics_path_h20", "forms_density",
                                  "forms_density_zeta8", "forms_spectrum",
                                  "forms_spectrum_zeta8"])
def test_cli_kernel_golden(tmp_path, Ksqrt2, Kzeta8, case, monkeypatch):
    """The CLI paths through exact elimination and through the float images
    of field elements, byte for byte against tests/golden/<case>.json (or
    .csv)."""
    monkeypatch.delenv("TORUSORBITS_PRECISION", raising=False)
    monkeypatch.delenv("TORUSORBITS_SEED", raising=False)
    args, golden = _kernel_case(case, tmp_path, Ksqrt2, Kzeta8)
    assert main(args) == 0
    assert (tmp_path / "out").read_bytes() == (GOLDEN / golden).read_bytes()
