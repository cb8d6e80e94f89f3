"""Every refusal of the library that valid use can reach, one case each, as
test_cli_error_paths does for the command line; and the rare branches that
only a contrived input or a stubbed dependency reaches."""

import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from torusorbits import config as cfg
from torusorbits import decomp as dc
from torusorbits import dynamics as dy
from torusorbits import forms as fm
from torusorbits import numfield as nf
from torusorbits import polyutil as pu
from torusorbits import rootdata as rd
from torusorbits import strata as st
from torusorbits.errors import (ArityMismatch, CapExceeded, DivisionByZero,
                                HypothesisViolated, NotCm, NotMonic,
                                PrecisionExhausted, Reducible,
                                SearchExhausted, UnitVerificationFailed,
                                ValidationError, WrongPlaceCount)
from torusorbits.intervals import RInt, log_rint

ZETA8 = [1, 0, 0, 0, 1]
ZETA8_UNITS = [[1, 1, 0, -1]]
ZETA8_CM = dict(subfield_poly=[-2, 0, 1], subfield_gen=[0, 1, 0, -1],
                d=[1, 0, 0, 0], relative_gen=[0, 0, 1, 0])


def cm_field(**changes):
    return nf.create_field(ZETA8, declared_units=ZETA8_UNITS,
                           cm_structure={**ZETA8_CM, **changes})


def ident(K, n=2):
    return dc.MatrixK.identity(K, n)


def orbit(K, n=2):
    return st.OrbitInput((ident(K, n), ident(K, n)))


def path(bases, *schedules):
    return dy.TorusPath(2, bases, schedules)


def binary(K, scalars=None):
    return fm.make_form(K, [[[1, 0], [0, 1]]] * K.n_places, scalars=scalars)


WINDOW = ((-1.0, 1.0), (-1.0, 1.0))

# case: (call on the fields, exception, message pattern)
CASES = {
    # config
    "matrix_id_string": (lambda F: cfg.matrix_from_dict(F.sqrt2, "id"),
                         ValidationError, "size for the identity"),
    "matrix_det_mismatch": (
        lambda F: cfg.matrix_from_dict(F.sqrt2, {
            **cfg.matrix_to_dict(ident(F.sqrt2)),
            "det": cfg.elem_to_list(F.sqrt2.element([5]))}),
        ValidationError, "declared determinant does not match"),
    "form_table_shape": (
        lambda F: cfg.form_from_dict(F.sqrt2, {
            "n": 2, "m": 2, "factors": [[["1", "0"]]] * 2}),
        ValidationError, "wrong shape"),
    # decomp
    "matrix_times_int": (lambda F: ident(F.sqrt2) * 2, TypeError,
                         "unsupported operand"),
    "matrix_size_mismatch": (lambda F: ident(F.sqrt2) * ident(F.sqrt2, 3),
                             ValidationError, "size or field mismatch"),
    "present_size_mismatch": (
        lambda F: dc.MinorTable(ident(F.sqrt2)).present(
            rd.RootSubset.empty(3), rd.identity_weyl(3), rd.identity_weyl(3)),
        ValidationError, "size mismatch"),
    "unipotent_diagonal": (
        lambda F: dc.unipotent_matrix(F.sqrt2, 2, {(0, 0): 1}),
        ValidationError, "diagonal entries"),
    # dynamics
    "path_base": (lambda F: path((0, 2), ((0,),), ((0,),)),
                  ValidationError, "bases must be positive"),
    "path_steps": (lambda F: path((2, 2), ((0,),), ((0,), (0,))),
                   ValidationError, "same number of steps"),
    "path_no_steps": (lambda F: path((2, 2), (), ()), ValidationError,
                      "same number of steps, at least one"),
    "path_exponents": (lambda F: path((2, 2), ((0, 0),), ((0, 0),)),
                       ValidationError, "n-1 exponents"),
    "systole_height": (lambda F: dy.systole(orbit(F.sqrt2), [[1, 1]] * 2, 0),
                       ValidationError, "height must be at least 1"),
    "systole_torus": (lambda F: dy.systole(orbit(F.sqrt2), [[1, 1]], 1),
                      ValidationError, "one diagonal entry"),
    "systole_complex_box": (
        lambda F: dy.systole(orbit(F.zeta8), [[1, 1]] * 2, 4),
        CapExceeded, "two-real-place search path"),
    "ldl_not_finite": (lambda F: dy._ldl(np.full((1, 2, 2), np.inf)),
                       OverflowError, "non-finite"),
    "run_path_shape": (
        lambda F: dy.run_path(orbit(F.sqrt2), dy.TorusPath(
            3, (2, 2), (((0, 0),), ((0, 0),))), 1),
        ValidationError, "path shape"),
    "bounded_C": (
        lambda F: dy.check_boundedness(
            ident(F.sqrt2), ident(F.sqrt2), rd.RootSubset.empty(2),
            path((2, 2), ((0,),), ((0,),)), 1),
        ValidationError, "C must exceed 1"),
    "bounded_three_places": (
        lambda F: dy.check_boundedness(
            ident(F.sqrt2), ident(F.sqrt2), rd.RootSubset.empty(2),
            dy.TorusPath(2, (2, 2, 2), (((0,),),) * 3), 4),
        HypothesisViolated, "two places"),
    "bounded_band": (
        lambda F: dy.check_boundedness(
            ident(F.sqrt2), ident(F.sqrt2), rd.RootSubset.full(2),
            path((2, 2), ((0,),), ((3,),)), 4),
        HypothesisViolated, r"\(1/C, C\) band"),
    "bounded_no_decay": (
        lambda F: dy.check_boundedness(
            ident(F.sqrt2), ident(F.sqrt2), rd.RootSubset.empty(2),
            path((2, 2), ((0,), (0,)), ((0,), (0,))), 4),
        HypothesisViolated, "does not decay"),
    "limit_three_places": (
        lambda F: dy.predicted_limit(
            st.OrbitInput((ident(F.cubic),) * 3), rd.RootSubset.empty(2),
            rd.identity_weyl(2), rd.identity_weyl(2)),
        ValidationError, "two places"),
    # forms
    "form_no_factor": (lambda F: fm.make_form(F.sqrt2, [[], []]),
                       ArityMismatch, "at least one factor"),
    "form_arities": (lambda F: fm.make_form(F.sqrt2, [[[1, 0], [0, 1, 0]]] * 2),
                     ArityMismatch, "arities differ"),
    "form_zero_scalar": (lambda F: binary(F.sqrt2, scalars=[0, 1]),
                         ValidationError, "nonzero scalar"),
    "group_bridge_not_square": (
        lambda F: fm.form_to_group(fm.make_form(F.sqrt2, [[[1, 0]]] * 2)),
        ValidationError, "as many factors as variables"),
    "scan_height": (lambda F: fm.scan_values(binary(F.sqrt2), 0),
                    ValidationError, "height must be positive"),
    "window_ternary": (
        lambda F: fm.window_scan(fm.make_form(
            F.sqrt2, [[[1, 0, 0], [0, 1, 0]]] * 2), 1, WINDOW),
        ValidationError, "binary forms"),
    "window_place_count": (lambda F: fm.window_scan(binary(F.sqrt2), 1,
                                                    WINDOW[:1]),
                           ValidationError, "one window interval per place"),
    "window_one_factor": (
        lambda F: fm.window_scan(fm.make_form(F.sqrt2, [[[1, 0]]] * 2), 1,
                                 WINDOW),
        ValidationError, "two factors"),
    # a nonzero scalar whose float image underflows to 0.0
    "window_underflowing_scalar": (
        lambda F: fm.window_scan(binary(F.sqrt2, [Fraction(1, 10 ** 400)] * 2),
                                 1, WINDOW),
        ValidationError, "zero scalar"),
    "spectrum_three_places": (
        lambda F: fm.norm_product_spectrum(
            fm.make_form(F.cubic, [[[1, 0], [0, 1]]] * 3), 1),
        WrongPlaceCount, "exactly two places"),
    "spectrum_not_monomial": (
        lambda F: fm.norm_product_spectrum(
            fm.make_form(F.sqrt2, [[[1, 1], [0, 1]]] * 2), 1),
        ValidationError, "monomial factors"),
    "spectrum_uncovered_variable": (
        lambda F: fm.norm_product_spectrum(
            fm.make_form(F.sqrt2, [[[1, 0]]] * 2), 1),
        ValidationError, "cover each variable once"),
    "spectrum_per_point_cap": (
        lambda F: fm.two_place_spectrum(fm.FormScan(
            fm.make_form(F.sqrt2, [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]), 1,
            np.zeros((fm.EXACT_POINT_CAP + 1, 4), dtype=np.int64), "sampled",
            np.zeros(fm.EXACT_POINT_CAP + 1, dtype=bool))),
        CapExceeded, "smaller scan"),
    "suborder_without_presentation": (
        lambda F: fm.verify_suborder_index(F.gauss, 1),
        NotCm, "no CM presentation"),
    "cm_ternary": (
        lambda F: fm.cm_obstruction_check(fm.make_form(
            F.zeta8, [[[1, 0, 0], [0, 1, 0]]] * 2), None, 2),
        ValidationError, r"binary forms \(n = m = 2\)"),
    "cm_scalars": (
        lambda F: fm.cm_obstruction_check(binary(F.zeta8, [2, 2]), None, 2),
        ValidationError, "scalars must be one"),
    "cm_index": (lambda F: fm.cm_obstruction_check(binary(F.zeta8), None, 3),
                 ValidationError, "declared index 3"),
    "cm_det": (
        lambda F: fm.cm_obstruction_check(
            fm.make_form(F.zeta8, [[[2, 0], [0, 1]]] * 2), None, 2),
        ValidationError, "det 1"),
    # intervals
    "rint_from_float": (lambda F: RInt(0.5), TypeError, "exact rational"),
    "rint_empty": (lambda F: RInt(1, 0), ValueError, "empty interval"),
    "rint_inverse_of_zero": (lambda F: RInt(-1, 1).inverse(),
                             ZeroDivisionError, "contains zero"),
    "log_nonpositive": (lambda F: log_rint(RInt(0, 1)), ValueError,
                        "strictly positive"),
    # numfield
    "elements_of_two_fields": (lambda F: F.sqrt2.one + F.cubic.one,
                               ValidationError, "different fields"),
    "number_field_constructor": (
        lambda F: nf.NumberField(pu.poly([1, 0, 1]), "q-i"),
        ValidationError, "create_field"),
    "places_precision": (lambda F: F.sqrt2.places(32), ValidationError,
                         "at least 64 bits"),
    "ladder_exhausted": (lambda F: list(F.sqrt2._ladder(nf.MAX_PRECISION)),
                         PrecisionExhausted, "exceeded"),
    "log_of_zero": (lambda F: F.sqrt2.log_abs(F.sqrt2.zero,
                                              F.sqrt2.places()[0]),
                    DivisionByZero, "log of zero"),
    "constant_polynomial": (lambda F: nf.create_field([3]), ValidationError,
                            "constant polynomial"),
    "degree_cap": (lambda F: nf.create_field([1] + [0] * 8 + [1]),
                   ValidationError, "degree cap"),
    "rational_coefficient": (lambda F: nf.create_field([Fraction(1, 2), 0, 1]),
                             NotMonic, "integers"),
    "unit_not_integral": (
        lambda F: nf.create_field([-2, 0, 1],
                                  declared_units=[[Fraction(1, 2), 1]]),
        UnitVerificationFailed, r"not in Z\[theta\]"),
    "units_dependent": (
        lambda F: nf.create_field([-1, -3, 0, 1],
                                  declared_units=[[0, 1], [0, 0, 1]]),
        UnitVerificationFailed, "dependent"),
    "cm_subfield_degree": (lambda F: cm_field(subfield_poly=[-2, 1]),
                           ValidationError, "half the field degree"),
    "cm_subfield_not_monic": (lambda F: cm_field(subfield_poly=[-2, 0, 2]),
                              ValidationError, "monic integral"),
    "cm_subfield_repeated": (lambda F: cm_field(subfield_poly=[1, 2, 1]),
                             Reducible, "repeated factor"),
    "cm_relative_gen": (lambda F: cm_field(relative_gen=[0, 1, 0, 0]),
                        ValidationError, "must vanish exactly"),
    # zeta8^2 = -i: d = -zeta8^2 has relative_gen zeta8 and is not in Q(sqrt 2)
    "cm_d_outside_subfield": (lambda F: cm_field(d=[0, 0, -1, 0],
                                                 relative_gen=[0, 1, 0, 0]),
                              ValidationError, "declared subfield"),
    "discriminant_basis": (
        lambda F: nf.order_discriminant(F.sqrt2, [F.sqrt2.one]),
        ValidationError, "length equal to the degree"),
    "modulus_one_real_place": (
        lambda F: nf.modulus_is_one(F.sqrt2, F.sqrt2.one, F.sqrt2.places()[0]),
        ValidationError, "complex places"),
    "no_such_place": (lambda F: nf.unit_closure_classify(F.sqrt2, 5),
                      ValidationError, "no such place"),
    # polyutil
    "poly_division_by_zero": (lambda F: pu.pdivmod(pu.poly([1, 1]),
                                                   pu.poly([0])),
                              ZeroDivisionError, "division by zero"),
    "refine_without_sign_change": (
        lambda F: pu.refine_root(pu.poly([-2, 0, 1]), RInt(2, 3),
                                 Fraction(1, 8)),
        ValueError, "isolating interval"),
    "eval_rational_coefficient": (
        lambda F: pu.MultiPoly.const(1, Fraction(1, 2)).eval_int_numpy(
            [np.arange(3)]),
        ValueError, "integer coefficients"),
    # rootdata
    "subset_rank": (lambda F: rd.RootSubset(0, frozenset()), ValidationError,
                    "n must be positive"),
    "subset_index": (lambda F: rd.RootSubset(2, frozenset({2})),
                     ValidationError, "out of range"),
    "longest_element_rank": (lambda F: rd.longest_element(1), ValidationError,
                             "at least 2"),
    "descriptor_size": (
        lambda F: rd.parabolic_descriptor(rd.RootSubset.empty(3),
                                          rd.identity_weyl(2)),
        ValidationError, "size mismatch"),
    # strata
    "one_component": (lambda F: st.OrbitInput((ident(F.sqrt2),)),
                      ValidationError, "at least two components"),
    "components_of_two_sizes": (
        lambda F: st.enumerate_strata(ident(F.sqrt2), ident(F.sqrt2, 3)),
        ValidationError, "share size and field"),
}


@pytest.fixture(scope="module")
def fields(Ksqrt2, Kcubic, Kzeta8, Kgauss):
    return SimpleNamespace(sqrt2=Ksqrt2, cubic=Kcubic, zeta8=Kzeta8,
                           gauss=Kgauss)


@pytest.mark.parametrize("case", list(CASES))
def test_library_error_paths(fields, case):
    call, exc, pattern = CASES[case]
    with pytest.raises(exc, match=pattern):
        call(fields)


def test_window_scan_runs_at_complex_places(Kzeta8):
    """The window scan takes a field with a complex place: over Q(zeta8) it
    holds every box point whose squared moduli lie inside the window, and
    none outside it beyond rounding."""
    f = binary(Kzeta8)
    scan = fm.window_scan(f, 1, WINDOW)
    full = fm.scan_values(f, 1)
    vals = np.array([full.numeric_values(v) for v in range(f.r)])
    inside, near = ({tuple(p) for p in full.points[np.all(vals <= top, axis=0)]
                     .tolist()} for top in (1 - 1e-6, 1 + 1e-6))
    assert scan.mode == "window-complete" and inside
    assert inside <= {tuple(p) for p in scan.points.tolist()} <= near


def test_reduce_variables_refuses_after_every_draw_fails(Ksqrt2, monkeypatch):
    # a substitution of zeros makes every reduced factor list dependent
    form = fm.make_form(Ksqrt2, [[[1, 0, 0], [0, 1, 0]],
                                 [[1, 1, 0], [0, 1, 1]]])
    zeros = SimpleNamespace(randint=lambda lo, hi: 0)
    monkeypatch.setattr(fm, "random",
                        SimpleNamespace(Random=lambda seed: zeros))
    monkeypatch.setattr(fm, "REDUCE_DRAWS", 3)
    with pytest.raises(SearchExhausted, match="no valid substitution in 3"):
        fm.reduce_variables(form)


def test_sampler_refuses_when_draws_stall(Ksqrt2, monkeypatch):
    # a generator that only ever draws the zero row adds no point
    class Zeros:
        def integers(self, lo, hi, size, dtype):
            return np.zeros(size, dtype=dtype)

    monkeypatch.setattr(fm.np.random, "default_rng", lambda seed: Zeros())
    with pytest.raises(SearchExhausted, match="sampling stalled"):
        fm.scan_values(binary(Ksqrt2), 2, sample=3)


@pytest.mark.parametrize("approx", [[0, 0], [1j, 1j]],
                         ids=["critical-point", "overlapping"])
def test_root_regions_refuse_uncertified_approximations(monkeypatch, approx):
    # p'(0) = 0 leaves no radius; two equal approximations give overlapping
    # disks; either way every doubling of the precision fails to certify
    monkeypatch.setattr(mpmath, "polyroots",
                        lambda *a, **kw: [mpmath.mpc(z) for z in approx])
    with pytest.raises(PrecisionExhausted, match="could not be certified"):
        pu.root_regions(pu.poly([1, 0, 1]), 64)


def test_modulus_one_refines_a_box_too_wide_to_invert(Kquartic, monkeypatch):
    # a first rung whose |z|^2 encloses 0 and 1 decides nothing: the
    # separation test needs |z|^2 bounded away from 0; the next rung decides
    pl = next(p for p in Kquartic.places() if not p.is_real)
    evaluate, calls = Kquartic._evaluate, []

    def wide_first(x, index, bits):
        calls.append(bits)
        if len(calls) == 1:
            return nf.CBox(RInt(-1, 1), RInt(-1, 1))
        return evaluate(x, index, bits)

    monkeypatch.setattr(Kquartic, "_evaluate", wide_first)
    assert nf.modulus_is_one(Kquartic, Kquartic.theta, pl) is True
    assert len(calls) == 2 and calls[1] == 2 * calls[0]


def test_modulus_one_off_the_circle(Kquartic, Kzeta8):
    pl = next(p for p in Kquartic.places() if not p.is_real)
    assert nf.modulus_is_one(Kquartic, Kquartic.zero, pl) is False
    # (1 + sqrt 2)^2 has the reciprocal polynomial t^2 - 6t + 1, so the
    # polynomial test passes it on, but its modulus is 3 + 2 sqrt 2 or its
    # inverse at every place
    u = Kzeta8.units[0]
    for pl in Kzeta8.places():
        assert nf.modulus_is_one(Kzeta8, u * u, pl) is False


def test_element_equality_with_other_types(Ksqrt2):
    assert Ksqrt2.one == 1
    assert Ksqrt2.from_rational("1/3") == Ksqrt2.element([Fraction(1, 3)])
    assert (Ksqrt2.one == object()) is False


def test_small_edge_values():
    assert abs(RInt(-1, 2)).lo == 0 and abs(RInt(-1, 2)).hi == 2
    assert pu.pderiv(pu.poly([3])) == (Fraction(0),)
    assert pu.MultiPoly.const(2, 3).eval_int_numpy(
        [np.arange(2), np.arange(2)]).tolist() == [3, 3]
    # one log modulus of 5: no second value in [-1, 1], so no gap
    assert nf._ray_gap_statistic([5.0]) == math.inf
