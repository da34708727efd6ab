"""Weight families, dyadic tails, and the derived constants chain."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from confdeform.weight import WeightError, WeightFunction, derive_constants


# -- evaluation ----------------------------------------------------------------


def test_power_values():
    w = WeightFunction.power(2)
    assert w.value(0.5) == 1.0
    assert w.value(1.0) == 1.0
    assert w.value(2.0) == 0.25
    assert w.value(4.0) == 1.0 / 16.0
    arr = w.value(np.array([0.25, 1.0, 8.0]))
    assert arr.tolist() == [1.0, 1.0, 8.0 ** -2]
    assert w(3.0) == w.value(3.0)


def test_power_log_values():
    w = WeightFunction.power_log(2, 1)
    assert w.value(0.9) == 1.0
    e = math.e
    assert math.isclose(w.value(e), e ** -2 / 2.0, rel_tol=1e-15)


def test_value_rejects_nonpositive():
    w = WeightFunction.power(2)
    with pytest.raises(WeightError):
        w.value(0.0)
    with pytest.raises(WeightError):
        w.value(np.array([1.0, -2.0]))


@settings(max_examples=40)
@given(st.floats(min_value=1.2, max_value=5.0),
       st.floats(min_value=0.0, max_value=3.0))
def test_weight_is_one_then_nonincreasing(beta, kappa):
    w = WeightFunction.power_log(beta, kappa)
    grid = np.linspace(0.1, 50.0, 400)
    vals = w.value(grid)
    assert (vals[grid <= 1.0] == 1.0).all()
    assert (np.diff(vals) <= 1e-15).all()
    assert (vals > 0).all()


# -- reverse doubling ----------------------------------------------------------


def test_reverse_doubling_power_is_exact():
    assert WeightFunction.power(2).c_phi == 4.0
    assert WeightFunction.power(1.5).c_phi == 2.0 ** 1.5
    assert WeightFunction.power(3).c_phi == 8.0


def test_reverse_doubling_power_log_brackets_true_sup():
    w = WeightFunction.power_log(2, 1)
    # the ratio phi(t)/phi(2t) peaks at t = 1 with value 4*(1+log 2)
    true_sup = 4.0 * (1.0 + math.log(2.0))
    assert true_sup <= w.c_phi <= true_sup * 1.02


# -- dyadic tails ----------------------------------------------------------------


def test_tail_sum_power_closed_form():
    w = WeightFunction.power(2)
    assert w.tail_sum(0) == 2.0
    assert w.tail_sum(1) == 1.0
    assert w.tail_sum(3) == 0.25
    with pytest.raises(WeightError):
        w.tail_sum(-1)


def fsum_tail(w, m, terms=900):
    # stay below n = 1024 so 2.0**n itself never overflows
    return math.fsum(2.0 ** n * w.value(2.0 ** n) for n in range(m, m + terms))


@pytest.mark.parametrize("beta", [1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("m", [0, 1, 5])
def test_tail_sum_matches_direct_summation(beta, m):
    w = WeightFunction.power(beta)
    assert math.isclose(w.tail_sum(m), fsum_tail(w, m), rel_tol=1e-12)


def test_tail_sum_power_log_matches_direct_summation():
    w = WeightFunction.power_log(2, 1.5)
    for m in (0, 2, 6):
        assert math.isclose(w.tail_sum(m), fsum_tail(w, m, terms=600), rel_tol=1e-10)


def test_tail_sum_decreasing_in_m():
    for w in (WeightFunction.power(1.3), WeightFunction.power_log(2, 1)):
        tails = [w.tail_sum(m) for m in range(8)]
        assert all(a > b > 0 for a, b in zip(tails, tails[1:]))


def test_integral_tail_power():
    w = WeightFunction.power(2)
    assert w.integral_tail(2.0) == 0.5
    assert w.integral_tail(1.0) == 1.0
    assert w.integral_tail(0.5) == 1.5  # head of length 1/2 at weight 1
    with pytest.raises(WeightError):
        w.integral_tail(0.0)


def test_integral_tail_power_log_frozen_value():
    # integral over (1, inf) of t**-2 (1+log t)**-1 substitutes to e*E1(1)
    w = WeightFunction.power_log(2, 1)
    expected = math.e * float(exp1(1.0))
    assert math.isclose(w.integral_tail(1.0), expected, rel_tol=1e-9)
    assert math.isclose(w.integral_tail(0.25), 0.75 + expected, rel_tol=1e-9)


# -- table family ----------------------------------------------------------------


def power2_table():
    # knots sampled from t**-2, so the log-linear interpolant IS t**-2
    return WeightFunction.table([1.0, 2.0, 4.0], [1.0, 0.25, 0.0625])


def test_table_reproduces_sampled_power_weight():
    w = power2_table()
    ref = WeightFunction.power(2)
    for t in (0.5, 1.0, 1.5, 3.0, 4.0, 9.0, 100.0):
        assert math.isclose(w.value(t), ref.value(t), rel_tol=1e-12)
    assert math.isclose(w.tail_sum(0), 2.0, rel_tol=1e-10)
    assert math.isclose(w.tail_sum(4), ref.tail_sum(4), rel_tol=1e-10)
    # closed-form piecewise integral: segment by segment plus the tail
    assert math.isclose(w.integral_tail(1.5), ref.integral_tail(1.5), rel_tol=1e-12)
    assert math.isclose(w.integral_tail(5.0), ref.integral_tail(5.0), rel_tol=1e-12)
    assert 4.0 <= w.c_phi <= 4.05


def test_table_validation():
    T = WeightFunction.table
    with pytest.raises(WeightError):
        T([2.0, 4.0], [1.0, 0.5])  # must start at t = 1
    with pytest.raises(WeightError):
        T([1.0, 2.0], [0.9, 0.5])  # must start at value 1
    with pytest.raises(WeightError):
        T([1.0, 1.0], [1.0, 0.5])  # knots not increasing
    with pytest.raises(WeightError):
        T([1.0, 2.0], [1.0, 1.1])  # increasing values
    with pytest.raises(WeightError):
        T([1.0, 2.0], [1.0, 0.6])  # tail slope < 1: dyadic sums diverge
    with pytest.raises(WeightError):
        T([1.0], [1.0])


# -- parsing ----------------------------------------------------------------------


def test_parse_power_and_power_log():
    w = WeightFunction.parse("power:beta=2")
    assert w.kind == "power" and w.beta == 2.0
    w2 = WeightFunction.parse("powerlog:beta=2.5,kappa=1")
    assert (w2.kind, w2.beta, w2.kappa) == ("power_log", 2.5, 1.0)
    assert WeightFunction.parse("power_log:beta=2.5,kappa=1").kind == "power_log"
    # spec strings round-trip
    assert WeightFunction.parse(w.spec_string).beta == w.beta
    assert WeightFunction.parse(w2.spec_string).kappa == w2.kappa


def test_parse_rejects_bad_specs():
    for spec in ("power:beta=1", "power:beta=2,gamma=1", "power:beta",
                 "powerlog:beta=2", "mystery:x=1", "power:beta=soften",
                 "table:inline"):
        with pytest.raises(WeightError):
            WeightFunction.parse(spec)


def test_parse_table_file(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"t": [1.0, 2.0, 4.0], "phi": [1.0, 0.25, 0.0625]}))
    w = WeightFunction.parse(f"table:@{p}")
    assert math.isclose(w.value(3.0), 1.0 / 9.0, rel_tol=1e-12)
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(WeightError):
        WeightFunction.parse(f"table:@{bad}")
    nokeys = tmp_path / "nokeys.json"
    nokeys.write_text(json.dumps({"x": [1]}))
    with pytest.raises(WeightError):
        WeightFunction.parse(f"table:@{nokeys}")
    with pytest.raises(OSError):
        WeightFunction.parse(f"table:@{tmp_path}/absent.json")


def test_invalid_families():
    with pytest.raises(WeightError):
        WeightFunction.power(1.0)
    with pytest.raises(WeightError):
        WeightFunction.power(0.5)
    with pytest.raises(WeightError):
        # 2^beta would overflow a double before validation could see it
        WeightFunction.power(9000)
    with pytest.raises(WeightError):
        WeightFunction.power_log(2, -0.5)
    # non-finite parameters are named, not passed on as NaN edge lengths
    for beta, kappa, name in ((math.nan, 1.0, "beta"), (math.inf, 1.0, "beta"),
                              (2.0, math.nan, "kappa"), (2.0, math.inf, "kappa")):
        with pytest.raises(WeightError, match=f"{name} must be finite"):
            WeightFunction.power_log(beta, kappa)
    with pytest.raises(WeightError, match="beta must be finite"):
        WeightFunction.power(math.nan)
    with pytest.raises(WeightError):
        WeightFunction("mystery")


# -- derived constants: frozen oracle ----------------------------------------------


def oracle_chain_power2_cu2_cq1():
    """Exact rational transcription of the constants chain for the reference
    inputs (power weight with exponent 2, cu = 2, cq = 1), kept independent of
    the implementation so refactors cannot silently shift the values."""
    cphi, cu, cq = F(4), F(2), F(1)
    n0 = 2
    m0 = 10  # smallest m > 4 with 2**(1-(m-2)) < 1/(8*2*4)
    lam, blam = F(2) ** -12, F(1)
    k0 = 1  # 2**-1 < 1 - cq/(2 cphi) = 7/8 <= 2**0
    c_a = cq * cphi ** (k0 + 1)
    t_med = F(5) / (22 * cphi ** (n0 + 1) * cu * c_a)
    t_small = F(5) / (44 * cphi ** (n0 + 1) * cq ** 2 * cu * c_a)
    c_star = F(5) / (44 * cphi ** (n0 + 1) * cq ** 2 * cu) + 2
    c_growth = F(2) ** (m0 + n0 + 1) * cu ** 2 / lam
    c1 = max(c_a * cphi ** (n0 + 1) * cu, F(363) * cu / 50)
    t0 = c1 * (22 * cphi ** 2 / F(5)) * (blam / lam) * c_growth
    c2 = (F(2000) / 669) * (2 * c_growth * c1 / t_med) * (blam / lam) * (
        2 * t0 + 121 * cphi ** 2 / (20 * lam))
    c3 = max(
        c2 + (44 * cphi ** (n0 + 1) * cq ** 2 * cu * c_a / (5 * lam))
        * (c2 / (2 * cphi) + F(11) / 40),
        c2 * (1 + (F(11) / (40 * c2) + 1 / (2 * cphi)) * (2000 * c2 / (669 * lam))),
    )
    c4 = max(F(1331) / 669, c3)
    return dict(n0=n0, m0=m0, k0=k0, lam=lam, blam=blam, c_a=c_a, t_med=t_med,
                t_small=t_small, c_star=c_star, c_growth=c_growth, c1=c1,
                t0=t0, c2=c2, c3=c3, c4=c4)


def test_constants_bundle_reference_inputs():
    bundle = derive_constants(WeightFunction.power(2), cu=2.0, cq=1.0)
    o = oracle_chain_power2_cu2_cq1()
    assert bundle.n0 == 2
    assert bundle.m0 == 10
    assert bundle.k0 == 1
    assert bundle.k_star == 2
    assert bundle.c_phi == 4.0
    assert bundle.lam == 2.0 ** -12
    assert bundle.big_lam == 1.0
    assert bundle.c_a == 16.0
    assert bundle.t_medium == float(F(5, 45056)) == float(o["t_med"])
    assert bundle.t_small == float(F(5, 90112)) == float(o["t_small"])
    assert bundle.c_star == float(o["c_star"])
    assert bundle.c_growth == float(2 ** 27)
    assert bundle.c1 == 2048.0
    assert bundle.t0 == float(F(352 * 2 ** 50, 5)) == float(o["t0"])
    assert bundle.c2 == float(o["c2"]) == 9.616537368632412e+36
    assert bundle.c3 == float(o["c3"]) == 1.4155046030702373e+77
    assert bundle.c4 == bundle.c3
    assert bundle.a_phi == bundle.c3
    bundle.validate()


def test_constants_bundle_to_dict_rounding():
    bundle = derive_constants(WeightFunction.power(2), cu=2.0, cq=1.0)
    d = bundle.to_dict(digits=6)
    assert d["m0"] == 10
    assert d["t_medium"] == 0.000110973
    assert d["weight_spec"] == "power:beta=2"
    assert set(d) == set(bundle.__dict__)


# -- derived constants: structure ---------------------------------------------------


def test_derive_constants_input_validation():
    w = WeightFunction.power(2)
    with pytest.raises(WeightError):
        derive_constants(w, cu=0.5, cq=1.0)
    with pytest.raises(WeightError):
        derive_constants(w, cu=1.0, cq=0.0)


def test_derive_constants_m0_cap():
    with pytest.raises(WeightError):
        derive_constants(WeightFunction.power(1.05), 1.0, 1.0, m0_cap=20)


def test_derive_constants_overflow_is_caught():
    # the stacked products exceed float range for very slow decay; the bundle
    # must refuse rather than hand out infinities
    with pytest.raises(WeightError):
        derive_constants(WeightFunction.power(1.01), 1.0, 1.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1.2, max_value=4.0),
       st.floats(min_value=1.0, max_value=16.0),
       st.floats(min_value=1.0, max_value=8.0))
def test_derive_constants_well_formed(beta, cu, cq):
    w = WeightFunction.power(beta)
    b = derive_constants(w, cu, cq)
    b.validate()
    assert b.m0 > b.n0 + 2
    assert b.lam <= b.big_lam
    assert b.t_small < b.t_medium
    assert b.c4 >= 1331.0 / 669.0
    assert b.a_phi >= b.c4
    assert b.k_star >= 2  # c_star > 2 always
    # the m0 defining inequality and its minimality
    assert w.tail_sum(b.m0 - b.n0) < 1.0 / (8.0 * cu * w.c_phi)
    if b.m0 > b.n0 + 3:
        assert w.tail_sum(b.m0 - 1 - b.n0) >= 1.0 / (8.0 * cu * w.c_phi)


def test_n0_m0_monotone_in_cu():
    w = WeightFunction.power(2)
    prev_n0, prev_m0 = 0, 0
    for cu in (1.0, 2.0, 4.0, 9.0, 33.0):
        b = derive_constants(w, cu, 1.0)
        assert b.n0 >= prev_n0 and b.m0 >= prev_m0
        prev_n0, prev_m0 = b.n0, b.m0
