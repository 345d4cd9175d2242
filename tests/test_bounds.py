"""Bound formulas against hand-evaluated values; exact arithmetic throughout."""

import hashlib
from fractions import Fraction

import pytest

from traceschemes import (
    InconsistentBounds,
    ParamsInvalid,
    SchemeParams,
    binom,
    bound_report,
    cff_upper_eff,
    cff_upper_new,
    cff_upper_special,
    ipps_upper_collins,
    ipps_upper_new,
    minimal_config_size_bound,
    own_subset_min_count,
    render_bound_report,
    ts_exact_small,
    ts_lower_packing,
    ts_lower_trivial,
    ts_upper_collins,
    ts_upper_general,
    ts_upper_special,
    ts_upper_sw,
)


def test_binom():
    assert binom(21, 2) == 210
    assert binom(5, 0) == 1
    assert binom(4, 6) == 0
    assert binom(10, -1) == 0
    assert binom(60, 30) == 118264581564861424  # exact big integer
    with pytest.raises(ParamsInvalid):
        binom(-1, 0)


def test_ipps_upper_collins():
    b = ipps_upper_collins(SchemeParams(2, 5, 21))
    assert b.value == 1330 and b.integer_bound == 1330
    assert ipps_upper_collins(SchemeParams(2, 2, 2)).value == 2
    b = ipps_upper_collins(SchemeParams(3, 9, 30))
    assert b.value == Fraction(4060, 6)
    assert b.integer_bound == 676


def test_ipps_upper_new():
    assert ipps_upper_new(SchemeParams(2, 5, 21)).value == 210
    assert ipps_upper_new(SchemeParams(2, 3, 10)).value == 10
    assert ipps_upper_new(SchemeParams(2, 6, 6)).value == 15


def test_ts_upper_sw():
    b = ts_upper_sw(SchemeParams(2, 5, 21))
    assert b.value == Fraction(1330, 6) and b.integer_bound == 221
    b = ts_upper_sw(SchemeParams(2, 4, 8))
    assert b.value == Fraction(28, 3) and b.integer_bound == 9
    assert ts_upper_sw(SchemeParams(2, 2, 2)).value == 2


def test_ts_upper_collins():
    assert ts_upper_collins(SchemeParams(2, 5, 21)).value == 210
    assert ts_upper_collins(SchemeParams(2, 4, 10)).value == 10
    assert ts_upper_collins(SchemeParams(3, 9, 9)).value == 9


def test_ts_upper_general():
    assert ts_upper_general(SchemeParams(2, 5, 21)).value == 51
    assert ts_upper_general(SchemeParams(2, 4, 10)).value == 7
    assert ts_upper_general(SchemeParams(2, 4, 4)).value == 1


def test_ts_upper_general_reduces_to_exact_for_small_width():
    for t in (2, 3, 4):
        for w in range(t, t * t + 1):
            for v in range(w, w + 30):
                p = SchemeParams(t, w, v)
                assert ts_upper_general(p).value == v - w + 1


def test_ts_upper_special():
    b = ts_upper_special(SchemeParams(2, 5, 21))
    assert b.applicable and b.value == 21
    b = ts_upper_special(SchemeParams(2, 5, 25))
    assert b.applicable and b.value == 30
    b = ts_upper_special(SchemeParams(2, 8, 100))
    assert not b.applicable and b.value is None and b.integer_bound is None


def test_ts_exact_small():
    b = ts_exact_small(SchemeParams(2, 4, 7))
    assert b.applicable and b.integer_bound == 4
    b = ts_exact_small(SchemeParams(3, 9, 20))
    assert b.applicable and b.integer_bound == 12
    assert not ts_exact_small(SchemeParams(2, 5, 10)).applicable


def test_ts_lower_trivial():
    assert ts_lower_trivial(SchemeParams(2, 5, 21)).integer_bound == 17
    assert ts_lower_trivial(SchemeParams(2, 4, 4)).integer_bound == 1
    assert ts_lower_trivial(SchemeParams(4, 10, 30)).integer_bound == 21


def test_ts_lower_packing():
    b = ts_lower_packing(SchemeParams(2, 5, 30))
    assert b.value == Fraction(435, 100) and b.integer_bound == 5
    b = ts_lower_packing(SchemeParams(2, 5, 21))
    assert b.value == Fraction(210, 100) and b.integer_bound == 3
    b = ts_lower_packing(SchemeParams(2, 4, 10))
    assert b.value == Fraction(10, 16) and b.integer_bound == 1


def test_cff_upper_eff():
    assert cff_upper_eff(SchemeParams(2, 4, 10)).value == 15
    assert cff_upper_eff(SchemeParams(2, 2, 5)).value == 5
    b = cff_upper_eff(SchemeParams(3, 6, 12))
    assert b.value == Fraction(66, 5) and b.integer_bound == 13


def test_cff_upper_new():
    assert cff_upper_new(SchemeParams(2, 4, 10)).value == 14
    assert cff_upper_new(SchemeParams(2, 2, 5)).value == 4


def test_cff_upper_special():
    b = cff_upper_special(4, 5, 21)
    assert b.applicable and b.value == 21
    b = cff_upper_special(2, 3, 100)
    assert b.applicable and b.value == 1650
    b = cff_upper_special(2, 4, 5)  # d=1 but ground set below threshold
    assert not b.applicable
    for r, w, v in ((0, 3, 5), (2, 0, 5), (2, 6, 5)):
        with pytest.raises(ParamsInvalid):
            cff_upper_special(r, w, v)


def test_own_subset_min_count():
    assert own_subset_min_count(SchemeParams(2, 5, 21)) == 4
    assert own_subset_min_count(SchemeParams(2, 4, 10)) == 1
    assert own_subset_min_count(SchemeParams(2, 9, 20)) == 28


def test_minimal_config_size_bound():
    assert minimal_config_size_bound(2) == 4
    assert minimal_config_size_bound(3) == 6
    assert minimal_config_size_bound(1) == 2
    with pytest.raises(ParamsInvalid):
        minimal_config_size_bound(0)


def test_bound_report_ts_2_5_21():
    report = bound_report(SchemeParams(2, 5, 21), "ts")
    vals = {b.name: b for b in report.entries}
    assert vals["upper-sw"].value == Fraction(1330, 6)
    assert vals["upper-collins"].value == 210
    assert vals["upper-general"].value == 51
    assert vals["upper-special"].value == 21
    assert not vals["exact-small"].applicable
    assert vals["lower-trivial"].integer_bound == 17
    assert vals["lower-packing"].integer_bound == 3
    assert report.exact is None
    assert (report.lower, report.upper) == (17, 21)


def test_bound_report_exact_case():
    report = bound_report(SchemeParams(2, 4, 7), "ts")
    assert report.exact == 4
    assert report.lower == 4 and report.upper == 4


def test_bound_report_ipps_2_5_21():
    report = bound_report(SchemeParams(2, 5, 21), "ipps")
    assert [b.name for b in report.entries] == ["upper-collins", "upper-new"]
    assert report.entries[0].value == 1330
    assert report.entries[1].value == 210
    assert "conjectured" in report.entries[1].note


def test_bound_report_consistency_never_fires_on_grid():
    for t in (2, 3):
        for w in range(t, 3 * t * t):
            for v in range(w, w + 40, 7):
                for scheme in ("ts", "ipps", "cff"):
                    bound_report(SchemeParams(t, w, v), scheme)


def test_bound_report_refuses_a_lower_bound_above_an_upper(monkeypatch):
    # No formula does this (the test above); a Stinson-Wei bound forced to 0
    # lies below the packing lower bound of 7.
    monkeypatch.setattr("traceschemes.bounds.ts_upper_sw",
                        lambda p: ts_upper_sw(p)._replace(integer_bound=0))
    with pytest.raises(InconsistentBounds) as err:
        bound_report(SchemeParams(2, 3, 9), "ts")
    assert str(err.value) == "lower 7 exceeds upper 0 for ts SchemeParams(t=2, w=3, v=9)"


def test_all_values_are_exact_rationals():
    for scheme in ("ts", "ipps", "cff"):
        report = bound_report(SchemeParams(3, 11, 60), scheme)
        for b in report.entries:
            if b.applicable:
                assert isinstance(b.value, Fraction)
                assert isinstance(b.integer_bound, int)


def test_unknown_scheme_rejected():
    with pytest.raises(ParamsInvalid):
        bound_report(SchemeParams(2, 3, 5), "frameproof")


def test_bound_tables_are_pinned():
    # One digest over 6,366 tables: any rewrite of the formulas must
    # reproduce every byte of every table.
    h = hashlib.sha256()
    for scheme in ("ts", "ipps", "cff"):
        for t in (2, 3, 4):
            for w in range(t, 17):
                for v in range(w, 60):
                    report = bound_report(SchemeParams(t, w, v), scheme)
                    h.update(render_bound_report(report).encode())
    assert h.hexdigest() == "14cf9cc58adc3a7840701e6b46150d4bcbb97fa4a7a0e6a4d3890c6bc02b2927"


def test_ts_bounds_are_cff_bounds_at_t_and_t_squared():
    for t in (2, 3, 4):
        for w in range(t, 17):
            for v in range(w, 60, 5):
                p = SchemeParams(t, w, v)
                assert ts_upper_sw(p).value == cff_upper_eff(p).value
                if w >= t * t:
                    pp = SchemeParams(t * t, w, v)
                    assert ts_upper_general(p).value == cff_upper_new(pp).value
                assert ts_upper_special(p) == cff_upper_special(t * t, w, v)
