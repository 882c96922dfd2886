"""worst_check, the one pass rule: a check passes exactly when its worst
violation is <= its tolerance, and its witness is its first worst entry."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from h1gauge.report import PropertyCheck, worst_check


def test_ties_keep_the_first_index():
    check = worst_check("tie", np.array([0.5, 2.0, -1.0, 2.0]), 2.0, lambda i: i)
    assert check == PropertyCheck("tie", 2.0, 2.0, 1)
    assert type(check.worst_violation) is float and type(check.passed) is bool


def test_nan_fails_and_is_the_worst():
    check = worst_check("nan", np.array([5.0, math.nan, 1.0, math.nan]), math.inf, lambda i: i)
    assert not check.passed and math.isnan(check.worst_violation) and check.witness == 1


def test_details_and_witness_index_pass_through():
    seen = []

    def witness(i):
        seen.append(i)
        return ["w", i]

    check = worst_check("over", np.array([1.0, 3.0, 2.0]), 2.5, witness, "3 samples")
    assert seen == [1]
    assert (check.passed, check.witness, check.details) == (False, ["w", 1], "3 samples")
    assert worst_check("under", np.array([1.0]), 2.5, witness).details == ""


def test_strict_increase_tolerance_is_the_pass_rule_for_gap_gt_0():
    # -gap <= -ulp(0) holds exactly when gap > 0; NaN fails on both sides
    gaps = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1.0, math.inf, math.nan])
    for gap in gaps:
        check = worst_check("strict-increase", -np.array([gap]), -math.ulp(0.0), lambda i: i)
        assert check.passed == bool(gap > 0.0)



EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324]


@given(st.sampled_from(EDGES) | st.floats(), st.sampled_from(EDGES) | st.floats())
def test_passed_is_the_pass_rule_on_its_numbers(worst, tol):
    for w in (worst, np.float64(worst)):  # a numpy violation still gives a bool
        check = PropertyCheck("rule", w, tol)
        assert check.passed is (worst <= tol)
        check.worst_violation, check.tolerance = tol, worst  # follows its numbers
        assert check.passed is (tol <= worst)


def test_a_check_takes_no_verdict():
    with pytest.raises(TypeError):
        PropertyCheck("rule", passed=True, worst_violation=0.0, tolerance=0.0)
    assert list(PropertyCheck("rule", 0.0, 0.0).to_dict()) == [
        "name", "passed", "worst_violation", "tolerance", "witness", "details"]
