from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from randsteward.numeric import (
    Grid,
    interval_index,
    rat_to_str,
    round_to_midpoint,
)

from oracles import ref_interval_index, ref_midpoint

UNIT = Grid(interval_length=Fraction(1))

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)
lengths = st.fractions(
    min_value=Fraction(1, 32), max_value=Fraction(8), max_denominator=32
)


def test_interval_index_goldens():
    assert interval_index(Fraction(0), UNIT) == 0
    assert interval_index(Fraction(3, 2), UNIT) == 1
    assert interval_index(Fraction(-3, 10), UNIT) == -1


def test_round_to_midpoint_goldens():
    assert round_to_midpoint(Fraction(3, 2), UNIT) == Fraction(3, 2)
    assert round_to_midpoint(Fraction(1, 5), UNIT) == Fraction(1, 2)
    assert round_to_midpoint(Fraction(-3, 10), UNIT) == Fraction(-1, 2)


def test_grid_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        Grid(interval_length=Fraction(0))
    with pytest.raises(ValueError):
        Grid(interval_length=Fraction(-1, 2))


@given(w=rationals, length=lengths)
def test_index_brackets_the_value(w, length):
    grid = Grid(interval_length=length)
    m = interval_index(w, grid)
    assert m * length <= w < (m + 1) * length
    assert m == ref_interval_index(w, length)


@given(w=rationals, length=lengths)
def test_midpoint_lies_in_the_same_cell(w, length):
    grid = Grid(interval_length=length)
    mid = round_to_midpoint(w, grid)
    assert interval_index(mid, grid) == interval_index(w, grid)
    assert abs(mid - w) <= length / 2
    assert mid == ref_midpoint(w, length)


@given(value=rationals)
def test_rat_string_round_trip(value):
    assert Fraction(rat_to_str(value)) == value


def test_rat_to_str_format():
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-2)) == "-2/1"
