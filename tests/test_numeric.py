"""Exact cell arithmetic behind every rounding, and the "p/q" serialization.

`steward._midpoints` is the one cell rule shared by the shift-and-round, the
coarse snap and certification; it is checked here against the Fraction
reference in `oracles`.  Rationals leave the package only through the
transcript JSON, so their format is checked there.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from randsteward.randomness import TapeSource
from randsteward.steward import Session, StewardConfig, _midpoints

from oracles import ref_interval_index, ref_midpoint

ONE = Fraction(1)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64
)
epsilons = st.fractions(
    min_value=Fraction(1, 32), max_value=Fraction(8), max_denominator=32
)
units = st.integers(1, 12)
shifts = st.integers(-12, 12)


def _midpoint(w: Fraction, shift: int, epsilon: Fraction, units: int) -> Fraction:
    (mid,) = _midpoints([w], shift, epsilon, units)
    return mid


def _index(w: Fraction) -> Fraction:
    """Index of the unit cell holding w, read back from its midpoint."""
    return _midpoint(w, 0, ONE, 1) - Fraction(1, 2)


def test_interval_index_goldens():
    assert _index(Fraction(0)) == 0
    assert _index(Fraction(3, 2)) == 1
    assert _index(Fraction(-3, 10)) == -1


def test_round_to_midpoint_goldens():
    assert _midpoint(Fraction(3, 2), 0, ONE, 1) == Fraction(3, 2)
    assert _midpoint(Fraction(1, 5), 0, ONE, 1) == Fraction(1, 2)
    assert _midpoint(Fraction(-3, 10), 0, ONE, 1) == Fraction(-1, 2)
    # cells of 4e = 1 at e = 1/4; 1/2 + 4e lands in [1, 2)
    assert _midpoint(Fraction(1, 2), 4, Fraction(1, 4), 4) == Fraction(3, 2)


def test_grid_rejects_nonpositive_length():
    # the cell length 2*(d0+1)*epsilon is positive because the config says so
    ok = dict(n=4, k=1, d=1, delta=Fraction(0), gamma=Fraction(1, 2))
    for epsilon in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            StewardConfig(epsilon=epsilon, **ok)


@given(w=rationals, epsilon=epsilons, u=units, shift=shifts)
def test_index_brackets_the_value(w, epsilon, u, shift):
    length, value = u * epsilon, w + shift * epsilon
    m = (_midpoint(w, shift, epsilon, u) / length) - Fraction(1, 2)
    assert m.denominator == 1
    assert m * length <= value < (m + 1) * length
    assert m == ref_interval_index(value, length)


@given(w=rationals, epsilon=epsilons, u=units, shift=shifts)
def test_midpoint_lies_in_the_same_cell(w, epsilon, u, shift):
    length, value = u * epsilon, w + shift * epsilon
    mid = _midpoint(w, shift, epsilon, u)
    assert ref_interval_index(mid, length) == ref_interval_index(value, length)
    assert abs(mid - value) <= length / 2
    assert mid == ref_midpoint(value, length)
    assert type(mid) is Fraction


def test_midpoint_on_cell_lines():
    # a value on a cell line belongs to the cell on its right, on either side of 0
    for epsilon in (Fraction(1, 3), Fraction(2, 7), Fraction(1, 8), Fraction(5, 2)):
        for u in range(1, 7):
            length = u * epsilon
            for m in range(-5, 6):
                for shift in range(-3, 4):
                    w = m * length - shift * epsilon
                    want = (2 * m + 1) * length / 2
                    assert _midpoint(w, shift, epsilon, u) == want
                    assert ref_midpoint(m * length, length) == want


def _raw_transcript(*values) -> dict:
    cfg = StewardConfig(
        n=2, k=1, d=len(values), epsilon=Fraction(1, 8), delta=Fraction(0),
        gamma=Fraction(1, 2), kind="naive-fresh",
    )
    sess = Session(cfg, TapeSource("01"))
    sess.answer(lambda x: list(values))
    return json.loads(sess.transcript.to_json())


@given(value=rationals)
def test_rat_string_round_trip(value):
    (entry,) = _raw_transcript(value)["rounds"]
    assert Fraction(entry["w"][0]) == value
    assert Fraction(entry["y"][0]) == value


def test_rat_to_str_format():
    doc = _raw_transcript(Fraction(3, 4), Fraction(-2))
    (entry,) = doc["rounds"]
    assert entry["w"] == ["3/4", "-2/1"]
    assert entry["y"] == ["3/4", "-2/1"]
    assert doc["config"]["delta"] == "0/1"
