import itertools
import random
from fractions import Fraction

import pytest

from randsteward.expander import SECOND_EIGENVALUE_BOUND, seed_start
from randsteward.extract import (
    ExtractorParams,
    FreshExtractorParams,
    extract_int,
    plan_extractor,
)
from randsteward.randomness import int_to_bits

from oracles import bits_from_vertex, ref_extract, ref_walk_distribution


def test_plan_goldens():
    assert plan_extractor(8, 0, Fraction(1)).walk_len == 15
    assert plan_extractor(8, 0, Fraction(1)).seed_len == 45
    assert plan_extractor(4, 1, Fraction(1, 8)).walk_len == 43
    assert plan_extractor(6, 0, Fraction(1, 4)).walk_len == 31
    assert plan_extractor(6, 1, Fraction(1, 4)).walk_len == 34
    assert plan_extractor(6, 2, Fraction(1, 4)).walk_len == 37
    assert plan_extractor(12, 4, Fraction(1, 4)).walk_len == 43


def test_plan_matches_fraction_recomputation():
    # the integer comparison in the planner must agree with naive Fraction
    # powering of lam^(2L) * 32 * 2^(t+pad) <= beta^3
    lam = SECOND_EIGENVALUE_BOUND
    for s, t, beta in itertools.product(
        (3, 4, 5, 8, 12), (0, 1, 2, 4), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16))
    ):
        pad = s % 2
        want = 1
        while lam ** (2 * want) * 32 * 2 ** (t + pad) > beta**3:
            want += 1
        assert plan_extractor(s, t, beta).walk_len == want


def test_plan_depends_only_on_deficit_pad_and_error():
    assert plan_extractor(6, 1, Fraction(1, 4)) != plan_extractor(12, 1, Fraction(1, 4))
    assert (
        plan_extractor(6, 1, Fraction(1, 4)).walk_len
        == plan_extractor(12, 1, Fraction(1, 4)).walk_len
        == 34
    )
    # odd s pays one extra padding bit of deficit
    assert plan_extractor(5, 0, Fraction(1, 4)).walk_len == 34


def test_plan_monotonicity():
    beta = Fraction(1, 4)
    lens = [plan_extractor(8, t, beta).walk_len for t in range(6)]
    assert lens == sorted(lens)
    for loose, tight in [(Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 64))]:
        assert plan_extractor(8, 2, loose).walk_len <= plan_extractor(8, 2, tight).walk_len


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_extractor(0, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        plan_extractor(4, -1, Fraction(1, 2))
    with pytest.raises(ValueError):
        plan_extractor(4, 0, Fraction(0))
    with pytest.raises(ValueError):
        plan_extractor(4, 0, Fraction(3, 2))
    with pytest.raises(ValueError):
        FreshExtractorParams(s=0)


def test_seed_lengths():
    assert ExtractorParams(s=6, t=1, beta=Fraction(1, 4), walk_len=34).seed_len == 102
    assert FreshExtractorParams(s=9).seed_len == 9


def test_fresh_extract_returns_seed():
    params = FreshExtractorParams(s=4)
    assert extract_int(params, 0b1101, 0b0010) == 0b0010


def test_walk_extract_golden():
    params = plan_extractor(4, 0, Fraction(1, 2))
    assert params.walk_len == 23
    labels = sum(6 << 3 * i for i in range(23))  # the bits "011" repeated
    assert extract_int(params, 0b1101, labels) == 0b0101


def test_walk_extract_matches_string_reference():
    # extract_int against the walk over '0'/'1' strings, at random inputs;
    # the strings exist only here
    rng = random.Random(80_021)
    for s in range(1, 14):
        for t in (0, 1, 3):
            params = plan_extractor(s, t, Fraction(1, rng.randrange(2, 9)))
            for p in (params, FreshExtractorParams(s)):
                for _ in range(20):
                    x, y = rng.getrandbits(s), rng.getrandbits(p.seed_len)
                    want = ref_extract(p, int_to_bits(x, s), int_to_bits(y, p.seed_len))
                    assert int_to_bits(extract_int(p, x, y), s) == want


def test_walk_extract_bijective_in_input():
    params = plan_extractor(4, 0, Fraction(1, 2))
    seed = sum(5 << 3 * i for i in range(params.walk_len))  # the bits "101" repeated
    outputs = {extract_int(params, v, seed) for v in range(16)}
    assert len(outputs) == 16


def _subcube_start(s: int, positions: tuple[int, ...], vals: tuple[str, ...]) -> dict:
    """Integer start weights (one per input) for the subcube fixing the
    given bit positions, mapped onto torus vertices."""
    start: dict = {}
    free = [i for i in range(s) if i not in positions]
    fixed = sum(1 << i for i, b in zip(positions, vals) if b == "1")
    for u in range(1 << len(free)):
        x = fixed | sum(1 << i for j, i in enumerate(free) if u >> j & 1)
        v = seed_start(x, (s + 1) // 2)
        start[v] = start.get(v, 0) + 1
    return start


def _exact_subcube_tv(s: int, t: int, beta: Fraction) -> Fraction:
    """Worst-case exact TV(extracted output, uniform) over all 2^t * C(s, t)
    subcube sources of deficit t, by integer distribution propagation."""
    params = plan_extractor(s, t, beta)
    side = 1 << ((s + 1) // 2)
    worst = Fraction(0)
    for positions in itertools.combinations(range(s), t):
        for vals in itertools.product("01", repeat=t):
            start = _subcube_start(s, positions, vals)
            dist = ref_walk_distribution(side, start, params.walk_len)
            total = (1 << (s - t)) * 8**params.walk_len
            proj: dict = {}
            for v, w in dist.items():
                key = bits_from_vertex(v, s)
                proj[key] = proj.get(key, 0) + w
            diff = sum(
                abs((1 << s) * proj.get(format(i, f"0{s}b")[::-1], 0) - total)
                for i in range(1 << s)
            )
            worst = max(worst, Fraction(diff, 2 * (1 << s) * total))
    return worst


def test_uniform_source_extracts_exactly_uniform():
    # permutation maps leave the uniform distribution invariant, so TV is 0
    assert _exact_subcube_tv(6, 0, Fraction(1, 4)) == 0


def test_padded_uniform_source_extracts_exactly_uniform():
    # odd s: the padded embedding picks one representative per coset of the
    # shift (0, side/2), which commutes with every label map, so the
    # projected output is exactly uniform
    assert _exact_subcube_tv(5, 0, Fraction(1, 4)) == 0


@pytest.mark.parametrize("t", [1, 2])
def test_exact_tv_within_planned_error(t):
    beta = Fraction(1, 4)
    worst = _exact_subcube_tv(6, t, beta)
    assert worst <= beta
    # the plan overshoots on purpose; actual mixing is far below target
    assert worst <= Fraction(1, 100_000)
