import json
import random
from fractions import Fraction

import pytest

from randsteward.bdt import exact_node_distribution, table_tree, tv_distance
from randsteward.extract import ExtractorParams, FreshExtractorParams
from randsteward.prg import BACKENDS, build_schedule, expand
from randsteward.randomness import CounterSource

from oracles import ref_expand


def test_schedule_golden_two_blocks():
    s = build_schedule(4, 2, 2, Fraction(1, 4))
    assert s.levels == 1
    assert s.beta == Fraction(1, 8)
    (ext,) = s.extractors
    assert isinstance(ext, ExtractorParams)
    assert (ext.t, ext.walk_len, ext.seed_len) == (1, 43, 129)
    assert s.s == (4, 133)
    assert s.seed_len == 133
    assert s.output_len == 8


def test_schedule_golden_five_blocks_ternary():
    s = build_schedule(3, 5, 3, Fraction(1, 2))
    assert s.levels == 3
    assert s.beta == Fraction(1, 16)
    assert [(p.t, p.walk_len) for p in s.extractors] == [(2, 57), (4, 60), (7, 68)]
    assert s.s == (3, 174, 354, 558)


def test_single_block_schedule_is_trivial():
    s = build_schedule(6, 1, 2, Fraction(1, 2))
    assert s.levels == 0
    assert s.extractors == ()
    assert s.seed_len == 6
    assert expand(s, "010011") == "010011"


def test_deficits_are_exact_log_ceilings():
    # t_i must be ceil(2^i * log2 sigma), computed without floating point
    for sigma in range(2, 11):
        s = build_schedule(2, 16, sigma, Fraction(1, 2))
        for i, params in enumerate(s.extractors):
            t = params.t
            assert 2**t >= sigma ** (1 << i)
            assert 2 ** (t - 1) < sigma ** (1 << i)


def test_seed_lengths_accumulate():
    s = build_schedule(5, 8, 2, Fraction(1, 4))
    assert list(s.s) == sorted(s.s)
    assert s.seed_len == 5 + sum(p.seed_len for p in s.extractors)


def test_build_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(0, 2, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        build_schedule(4, 0, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        build_schedule(4, 2, 1, Fraction(1, 4))
    with pytest.raises(ValueError):
        build_schedule(4, 2, 2, Fraction(0))
    with pytest.raises(ValueError):
        build_schedule(4, 2, 2, Fraction(1))
    with pytest.raises(ValueError):
        build_schedule(4, 2, 2, Fraction(1, 4), backend="quantum")
    assert BACKENDS == ("expander", "fresh")


def test_fresh_backend_is_the_identity():
    s = build_schedule(3, 3, 2, Fraction(1, 4), backend="fresh")
    assert s.levels == 2
    assert all(isinstance(p, FreshExtractorParams) for p in s.extractors)
    assert s.seed_len == 3 * (1 << s.levels) == 12
    seed = "011010110101"
    assert expand(s, seed) == seed[:9]  # truncated to nk


def test_fresh_backend_output_is_exactly_uniform():
    s = build_schedule(2, 2, 2, Fraction(1, 4), backend="fresh")
    tree = table_tree(k=2, n=2, sigma=2, tables={(): [0, 1, 1, 0], (1,): [1, 0, 0, 1]})
    uniform = exact_node_distribution(tree)
    seeded = exact_node_distribution(
        tree, generator=lambda bits: expand(s, bits), seed_len=s.seed_len
    )
    assert tv_distance(uniform, seeded) == 0


def test_expander_expand_golden():
    s = build_schedule(2, 2, 2, Fraction(1, 2))
    assert s.seed_len == 104
    assert s.extractors[0].walk_len == 34
    seed = ("10" * 52)[: s.seed_len]
    assert expand(s, seed) == "1000"


def test_expand_deterministic_and_sized():
    s = build_schedule(3, 4, 2, Fraction(1, 4))
    seed = ("110" * s.seed_len)[: s.seed_len]
    out = expand(s, seed)
    assert len(out) == 12
    assert expand(s, seed) == out
    assert set(out) <= {"0", "1"}


def test_expand_starts_with_left_recursion():
    # G(x, y) = G'(x) || G'(Ext(x, y)): flipping only y never changes the left half
    s = build_schedule(2, 4, 2, Fraction(1, 2))
    x = "01" * (s.s[s.levels - 1] // 2)
    x = x[: s.s[s.levels - 1]]
    tail = s.seed_len - len(x)
    out_a = expand(s, x + "0" * tail)
    out_b = expand(s, x + "1" * tail)
    half = s.n * (1 << (s.levels - 1))
    assert out_a[:half] == out_b[:half]


@pytest.mark.parametrize("backend", BACKENDS)
def test_expand_matches_string_reference_bit_for_bit(backend):
    # the int recursion against the old walk over '0'/'1' strings
    rng = random.Random(70_011)
    seen_parity = set()
    for k in range(1, 10):
        for n in (1, 2, 3, 4, 5, 8):
            sigma = rng.randrange(2, 7)
            schedule = build_schedule(n, k, sigma, Fraction(1, rng.randrange(2, 17)), backend)
            seen_parity.update(s % 2 for s in schedule.s)
            for i in range(3):
                seed = CounterSource(b"expand-diff", 100 * k + 10 * n + i).draw(schedule.seed_len)
                assert expand(schedule, seed) == ref_expand(schedule, seed), (k, n, i)
    assert seen_parity == {0, 1}


def test_expand_rejects_wrong_seed_length():
    s = build_schedule(4, 2, 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        expand(s, "0" * (s.seed_len - 1))


def test_schedule_json_report():
    s = build_schedule(4, 2, 2, Fraction(1, 4))
    doc = json.loads(s.to_json())
    assert doc["seed_len"] == 133
    assert doc["gamma"] == "1/4"
    assert doc["beta"] == "1/8"
    assert doc["schedule"][0]["walk_len"] == 43
    assert doc["schedule"][0]["s_in"] == 4
    assert doc["schedule"][0]["s_out"] == 133
    fresh = json.loads(build_schedule(4, 2, 2, Fraction(1, 4), backend="fresh").to_json())
    assert "walk_len" not in fresh["schedule"][0]
