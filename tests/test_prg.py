import itertools
import random
from fractions import Fraction

import pytest

from randsteward.bdt import BlockDecisionTree, exact_node_distribution, tv_distance
from randsteward.extract import ExtractorParams, FreshExtractorParams
from randsteward.prg import BACKENDS, build_schedule, expand
from randsteward.randomness import int_to_bits
from randsteward.steward import StewardConfig

from oracles import ref_expand, ref_schedule


def test_schedule_golden_two_blocks():
    s = build_schedule(4, 2, 2, Fraction(1, 4))
    assert s.levels == 1
    assert s.beta == Fraction(1, 8)
    (ext,) = s.extractors
    assert isinstance(ext, ExtractorParams)
    assert (ext.t, ext.m, ext.seed_len) == (1, 6, 12)
    assert s.s == (4, 16)
    assert list(s.s) == ref_schedule(4, 2, 2, Fraction(1, 4))
    assert s.seed_len == 16
    assert s.output_len == 8


def test_schedule_golden_five_blocks_ternary():
    s = build_schedule(3, 5, 3, Fraction(1, 2))
    assert s.levels == 3
    assert s.beta == Fraction(1, 16)
    assert [(p.t, p.m) for p in s.extractors] == [(2, 6), (4, 10), (7, 13)]
    assert s.s == (3, 15, 35, 61)
    assert list(s.s) == ref_schedule(3, 5, 3, Fraction(1, 2))


def test_single_block_schedule_is_trivial():
    s = build_schedule(6, 1, 2, Fraction(1, 2))
    assert s.levels == 0
    assert s.extractors == ()
    assert s.seed_len == 6
    assert expand(s, 0b110010) == 0b110010


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
    assert BACKENDS == ("small-bias", "fresh")


def test_fresh_backend_is_the_identity():
    s = build_schedule(3, 3, 2, Fraction(1, 4), backend="fresh")
    assert s.levels == 2
    assert all(isinstance(p, FreshExtractorParams) for p in s.extractors)
    assert s.seed_len == 3 * (1 << s.levels) == 12
    seed = 0b101011010110
    assert expand(s, seed) == seed & 0x1FF  # truncated to nk = 9 bits


def test_fresh_backend_output_is_exactly_uniform():
    s = build_schedule(2, 2, 2, Fraction(1, 4), backend="fresh")
    tree = BlockDecisionTree(k=2, n=2, sigma=2, tables={(): [0, 1, 1, 0], (1,): [1, 0, 0, 1]})
    uniform = exact_node_distribution(tree)
    seeded = exact_node_distribution(
        tree, generator=lambda seed: expand(s, seed), seed_len=s.seed_len
    )
    assert tv_distance(uniform, seeded) == 0


def test_small_bias_expand_golden():
    # the small-bias backend at m = 3: the input 0b01 meets u = 0b101 and
    # v = 0b010, so S = (<1, v>, <u, v>) = (0, 0) and the output is the input twice
    s = build_schedule(2, 2, 2, Fraction(1, 2))
    assert s.seed_len == 8
    assert s.extractors[0].m == 3
    seed = 0x55  # bits 0, 2, 4, 6 of 8
    assert expand(s, seed) == 0b0101


def test_expand_deterministic_and_sized():
    s = build_schedule(3, 4, 2, Fraction(1, 4))
    seed = sum(3 << i for i in range(0, s.seed_len - 1, 3))  # bits "110" repeated
    out = expand(s, seed)
    assert 0 <= out < 1 << 12
    assert expand(s, seed) == out


def test_expand_starts_with_left_recursion():
    # G(x, y) = G'(x) || G'(Ext(x, y)): flipping only y never changes the left half
    s = build_schedule(2, 4, 2, Fraction(1, 2))
    x_len = s.s[s.levels - 1]
    x = int("10" * (x_len // 2), 2)  # bits "01" repeated
    tail = s.seed_len - x_len
    out_a = expand(s, x)
    out_b = expand(s, x | ((1 << tail) - 1) << x_len)
    half = s.n * (1 << (s.levels - 1))
    assert out_a & ((1 << half) - 1) == out_b & ((1 << half) - 1)
    assert out_a != out_b


@pytest.mark.parametrize("backend", BACKENDS)
def test_expand_matches_string_reference_bit_for_bit(backend):
    # the int generator against x XOR S(u, v) over '0'/'1' strings, at
    # random seeds; the strings exist only here
    rng = random.Random(70_011)
    seen_parity = set()
    for k in range(1, 10):
        for n in (1, 2, 3, 4, 5, 8):
            sigma = rng.randrange(2, 7)
            schedule = build_schedule(n, k, sigma, Fraction(1, rng.randrange(2, 17)), backend)
            seen_parity.update(s % 2 for s in schedule.s)
            for i in range(3):
                seed = rng.getrandbits(schedule.seed_len)
                got = int_to_bits(expand(schedule, seed), schedule.output_len)
                assert got == ref_expand(schedule, int_to_bits(seed, schedule.seed_len)), (k, n)
    assert seen_parity == {0, 1}


def test_expand_rejects_wrong_seed_length():
    s = build_schedule(4, 2, 2, Fraction(1, 4))
    expand(s, (1 << s.seed_len) - 1)
    with pytest.raises(ValueError):
        expand(s, 1 << s.seed_len)
    with pytest.raises(ValueError):
        expand(s, -1)


def test_schedule_json_report():
    s = build_schedule(4, 2, 2, Fraction(1, 4))
    doc = s.to_dict()
    assert doc["seed_len"] == 16
    assert doc["gamma"] == "1/4"
    assert doc["beta"] == "1/8"
    assert doc["schedule"][0]["field_bits"] == 6
    assert doc["schedule"][0]["seed_bits"] == 12
    assert doc["schedule"][0]["s_in"] == 4
    assert doc["schedule"][0]["s_out"] == 16
    fresh = build_schedule(4, 2, 2, Fraction(1, 4), backend="fresh").to_dict()
    assert "field_bits" not in fresh["schedule"][0]


def test_seed_meets_the_papers_bound():
    # seed = n + O(k log(d + 1)) with constant 2: seed - n < 2k * log2(d + 2)
    # for the steward's sigma = d + 2, checked exactly as 2^(seed - n) <
    # (d + 2)^(2k); planning draws nothing, so the grid is cheap
    for n, d, k, gamma in itertools.product(
        (1, 8, 64, 1024), (1, 2, 8, 32, 256), (512, 1024, 4096),
        (Fraction(1, 2), Fraction(1, 16), Fraction(1, 1024)),
    ):
        config = StewardConfig(n=n, k=k, d=d, epsilon=Fraction(1, 8), delta=0, gamma=gamma)
        assert config.sigma == d + 2
        assert 2 ** (config.schedule.seed_len - n) < (d + 2) ** (2 * k), (n, d, k, gamma)
    assert build_schedule(8, 4096, 4, Fraction(1, 16)).seed_len == 8794
    assert ref_schedule(8, 512, 4, Fraction(1, 16))[-1] == 1404
