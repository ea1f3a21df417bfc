import itertools
import random
from fractions import Fraction

import pytest

from randsteward.extract import ExtractorParams, FreshExtractorParams
from randsteward.prg import BACKENDS, build_schedule, expand, split_blocks
from randsteward.randomness import int_to_bits
from randsteward.steward import StewardConfig

from oracles import ref_expand, ref_field_bits, ref_plan, ref_schedule
from trees import BlockDecisionTree, exact_node_distribution, tv_distance


def test_schedule_golden_two_blocks():
    s = build_schedule(4, 2, 2, Fraction(1, 4), backend="small-bias")
    assert s.levels == 1
    assert s.betas == (Fraction(1, 4),)  # one level takes all of gamma
    (ext,) = s.extractors
    assert isinstance(ext, ExtractorParams)
    assert (ext.t, ext.m, ext.seed_len) == (1, 5, 10)
    assert s.s == (4, 14)
    assert list(s.s) == ref_schedule(4, 2, 2, Fraction(1, 4), "small-bias")
    assert s.seed_len == 14
    assert s.output_len == 8
    # 4 fresh bits cost less than that 10-bit seed, so the default takes them
    auto = build_schedule(4, 2, 2, Fraction(1, 4))
    assert auto.extractors == (FreshExtractorParams(s=4),)
    assert auto.s == (4, 8)


def test_schedule_golden_five_blocks_ternary():
    s = build_schedule(3, 5, 3, Fraction(1, 2), backend="small-bias")
    assert s.levels == 3
    assert s.betas == (Fraction(1, 24), Fraction(1, 12), Fraction(1, 6))
    assert [(p.t, p.m) for p in s.extractors] == [(2, 7), (4, 10), (7, 12)]
    assert s.s == (3, 17, 37, 61)
    assert list(s.s) == ref_schedule(3, 5, 3, Fraction(1, 2), "small-bias")
    # fresh bits at every level would cost 3 * 8 = 24 > nk = 15: the default caps
    auto = build_schedule(3, 5, 3, Fraction(1, 2))
    assert (auto.levels, auto.extractors, auto.s) == (0, (), (15,))


def test_single_block_schedule_is_trivial():
    s = build_schedule(6, 1, 2, Fraction(1, 2))
    assert s.levels == 0
    assert s.extractors == ()
    assert s.seed_len == 6
    assert expand(s, 0b110010) == 0b110010


def test_deficits_are_exact_log_ceilings():
    # t_i must be ceil(2^i * log2 sigma), computed without floating point
    for sigma in range(2, 11):
        s = build_schedule(2, 16, sigma, Fraction(1, 2), backend="small-bias")
        assert s.deficits == tuple(params.t for params in s.extractors)
        for i, t in enumerate(s.deficits):
            assert 2**t >= sigma ** (1 << i)
            assert 2 ** (t - 1) < sigma ** (1 << i)
        # a fresh level keeps the deficit its small-bias rival was planned for
        assert build_schedule(2, 16, sigma, Fraction(1, 2), backend="fresh").deficits == s.deficits


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
    assert BACKENDS == ("auto", "small-bias", "fresh")


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


def test_split_blocks():
    # the bits "01", "10", "11" in drawing order: block j is bits 2j, 2j + 1
    assert split_blocks(0b110110, 2, 3) == [0b10, 0b01, 0b11]
    with pytest.raises(ValueError):
        split_blocks(1 << 6, 2, 3)
    with pytest.raises(ValueError):
        split_blocks(-1, 2, 3)


def test_small_bias_expand_golden():
    # the small-bias backend at m = 3: the input 0b01 meets u = 0b101 and
    # v = 0b010, so S = (<1, v>, <u, v>) = (0, 0) and the output is the input twice
    s = build_schedule(2, 2, 2, Fraction(1, 4), backend="small-bias")
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
    seen_parity, seen_kinds = set(), set()
    for k in range(1, 10):
        for n in (1, 2, 3, 4, 5, 8):
            sigma = rng.randrange(2, 7)
            schedule = build_schedule(n, k, sigma, Fraction(1, rng.randrange(2, 17)), backend)
            seen_parity.update(s % 2 for s in schedule.s)
            kinds = frozenset(type(p) for p in schedule.extractors)
            seen_kinds.add("capped" if k > 1 and not kinds else len(kinds))
            for i in range(3):
                seed = rng.getrandbits(schedule.seed_len)
                got = int_to_bits(expand(schedule, seed), schedule.output_len)
                assert got == ref_expand(schedule, int_to_bits(seed, schedule.seed_len)), (k, n)
    assert seen_parity == {0, 1}
    if backend == "auto":  # fresh and small-bias levels in one schedule, and the cap
        assert {2, "capped"} <= seen_kinds


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
    assert doc["seed_len"] == 8
    assert doc["gamma"] == "1/4"
    assert doc["backend"] == "auto"
    assert "beta" not in doc
    assert doc["schedule"] == [{"level": 0, "extractor": "fresh", "beta": "1/4", "s_in": 4,
                                "deficit": 1, "seed_bits": 4, "s_out": 8}]
    level = build_schedule(4, 2, 2, Fraction(1, 4), backend="small-bias").to_dict()["schedule"][0]
    assert (level["extractor"], level["beta"]) == ("small-bias", "1/4")
    assert (level["field_bits"], level["seed_bits"], level["s_out"]) == (5, 10, 14)


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
    assert build_schedule(8, 4096, 4, Fraction(1, 16)).seed_len == 8618
    assert ref_schedule(8, 512, 4, Fraction(1, 16))[-1] == 1288


# The planning grid: n < 20, k < 40, sigma 2 and the steward's d + 2 at
# d = 1, 2, 8, 32 (the workloads' d), at gamma = 1/16.
PLAN_GRID = list(itertools.product(range(1, 20), range(1, 40), (2, 3, 4, 10, 34)))


def test_schedule_matches_the_reference_planner():
    # lengths, each level's extractor kind and its beta, on the whole grid;
    # each level is the cheaper one, fresh bits exactly when s_i <= 2m_i
    gamma, ties = Fraction(1, 16), 0
    for n, k, sigma in PLAN_GRID:
        schedule = build_schedule(n, k, sigma, gamma)
        s, plan = ref_plan(n, k, sigma, gamma)
        assert list(schedule.s) == s, (n, k, sigma)
        kinds = ["fresh" if isinstance(p, FreshExtractorParams) else "small-bias"
                 for p in schedule.extractors]
        assert list(zip(kinds, schedule.betas)) == [(kind, beta) for kind, _, beta in plan]
        for i, params in enumerate(schedule.extractors):
            t = next(t for t in itertools.count() if 2**t >= sigma ** 2**i)
            small_bias = 2 * ref_field_bits(schedule.s[i], t, schedule.betas[i])
            assert params.seed_len == min(schedule.s[i], small_bias), (n, k, sigma, i)
            ties += schedule.s[i] == small_bias
    assert ties > 0  # a tie goes to fresh bits, and the grid has some


def test_seed_never_exceeds_nk():
    for n, k, sigma in PLAN_GRID:
        for gamma in (Fraction(1, 2), Fraction(1, 16), Fraction(1, 1024)):
            assert build_schedule(n, k, sigma, gamma).seed_len <= n * k, (n, k, sigma, gamma)
    # the cap fires at n = 8, k = 3: 8 + 8 + 16 fresh bits > 24
    capped = build_schedule(8, 3, 4, Fraction(1, 16))
    assert ref_plan(8, 3, 4, Fraction(1, 16), "fresh")[0] == [8, 16, 32]
    assert (capped.levels, capped.extractors, capped.s, capped.betas) == (0, (), (24,), ())
    seed = 0xA5F00F
    assert expand(capped, seed) == seed  # the identity on nk uniform bits


@pytest.mark.parametrize("backend", BACKENDS)
def test_betas_split_gamma_by_level_weight(backend):
    # level i's error counts 2^(levels-1-i) times; the weighted sum is gamma exactly
    for k in range(2, 40):
        for gamma in (Fraction(1, 2), Fraction(1, 16), Fraction(3, 1000)):
            s = build_schedule(64, k, 3, gamma, backend)
            assert s.levels == (k - 1).bit_length()  # 64 bits: the cap never fires here
            assert sum(beta * 2 ** (s.levels - 1 - i) for i, beta in enumerate(s.betas)) == gamma
