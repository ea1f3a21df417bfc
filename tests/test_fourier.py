import dataclasses
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randsteward import fourier, sampler
from randsteward.fourier import (
    estimate_W,
    gl_audit_dict,
    gl_params,
    goldreich_levin,
    heavy_set_exact,
    load_truth_table,
    wht_ints,
)
from randsteward.randomness import CounterSource, TapeSource, int_to_bits
from randsteward.sampler import (
    MODES,
    SamplerPlan,
    _batch_seeds,
    plan_sampler,
)
from randsteward.steward import StewardConfig

from harness import KeepAllSession, PointwiseWeight, dump_truth_table, random_coset
from oracles import (
    batch_points, brute_subcube_weight, brute_wht, ref_batch_cosets, ref_coset_sum,
    ref_cube_weights, ref_gl_recipe, ref_weights_pointwise,
)

MAJ3 = [1 if bin(x).count("1") < 2 else -1 for x in range(8)]
CHI1 = [1, -1, 1, -1]  # parity of the first input bit, n = 2

sign_tables = st.integers(0, 3).flatmap(
    lambda n: st.lists(
        st.sampled_from([-1, 1]), min_size=1 << n, max_size=1 << n
    )
)


# ---------------------------------------------------------------- transform


def test_wht_goldens():
    assert wht_ints(MAJ3).tolist() == [0, 4, 4, 0, 4, 0, 0, -4]
    assert wht_ints(CHI1).tolist() == [0, 4, 0, 0]
    assert wht_ints([1, 1, 1, 1]).tolist() == [4, 0, 0, 0]


def test_wht_matches_brute_force():
    rng = np.random.default_rng(91)
    for n in range(0, 7):
        tab = rng.choice([-1, 1], size=1 << n)
        assert wht_ints(tab).tolist() == brute_wht(tab.tolist())


@settings(max_examples=60)
@given(table=sign_tables)
def test_wht_involution(table):
    sums = wht_ints(table)
    again = wht_ints(sums)
    assert again.tolist() == [len(table) * v for v in table]


@settings(max_examples=60)
@given(table=sign_tables)
def test_parseval(table):
    # sum of F_hat(x)^2 is 1: the squared Walsh sums add up to 4^n
    assert sum(int(s) ** 2 for s in wht_ints(table)) == len(table) ** 2


def test_wht_rejects_bad_lengths():
    with pytest.raises(ValueError):
        wht_ints([1, -1, 1])
    with pytest.raises(ValueError):
        wht_ints([])


def test_spectrum_accessors():
    # coefficients are the Walsh sums over 2^n; heavy_set_exact reads them exactly
    coefficients = {
        x: Fraction(int(s), len(MAJ3)) for x, s in enumerate(wht_ints(MAJ3)) if s
    }
    assert coefficients == {
        1: Fraction(1, 2), 2: Fraction(1, 2), 4: Fraction(1, 2), 7: Fraction(-1, 2)
    }
    assert heavy_set_exact(MAJ3, Fraction(2, 5)) == ["001", "010", "100", "111"]
    # MAJ3's four nonzero coefficients are exactly +-1/2: the threshold is inclusive
    assert heavy_set_exact(MAJ3, Fraction(1, 2)) == ["001", "010", "100", "111"]
    assert heavy_set_exact(MAJ3, Fraction(51, 100)) == []


def test_heavy_set_exact_strings():
    assert heavy_set_exact(MAJ3, Fraction(2, 5)) == ["001", "010", "100", "111"]
    assert heavy_set_exact(CHI1, Fraction(1, 2)) == ["10"]


def test_heavy_set_exact_rejects_theta_outside_unit_interval():
    # theta <= 0 would call every string heavy; theta = 1 is the inclusive top
    assert heavy_set_exact(CHI1, 1) == ["10"]
    for theta in (0, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="theta"):
            heavy_set_exact(CHI1, theta)


def test_subcube_weights():
    assert brute_subcube_weight(MAJ3, "") == 1
    assert brute_subcube_weight(MAJ3, "1") == Fraction(1, 2)
    assert brute_subcube_weight(MAJ3, "0") == Fraction(1, 2)
    assert brute_subcube_weight(MAJ3, "11") == Fraction(1, 4)


# ---------------------------------------------------------------- tables


LOSSY_TABLES = [
    np.array([1, 255, 1, 255]),  # 255 wraps to -1 in an int8 cast
    [1.0, -1.7, 1, -1],  # -1.7 truncates to -1
    [1, -1, 1],  # length not a power of two
    [],
]


def test_sign_table_rejects_lossy_inputs():
    source = TapeSource("0" * 64)
    for bad in LOSSY_TABLES:
        with pytest.raises(ValueError):
            heavy_set_exact(bad, Fraction(1, 2))
        with pytest.raises(ValueError):
            goldreich_levin(bad, Fraction(1, 2), Fraction(1, 2), source)
        with pytest.raises(ValueError):
            estimate_W(bad, "", Fraction(1, 2), Fraction(1, 4), source)
    assert source.bits_drawn == 0
    with pytest.raises(ValueError):
        heavy_set_exact([[1, -1], [1, -1]], Fraction(1, 2))  # not a flat table
    # exact +-1 values pass whatever their dtype
    assert heavy_set_exact([1.0, -1.0, 1.0, -1.0], Fraction(1, 2)) == ["10"]
    assert heavy_set_exact(np.array(CHI1, dtype=np.int8), Fraction(1, 2)) == ["10"]


def test_truth_table_files():
    assert dump_truth_table(MAJ3) == "n=3\ne8\n"
    assert load_truth_table("n=3\ne8\n").tolist() == MAJ3
    assert load_truth_table("n=3\n e8 \n").tolist() == MAJ3
    with pytest.raises(ValueError):
        load_truth_table("3\ne8\n")
    rng = np.random.default_rng(17)
    for n in (0, 1, 4, 6):
        tab = rng.choice([-1, 1], size=1 << n).tolist()
        assert load_truth_table(dump_truth_table(tab)).tolist() == tab
    assert dump_truth_table(CHI1) == "n=2\n0a\n"
    assert dump_truth_table([-1] * 16) == "n=4\nffff\n"
    for bad in LOSSY_TABLES:  # no file that load_truth_table would misread
        with pytest.raises(ValueError):
            dump_truth_table(bad)


@pytest.mark.parametrize("text,message", [
    ("n=1\nffff", "needs 1 table bytes, got 2"),  # a whole surplus byte
    ("n=4\nff", "needs 2 table bytes, got 1"),
    ("n=3\n", "needs 1 table bytes, got 0"),
    ("n=-1\n00", "n must be >= 0"),
    ("n=1\nff", "padding bits"),
    ("n=2\nf5", "padding bits"),
    # int() would read each of these headers as n=3, MAJ3's table
    ("n=\u0663\ne8\n", "first line must be n=<digits>"),  # ARABIC-INDIC DIGIT THREE
    ("n=0_3\ne8\n", "first line must be n=<digits>"),
    ("n=+3\ne8\n", "first line must be n=<digits>"),
])
def test_truth_table_files_reject_malformed_tables(text, message):
    with pytest.raises(ValueError, match=message):
        load_truth_table(text)


# ---------------------------------------------------------------- estimation


def test_estimate_w_golden():
    w = estimate_W(
        MAJ3, "1", Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"west", index=0)
    )
    assert w == Fraction(1, 2)  # exact subcube weight of the majority spectrum


def test_estimate_w_is_unbiased_over_tapes():
    # one batch: averaging the estimate over every seed tape reproduces the
    # true subcube weight exactly
    plan = plan_sampler(2, Fraction(1, 2), Fraction(15, 16))
    assert plan.r == 1 and plan.seed_bits == 12
    for prefix, want in [("0", Fraction(0)), ("1", Fraction(1))]:
        total = Fraction(0)
        for seed in range(1 << plan.seed_bits):
            tape = TapeSource(int_to_bits(seed, plan.seed_bits))
            total += estimate_W([1, -1], prefix, Fraction(1), Fraction(15, 16), tape)
            assert tape.bits_drawn == plan.seed_bits
        assert total / (1 << plan.seed_bits) == want


def test_estimate_w_plans_over_n_plus_prefix_bits():
    # the sampler runs over the n + len(prefix) bits of (x, prefix); a plan
    # over fewer bits used to be accepted and biased the estimate
    table = np.random.default_rng(8).choice([-1, 1], size=1 << 8).tolist()
    args = (table, "1011", Fraction(1, 2), Fraction(1, 4))
    want = plan_sampler(12, Fraction(1, 4), Fraction(1, 4))
    source = CounterSource(master=b"west-plan", index=0)
    estimate_W(*args, source)
    assert source.bits_drawn == want.seed_bits
    with pytest.raises(TypeError):
        estimate_W(*args, source, plan=plan_sampler(2, Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(TypeError):
        estimate_W(*args, source, mode="independent")


def test_estimate_w_is_unbiased_for_majority():
    plan = plan_sampler(4, Fraction(1, 2), Fraction(15, 16))
    assert plan.r == 1 and plan.seed_bits == 12
    total = Fraction(0)
    for seed in range(1 << plan.seed_bits):
        tape = TapeSource(int_to_bits(seed, plan.seed_bits))
        total += estimate_W(MAJ3, "1", Fraction(1), Fraction(15, 16), tape)
    assert total / (1 << plan.seed_bits) == Fraction(1, 2)


def _pointwise_weights(table, cand_ints, ell, n, plan, tape):
    """The reference: the same batches as the package, summed point by point."""
    seeds = _batch_seeds(plan, tape & ((1 << plan.seed_bits) - 1))
    width = n + ell
    batches = [batch_points(a, b, plan.t0, plan.field_bits, width) for a, b in seeds]
    return ref_weights_pointwise(table, cand_ints, ell, n, batches, plan.t0)


def _count_branches(monkeypatch) -> Counter:
    """Calls of each stacked weight-oracle path, of the matrix path and of
    batch_sums, and under "stacked" the calls that sum two or more cosets
    at once."""
    calls = Counter()
    for owner, name, at in [(fourier, "_coset_histograms", 2), (fourier, "_dual_coset_sums", 3),
                            (fourier, "_cube_matrix_sums", None), (fourier, "batch_sums", None)]:

        def spy(*args, _real=getattr(owner, name), _name=name, _at=at):
            calls[_name] += 1
            if _at is not None and len(args[_at]) > 1:
                calls["stacked"] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("temp_bits", [sampler.TEMP_BITS, 1])
def test_weights_match_pointwise_reference(monkeypatch, temp_bits):
    # at TEMP_BITS every level here fits one matrix pass; temp_bits = 1
    # sends every level to the coset path, split into tiny passes
    monkeypatch.setattr(sampler, "TEMP_BITS", temp_bits)
    calls = _count_branches(monkeypatch)
    rng = random.Random(4242)
    for n, ell in [(1, 0), (1, 1), (3, 0), (3, 3), (4, 2), (5, 1), (5, 5), (6, 3)]:
        width = n + ell
        table = rng.choice([[1] * (1 << n), [rng.choice([-1, 1]) for _ in range(1 << n)]])
        cands = rng.sample(range(1 << ell), rng.randint(1, 1 << ell))
        for mode in MODES:
            for t0, extra in [(1, 0), (1 << width, 0), (45, 2), (300, 0)]:
                field_bits = max(width, (t0 - 1).bit_length()) + extra
                plan = SamplerPlan(
                    n=width, epsilon=Fraction(1, 2), delta=Fraction(1, 2), mode=mode,
                    t0=t0, r=3, field_bits=field_bits,
                )
                for tape in [0, rng.getrandbits(plan.seed_bits)]:
                    got = fourier._weights_from_tape(table, cands, ell, n, plan, tape)
                    assert got == _pointwise_weights(table, cands, ell, n, plan, tape)
    if temp_bits == 1:
        assert calls["_cube_matrix_sums"] == 0
        assert all(calls[name] > 0 for name in ("_coset_histograms", "_dual_coset_sums",
                                                "stacked"))
    else:
        assert calls["_cube_matrix_sums"] == 8 * len(MODES) * 4 * 2
        assert calls["batch_sums"] == 0


def test_matrix_path_matches_pointwise_reference(monkeypatch):
    # every (n, ell) with n + ell <= 8; TEMP_BITS = n + ell + 2 puts the
    # one-pass rule at r <= 4 batches and C <= 4 candidates, so r = 4, C = 4
    # is just inside and r = 5 or C = 5 just outside
    calls = _count_branches(monkeypatch)
    rng = random.Random(2525)
    for n in range(1, 9):
        for ell in range(min(n, 8 - n) + 1):
            width = n + ell
            monkeypatch.setattr(sampler, "TEMP_BITS", width + 2)
            table = [rng.choice([-1, 1]) for _ in range(1 << n)]
            top = min(4, 1 << ell)
            cases = [(4, top, "_cube_matrix_sums"), (5, top, "batch_sums")]
            if 1 << ell >= 5:
                cases.append((4, 5, "batch_sums"))
            for r, count, path in cases:
                cands = rng.sample(range(1 << ell), count)
                for mode in MODES:
                    for t0 in (1, 45, 300, 1 << width):
                        plan = SamplerPlan(
                            n=width, epsilon=Fraction(1, 2), delta=Fraction(1, 2), mode=mode,
                            t0=t0, r=r, field_bits=max(width, (t0 - 1).bit_length()),
                        )
                        tape = rng.getrandbits(plan.seed_bits)
                        calls.clear()
                        got = fourier._weights_from_tape(table, cands, ell, n, plan, tape)
                        assert calls["_cube_matrix_sums"] + calls["batch_sums"] == calls[path] == 1
                        assert got == _pointwise_weights(table, cands, ell, n, plan, tape)


def test_matrix_path_pads_low_ranks_and_shifts_rows(monkeypatch):
    # batches (0, b), (1, b'), (1, b''), (0, b'''): a = 0 maps every block to
    # one point, so its rank-0 cosets share the padded pass with a = 1's top
    # rank 3, and each multiplier's one row is gathered at two shifts
    calls = _count_branches(monkeypatch)
    real, split_calls = sampler.batch_cosets, Counter()

    def counting(a, *args):
        split_calls[a] += 1
        return real(a, *args)

    monkeypatch.setattr(sampler, "batch_cosets", counting)
    n, ell = 2, 2
    width = n + ell
    plan = SamplerPlan(n=width, epsilon=Fraction(1, 2), delta=Fraction(1, 2),
                       mode="independent", t0=45, r=4, field_bits=6)
    batches = [(0, 5), (1, 9), (1, 6), (0, 12)]
    tape = sum((a | b << plan.field_bits) << 2 * plan.field_bits * i
               for i, (a, b) in enumerate(batches))
    assert _batch_seeds(plan, tape) == batches
    ranks = {m: sorted(len(basis) for _, _, basis in real(m, 45, 6, width)[1]) for m in (0, 1)}
    assert ranks == {0: [0, 0, 0, 0], 1: [0, 2, 3]}
    rng = random.Random(2727)
    cands = list(range(1 << ell))
    for table in ([1, 1, 1, 1], CHI1, [rng.choice([-1, 1]) for _ in range(4)]):
        calls.clear()
        split_calls.clear()
        got = fourier._weights_from_tape(table, cands, ell, n, plan, tape)
        assert calls["_cube_matrix_sums"] == 1 and calls["batch_sums"] == 0
        assert split_calls == Counter({0: 1, 1: 1})
        assert got == _pointwise_weights(table, cands, ell, n, plan, tape)
        sums = fourier._cube_matrix_sums(table, cands, ell, plan, tape)
        points = [batch_points(a, b, plan.t0, plan.field_bits, width) for a, b in batches]
        assert [[Fraction(s, plan.t0) for s in row] for row in sums.tolist()] == [
            ref_weights_pointwise(table, cands, ell, n, [batch], plan.t0) for batch in points
        ]


def test_matrix_path_refuses_t0_past_int64():
    plan = SamplerPlan(n=2, epsilon=Fraction(1, 2), delta=Fraction(1, 2), mode="walk",
                       t0=1 << 63, r=1, field_bits=64)
    with pytest.raises(OverflowError):
        fourier._cube_matrix_sums([1, -1], [0, 1], 1, plan, 0)


def test_dual_coset_sums_refuse_an_inexact_division():
    # rows = [[1, 0]] are no Walsh sums of a +-1 table (F would be (1/2,
    # 1/2)); h_0 = 1/4 at every point, so a 2-point coset sums to 1/2 and
    # its dual total is not divisible by |V-perp| = 2
    rows = np.array([[1, 0]], dtype=np.int64)
    cands = np.array([0], dtype=np.uint64)
    with pytest.raises(ArithmeticError, match="not divisible"):
        fourier._dual_coset_sums(rows, cands, 1, [(0, (1,))], 2)
    table = np.array([1, -1], dtype=np.int64)  # F(0)F(0) + F(1)F(0) = 0
    rows = wht_ints(table.reshape(1, 2))
    assert fourier._dual_coset_sums(rows, cands, 1, [(0, (1,))], 2).tolist() == [[0]]


def test_dual_coset_sums_match_enumeration():
    # the Walsh dual and the histogram agree on every coset, at every ell,
    # one coset at a time and all of one batch's cosets stacked at once
    rng = random.Random(99)
    for n, ell in [(1, 0), (2, 0), (2, 2), (3, 1), (4, 4), (5, 2)]:
        width = n + ell
        table = np.array([rng.choice([-1, 1]) for _ in range(1 << n)], dtype=np.int64)
        rows = wht_ints(table.reshape(-1, 1 << ell))
        cands = np.arange(1 << ell, dtype=np.uint64)
        for _ in range(20):
            field_bits = width + rng.randint(0, 2)
            a, b = rng.randrange(1 << field_bits), rng.randrange(1 << field_bits)
            t0 = rng.randint(1, 1 << field_bits)
            cosets = [(c, basis) for _, c, basis in ref_batch_cosets(a, b, t0, field_bits, width)]
            stacks = [[coset] for coset in cosets] + [cosets]
            for stack in stacks:
                hist = fourier._coset_histograms(table, ell, stack)
                dual = fourier._dual_coset_sums(rows, cands, ell, stack, width)
                assert hist.shape == (len(stack), 1 << ell)
                assert dual.tolist() == wht_ints(hist).tolist()


def test_cube_weights_match_dual_and_histogram():
    # the closed form sum_z rows[z, p]^2 against both coset paths on the
    # whole cube, entered at random offsets c, one at a time and stacked
    rng = random.Random(2718)
    for n, ell in [(1, 0), (1, 1), (2, 0), (3, 3), (4, 2), (5, 1), (6, 6)]:
        width = n + ell
        table = np.array([rng.choice([-1, 1]) for _ in range(1 << n)], dtype=np.int64)
        cands = rng.sample(range(1 << ell), rng.randint(1, 1 << ell))
        oracle = fourier._WeightOracle(table, cands, ell, n)
        total = ref_cube_weights(table, cands, ell)
        units = tuple(1 << i for i in range(width))
        cosets = [(rng.randrange(1 << width), units) for _ in range(5)]
        for stack in [[coset] for coset in cosets] + [cosets]:
            dual = fourier._dual_coset_sums(oracle.rows, oracle.cands, ell, stack, width)
            hist = fourier._coset_histograms(table, ell, stack)
            want = [total] * len(stack)
            assert dual.tolist() == want == wht_ints(hist)[:, cands].tolist()
            assert [sums.tolist() for sums in oracle.coset_sums(stack)] == want


@pytest.mark.parametrize("temp_bits", [sampler.TEMP_BITS, 1])
def test_weight_oracle_coset_sums_match_pointwise_reference(monkeypatch, temp_bits):
    # random coset lists mixing every rank 0..n + ell, full rank included,
    # against each candidate's point-by-point sum; both paths run, and each
    # path's last list needs more than one pass of 2^TEMP_BITS points or terms
    monkeypatch.setattr(sampler, "TEMP_BITS", temp_bits)
    calls = _count_branches(monkeypatch)
    rng = random.Random(5151)
    for n, ell in [(1, 0), (2, 1), (3, 2), (4, 4), (6, 2), (5, 5)]:
        width = n + ell
        table = np.array([rng.choice([-1, 1]) for _ in range(1 << n)], dtype=np.int64)
        cands = rng.sample(range(1 << ell), rng.randint(1, 1 << ell))
        if (n, ell) == (5, 5):
            cands = cands[:1]  # ranks <= 5 take the histogram, ranks >= 6 the dual
        oracle = fourier._WeightOracle(table, cands, ell, n)
        refs = [PointwiseWeight(table, p, ell) for p in cands]
        for count in (1, 3, 40):
            cosets = [random_coset(rng, width, rng.randint(0, width)) for _ in range(count)]
            cosets.append(random_coset(rng, width, width))
            if (n, ell, count) == (5, 5, 40):
                # rank 5 (32 points each) and rank 6 (a V-perp of 16 each)
                # past one pass of 2^TEMP_BITS points or terms
                cosets += [random_coset(rng, width, 5) for _ in range((1 << max(0, temp_bits - 5)) + 1)]
                cosets += [random_coset(rng, width, 6) for _ in range((1 << max(0, temp_bits - 4)) + 1)]
            got = oracle.coset_sums(cosets)
            assert len(got) == len(cosets)
            for (c, basis), sums in zip(cosets, got):
                assert sums.tolist() == [ref_coset_sum(ref, c, basis) for ref in refs]
    assert all(calls[name] > 0 for name in ("_coset_histograms", "_dual_coset_sums", "stacked"))


def test_search_and_estimates_match_pointwise_reference(monkeypatch):
    real = fourier._weights_from_tape
    levels = []

    def checked(table, cand_ints, ell, n, plan, tape):
        got = real(table, cand_ints, ell, n, plan, tape)
        assert got == _pointwise_weights(table, cand_ints, ell, n, plan, tape)
        levels.append(ell)
        return got

    monkeypatch.setattr(fourier, "_weights_from_tape", checked)
    res = goldreich_levin(
        [1, 1], Fraction(1), Fraction(1, 2), CounterSource(master=b"gl-one", index=0)
    )
    assert (res.strings, res.aborted, res.bits_used) == (["0"], False, 157)
    res = goldreich_levin(
        [1, -1], Fraction(1), Fraction(1, 2), CounterSource(master=b"gl-one", index=1)
    )
    assert (res.strings, res.aborted, res.bits_used) == (["1"], False, 157)
    for prefix in ["", "1", "011"]:
        estimate_W(
            MAJ3, prefix, Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"west", index=0)
        )
    assert levels == [1, 1, 0, 1, 3]


def test_estimate_w_rejects_long_prefix():
    with pytest.raises(ValueError):
        estimate_W(CHI1, "010", Fraction(1, 2), Fraction(1, 4), TapeSource("0" * 64))


# ---------------------------------------------------------------- search


def test_gl_params_goldens():
    p = gl_params(12, Fraction(1, 2), Fraction(1, 10))
    assert (p.u, p.k, p.d) == (1, 12, 32)
    assert p.config.epsilon == Fraction(1, 1616)
    assert p.config.delta == Fraction(1, 240)  # delta / (2k)
    assert {(plan.epsilon, plan.delta) for plan in p.plans} == {
        (Fraction(1, 3232), Fraction(1, 7680))}  # (epsilon / 2, delta / (2dk))
    assert p.block_lens == (1,) * 12
    assert p.prefix_lens == tuple(range(1, 13))
    assert p.keep_threshold == Fraction(1, 8)
    p2 = gl_params(3, Fraction(2, 5), Fraction(1, 10))
    assert (p2.u, p2.k, p2.d) == (1, 3, 50)


def test_gl_params_are_planned_once():
    p = gl_params(2, Fraction(9, 10), Fraction(1, 2))
    assert gl_params(2, Fraction(9, 10), Fraction(1, 2)) is p
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.d = 1
    assert gl_params(3, Fraction(9, 10), Fraction(1, 2)) is not p


def test_gl_params_validation():
    with pytest.raises(ValueError):
        gl_params(2, Fraction(3, 2), Fraction(1, 10))
    with pytest.raises(ValueError):
        gl_params(2, Fraction(1, 4), Fraction(1, 10))  # below 2^(1-n)
    gl_params(2, Fraction(1, 2), Fraction(1, 10))
    with pytest.raises(ValueError):
        gl_params(2, Fraction(1, 2), Fraction(0))


def test_gl_steward_config():
    p = gl_params(2, Fraction(9, 10), Fraction(1, 2))
    cfg = p.config
    assert cfg.n == max(plan.seed_bits for plan in p.plans)
    assert cfg.k == p.k
    assert cfg.d == cfg.d0 == p.d
    assert cfg.kind == "main"
    assert cfg.error_bound == p.theta**2 / 4
    assert cfg.delta == Fraction(1, 8)  # delta / (2k)
    assert cfg.gamma == Fraction(1, 4)  # delta / 2


def _gl_grid():
    for n in (2, 3, 5, 8, 12, 16):
        for theta in (Fraction(1), Fraction(9, 10), Fraction(1, 2), Fraction(2, 5),
                      Fraction(1, 3), Fraction(1, 4), Fraction(1, 8)):
            if theta * (1 << (n - 1)) >= 1:
                for delta in (Fraction(1, 10), Fraction(1, 2)):
                    yield gl_params(n, theta, delta)


def test_gl_plans_match_the_reference_recipe():
    # the recipe split the failure over n, the levels over k: they agree where
    # u = 1, and elsewhere each level gets a larger share, so the seed never grows
    checked = {1: 0, 2: 0, 3: 0}
    for p in _gl_grid():
        want = ref_gl_recipe(p.n, p.d, p.theta, p.delta)
        ref_plans = tuple(
            plan_sampler(p.n + ell, want["sampler_epsilon"], want["sampler_delta"])
            for ell in p.prefix_lens
        )
        ref_config = StewardConfig(
            n=max(plan.seed_bits for plan in ref_plans), k=p.k, d=p.d,
            epsilon=want["epsilon"], delta=want["delta"], gamma=want["gamma"],
        )
        if p.u == 1:
            assert p.k == p.n
            assert p.plans == ref_plans
            assert p.config == ref_config
        else:
            assert p.k < p.n
            assert p.config.delta == p.delta / (2 * p.k) > ref_config.delta
            assert p.config.schedule.seed_len <= ref_config.schedule.seed_len
        checked[p.u] += 1
    assert checked == {1: 56, 2: 10, 3: 8}


def test_goldreich_levin_aborts_past_the_survivor_cap(monkeypatch):
    # answers that keep every candidate double the survivors per level; at
    # theta = 1/2 (u = 1, d = 32) the cap of d / 2^u = 16 is passed at level 5
    monkeypatch.setattr(fourier, "Session", KeepAllSession)
    table = [1] * 64
    res = goldreich_levin(table, Fraction(1, 2), Fraction(1, 10), TapeSource(""))
    assert res.aborted
    assert res.strings == [] and res.masks == []
    assert res.levels_run == 5 < res.params.k == 6
    assert res.bits_used == 0


def test_goldreich_levin_finds_a_parity():
    res = goldreich_levin(
        CHI1, Fraction(9, 10), Fraction(1, 2), CounterSource(master=b"gl-unit", index=0)
    )
    assert not res.aborted
    assert res.strings == ["10"]
    assert res.masks == [1]
    assert res.levels_run == res.params.k == 2
    assert res.bits_used == 211


def test_goldreich_levin_constant_function():
    res = goldreich_levin(
        [1, 1], Fraction(1), Fraction(1, 2), CounterSource(master=b"gl-one", index=0)
    )
    assert res.strings == ["0"]
    assert res.masks == [0]
    # single level: the steward schedule is just the tape, no ladder
    assert res.bits_used == res.params.config.n == 157


def test_gl_randomness_audit():
    params = gl_params(2, Fraction(9, 10), Fraction(1, 2))
    doc = gl_audit_dict(params)
    assert params.config.n == doc["tape_bits"] == 187
    assert doc["per_phase"] == {"tape": 187, "ladder": 211 - 187}
    assert doc["steward_bits"] == 211
    assert doc["fresh_bits"] == 374
    assert doc["levels"] == 2
    assert doc["schedule"] == params.config.schedule.to_dict()
    # one generator level: 187 fresh bits would cost more than a 24-bit extractor seed
    assert [(level["extractor"], level["seed_bits"]) for level in doc["schedule"]["schedule"]] == [
        ("small-bias", 24)]
    assert [p["queries"] for p in doc["sampler"]] == [p.queries for p in params.plans]
    assert [p["cube_points"] for p in doc["sampler"]] == [8, 16]  # levels n + 1, n + 2
    # the saving must be genuine: one seed beats fresh tapes per level
    assert doc["steward_bits"] < doc["fresh_bits"]
