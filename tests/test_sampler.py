import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from randsteward import circuits, fourier, sampler
from randsteward.circuits import _CircuitOracle, parse_circuit, to_truth_table
from randsteward.fourier import gl_params
from randsteward.gf2 import field_poly, is_irreducible, powers
from randsteward.randomness import CounterSource, TapeSource, bits_to_int, int_to_bits
from randsteward.sampler import (
    MODES,
    FnOracle,
    SamplerPlan,
    _batch_seeds,
    _ceil_log2,
    _exact_sums,
    batch_cosets,
    batch_sums,
    lower_median,
    median_reps,
    plan_sampler,
    run_sampler,
)

from harness import PointwiseWeight, TruthTableOracle, random_circuit, random_coset
from oracles import (
    batch_points,
    lower_median_ref,
    ref_affine_points,
    ref_batch_cosets,
    ref_batch_seeds,
    ref_batch_sums,
    ref_ceil_log2,
    ref_coset_sum,
    ref_gf2_mul,
    ref_is_irreducible,
    ref_median_miss,
)

PARITY3 = TruthTableOracle([0, 1, 1, 0, 1, 0, 0, 1])
GL_PLANS = gl_params(2, Fraction(9, 10), Fraction(1, 2)).plans  # gl-search's two levels


def _seed(plan, master: bytes, index: int = 0) -> int:
    """A plan's seed, drawn and decoded as the library's draw sites do."""
    source = CounterSource(master, index)
    seed = bits_to_int(source.draw(plan.seed_bits, phase="sampler"))
    assert source.bits_drawn == plan.seed_bits
    return seed


def _means(plan, sums) -> list[Fraction]:
    """A run's batch means: each batch sum over the plan's t0 points."""
    return [Fraction(s, plan.t0) for s in sums]


# ---------------------------------------------------------------- gf2 backing


def test_field_polys_are_minimal_irreducibles():
    for m in range(1, 10):
        poly = field_poly(m)
        assert poly.bit_length() == m + 1
        assert ref_is_irreducible(poly, m)
        for candidate in range(1 << m, poly):
            assert not ref_is_irreducible(candidate, m)
            assert not is_irreducible(candidate)


def _mul(a: int, b: int, m: int) -> int:
    """a * b in GF(2^m), as the sampler and the extractor form it: the xor of
    a * x^i over the set bits i of b."""
    out = 0
    for i, power in enumerate(powers(a, m)):
        if b >> i & 1:
            out ^= power
    return out


def test_gf_mul_matches_reference_exhaustively():
    poly = field_poly(4)
    for a in range(16):
        for b in range(16):
            assert _mul(a, b, 4) == ref_gf2_mul(a, b, poly, 4)


def test_gf_mul_field_axioms_spot():
    m = 6
    poly = field_poly(m)
    for a, b, c in [(3, 41, 17), (62, 62, 1), (5, 0, 63)]:
        assert _mul(a, b, m) == ref_gf2_mul(a, b, poly, m)
        assert _mul(a, b, m) == _mul(b, a, m)
        assert _mul(a, _mul(b, c, m), m) == _mul(_mul(a, b, m), c, m)
        assert _mul(a, b ^ c, m) == _mul(a, b, m) ^ _mul(a, c, m)
        assert _mul(a, 1, m) == a


# ---------------------------------------------------------------- plans


def test_plan_goldens():
    p = plan_sampler(4, Fraction(1, 2), Fraction(1, 8))
    assert (p.t0, p.r, p.field_bits) == (40, 24, 6)
    assert p.seed_bits == 2 * 6 + 3 * 23 == 81
    assert p.queries == 960
    assert plan_sampler(4, Fraction(1, 2), Fraction(1, 8), mode="independent").seed_bits == 288
    p2 = plan_sampler(3, Fraction(1), Fraction(1, 2))
    assert (p2.t0, p2.r, p2.field_bits, p2.seed_bits) == (10, 8, 4, 29)


def test_plan_reps_floor_at_one():
    # delta close to 1 needs no median amplification at all
    p = plan_sampler(1, Fraction(1), Fraction(15, 16), mode="independent")
    assert p.r == 1
    assert p.seed_bits == 8


def test_ceil_log2_matches_the_reference_loop():
    grid = [Fraction(p, q) for p in range(1, 130) for q in range(1, 40)]
    grid += [Fraction(1 << e) + d for e in (10, 63, 64, 200) for d in (-1, Fraction(-1, 7), 0, 1)]
    grid += [(1 / Fraction(1, q)) ** 8 for q in (2, 3, 72, 320, 3600)]
    for q in grid:
        assert _ceil_log2(q) == ref_ceil_log2(q), q
    for bad in (Fraction(0), Fraction(-3, 2)):
        with pytest.raises(ValueError):
            _ceil_log2(bad)


def test_plan_field_grows_with_batch_size():
    # n = 1 but t0 = 10 points need a field with >= 10 elements
    assert plan_sampler(1, Fraction(1), Fraction(1, 2)).field_bits == 4
    assert plan_sampler(12, Fraction(1), Fraction(1, 2)).field_bits == 12


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_sampler(0, Fraction(1, 2), Fraction(1, 8))
    with pytest.raises(ValueError):
        plan_sampler(4, Fraction(3, 2), Fraction(1, 8))
    with pytest.raises(ValueError):
        plan_sampler(4, Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        plan_sampler(4, Fraction(1, 2), Fraction(1, 8), mode="psychic")
    assert MODES == ("walk", "independent")


# ---------------------------------------------------------------- points


def test_batch_points_golden_and_reference():
    got = batch_points(3, 5, 8, 4, 3)
    assert got.tolist() == [5, 6, 3, 0, 1, 2, 7, 4]
    poly = field_poly(4)
    for a, b in [(0, 0), (1, 7), (9, 12), (15, 15)]:
        want = ref_affine_points(a, b, 11, poly, 4, 3)
        assert batch_points(a, b, 11, 4, 3).tolist() == want


def test_batch_points_large_field_matches_reference():
    poly = field_poly(9)
    for a, b in [(273, 400), (511, 2)]:
        want = ref_affine_points(a, b, 20, poly, 9, 9)
        assert batch_points(a, b, 20, 9, 9).tolist() == want


def test_batch_points_rejects_small_field():
    with pytest.raises(ValueError):
        batch_points(1, 0, 5, 2, 2)


def _expand_cosets(cosets) -> Counter:
    """The multiset of points that (multiplicity, c, basis) triples describe."""
    points = Counter()
    for mult, c, basis in cosets:
        coset = [c]
        for v in basis:
            coset += [p ^ v for p in coset]
        for p in coset:
            points[p] += mult
    return points


def _is_echelon(basis) -> bool:
    """Nonzero vectors whose leading bits strictly ascend."""
    lengths = [v.bit_length() for v in basis]
    return min(basis, default=1) > 0 and lengths == sorted(set(lengths))


def _reduce(basis) -> tuple[int, ...]:
    """An echelon basis in reduced row echelon form, the same span: each
    vector's leading bit cleared from every later vector, as
    ref_batch_cosets keeps its bases."""
    reduced = []
    for v in basis:
        for w in reduced:
            if v >> (w.bit_length() - 1) & 1:
                v ^= w
        reduced.append(v)
    return tuple(reduced)


def _ref_split(a, b, t0, field_bits, n):
    """ref_batch_cosets as (whole, partial): the summed multiplicity of its
    full-rank triples, and its other triples in order."""
    triples = ref_batch_cosets(a, b, t0, field_bits, n)
    whole = sum(mult for mult, _, basis in triples if len(basis) == n)
    return whole, [triple for triple in triples if len(triple[2]) < n]


def _shifted_split(a, b, t0, field_bits, n):
    """batch_cosets's split of a*g, moved to the batch a*g + b: every
    offset xored by b mod 2^n, and every basis, checked to be in echelon
    form, reduced, so that it compares with ref_batch_cosets's by span."""
    whole, partial = batch_cosets(a, sampler._split_tables(t0, field_bits, n))
    assert all(_is_echelon(basis) for _, _, basis in partial)
    return whole, [(mult, c ^ (b & ((1 << n) - 1)), _reduce(basis)) for mult, c, basis in partial]


def test_batch_cosets_match_batch_points():
    rng = random.Random(2024)
    cases = [
        (0, 5, 11, 4, 3),  # a = 0: every block collapses to one point
        (0, 0, 1 << 6, 6, 6),
        (9, 12, 1, 4, 3),  # t0 = 1
        (7, 3, 1 << 5, 5, 2),  # t0 = 2^field_bits
        (13, 6, 1 << 6, 6, 6),  # t0 = 2^field_bits and n = field_bits
        (21, 40, 45, 6, 6),  # n = field_bits
        (0x9E3A7, 0x51C2D, 998873, 20, 3),  # gl-search's two plans
        (0x2B0F1, 0xC4E96, 998873, 20, 4),
    ]
    for _ in range(300):
        field_bits = rng.randint(1, 12)
        a = rng.randrange(1 << field_bits)
        b = rng.randrange(1 << field_bits)
        cases.append(
            (a, b, rng.randint(1, 1 << field_bits), field_bits, rng.randint(1, field_bits))
        )
    kinds = Counter()
    for a, b, t0, field_bits, n in cases:
        whole, partial = _shifted_split(a, b, t0, field_bits, n)
        assert (whole, partial) == _ref_split(a, b, t0, field_bits, n)
        assert (whole > 0) == (len(partial) < bin(t0).count("1"))
        for mult, c, basis in partial:
            assert mult & (mult - 1) == 0 and 0 <= c < 1 << n
            assert all(0 < v < 1 << n for v in basis) and len(basis) < n
            if a == 0:
                assert basis == ()
        want = Counter(batch_points(a, b, t0, field_bits, n).tolist())
        got = _expand_cosets(partial + [(whole, 0, tuple(1 << i for i in range(n)))])
        assert +got == want
        kinds[whole > 0, len(partial) > 0] += 1
    assert len(kinds) == 3  # whole cube only, partial cosets only, and both


def test_batch_cosets_match_reference_at_the_acceptance_plan():
    # criterion 12's sampler (n = 10, t0 = 256000, field 2^18): mostly
    # the whole cube, and the blocks below full rank must get the same
    # offsets and spans; gl-search's levels (n = 3, 4, t0 =
    # 998873, field 2^20): t0 is odd, so every batch has a partial coset
    c12 = plan_sampler(10, Fraction(1, 160), Fraction(1, 320))
    assert (c12.t0, c12.r, c12.field_bits) == (256000, 67, 18)
    assert [(p.n, p.t0, p.field_bits) for p in GL_PLANS] == [(3, 998873, 20), (4, 998873, 20)]
    rng = random.Random(12)
    kinds = Counter()
    for plan in [c12, *GL_PLANS]:
        for _ in range(200):
            a, b = rng.randrange(1 << plan.field_bits), rng.randrange(1 << plan.field_bits)
            whole, partial = _shifted_split(a, b, plan.t0, plan.field_bits, plan.n)
            assert (whole, partial) == _ref_split(a, b, plan.t0, plan.field_bits, plan.n)
            kinds[plan.n, whole > 0, len(partial) > 0] += 1
    assert kinds[10, True, False] > kinds[10, True, True] > 0
    assert kinds[3, True, True] == kinds[4, True, True] == 200


def test_batch_cosets_rejects_small_field():
    # the plan's layout refuses a field of fewer than t0 points
    with pytest.raises(ValueError, match="field too small"):
        sampler._split_tables(5, 2, 2)


def test_batch_cosets_rejects_a_multiplier_outside_the_field():
    # a byte-table lookup would drop the high bits of a, so a must be reduced
    layout = sampler._split_tables(5, 3, 2)
    for a in (-1, 1 << 3):
        with pytest.raises(ValueError, match="not in GF"):
            batch_cosets(a, layout)


def test_split_tables_are_keyed_by_the_whole_plan():
    # plans that share (field_bits, n) but not t0 get their own tables: a
    # table keyed on (field_bits, n) alone would give the second plan the
    # first one's offsets.  Interleaved, at a in {0, 1, 2^m - 1}, t0 = 2^m
    # and n = field_bits
    m = 6
    pairs = [((1 << m, m, m), (45, m, m)), ((45, m, 3), (33, m, 3)), ((5, 3, 2), (8, 3, 2))]
    rng = random.Random(27)
    sampler._split_tables.cache_clear()
    for first, second in pairs:
        field_bits = first[1]
        multipliers = [0, 1, (1 << field_bits) - 1, rng.randrange(1 << field_bits)]
        for a in multipliers:
            b = rng.randrange(1 << field_bits)
            for t0, _, n in (first, second, first):
                whole, partial = _shifted_split(a, b, t0, field_bits, n)
                assert (whole, partial) == _ref_split(a, b, t0, field_bits, n)
    assert sampler._split_tables.cache_info().misses == 2 * len(pairs)


def test_split_tables_are_built_once_per_plan_at_the_first_split():
    # planning builds no table; repeated runs of two interleaved plans
    # build one table each
    sampler._split_tables.cache_clear()
    c12 = plan_sampler(10, Fraction(1, 160), Fraction(1, 320))
    assert sampler._split_tables.cache_info().currsize == 0
    for i in range(3):
        for plan in GL_PLANS:
            seed = _seed(plan, b"tables", i)
            oracle = TruthTableOracle([i & 1] * (1 << plan.n))
            assert batch_sums(plan, oracle, seed) == ref_batch_sums(
                plan, oracle, _batch_seeds(plan, seed)
            )
    assert sampler._split_tables.cache_info().misses == len(GL_PLANS)
    batch_sums(c12, TruthTableOracle([1] * (1 << c12.n)), _seed(c12, b"tables"))
    assert sampler._split_tables.cache_info().misses == len(GL_PLANS) + 1


def test_points_are_pairwise_uniform():
    # over all (a, b), any fixed pair of distinct g's is uniform on pairs
    counts: dict = {}
    for a in range(16):
        for b in range(16):
            pts = batch_points(a, b, 8, 4, 3)
            key = (int(pts[2]), int(pts[5]))
            counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) == {256 // 64}
    assert len(counts) == 64


# ---------------------------------------------------------------- running


def test_run_sampler_exact_and_budgeted():
    plan = plan_sampler(3, Fraction(1), Fraction(1, 2))
    seed = _seed(plan, b"sampler")
    estimate = run_sampler(plan, PARITY3, seed)
    assert estimate == Fraction(1, 2)
    assert plan.seed_bits == 29
    means = _means(plan, batch_sums(plan, PARITY3, seed))
    assert len(means) == plan.r
    assert all(m.denominator <= plan.t0 for m in means)
    assert estimate == lower_median(means)


def test_run_sampler_independent_mode():
    plan = plan_sampler(3, Fraction(1), Fraction(1, 2), mode="independent")
    assert run_sampler(plan, PARITY3, _seed(plan, b"sampler")) == Fraction(1, 2)
    assert plan.seed_bits == 64


def test_oracle_size_must_match_the_plan():
    # an 8-point table must not be summed as a 4-point cube
    for n in (2, 5):
        with pytest.raises(ValueError):
            run_sampler(plan_sampler(n, Fraction(1, 2), Fraction(15, 16)),
                        TruthTableOracle([1] * 8), 0)


def test_sampler_consumes_exactly_its_seed():
    # any seed of at most seed_bits bits is a whole seed; a wider one is refused
    plan = plan_sampler(3, Fraction(1), Fraction(1, 2))
    run_sampler(plan, PARITY3, (1 << plan.seed_bits) - 1)
    for seed in (1 << plan.seed_bits, -1):
        with pytest.raises(ValueError):
            run_sampler(plan, PARITY3, seed)


def test_independent_single_batch_is_unbiased():
    # r = 1 makes the estimate a plain batch mean; averaging it over every
    # seed tape must give the true mean exactly
    plan = plan_sampler(1, Fraction(1), Fraction(15, 16), mode="independent")
    assert plan.r == 1
    oracle = TruthTableOracle([0, 1])
    total = Fraction(0)
    for seed in range(1 << plan.seed_bits):
        total += run_sampler(plan, oracle, seed)
    assert total / (1 << plan.seed_bits) == Fraction(1, 2)


def test_fn_oracle_and_fraction_values():
    plan = plan_sampler(2, Fraction(1), Fraction(1, 2))
    oracle = FnOracle(2, lambda x: Fraction(1, 3))
    assert run_sampler(plan, oracle, _seed(plan, b"frac")) == Fraction(1, 3)


def test_large_integer_sums_stay_exact():
    # 2**53 + 1 has no float: a batch sum must not pass through one
    plan = plan_sampler(1, Fraction(1), Fraction(15, 16), mode="independent")
    oracle = TruthTableOracle([2**53 + 1, 0])
    sums = batch_sums(plan, oracle, _seed(plan, b"x"))
    assert _means(plan, sums) == [Fraction(2**53 + 1, 2)]


def test_fn_oracle_counts_numpy_bools():
    # an object-array sum adds np.bool_ values as logical or, not as 0/1
    def parity(x):
        return x.bit_count() % 2

    as_int = FnOracle(5, parity)
    as_bool = FnOracle(5, lambda x: np.bool_(parity(x)))
    plan = plan_sampler(5, Fraction(1, 2), Fraction(1, 4))
    runs = [batch_sums(plan, f, _seed(plan, b"bools")) for f in (as_int, as_bool)]
    assert _means(plan, runs[0]) == _means(plan, runs[1])
    assert 0 < run_sampler(plan, as_int, _seed(plan, b"bools")) < 1


def test_float_and_mixed_values_sum_exactly():
    # float values, and a mix of Fractions and floats, add as exact
    # Fractions: a float sum would round the means (to 2^-53 denominators)
    floats = [0.1, 0.2, 0.3, 0.7, 0.9, 0.1, 0.6, 0.3]
    mixed = [Fraction(1, 3) if x & 1 else 0.5 for x in range(4)]
    assert _exact_sums(np.array([floats])) == [sum(map(Fraction, floats))]
    assert TruthTableOracle(floats).coset_sums([(0, (1, 2, 4))]) == [sum(map(Fraction, floats))]
    bools = TruthTableOracle(np.array([np.True_] * 3 + [np.False_], dtype=object))
    assert bools.coset_sums([(0, (1, 2))]) == [3]
    for values, oracle, plan in [
        (floats, TruthTableOracle(floats), plan_sampler(3, Fraction(1, 2), Fraction(15, 16))),
        (mixed, FnOracle(2, mixed.__getitem__),
         plan_sampler(2, Fraction(1, 2), Fraction(1, 2))),
    ]:
        seed = _seed(plan, b"floats")
        sums = batch_sums(plan, oracle, seed)
        assert _means(plan, sums) == _pointwise_run(plan, list(map(Fraction, values)), seed)


def _pointwise_run(plan, values, seed):
    """Batch means, summing values over every listed point."""
    means = []
    for a, b in _batch_seeds(plan, seed):
        pts = batch_points(a, b, plan.t0, plan.field_bits, plan.n)
        counts = np.bincount(pts.astype(np.intp), minlength=len(values)).tolist()
        means.append(sum(k * v for k, v in zip(counts, values)) / Fraction(plan.t0))
    return means


def test_a_zero_batch_matches_pointwise():
    # a = 0 maps the whole batch onto the point b: g -> a*g + b need not
    # permute the field, even when t0 nearly fills it
    plan = plan_sampler(3, Fraction(1), Fraction(1, 2), mode="independent")
    nf = plan.field_bits
    assert (plan.t0, nf) == (10, 4) and 2 * plan.t0 > 1 << nf
    rng = random.Random(7)
    seed = 1 << nf | rng.getrandbits(plan.seed_bits - 2 * nf) << 2 * nf  # a = 0, b = 1
    sums = batch_sums(plan, PARITY3, seed)
    want = []
    for i in range(plan.r):
        field = seed >> 2 * nf * i
        a, b = field & (1 << nf) - 1, field >> nf & (1 << nf) - 1
        pts = ref_affine_points(a, b, plan.t0, field_poly(nf), nf, plan.n)
        want.append(Fraction(sum(int(PARITY3.table[p]) for p in pts), plan.t0))
    assert want[0] == 1  # a = 0, b = 1: ten copies of the point 1
    assert _means(plan, sums) == want


def test_batch_seeds_match_per_step_reference():
    # one int seed, decoded by the sampler, against the string path that
    # drew once per batch or once per walk step, at random seeds; the
    # strings exist only here
    crit12 = plan_sampler(10, Fraction(1, 20) / 8, Fraction(1, 10) / 32)
    assert (crit12.r, crit12.t0, crit12.field_bits) == (67, 256000, 18)
    plans = [crit12, replace(crit12, mode="independent")]
    rng = random.Random(2024)
    for i in range(140):  # each r from 1 to 70 in both modes
        field_bits = rng.randint(1, 20)
        plans.append(SamplerPlan(
            n=field_bits, epsilon=Fraction(1), delta=Fraction(1, 2), mode=MODES[i % 2],
            t0=1, r=i // 2 + 1, field_bits=field_bits,
        ))
    for plan in plans:
        seed = rng.getrandbits(plan.seed_bits)
        tape = TapeSource(int_to_bits(seed, plan.seed_bits))
        assert _batch_seeds(plan, seed) == ref_batch_seeds(plan, tape)
        assert tape.position == len(tape.bits)


def test_run_sampler_matches_pointwise_reference():
    # coset sums against every point listed, over random plans and four
    # oracle kinds: a table, a circuit summed bit-sliced and a table of its
    # values, and a callable; each sums the cube as the run's last coset
    rng = random.Random(31337)
    epsilons = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 7),
                Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)]
    kinds = Counter()
    for i in range(150):
        n = rng.randint(1, 11)
        delta = rng.choice([Fraction(15, 16), Fraction(3, 4), Fraction(1, 2)])
        plan = plan_sampler(n, rng.choice(epsilons), delta, mode=MODES[i % 2])
        kind = i // 2 % 4
        if kind == 0:
            values = [rng.randrange(4) for _ in range(1 << n)]
            oracle = pointwise = TruthTableOracle(np.array(values, dtype=np.int64))
        elif kind in (1, 2):
            expr = parse_circuit(random_circuit(rng, n), n)
            values = to_truth_table(expr, n).tolist()
            pointwise = TruthTableOracle(np.array(values))
            oracle = _CircuitOracle(expr, n) if kind == 1 else pointwise
        else:
            raw = [rng.choice([np.bool_(v), v, Fraction(v, 3)])
                   for v in (rng.randrange(2) for _ in range(1 << n))]
            values = [Fraction(v) if isinstance(v, Fraction) else int(v) for v in raw]
            oracle = pointwise = FnOracle(n, raw.__getitem__)
        seed = _seed(plan, b"diff", i)
        got = batch_sums(plan, oracle, seed)
        assert _means(plan, got) == _pointwise_run(plan, values, seed)
        assert got == ref_batch_sums(plan, pointwise, _batch_seeds(plan, seed))
        kinds[kind, plan.t0 >> n > 0] += 1
    # every kind meets both plans with a whole-cube block and plans without
    assert all(kinds[k, full] > 0 for k in range(4) for full in (False, True))


def _oracle_kinds(rng, n):
    """(oracle, pointwise oracle of the same values) for every kind of
    oracle on n bits: int, float and object tables and a callable returning
    np.bool_, int or Fraction, each its own pointwise oracle, and a circuit,
    whose pointwise oracle is its truth table."""
    values = [rng.randrange(4) for _ in range(1 << n)]
    expr = parse_circuit(random_circuit(rng, n, depth=4), n)
    mixed = [rng.choice([np.bool_(v & 1), v, Fraction(v, 3), v / 4]) for v in values]
    pointwise = [
        TruthTableOracle(np.array(values, dtype=np.int64)),
        TruthTableOracle(np.array(values, dtype=np.float64) / 8),
        TruthTableOracle(np.array(mixed, dtype=object)),
        FnOracle(n, lambda x: np.bool_(values[x] & 1)),
        FnOracle(n, values.__getitem__),
        FnOracle(n, lambda x: Fraction(values[x], 7)),
    ]
    circuit = (_CircuitOracle(expr, n), TruthTableOracle(to_truth_table(expr, n)))
    return [(oracle, oracle) for oracle in pointwise] + [circuit]


def _echelon_bases(n: int) -> list[tuple[int, ...]]:
    """Every echelon basis on n bits: each set of leads, ascending, with
    every choice of the bits below each lead."""
    bases = [()]
    for lead in range(n):
        bases += [basis + (1 << lead | low,) for basis in bases for low in range(1 << lead)]
    return bases


def _span(vectors) -> set[int]:
    points = {0}
    for v in vectors:
        points |= {p ^ v for p in points}
    return points


def _rank(vectors) -> int:
    pivots = {}
    for v in vectors:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def test_dual_basis_spans_the_orthogonal_complement():
    # every echelon basis on n <= 5 bits, reduced or not, and random ones up
    # to n = 24: n - rank independent vectors whose span is the set of h
    # with even parity(h & v) for every v, by brute force up to n = 12 and
    # past it by orthogonality and dimension
    rng = random.Random(34)
    bases = [(n, basis) for n in range(6) for basis in _echelon_bases(n)]
    assert len(bases) == 1 + 2 + 6 + 30 + 270 + 4590
    bases += [(n, random_coset(rng, n, rng.randint(0, n))[1]) for n in range(1, 25) for _ in range(30)]
    for n, basis in bases:
        dual = sampler.dual_basis(basis, n)
        assert len(dual) == n - len(basis) == _rank(dual)
        if n <= 12:
            assert _span(dual) == {
                h for h in range(1 << n) if not any((h & v).bit_count() & 1 for v in basis)
            }
        else:
            assert not any((h & v).bit_count() & 1 for h in dual for v in basis)


def test_dual_basis_refuses_a_basis_not_in_echelon_form():
    # descending leads would break the back-substitution: (7, 3) would give
    # h = 7 for bit 0, which is not orthogonal to 7
    for basis in [(1, 0), (-2,), (5, 6), (1, 16), (3, 1), (7, 3)]:
        with pytest.raises(ValueError, match=r"basis \(.*\) is not in echelon form on 4 bits"):
            sampler.dual_basis(basis, 4)


@pytest.mark.parametrize("temp_bits", [sampler.TEMP_BITS, 1])
def test_coset_sums_match_pointwise_reference(monkeypatch, temp_bits):
    # random coset lists mixing every rank 0..n, full rank included, one
    # coset up to more than one pass of 2^TEMP_BITS points in one rank
    monkeypatch.setattr(sampler, "TEMP_BITS", temp_bits)
    rng = random.Random(1901)
    n = 12 if temp_bits > 4 else 5
    full = (1 << max(0, temp_bits - n)) + 1  # full-rank cosets past one pass
    for oracle, pointwise in _oracle_kinds(rng, n):
        for count in (1, 4, 40):
            cosets = [random_coset(rng, n, rng.randint(0, n)) for _ in range(count)]
            if count == 40:
                cosets += [random_coset(rng, n, n) for _ in range(full)]
            rng.shuffle(cosets)
            got = oracle.coset_sums(cosets)
            assert got == [ref_coset_sum(pointwise, c, basis) for c, basis in cosets]


def test_coset_passes_honour_temp_bits(monkeypatch):
    # at TEMP_BITS = 1 no eval_ints call sees more than 2 points, however
    # large the coset
    monkeypatch.setattr(sampler, "TEMP_BITS", 1)
    sizes = []

    class Spy(TruthTableOracle):
        def eval_ints(self, xs):
            sizes.append(xs.size)
            return super().eval_ints(xs)

    rng = random.Random(27)
    oracle = Spy(np.array([rng.randrange(9) for _ in range(1 << 8)]))
    cosets = [random_coset(rng, 8, rank) for rank in range(9) for _ in range(2)]
    assert oracle.coset_sums(cosets) == [ref_coset_sum(oracle, c, basis) for c, basis in cosets]
    sizes = sizes[: -len(cosets)]  # the reference's own calls
    assert sizes and max(sizes) == 2


def test_exact_sums_do_not_wrap():
    # numpy sums an integer array only where no partial sum can leave int64
    assert TruthTableOracle(np.array([2**62, 2**62])).coset_sums([(0, (1,))]) == [2**63]
    assert _exact_sums(np.array([[2**63, 2**63]], dtype=np.uint64)) == [2**64]
    assert _exact_sums(np.array([[-(2**63), -(2**63)], [3, -5]])) == [-(2**64), -2]
    oracle = TruthTableOracle(np.full(4, 2**62, dtype=np.int64))
    assert oracle.coset_sums([(0, (1, 2)), (3, ())]) == [2**64, 2**62]
    plan = plan_sampler(2, Fraction(1), Fraction(15, 16), mode="independent")
    assert _means(plan, batch_sums(plan, oracle, _seed(plan, b"wrap"))) == [2**62]


class _Spy:
    """An oracle that records each coset_sums call of the oracle it wraps:
    n and coset_sums are the whole oracle contract."""

    def __init__(self, oracle):
        self.oracle, self.n, self.calls = oracle, oracle.n, []

    def coset_sums(self, cosets):
        self.calls.append(list(cosets))
        return self.oracle.coset_sums(cosets)


def test_batch_sums_call_the_oracle_once_per_run():
    # a table, a callable, a circuit and a GL weight oracle: every partial
    # coset of all r batches goes to one coset_sums call, whose last coset
    # is the cube exactly when some batch has a whole-cube multiplicity
    rng = random.Random(19)
    seen = Counter()
    for i, n in enumerate([3, 5, 8, 10]):
        plan = plan_sampler(n, Fraction(1, 7), Fraction(1, 8), mode=MODES[i % 2])
        values = [rng.randrange(2) for _ in range(1 << n)]
        table = TruthTableOracle(np.array(values))
        expr = parse_circuit(random_circuit(rng, n), n)
        ell = n // 3
        signs = np.array([rng.choice([-1, 1]) for _ in range(1 << (n - ell))])
        cands = rng.sample(range(1 << ell), rng.randint(1, 1 << ell))
        weights = [PointwiseWeight(signs, p, ell) for p in cands]
        kinds = [
            (table, [table]),
            (FnOracle(n, values.__getitem__), [table]),
            (_CircuitOracle(expr, n), [TruthTableOracle(to_truth_table(expr, n))]),
            (fourier._WeightOracle(signs, cands, ell, n - ell), weights),
        ]
        cube = (0, tuple(1 << j for j in range(n)))
        for index in range(3):
            seed = _seed(plan, b"once", index)
            seeds = _batch_seeds(plan, seed)
            splits = [_ref_split(a, b, plan.t0, plan.field_bits, n) for a, b in seeds]
            whole = any(w for w, _ in splits)
            partial = [coset for _, part in splits for coset in part]
            for k, (oracle, pointwise) in enumerate(kinds):
                spy = _Spy(oracle)
                got = np.array(batch_sums(plan, spy, seed)).reshape(plan.r, -1).T.tolist()
                assert len(spy.calls) == 1
                assert len(spy.calls[0]) == len(partial) + whole
                handed = spy.calls[0][: len(partial)]
                assert all(_is_echelon(basis) for _, basis in handed)
                assert [(c, _reduce(basis)) for c, basis in handed] == [
                    (c, basis) for _, c, basis in partial
                ]
                assert (spy.calls[0][-1] == cube) == whole
                assert got == [ref_batch_sums(plan, ref, seeds) for ref in pointwise]
                seen[k, whole] += 1
            seen["more cosets than batches"] += len(partial) > plan.r
    assert all(seen[k, whole] for k in range(4) for whole in (False, True))
    assert seen["more cosets than batches"]


def test_a_callable_oracle_sums_the_cube_once_per_run():
    # criterion 12's plan: 67 batches of 256000 points over n = 10 bits, each
    # mostly the whole cube.  The cube is the last coset of the run's
    # coset_sums call, so a callable is evaluated on it once per run
    plan = plan_sampler(10, Fraction(1, 160), Fraction(1, 320))
    assert (plan.t0, plan.r, plan.field_bits) == (256000, 67, 18)
    calls = Counter()

    def parity(x):
        calls["points"] += 1
        return x.bit_count() & 1

    oracle = FnOracle(plan.n, parity)
    for i in (0, 2):
        seed = _seed(plan, b"count", i)
        splits = [_shifted_split(a, b, plan.t0, plan.field_bits, plan.n)
                  for a, b in _batch_seeds(plan, seed)]
        assert splits == [_ref_split(a, b, plan.t0, plan.field_bits, plan.n)
                          for a, b in _batch_seeds(plan, seed)]
        partial_points = sum(1 << len(basis) for _, partial in splits for _, _, basis in partial)
        assert partial_points and any(whole for whole, _ in splits)
        calls.clear()
        sums = batch_sums(plan, oracle, seed)
        assert calls["points"] <= (1 << plan.n) + partial_points
        assert sums == ref_batch_sums(plan, oracle, _batch_seeds(plan, seed))


def test_batch_sums_split_each_multiplier_once_per_call(monkeypatch):
    # a walk keeps a on about half of its steps, so a run repeats a with
    # other b's.  batch_sums splits each distinct a once per call, moves
    # the offsets by each batch's b and keeps nothing between calls:
    # gl-search's two plans share t0, field and seed, but not n, and the
    # GL matrix path splits as batch_sums does
    c12 = plan_sampler(10, Fraction(1, 160), Fraction(1, 320))
    plans = [c12, *GL_PLANS, replace(GL_PLANS[0], mode="independent")]
    real, calls, points = sampler.batch_cosets, Counter(), Counter()

    def counting(a, *args):
        calls[a] += 1
        return real(a, *args)

    monkeypatch.setattr(sampler, "batch_cosets", counting)
    real_matrix = fourier._cube_matrix_sums

    def matrix(*args):
        calls["matrix"] += 1
        return real_matrix(*args)

    monkeypatch.setattr(fourier, "_cube_matrix_sums", matrix)
    rng = random.Random(24)
    for plan in plans:
        seed = _seed(plan, b"memo", 0)
        seeds = _batch_seeds(plan, seed)
        distinct = {a for a, _ in seeds}
        splits = [_ref_split(a, b, plan.t0, plan.field_bits, plan.n) for a, b in seeds]
        if plan.mode == "walk":  # some a recurs with another b and a partial coset
            shifts = {}
            for (a, b), (_, partial) in zip(seeds, splits):
                if partial:
                    shifts.setdefault(a, set()).add(b & ((1 << plan.n) - 1))
            assert len(distinct) < plan.r and max(map(len, shifts.values())) > 1
        table = np.array([rng.randrange(3) for _ in range(1 << plan.n)])
        table_points = [Fraction(int(v), 2) for v in table]

        def halves(x):
            points["fn"] += 1
            return table_points[x]

        want_points = (1 << plan.n) * any(whole for whole, _ in splits) + sum(
            1 << len(basis) for _, partial in splits for _, _, basis in partial
        )
        for oracle in (TruthTableOracle(table), FnOracle(plan.n, halves)):
            want = ref_batch_sums(plan, oracle, seeds)
            calls.clear()
            points.clear()
            assert batch_sums(plan, oracle, seed) == want
            assert calls == Counter(distinct)
            if isinstance(oracle, FnOracle):
                assert points["fn"] == want_points
        if plan in GL_PLANS:  # the GL matrix path splits through the same loop
            ell = plan.n - 2
            signs = [rng.choice([-1, 1]) for _ in range(4)]
            cands = list(range(1 << ell))
            calls.clear()
            got = fourier._weights_from_tape(signs, cands, ell, 2, plan, seed)
            assert calls == Counter(distinct, matrix=1)
            oracle = fourier._WeightOracle(signs, cands, ell, 2)
            sums = np.array(batch_sums(plan, oracle, seed)).T.tolist()
            assert got == [Fraction(lower_median(col), plan.t0) for col in sums]


def test_run_sampler_matches_pointwise_at_the_acceptance_batch_size():
    # one batch of t0 = 256000 points over n = 10 bits, criterion 12's batch
    # size, on every oracle kind; seeds 32 and 47 have blocks below full
    # rank, which a circuit sums bit-sliced and a table point by point
    rng = random.Random(160)
    n = 10
    values = [rng.randrange(2) for _ in range(1 << n)]
    expr = parse_circuit(random_circuit(rng, n, depth=5), n)
    circuit_values = to_truth_table(expr, n).tolist()
    raw = [rng.choice([np.bool_(v), v, Fraction(v, 3)]) for v in values]
    oracles = [
        (TruthTableOracle(np.array(values, dtype=np.int64)), values),
        (_CircuitOracle(expr, n), circuit_values),
        (TruthTableOracle(np.array(circuit_values)), circuit_values),
        (FnOracle(n, raw.__getitem__),
         [Fraction(v) if isinstance(v, Fraction) else int(v) for v in raw]),
    ]
    plan = plan_sampler(n, Fraction(1, 160), Fraction(15, 16))
    assert (plan.r, plan.t0, plan.field_bits) == (1, 256000, 18)
    ranks = set()
    for i in (0, 32, 47):
        seed = _seed(plan, b"c12", i)
        (a, b), = _batch_seeds(plan, seed)
        whole, partial = _shifted_split(a, b, plan.t0, plan.field_bits, n)
        assert (whole, partial) == _ref_split(a, b, plan.t0, plan.field_bits, n)
        ranks.update([n] * (whole > 0) + [len(basis) for _, _, basis in partial])
        for oracle, want_values in oracles:
            sums = batch_sums(plan, oracle, seed)
            assert _means(plan, sums) == _pointwise_run(plan, want_values, seed)
    assert {6, 7, 8, 9, 10} <= ranks


def test_circuit_run_sums_its_cosets_and_cube_in_one_call(monkeypatch):
    # criterion 12's plan on seeds with partial cosets: a circuit run makes
    # one coset_sums call, the cube its last coset, and builds no truth table
    rng = random.Random(1212)
    n = 10
    plan = plan_sampler(n, Fraction(1, 20) / 8, Fraction(1, 10) / 32)
    expr = parse_circuit(random_circuit(rng, n, depth=5), n)
    pointwise = TruthTableOracle(to_truth_table(expr, n))

    def refuse(expr, n):
        raise AssertionError("no table may be built here")

    monkeypatch.setattr(circuits, "to_truth_table", refuse)
    calls = []

    class Spy(_CircuitOracle):
        def coset_sums(self, cosets):
            calls.append(cosets)
            return super().coset_sums(cosets)

    for i in range(3):
        seed = _seed(plan, b"c12-run", i)
        splits, _ = sampler.batch_split(plan, seed)
        assert any(whole for whole, _ in splits.values())
        assert any(partial for _, partial in splits.values())
        calls.clear()
        got = batch_sums(plan, Spy(expr, n), seed)
        assert len(calls) == 1 and calls[0][-1] == (0, tuple(1 << j for j in range(n)))
        assert got == ref_batch_sums(plan, pointwise, _batch_seeds(plan, seed))


def test_lower_median():
    assert lower_median([3, 1, 2]) == 2
    assert lower_median([4, 1, 3, 2]) == 2
    assert lower_median([Fraction(1, 2)]) == Fraction(1, 2)
    for values in [[1, 5, 2, 4], [7], [2, 2, 9, 1, 3]]:
        assert lower_median(values) == lower_median_ref(values)
    with pytest.raises(ValueError):
        lower_median([])


def test_truth_table_oracle_validation():
    with pytest.raises(ValueError):
        TruthTableOracle([0, 1, 1])
    for empty in ([], np.array([], dtype=np.int64)):  # 0 is no power of two
        with pytest.raises(ValueError):
            TruthTableOracle(empty)
    oracle = TruthTableOracle([5, 7, 1, 3])
    assert oracle.eval_ints(np.array([1])).tolist() == [7]  # little-endian: "10" is 1
    assert oracle.eval_ints(np.array([2, 0])).tolist() == [1, 5]


# ---------------------------------------------------------------- median of independent values


def test_median_reps_goldens():
    # 1/3 is one value's miss chance, so one value is enough down to delta = 1/3;
    # 1/320 is the APP runner's round share at k=16, delta=1/10
    assert [median_reps(Fraction(1, q)) for q in (2, 3, 4, 8, 320)] == [1, 1, 5, 11, 63]
    for bad in (0, 1, -1, Fraction(3, 2)):
        with pytest.raises(ValueError):
            median_reps(bad)


def test_median_reps_meets_the_reference_tail():
    # the tail is not monotone in r, so every smaller r' must exceed delta
    for q in (2, 3, 4, 5, 7, 8, 10, 16, 32, 64, 100, 320):
        delta = Fraction(1, q)
        r = median_reps(delta)
        assert ref_median_miss(r, Fraction(1, 3)) <= delta
        assert all(ref_median_miss(s, Fraction(1, 3)) > delta for s in range(1, r))


def test_runs_wider_than_64_bits_are_refused():
    # points are uint64: a 65-bit median-sampler run fails cleanly at any seed,
    # though it plans
    plan = plan_sampler(65, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="64"):
        run_sampler(plan, FnOracle(65, lambda x: 0), (1 << plan.seed_bits) - 1)
    plan = plan_sampler(64, Fraction(1, 2), Fraction(1, 2))
    estimate = run_sampler(plan, FnOracle(64, lambda x: x >> 63), (1 << plan.seed_bits) - 1)
    assert 0 <= estimate <= 1
