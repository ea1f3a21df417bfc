"""Acceptance suite: one test per shipped criterion, in order.

Each test is self-contained and prints one pass/fail line under pytest -v.
Statistical criteria use fixed master keys, so every run sees the same
sessions; exact criteria enumerate or compare integers and tolerate nothing.
One criterion is currently red by design rather than weakened: the seed
budget of the recursive generator does not drop below n*k/2 at the small
instance size (criterion 6).  Its test checks everything attainable first,
then fails with the measured numbers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    adjacency_matrix, permutation_array, ref_contained, ref_extract, ref_schedule,
    three_sigma_bound,
)
from harness import (
    ExplicitConcentrated, make_owner, session_failures, small_bias_counts, walk_step,
)
from trees import BlockDecisionTree, exact_node_distribution, tv_distance

from randsteward import adversary, prg
from randsteward.circuits import AcceptanceSession, exact_mean, parse_circuit
from randsteward.extract import extract_int, plan_extractor
from randsteward.fourier import (
    gl_audit_dict,
    gl_params,
    goldreich_levin,
    heavy_set_exact,
    wht_ints,
)
from randsteward.randomness import CounterSource, TapeSource, bits_to_int, int_to_bits
from randsteward.steward import (
    Session,
    StewardConfig,
    certification_check,
    run_steward,
    shift_round,
)


# ---------------------------------------------------------------- helpers


def _run_logged(config, owner, source):
    """Transcript plus the mu the owner committed to in each round."""
    mus = []

    def logging(i, history):
        fn = owner(i, history)
        mus.append(fn.mu)
        return fn

    return run_steward(config, logging, source), mus


def _failure_sessions(config, owner_factory, master, trials):
    expected_bits = config.schedule.seed_len
    fails = 0
    for i in range(trials):
        transcript, mus = _run_logged(
            config, owner_factory(), CounterSource(master=master, index=i)
        )
        assert transcript.bits_used == expected_bits
        fails += session_failures(transcript, mus, config.error_bound) > 0
    return fails


def _random_table_tree(rng, k, n, sigma):
    tables = {}
    for depth in range(k):
        for path in itertools.product(range(sigma), repeat=depth):
            tables[path] = [rng.randrange(sigma) for _ in range(1 << n)]
    return BlockDecisionTree(k=k, n=n, sigma=sigma, tables=tables)


# ---------------------------------------------------------------- 1-3


def test_criterion_01():
    """A window-clearing shift exists on a dense grid of raw vectors."""
    epsilon = Fraction(1, 8)
    step = epsilon / 8
    checked = 0
    for d in (1, 2, 3, 4):
        config = StewardConfig(
            n=4, k=1, d=d, epsilon=epsilon, delta=0, gamma=Fraction(1, 2)
        )
        # in units of step = epsilon/8, w_j = c_j, the window for shift D is
        # [c_j + 8(2D-1), c_j + 8(2D+1)] and a cell is 16(d0+1) units long
        length_units = 16 * (config.d0 + 1)
        if d < 4:
            cells = itertools.product(range(33), repeat=d)
        else:
            rng = np.random.default_rng(401)
            flat = rng.choice(33**4, size=100_000, replace=False)
            cells = (np.unravel_index(int(v), (33,) * 4) for v in flat)
        for cell in cells:
            cell = [int(c) for c in cell]
            w = [step * c for c in cell]
            y, deltas = shift_round(w, config.epsilon, config.d0)
            delta = deltas[0]
            assert 1 <= delta <= d + 1
            for c in cell:
                lo, hi = c + 8 * (2 * delta - 1), c + 8 * (2 * delta + 1)
                assert lo // length_units == hi // length_units
            if d <= 2:  # the integer form against the Fraction reference
                length = 2 * (config.d0 + 1) * config.epsilon
                for wj in w:
                    assert ref_contained(
                        wj + (2 * delta - 1) * epsilon,
                        wj + (2 * delta + 1) * epsilon,
                        length,
                    )
            checked += 1
    assert checked == 33 + 33**2 + 33**3 + 100_000


def test_criterion_02():
    """Rounded answers stay within (3d+5)*epsilon of mu when W was epsilon-good."""
    rng = random.Random(20_002)
    epsilon = Fraction(1, 8)
    for _ in range(10_000):
        d = rng.randrange(1, 5)
        inst = ExplicitConcentrated(8, d, epsilon, Fraction(1, 16), rng)
        index = rng.randrange(256)
        while index in inst.bad:
            index = rng.randrange(256)
        w = inst.values(index)
        assert max(abs(wj - mj) for wj, mj in zip(w, inst.mu)) <= epsilon
        y, _ = shift_round(list(w), epsilon, d)
        assert max(abs(yj - mj) for yj, mj in zip(y, inst.mu)) <= (3 * d + 5) * epsilon


def test_criterion_03():
    """Exhaustive certification: the no-consistent-shift rate never beats delta."""
    rng = random.Random(30_003)
    n = 10
    for trial in range(100):
        d = 1 + trial % 2
        bad_count = rng.randrange(0, 101)
        inst = ExplicitConcentrated(
            n, d, Fraction(1, 8), Fraction(bad_count, 1 << n), rng
        )
        config = StewardConfig(
            n=n, k=1, d=d, epsilon=inst.epsilon, delta=inst.delta,
            gamma=Fraction(1, 4), kind="s0",
        )
        aborts = 0
        for value in range(1 << n):
            session = Session(config, TapeSource(int_to_bits(value, n)))
            session.answer(inst.as_query())
            certs = certification_check(session.transcript, [inst.mu])
            aborts += certs[0] is None
        assert aborts <= bad_count  # exact count against floor(delta * 2^n)


# ---------------------------------------------------------------- 4


def test_criterion_04():
    """Exact statistical distance of the small-bias extractor on deficit-t sources.

    All fixed-coordinate sources and 100 random-subset sources at s = 12,
    beta = 1/4.  The output X XOR S has Walsh sums P_out^ = P_X^ * P_S^, with
    P_S^ taken over every seed; the inverse transform of the product is the
    exact output count of each string (times 2^s), and TV <= beta is checked
    on those counts in integers.
    """
    s, beta = 12, Fraction(1, 4)
    ids = np.arange(1 << s)
    rng = np.random.default_rng(40_004)
    subsets = {1: [], 2: [], 3: [], 4: []}  # deficit -> member lists
    for j in range(100):
        t = 1 + j % 4
        subsets[t].append(rng.choice(1 << s, size=1 << (s - t), replace=False))

    def check(rows, s_hat, total):
        """Assert TV(X XOR S, U) <= beta for each source's indicator row."""
        out = wht_ints(wht_ints(rows) * s_hat)  # 2^s * (seeds, x) pairs per output
        diff = np.abs(out - total).sum(axis=-1)  # = 2^(s+1) * total * TV
        assert (diff * beta.denominator <= 2 * beta.numerator * total << s).all()

    for t in (1, 2, 3, 4):
        params = plan_extractor(s, t, beta)
        counts = small_bias_counts(params)
        for y in (1, 0b1011_0110_1101, (1 << params.seed_len) - 1):  # package-free reference
            want = ref_extract(params, "0" * s, int_to_bits(y, params.seed_len))
            assert int_to_bits(extract_int(params, 0, y), s) == want
        s_hat = wht_ints(counts)
        total = (1 << (s - t)) << params.seed_len  # |X| * 2^(2m)
        # the Walsh product against direct convolution on one source
        members = subsets[t][0]
        direct = sum(counts[ids ^ int(x)] for x in members)
        row = np.zeros(1 << s, dtype=np.int64)
        row[members] = 1
        assert (wht_ints(wht_ints(row) * s_hat) == direct << s).all()
        # fixed-coordinate sources, 2^t per coordinate set
        for positions in itertools.combinations(range(s), t):
            mask = sum(1 << p for p in positions)
            fixed = [sum(1 << p for i, p in enumerate(positions) if a >> i & 1)
                     for a in range(1 << t)]
            check(((ids & mask) == np.array(fixed)[:, None]).astype(np.int64), s_hat, total)
        # random-subset sources of matching deficit
        rows = np.zeros((len(subsets[t]), 1 << s), dtype=np.int64)
        for row, members in zip(rows, subsets[t]):
            row[members] = 1
        check(rows, s_hat, total)


# ---------------------------------------------------------------- 5


def test_criterion_05():
    """Exhaustive seed enumeration: tree behavior under the generator vs uniform.

    21 explicit trees (nk <= 20, schedule seed <= 22 bits) are fed every seed
    of the identity-extractor schedule; the induced leaf distribution must be
    within gamma of uniform, and for that backend exactly equal.  One more
    tree runs every seed of the small-bias schedule at n = 6, k = 2.
    """
    rng = random.Random(50_005)
    gamma = Fraction(1, 4)
    shapes = (
        [(2, n, 2 + (n - 1) % 4) for n in range(1, 9)]
        + [(3, 1, 2), (3, 2, 3), (3, 3, 2), (3, 4, 4)]
        + [(4, 1, 2), (4, 2, 2), (4, 3, 3), (4, 4, 2)]
        + [(5, 1, 2), (6, 1, 3), (7, 2, 2), (8, 2, 2)]
        + [(4, 5, 2)]  # nk = 20 and seed = 20: both caps tight
    )
    assert len(shapes) == 21
    for k, n, sigma in shapes:
        tree = _random_table_tree(rng, k, n, sigma)
        schedule = prg.build_schedule(n, k, sigma, gamma, backend="fresh")
        assert schedule.seed_len <= 22 and n * k <= 20
        generated = exact_node_distribution(
            tree,
            generator=lambda seed: prg.expand(schedule, seed),
            seed_len=schedule.seed_len,
        )
        uniform = exact_node_distribution(tree)
        tv = tv_distance(generated, uniform)
        assert tv <= gamma
        assert tv == 0  # the identity extractor recycles nothing

    # the small-bias backend at n = 6, k = 2: a 16-bit seed, every one
    # enumerated; the one level's beta is all of gamma
    n, k, sigma = 6, 2, 2
    schedule = prg.build_schedule(n, k, sigma, Fraction(1, 4), backend="small-bias")
    params = plan_extractor(n, 1, Fraction(1, 4))
    assert schedule.seed_len == n + params.seed_len == 16
    for i in range(5):  # the expansion really is x || Ext(x, y)
        seed = bits_to_int(CounterSource(master=b"crit5-shape", index=i).draw(schedule.seed_len))
        x = seed & ((1 << n) - 1)
        assert prg.expand(schedule, seed) == x | extract_int(params, x, seed >> n) << n
    tree = _random_table_tree(rng, k, n, sigma)
    generated = exact_node_distribution(
        tree, generator=lambda seed: prg.expand(schedule, seed), seed_len=schedule.seed_len
    )
    uniform = exact_node_distribution(tree)
    # one level, so the average-case extractor's error bounds the whole tree
    assert tv_distance(generated, uniform) <= schedule.betas[0]


# ---------------------------------------------------------------- 6-7


CRIT6_CONFIG = StewardConfig(
    n=8, k=8, d=2, epsilon=Fraction(1, 128), delta=Fraction(1, 128),
    gamma=Fraction(1, 16),
)


def test_criterion_06():
    """Recycling steward end-to-end: failure rate, exact budget, budget target.

    5100 sessions against the three adversarial owners stay under
    k*delta + gamma + 3 standard errors, and every session draws exactly the
    scheduled seed.  The final sub-check, seed < nk/2, cannot hold at this
    instance size and fails with the measured numbers.
    """
    config = CRIT6_CONFIG
    owners = {
        b"crit6-constant": lambda: adversary.constant_owner(
            [(Fraction(j, 16) - 1, Fraction(1, 3)) for j in range(5)], d=2
        ),
        b"crit6-boundary": lambda: adversary.boundary_owner(config.epsilon, d=2),
        b"crit6-extract": lambda: adversary.extracting_owner(
            config.n, config.epsilon, d=2
        ),
    }
    trials_each = 1700
    fails = sum(
        _failure_sessions(config, factory, master, trials_each)
        for master, factory in owners.items()
    )
    total = trials_each * len(owners)
    rate_bound = float(config.k * config.delta + config.gamma)
    assert fails / total <= three_sigma_bound(rate_bound, total)

    schedule = config.schedule
    assert schedule.seed_len == ref_schedule(config.n, config.k, config.sigma, config.gamma)[-1]
    assert schedule.seed_len == 62
    half_nk = config.n * config.k // 2
    if schedule.seed_len >= half_nk:
        big = prg.build_schedule(4096, 8, config.sigma, config.gamma).seed_len
        levels = schedule.to_dict()["schedule"]
        pytest.fail(
            f"seed budget is not below nk/2 at this size: the schedule draws "
            f"{schedule.seed_len} bits but nk/2 = {half_nk}.  The budget is "
            f"n + each level's seed = {config.n} + "
            f"{' + '.join(str(level['seed_bits']) for level in levels)} = "
            f"{schedule.seed_len} ("
            + ", ".join(f"level {level['level']}: {level['extractor']} {level['seed_bits']}"
                        for level in levels)
            + f"), so the level seeds dominate until n does: "
            f"at n=4096, k=8 the same planner draws {big} < {4096 * 8 // 2} bits.  "
            f"Failure rate and exact-budget sub-checks above passed "
            f"({fails}/{total} failures)."
        )


def test_criterion_07():
    """Sample reuse is exploitable: the extracting owner vs both baselines."""
    config = StewardConfig(
        n=8, k=2, d=1, epsilon=Fraction(1, 128), delta=Fraction(1, 128),
        gamma=Fraction(1, 16),
    )
    reuse = replace(config, kind="naive-reuse")
    broken = 0
    for i in range(1000):
        owner = adversary.extracting_owner(config.n, config.epsilon)
        transcript = run_steward(
            reuse, owner, CounterSource(master=b"crit7-reuse", index=i)
        )
        broken += abs(transcript.rounds[1].y[0]) > config.error_bound
    assert broken >= 990

    fails = _failure_sessions(
        config,
        lambda: adversary.extracting_owner(config.n, config.epsilon),
        b"crit7-main",
        1000,
    )
    rate_bound = float(config.k * config.delta + config.gamma)
    assert fails / 1000 <= three_sigma_bound(rate_bound, 1000)


# ---------------------------------------------------------------- 8-9


def test_criterion_08():
    """One-sample steward: n bits flat, failures exactly the union of bad sets."""
    rng = random.Random(80_008)
    n, epsilon = 8, Fraction(1, 16)
    battery = [
        ExplicitConcentrated(n, 1, epsilon, Fraction(3 + 2 * i, 1 << n), rng)
        for i in range(8)
    ]
    previous_union = -1
    for k in (1, 2, 4, 8):
        config = StewardConfig(
            n=n, k=k, d=1, epsilon=epsilon, delta=max(q.delta for q in battery[:k]),
            gamma=Fraction(1, 4), kind="union",
        )
        owner = make_owner(battery[:k])
        union = set().union(*(q.bad for q in battery[:k]))
        failing_inputs = 0
        for value in range(1 << n):
            transcript, mus = _run_logged(
                config, owner, TapeSource(int_to_bits(value, n))
            )
            assert transcript.bits_used == n
            failing_inputs += (
                session_failures(transcript, mus, config.error_bound) > 0
            )
        assert failing_inputs == len(union)
        assert failing_inputs <= sum(len(q.bad) for q in battery[:k])
        assert failing_inputs >= previous_union  # monotone in k
        previous_union = failing_inputs


def test_criterion_09():
    """Coarse-grid rounding drifts linearly in k; the recycling steward does not."""
    n, epsilon, gamma = 8, Fraction(1, 64), Fraction(1, 2)
    owner = lambda: adversary.constant_owner([0])
    worst_by_k = {}
    for k in (2, 4, 8, 16):
        config = StewardConfig(
            n=n, k=k, d=1, epsilon=epsilon, delta=0, gamma=gamma, kind="saks-zhou"
        )
        session = Session(config, CounterSource(master=b"crit9-u", index=0))
        u = session.u
        assert u == 1 << (4 * k - 1).bit_length()  # smallest power of two >= 4k
        worst = Fraction(0)
        for i in range(10):
            transcript, _ = _run_logged(
                config, owner(), CounterSource(master=b"crit9-sz", index=i)
            )
            assert transcript.bits_used == n + k * (u.bit_length() - 1)
            for record in transcript.rounds:
                err = abs(record.y[0])
                assert err <= Fraction(3, 2) * u * epsilon + 3 * epsilon
                assert err >= u * epsilon / 2  # every round, every tape
                worst = max(worst, err)
        worst_by_k[k] = worst
        main = StewardConfig(
            n=n, k=k, d=1, epsilon=epsilon, delta=0, gamma=gamma
        )
        for i in range(10):
            transcript, _ = _run_logged(
                main, owner(), CounterSource(master=b"crit9-main", index=i)
            )
            for record in transcript.rounds:
                assert abs(record.y[0]) <= 8 * epsilon  # (3d+5) * epsilon
    for k, worst in worst_by_k.items():
        assert worst >= 2 * k * epsilon  # u >= 4k, so the drift is linear in k
    assert worst_by_k[16] >= 2 * worst_by_k[2]


# ---------------------------------------------------------------- 10-11


MAJ3 = [1 if bin(x).count("1") < 2 else -1 for x in range(8)]


def test_criterion_10():
    """Heavy-coefficient search at n=12, theta=1/2 (and the majority golden).

    Both searches run at their planned sizes from fixed master keys: neither
    aborts, each returns exactly the heavy set pinned by exact transform, and
    each draws exactly the audited steward seed.
    """
    params = gl_params(12, Fraction(1, 2), Fraction(1, 10))
    assert (params.u, params.k, params.d) == (1, 12, 32)
    plan = params.plans[0]
    assert (plan.t0, plan.r) == (104_458_240, 104)
    maj = gl_params(3, Fraction(2, 5), Fraction(1, 10))
    assert (maj.d, maj.plans[0].t0) == (50, 600_625_000)

    # the expected outputs are well-defined and cheap to state exactly: a
    # character-shifted two-variable AND is Boolean with a 4-sparse spectrum,
    # coefficients at exactly +-1/2, and the heavy-set comparison is in exact
    # rationals, so the target list is fully determined
    rng = random.Random(100_010)
    i, j = rng.sample(range(12), 2)
    shift = rng.randrange(1 << 12)
    xs = np.arange(1 << 12)
    chi = 1 - 2 * (np.bitwise_count(xs & shift) & 1).astype(np.int64)
    table = (1 - 2 * ((xs >> i) & (xs >> j) & 1)) * chi
    support = [shift ^ e for e in (0, 1 << i, 1 << j, (1 << i) | (1 << j))]
    expected = sorted(int_to_bits(mask, 12) for mask in support)
    assert heavy_set_exact(table, Fraction(1, 2)) == expected
    assert set(heavy_set_exact(MAJ3, Fraction(2, 5))) == {"001", "010", "100", "111"}

    # the runs themselves: table-backed searches sum each sampler batch
    # exactly over its affine cosets, so the planned sizes are affordable
    runs = [
        (table, Fraction(1, 2), b"crit10-planted", expected),
        (MAJ3, Fraction(2, 5), b"crit10-majority", ["001", "010", "100", "111"]),
    ]
    for f, theta, master, want in runs:
        result = goldreich_levin(
            f, theta, Fraction(1, 10), CounterSource(master=master, index=0)
        )
        assert not result.aborted
        assert result.strings == want
        assert result.bits_used == gl_audit_dict(result.params)["steward_bits"]


def test_criterion_11():
    """The tape budget is insensitive to theta and grows sublinearly in n."""
    delta = Fraction(1, 10)
    bits = {
        (n, theta): gl_audit_dict(gl_params(n, theta, delta))["steward_bits"]
        for n in (8, 12, 16)
        for theta in (Fraction(1, 2), Fraction(1, 4))
    }
    assert bits == {
        (8, Fraction(1, 2)): 484, (8, Fraction(1, 4)): 502,
        (12, Fraction(1, 2)): 577, (12, Fraction(1, 4)): 589,
        (16, Fraction(1, 2)): 596, (16, Fraction(1, 4)): 598,
    }
    for n, theta in bits:  # each from the package-free planner
        cfg = gl_params(n, theta, delta).config
        assert bits[(n, theta)] == ref_schedule(cfg.n, cfg.k, cfg.sigma, cfg.gamma)[-1]
    for n in (8, 12, 16):
        hi, lo = bits[(n, Fraction(1, 2))], bits[(n, Fraction(1, 4))]
        assert max(hi, lo) <= 2 * min(hi, lo)
    for theta in (Fraction(1, 2), Fraction(1, 4)):
        assert bits[(16, theta)] <= 2 * bits[(8, theta)]
        assert bits[(16, theta)] - bits[(12, theta)] <= bits[(12, theta)] - bits[(8, theta)]


# ---------------------------------------------------------------- 12


def _next_circuit(history):
    i = len(history)
    if not history:
        return "x0"
    prev, est = history[-1]
    var = f"x{i % 10}"
    if est > Fraction(1, 2):
        return f"({prev}) & {var}"
    if est < Fraction(1, 4):
        return f"({prev}) | {var}"
    return f"({prev}) ^ {var}"


def test_criterion_12():
    """Adaptive circuit-mean sessions: accuracy, failure rate, planned queries."""
    n, k = 10, 16
    epsilon, delta = Fraction(1, 20), Fraction(1, 10)
    t0 = 10 * 160**2  # ceil(10 / (epsilon/8)^2), exact here
    r = 67  # ceil(8 * log2(2k / delta))
    failures = 0
    queries = None
    for index in range(500):
        session = AcceptanceSession(
            n, k, epsilon, delta, CounterSource(master=b"crit12", index=index)
        )
        queries = session.plan.queries
        history = []
        bad = False
        for _ in range(k):
            text = _next_circuit(history)
            estimate = session.estimate(text)
            truth = exact_mean(parse_circuit(text, n), n)
            bad = bad or abs(estimate - truth) > epsilon
            history.append((text, estimate))
        failures += bad
    assert queries == t0 * r == 17_152_000
    assert failures / 500 <= three_sigma_bound(float(delta), 500)


# ---------------------------------------------------------------- 13-14


def test_criterion_13():
    """Transform health: involution and energy conservation, exact, 1000 runs."""
    rng = np.random.default_rng(130_013)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        table = rng.choice(np.array([-1, 1], dtype=np.int64), size=1 << n)
        spectrum = wht_ints(table)
        assert (wht_ints(spectrum) == table * (1 << n)).all()
        assert (spectrum.astype(object) ** 2).sum() == (1 << n) * (1 << n)


def test_criterion_14():
    """Graph health: all eight maps of the sampler's walk permute the side-2^h
    torus, and the spectral gap is certified."""
    for m in (1 << h for h in range(1, 7)):
        for label in range(8):
            perm = permutation_array(walk_step, m, label)
            assert (np.sort(perm) == np.arange(m * m)).all()
    for m in (4, 8, 16, 32):
        eigs = np.linalg.eigvalsh(adjacency_matrix(walk_step, m))
        second = sorted(abs(eigs))[-2]
        assert second <= 0.884
