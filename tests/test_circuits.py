import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randsteward import circuits, sampler, steward
from randsteward.circuits import (
    CHAR,
    TRUTH_TABLE_CAP,
    AcceptanceSession,
    BinOp,
    CircuitSyntaxError,
    Const,
    Not,
    Var,
    _CircuitOracle,
    eval_on_ints,
    exact_mean,
    parse_circuit,
    run_app_oracle_algorithm,
    run_promise_bpp_oracle_algorithm,
    to_truth_table,
)
from randsteward.randomness import CounterSource, TapeSource, int_to_bits
from randsteward.sampler import FnOracle, median_reps, plan_sampler
from randsteward.steward import StewardConfig, StewardProtocolError

from harness import TruthTableOracle, random_circuit, random_coset
from oracles import (
    ref_coset_sum,
    ref_eval_circuit,
    ref_median_miss,
    ref_print_circuit,
    ref_round_budget,
)

# (n, k, epsilon, delta) of the sessions whose plans are checked against
# the reference split: the sampler and the d = 1 steward at epsilon/8 and
# delta/(2k) per round, gamma = delta/2
BUDGET_GRID = [
    (n, k, epsilon, delta)
    for n in (2, 5, 10)
    for k in (1, 2, 16)
    for epsilon in (Fraction(1, 20), Fraction(1, 2))
    for delta in (Fraction(1, 10), Fraction(3, 4))
]

N = 3

circuit_asts = st.recursive(
    st.one_of(
        st.integers(0, N - 1).map(Var),
        st.sampled_from([Const(0), Const(1)]),
    ),
    lambda inner: st.one_of(
        inner.map(Not),
        st.tuples(st.sampled_from("&^|"), inner, inner).map(lambda t: BinOp(*t)),
    ),
    max_leaves=12,
)


# ---------------------------------------------------------------- parsing


def test_parse_golden():
    expr = parse_circuit("x0 & x1 | ~x2", 3)
    assert expr == BinOp("|", BinOp("&", Var(0), Var(1)), Not(Var(2)))


def test_precedence_not_over_and_over_xor_over_or():
    assert parse_circuit("x0 | x1 & x2", 3) == BinOp("|", Var(0), BinOp("&", Var(1), Var(2)))
    assert parse_circuit("x0 ^ x1 & x2", 3) == BinOp("^", Var(0), BinOp("&", Var(1), Var(2)))
    assert parse_circuit("x0 | x1 ^ x2", 3) == BinOp("|", Var(0), BinOp("^", Var(1), Var(2)))
    assert parse_circuit("~x0 & x1", 2) == BinOp("&", Not(Var(0)), Var(1))


def test_binary_operators_left_associate():
    assert parse_circuit("x0 ^ x1 ^ x2", 3) == BinOp("^", BinOp("^", Var(0), Var(1)), Var(2))


def test_parens_and_double_negation():
    assert parse_circuit("~(x0 | x1)", 2) == Not(BinOp("|", Var(0), Var(1)))
    assert parse_circuit("~~x0", 1) == Not(Not(Var(0)))
    assert parse_circuit("(((1)))", 0) == Const(1)


def test_syntax_errors_carry_positions():
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("x0 $ x1", 2)
    assert e.value.position == 3
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("(x0 & x1", 2)
    assert e.value.position == 0  # points at the unclosed parenthesis
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("x0 &", 2)
    assert e.value.position == 4
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("x0 x1", 2)
    assert e.value.position == 3
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("", 2)
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("x7", 2)
    assert e.value.position == 0
    with pytest.raises(CircuitSyntaxError) as e:
        parse_circuit("x0 & x\u0661", 2)  # ARABIC-INDIC DIGIT ONE is no variable digit
    assert e.value.position == 5


def test_whitespace_around_tokens():
    assert parse_circuit("  x0 &\tx1  ", 2) == BinOp("&", Var(0), Var(1))
    with pytest.raises(CircuitSyntaxError, match="empty expression") as e:
        parse_circuit("   ", 2)
    assert e.value.position == 0


def test_variable_range_depends_on_n():
    parse_circuit("x7", 8)
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("x8", 8)


# ---------------------------------------------------------------- printing


@settings(max_examples=200)
@given(expr=circuit_asts)
def test_print_parse_round_trip(expr):
    assert parse_circuit(ref_print_circuit(expr), N) == expr


# ---------------------------------------------------------------- semantics


@settings(max_examples=150)
@given(expr=circuit_asts, point=st.integers(0, (1 << N) - 1))
def test_eval_matches_reference(expr, point):
    # the pointwise evaluator and the bit-sliced kernel, on the point's
    # rank-0 coset and on the cube, against the package-free evaluator
    want = ref_eval_circuit(expr, int_to_bits(point, N))
    assert eval_on_ints(expr, np.array([point])).tolist() == [want]
    oracle = _CircuitOracle(expr, N)
    assert oracle.coset_sums([(point, ())]) == [want]
    cube = sum(ref_eval_circuit(expr, int_to_bits(x, N)) for x in range(1 << N))
    assert oracle.coset_sums([(0, tuple(1 << i for i in range(N)))]) == [cube]


def test_eval_matches_reference_at_random_widths():
    # random circuits on up to 40 inputs at random points, through both
    # evaluators, and the kernel's cube at n <= 10; the strings exist only here
    rng = random.Random(121)
    for _ in range(200):
        n = rng.randint(1, 40)
        expr = parse_circuit(random_circuit(rng, n, depth=4), n)
        xs = [rng.getrandbits(n) for _ in range(8)]
        want = [ref_eval_circuit(expr, int_to_bits(x, n)) for x in xs]
        assert eval_on_ints(expr, np.array(xs, dtype=np.uint64)).tolist() == want
        oracle = _CircuitOracle(expr, n)
        assert oracle.coset_sums([(x, ()) for x in xs]) == want
        if n <= 10:
            cube = sum(ref_eval_circuit(expr, int_to_bits(x, n)) for x in range(1 << n))
            assert oracle.coset_sums([(0, tuple(1 << i for i in range(n)))]) == [cube]


def test_eval_is_little_endian():
    assert eval_on_ints(Var(0), np.array([1])).tolist() == [1]  # the string "10"
    assert eval_on_ints(Var(1), np.array([1])).tolist() == [0]


def test_truth_tables_and_means():
    assert to_truth_table(parse_circuit("x0 ^ x1", 2), 2).tolist() == [0, 1, 1, 0]
    maj = parse_circuit("x0 & x1 | x0 & x2 | x1 & x2", 3)
    assert to_truth_table(maj, 3).tolist() == [0, 0, 0, 1, 0, 1, 1, 1]
    assert exact_mean(maj, 3) == Fraction(1, 2)
    assert exact_mean(parse_circuit("x0 & ~x0", 1), 1) == 0
    with pytest.raises(ValueError):
        to_truth_table(Const(1), 27)


@settings(max_examples=100)
@given(expr=circuit_asts, xs=st.lists(st.integers(0, (1 << N) - 1), min_size=1, max_size=20))
def test_circuit_oracle_sums_match_evaluation(expr, xs):
    # a rank-0 coset is one point, summed bit-sliced in a one-bit valid
    # word; the cube is the coset with the unit basis
    xs = np.array(xs, dtype=np.uint64)
    oracle = _CircuitOracle(expr, N)
    assert oracle.coset_sums([(int(x), ()) for x in xs]) == eval_on_ints(expr, xs).tolist()
    cube = [(0, tuple(1 << i for i in range(N)))]
    assert oracle.coset_sums(cube) == [int(to_truth_table(expr, N).sum())]


def test_circuit_oracle_builds_no_table_past_the_cap(monkeypatch):
    def refuse(expr, n):
        raise AssertionError("no table may be built here")

    monkeypatch.setattr(circuits, "to_truth_table", refuse)
    n = TRUTH_TABLE_CAP + 1
    expr = parse_circuit(f"x0 ^ x{n - 1} | ~x3", n)
    oracle = _CircuitOracle(expr, n)
    xs = np.array([0, 1, 1 << (n - 1), (1 << n) - 1, 8], dtype=np.uint64)
    sums = oracle.coset_sums([(int(x), ()) for x in xs])
    assert sums == eval_on_ints(expr, xs).tolist() == [1, 1, 1, 0, 0]


def test_char_words_are_parities():
    for m in range(64):
        word = int(CHAR[m])
        assert all(word >> j & 1 == bin(j & m).count("1") % 2 for j in range(64))


# constants and nested ~ on top of random circuits: a ~ of a partial word
# sets bits outside its valid mask, which must not be counted
EDGE_CIRCUITS = ["0", "1", "~1", "~~x0", "~(x0 & 0) ^ 1", "~(~x0 | ~~1)", "x0 & ~x{top}"]


@pytest.mark.parametrize("temp_bits", [sampler.TEMP_BITS, 1])
def test_circuit_coset_sums_match_pointwise_reference(monkeypatch, temp_bits):
    # random cosets of every rank 0..n at random offsets, n = 1..12: ranks
    # 0-5 fill part of one word, rank 6 exactly one; a pass of at most
    # max(1, 2^TEMP_BITS / n) words keeps its n input rows to 2^TEMP_BITS
    monkeypatch.setattr(sampler, "TEMP_BITS", temp_bits)
    passes = []
    real = circuits._evaluate

    def spy(expr, leaf, ones):
        passes.append(ones.size)
        return real(expr, leaf, ones)

    monkeypatch.setattr(circuits, "_evaluate", spy)
    rng = random.Random(3001)
    for n in range(1, 13):
        texts = [random_circuit(rng, n, depth=4) for _ in range(3)]
        texts += [text.format(top=n - 1) for text in EDGE_CIRCUITS]
        for text in texts:
            expr = parse_circuit(text, n)
            pointwise = TruthTableOracle(to_truth_table(expr, n))
            cosets = [random_coset(rng, n, rank) for rank in range(n + 1)]
            rng.shuffle(cosets)
            passes.clear()
            got = _CircuitOracle(expr, n).coset_sums(cosets)
            assert got == [ref_coset_sum(pointwise, c, basis) for c, basis in cosets]
            assert passes and max(passes) <= max(1, (1 << temp_bits) // n)


# ---------------------------------------------------------------- acceptance


def test_acceptance_session_constants():
    sess = AcceptanceSession(
        3, 2, Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"accept-unit", index=0)
    )
    assert sess.plan.t0 == 2560
    assert sess.plan.queries == 81920
    assert sess.bits_used == 0  # nothing is drawn at open
    assert sess.estimate("1") == 1  # mu = 1 survives rounding exactly
    assert sess.bits_used == 139  # the whole steward seed, at the first estimate
    # mu = 0 keeps a positive shift: the estimate is small but not zero
    y = sess.estimate("x0 & ~x0")
    assert y == Fraction(1, 8)
    assert 0 <= y <= sess.epsilon
    assert sess.bits_used == 139


def test_acceptance_session_accuracy_and_rounds():
    sess = AcceptanceSession(
        3, 2, Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"accept-unit", index=1)
    )
    maj = parse_circuit("x0 & x1 | x0 & x2 | x1 & x2", 3)
    y = sess.estimate(maj)
    assert abs(y - Fraction(1, 2)) <= sess.epsilon
    # adapt the second circuit to the first answer
    follow_up = "x0" if y >= Fraction(1, 2) else "~x0"
    y2 = sess.estimate(follow_up)
    assert abs(y2 - Fraction(1, 2)) <= sess.epsilon
    with pytest.raises(StewardProtocolError):
        sess.estimate("x0")


def test_acceptance_session_error_factor():
    sess = AcceptanceSession(
        2, 1, Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"factors", index=0)
    )
    assert sess.config.epsilon == Fraction(1, 16)  # epsilon / 8
    assert sess.config.error_bound == Fraction(1, 2)  # 8 * (epsilon / 8)
    assert sess.config.gamma == Fraction(1, 8)
    assert sess.config.d == 1


def test_acceptance_session_plans_the_reference_recipe():
    for n, k, epsilon, delta in BUDGET_GRID:
        sess = AcceptanceSession(n, k, epsilon, delta, CounterSource(master=b"plan", index=0))
        eps, round_delta, gamma = ref_round_budget(k, 1, epsilon, delta)
        assert eps == epsilon / 8
        assert sess.plan == plan_sampler(n, eps, round_delta)
        assert sess.config == StewardConfig(sess.plan.seed_bits, k, 1, eps, round_delta, gamma)
        assert sess.bits_used == 0


def test_acceptance_session_estimates_a_sampler_oracle():
    # the same 0/1 function as a circuit and as a pointwise oracle: same tape, same estimate
    def open_session(index):
        return AcceptanceSession(
            3, 1, Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"oracle", index=index)
        )

    for index in range(4):
        from_text = open_session(index).estimate("x0 & ~x2")
        oracle = FnOracle(3, lambda x: (x & 1) & (~x >> 2 & 1))
        assert open_session(index).estimate(oracle) == from_text


def test_acceptance_session_runs_the_sampler_through_its_module(monkeypatch):
    # a wrapper patched onto sampler.run_sampler (as a tracer does) sees every
    # round; a name bound at import in circuits would bypass it
    calls = []

    def counting(*args, _real=sampler.run_sampler):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(sampler, "run_sampler", counting)
    sess = AcceptanceSession(
        2, 1, Fraction(1, 2), Fraction(1, 4), CounterSource(master=b"factors", index=0)
    )
    sess.estimate("x0")
    assert len(calls) == 1
    assert calls[0][0] is sess.plan


# ---------------------------------------------------------------- bpp runner


def test_promise_bpp_runner_lazy_without_queries():
    src = CounterSource(master=b"lazy", index=0)
    result = run_promise_bpp_oracle_algorithm(
        lambda ask: "done", lambda q, coins: 1, 4, 2, Fraction(1, 4), src
    )
    assert result == "done"
    assert src.bits_drawn == 0


def test_promise_bpp_runner_decides_with_noise():
    # oracle errs on exactly 1/4 of coin tapes (< 1/3 promise margin); a
    # numpy bool answer must count as 1, not be or-ed into the batch sum
    for decision in (int, np.bool_):

        def oracle(query, coins):
            wrong = coins & 3 == 3  # the first two coins drawn are 1
            return decision((query % 2 == 0) != wrong)

        answers = run_promise_bpp_oracle_algorithm(
            lambda ask: [ask(2), ask(3)],
            oracle,
            4,
            2,
            Fraction(3, 4),
            CounterSource(master=b"bpp", index=0),
        )
        assert answers == [1, 0]


def test_promise_bpp_runner_tolerates_promise_violations():
    # a coin-flip oracle satisfies no promise; the answer is unspecified
    # but the protocol must still complete
    def oracle(query, coins):
        return coins & 1

    out = run_promise_bpp_oracle_algorithm(
        lambda ask: ask("whatever"),
        oracle,
        4,
        1,
        Fraction(3, 4),
        CounterSource(master=b"coin", index=0),
    )
    assert out in (0, 1)


# ---------------------------------------------------------------- app runner


def test_app_runner_plans_the_reference_recipe(monkeypatch):
    opened = []

    class Recording(steward.Session):
        def __init__(self, config, source):
            opened.append(config)
            super().__init__(config, source)

    monkeypatch.setattr(circuits, "Session", Recording)
    for n, k, epsilon, delta in BUDGET_GRID:
        source = CounterSource(master=b"app-plan", index=0)
        run_app_oracle_algorithm(lambda ask: None, lambda w, c: w, n, k, epsilon, delta, source)
        eps, round_delta, gamma = ref_round_budget(k, 1, epsilon, delta)
        r = median_reps(round_delta)
        assert opened.pop() == StewardConfig(r * n, k, 1, eps, round_delta, gamma)
        assert source.bits_drawn == 0
    with pytest.raises(ValueError, match="need k >= 1"):
        run_app_oracle_algorithm(lambda ask: None, lambda w, c: w, 2, 0, 1, Fraction(1, 2), source)


def test_app_runner_estimates_with_bad_tapes():
    # phi is exact except on the 1/4 of tapes whose first two coins are 1,
    # where it is wildly wrong; the median repair keeps every answer within epsilon
    def phi(w, coins):
        return w + 17 if coins & 3 == 3 else w

    targets = [Fraction(1, 3), Fraction(3, 4)]
    source = CounterSource(master=b"app", index=0)
    out = run_app_oracle_algorithm(
        lambda ask: [ask(w) for w in targets],
        phi,
        4,
        2,
        Fraction(1, 4),
        Fraction(1, 2),
        source,
    )
    assert out == [Fraction(7, 16), Fraction(13, 16)]
    for got, want in zip(out, targets):
        assert abs(got - want) <= Fraction(1, 4)
    # r = median_reps(1/8) = 11 coin strings, so the steward plans k=2 blocks
    # of 44 bits and one 18-bit extractor seed
    assert source.bits_drawn == 62


def test_app_runner_misses_exactly_on_the_binomial_tail():
    # n=2, k=1, delta=1/2: r = median_reps(1/4) = 5 coin strings, so the one
    # block, and the whole seed, is 10 bits.  phi is off by 17 on coin string 3,
    # a quarter of them, so over every tape an answer misses by more than
    # epsilon exactly when 3 or more of its 5 strings are 3.
    epsilon, mu = Fraction(1, 4), Fraction(1, 3)

    def phi(w, coins):
        return w + 17 if coins == 3 else w

    misses = 0
    for seed in range(1 << 10):
        tape = TapeSource(int_to_bits(seed, 10))
        (got,) = run_app_oracle_algorithm(
            lambda ask: [ask(mu)], phi, 2, 1, epsilon, Fraction(1, 2), tape
        )
        assert tape.position == len(tape.bits)
        misses += abs(got - mu) > epsilon
    assert misses == 106 == 1024 * ref_median_miss(5, Fraction(1, 4))
    assert Fraction(misses, 1024) <= Fraction(1, 4)  # delta/2, the round's share


def test_app_runner_takes_coin_strings_past_64_bits():
    seen = []

    def phi(w, coins):
        seen.append(coins)
        return w

    source = CounterSource(master=b"wide", index=0)
    (got,) = run_app_oracle_algorithm(
        lambda ask: [ask(Fraction(1, 2))], phi, 100, 1, Fraction(1, 4), Fraction(1, 2), source
    )
    assert abs(got - Fraction(1, 2)) <= Fraction(1, 4)
    assert len(seen) == 5 and max(seen).bit_length() > 64
    assert source.bits_drawn == 5 * 100


def test_estimates_past_64_bits_are_refused_before_any_draw():
    # sampler points are uint64; the session is refused when it is built
    source = CounterSource(master=b"wide", index=0)
    with pytest.raises(ValueError, match="64"):
        AcceptanceSession(65, 2, Fraction(1, 2), Fraction(1, 2), source)
    with pytest.raises(ValueError, match="64"):
        run_promise_bpp_oracle_algorithm(
            lambda ask: ask("q"), lambda query, coins: 0, 65, 1, Fraction(1, 2), source
        )
    assert source.bits_drawn == 0


@pytest.mark.parametrize("k", [0, -1])
def test_applications_reject_k_below_one(k):
    source = CounterSource(master=b"k0", index=0)
    with pytest.raises(ValueError, match="need k >= 1"):
        AcceptanceSession(3, k, Fraction(1, 2), Fraction(1, 2), source)
    with pytest.raises(ValueError, match="need k >= 1"):
        run_app_oracle_algorithm(
            lambda ask: [], lambda w, coins: w, 4, k, Fraction(1, 4), Fraction(1, 2), source
        )
    assert source.bits_drawn == 0


def test_app_runner_values_are_not_clamped():
    # phi targets above 1 must come back above 1, not squashed into [0, 1]
    def phi(w, coins):
        return w

    (got,) = run_app_oracle_algorithm(
        lambda ask: [ask(Fraction(5, 2))],
        phi,
        4,
        1,
        Fraction(1, 4),
        Fraction(1, 2),
        CounterSource(master=b"tall", index=0),
    )
    assert got > 2
    assert abs(got - Fraction(5, 2)) <= Fraction(1, 4)
