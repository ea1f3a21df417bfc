import inspect
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randsteward.extract import ExtractorParams
from randsteward.prg import build_schedule, expand
from randsteward.randomness import (
    CounterSource,
    TapeExhausted,
    TapeSource,
    bits_to_int,
)
from randsteward.steward import (
    KINDS,
    ConcentratedFn,
    Session,
    StewardConfig,
    StewardProtocolError,
    certification_check,
    certify_round,
    error_factor,
    round_budget,
    run_steward,
    shift_round,
)

from oracles import (
    ref_choose_shift,
    ref_expand,
    ref_round_budget,
    ref_schedule,
    ref_shift_round,
)

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=48
)


def const_query(*values):
    vec = [Fraction(v) for v in values]
    return lambda x: list(vec)


# ---------------------------------------------------------------- geometry


def test_choose_shift_goldens():
    # one group each, cells of length 2*(d0+1)*e = 1
    assert shift_round([Fraction(1, 2)], Fraction(1, 4), 1)[1] == [2]
    assert shift_round([Fraction(0)], Fraction(1, 4), 1)[1] == [1]
    assert shift_round([Fraction(1, 2), Fraction(5, 6)], Fraction(1, 6), 2)[1] == [2]


@settings(max_examples=300)
@given(w=st.lists(small_rationals, min_size=1, max_size=3))
def test_choose_shift_matches_reference_and_is_feasible(w):
    epsilon = Fraction(1, 8)
    want = ref_choose_shift(w, epsilon, len(w))
    assert want is not None  # a feasible shift always exists
    assert shift_round(w, epsilon, len(w))[1] == [want]


def test_shift_round_golden():
    y, deltas = shift_round([Fraction(1, 2)], Fraction(1, 4), 1)
    assert y == [Fraction(3, 2)]
    assert deltas == [2]


def test_shift_round_pads_to_a_multiple_of_d0():
    # a short last group is rounded as if zero-padded, and the padding's
    # answers are dropped: the same as the reference on the padded vector
    rng = random.Random(7_001)
    seen_short = 0
    for _ in range(2_000):
        d0 = rng.randrange(2, 6)
        epsilon = rng.choice(EPSILONS)
        w = [_edge_value(rng, d0, epsilon) for _ in range(rng.randrange(1, 3 * d0))]
        pad = -len(w) % d0
        seen_short += pad > 0
        y, deltas = shift_round(w, epsilon, d0)
        want_y, want_deltas = ref_shift_round(w + [Fraction(0)] * pad, epsilon, d0)
        assert len(y) == len(w)
        assert (y, deltas) == (want_y[: len(w)], want_deltas), (w, epsilon, d0)
    assert seen_short > 1_000


@settings(max_examples=200)
@given(w=st.lists(small_rationals, min_size=2, max_size=6), d0=st.integers(1, 3))
def test_shift_round_accuracy(w, d0):
    epsilon = Fraction(1, 16)
    y, deltas = shift_round(w, epsilon, d0)
    assert len(y) == len(w)
    assert len(deltas) == -(-len(w) // d0)
    assert all(1 <= delta <= d0 + 1 for delta in deltas)
    for yj, wj in zip(y, w):
        assert abs(yj - wj) <= (3 * d0 + 3) * epsilon


# mostly non-dyadic, so units of 2e are not powers of two
EPSILONS = (
    Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(1, 10), Fraction(1, 8)
)


def _edge_value(rng: random.Random, d0: int, epsilon: Fraction) -> Fraction:
    """A raw value of either sign, often on a cell line or a window's width off one."""
    length = 2 * (d0 + 1) * epsilon
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(rng.randrange(-10_000, 10_000), rng.randrange(1, 97))
    line = rng.randrange(-5, 6) * length
    if kind == 1:  # on a cell line, or +-e, +-2e from one
        return line + rng.choice((-2, -1, 0, 1, 2)) * epsilon
    if kind == 2:  # some shift's window edge lands on the line
        return line - rng.randrange(1, 2 * d0 + 4) * epsilon
    return line + Fraction(rng.randrange(-97, 98), 97) * epsilon


def test_shift_round_matches_fraction_reference_bit_for_bit():
    # the one-pass integer rule against the scan over shifts in Fractions;
    # the reference costs about 0.1 ms per coordinate, so most vectors are short
    rng = random.Random(50_017)
    seen_d0 = set()
    for _ in range(20_000):
        if rng.random() < 0.97:
            d0, groups = rng.randrange(1, 3), rng.randrange(1, 4)
        else:
            d0, groups = rng.randrange(3, 34), rng.randrange(1, 3)
        seen_d0.add(d0)
        epsilon = rng.choice(EPSILONS)
        w = [_edge_value(rng, d0, epsilon) for _ in range(d0 * groups)]
        y, deltas = shift_round(w, epsilon, d0)
        want_y, want_deltas = ref_shift_round(w, epsilon, d0)
        assert deltas == want_deltas, (w, epsilon, d0)
        assert y == want_y, (w, epsilon, d0)
        assert all(type(v) is Fraction for v in y)
    assert seen_d0 == set(range(1, 34))


def test_shift_round_wide_groups_on_grid_values():
    # d0 = 32 on the e/2 grid over six cells: many coordinates share a cell or
    # sit on a line or a window's edge, and most last groups are short (the
    # reference pads them with zeros)
    rng = random.Random(32_032)
    d0 = 32
    per_cell = 4 * (d0 + 1)  # e/2 steps in a cell of length 2*(d0+1)*e
    seen_short = seen_shared = 0
    seen_deltas = set()
    for _ in range(150):
        epsilon = rng.choice(EPSILONS)
        w = []
        for _ in range(rng.randrange(1, 3 * d0 + 1)):
            if rng.random() < 0.5:
                steps = rng.randrange(-3, 3) * per_cell + rng.randrange(-8, 9)
            else:
                steps = rng.randrange(-3 * per_cell, 3 * per_cell)
            w.append(steps * epsilon / 2)
        pad = -len(w) % d0
        y, deltas = shift_round(w, epsilon, d0)
        want_y, want_deltas = ref_shift_round(w + [Fraction(0)] * pad, epsilon, d0)
        assert (y, deltas) == (want_y[: len(w)], want_deltas), (w, epsilon)
        assert all(type(v) is Fraction for v in y)
        seen_short += pad > 0
        seen_shared += len(set(y)) < len(y)
        seen_deltas.update(deltas)
    assert seen_short > 100 and seen_shared > 100
    assert len(seen_deltas) > 3


def test_pad_vector():
    # shift_round rounds a short last group as if padded with zeros
    epsilon = Fraction(1, 8)
    y, deltas = shift_round([Fraction(1)], epsilon, 3)
    padded_y, padded_deltas = shift_round([Fraction(1), Fraction(0), Fraction(0)], epsilon, 3)
    assert (y, deltas) == (padded_y[:1], padded_deltas)
    assert deltas == [1]
    full = [Fraction(1), Fraction(2)]
    assert len(shift_round(full, epsilon, 2)[0]) == 2
    assert shift_round(full, epsilon, 2) == ref_shift_round(full, epsilon, 2)


# ---------------------------------------------------------------- config


def test_config_validation():
    ok = dict(n=4, k=2, d=1, epsilon=Fraction(1, 8), delta=Fraction(1, 16), gamma=Fraction(1, 4))
    StewardConfig(**ok)
    for bad in [
        dict(ok, n=0),
        dict(ok, k=0),
        dict(ok, d=0),
        dict(ok, epsilon=Fraction(0)),
        dict(ok, delta=Fraction(1, 2)),
        dict(ok, delta=Fraction(-1, 4)),
        dict(ok, gamma=Fraction(1)),
        dict(ok, d0=0),
        dict(ok, kind="turbo"),
    ]:
        with pytest.raises(ValueError):
            StewardConfig(**bad)
    with pytest.raises(ValueError):
        StewardConfig(**dict(ok, d=2, d0=3))


def test_config_derived_quantities():
    cfg = StewardConfig(
        n=4, k=2, d=5, epsilon=Fraction(1, 8), delta=Fraction(0), gamma=Fraction(1, 4), d0=2
    )
    assert cfg.groups == 3  # ceil(5 / 2): the last group is padded
    assert cfg.sigma == 3**3 + 1
    assert cfg.error_bound == 11 * Fraction(1, 8)
    flat = StewardConfig(
        n=4, k=2, d=5, epsilon=Fraction(1, 8), delta=Fraction(0), gamma=Fraction(1, 4)
    )
    assert flat.d0 == 5
    assert flat.sigma == 7  # d + 2 when d0 = d
    assert tuple(KINDS) == ("main", "s0", "union", "saks-zhou", "naive-fresh", "naive-reuse")


def test_round_budget_matches_the_reference_recipe():
    accuracies = (Fraction(1, 20), Fraction(1, 2), Fraction(3, 7), Fraction(1), Fraction(5, 4))
    deltas = (Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for k in (1, 2, 3, 8, 16):
        for d in (1, 2, 5, 32):
            assert error_factor(d) == 3 * d + 5
            for accuracy in accuracies:
                for delta in deltas:
                    budget = round_budget(k, d, accuracy, delta)
                    assert budget == ref_round_budget(k, d, accuracy, delta)
                    assert all(type(v) is Fraction for v in budget)
    # the budget is a d0 = d main steward whose answers land within accuracy
    cfg = StewardConfig(4, 3, 2, *round_budget(3, 2, Fraction(1, 2), Fraction(1, 10)))
    assert cfg.d0 == 2 and cfg.kind == "main"
    assert cfg.error_bound == Fraction(1, 2)
    assert (cfg.delta, cfg.gamma) == (Fraction(1, 60), Fraction(1, 20))
    with pytest.raises(ValueError, match="need k >= 1"):
        round_budget(0, 1, Fraction(1, 2), Fraction(1, 10))


# ---------------------------------------------------------------- sessions

MAIN_CFG = StewardConfig(
    n=4, k=2, d=1, epsilon=Fraction(1, 8), delta=Fraction(1, 16), gamma=Fraction(1, 4)
)


def test_main_session_golden():
    src = CounterSource(master=b"steward-golden", index=0)
    sess = Session(MAIN_CFG, src)
    # 4 fresh bits are cheaper than an extractor seed, so the seed is nk = 8 bits
    assert sess.schedule.seed_len == 8 == ref_schedule(4, 2, MAIN_CFG.sigma, Fraction(1, 4))[-1]
    assert sess.bits_used == 0  # nothing is drawn at open
    y1 = sess.answer(const_query(Fraction(1, 2)))
    assert sess.bits_used == 8  # the whole seed, at the first round
    y2 = sess.answer(const_query(Fraction(-3, 16)))
    assert y1 == (Fraction(3, 4),)
    assert y2 == (Fraction(1, 4),)
    assert sess.bits_used == 8
    assert [r.deltas for r in sess.transcript.rounds] == [(1,), (2,)]
    # the two halves of the seed drawn, "00100110"
    assert [r.x for r in sess.transcript.rounds] == [0b0100, 0b0110]  # "0010", "0110"
    cert = certification_check(sess.transcript, [[Fraction(1, 2)], [Fraction(-3, 16)]])
    # certification scans from 1, so it may find a smaller consistent shift
    assert cert == [(1,), (1,)]


# n = 16, k = 2: one small-bias level (16 + 14 = 30 < 32 bits), so the
# second block is Ext(x, y) and not bits of the seed as drawn
GEN_CFG = replace(MAIN_CFG, n=16)


def test_main_blocks_come_from_the_generator():
    schedule = build_schedule(GEN_CFG.n, GEN_CFG.k, GEN_CFG.sigma, GEN_CFG.gamma)
    assert schedule == GEN_CFG.schedule
    assert [type(p) for p in schedule.extractors] == [ExtractorParams]
    assert schedule.seed_len == 30 == ref_schedule(16, 2, GEN_CFG.sigma, GEN_CFG.gamma)[-1]
    sess = Session(GEN_CFG, CounterSource(master=b"replay", index=7))
    sess.answer(const_query(0))
    sess.answer(const_query(0))
    assert sess.bits_used == 30
    seed = CounterSource(master=b"replay", index=7).draw(30)
    out = ref_expand(schedule, seed)
    xs = [r.x for r in sess.transcript.rounds]
    assert xs == [bits_to_int(out[:16]), bits_to_int(out[16:])]
    assert xs[0] | xs[1] << 16 == expand(schedule, bits_to_int(seed))


BITS_BY_PHASE = {
    "main": {"seed": 8},
    "s0": {"sample": 8},
    "union": {"seed": 4},
    "saks-zhou": {"seed": 4, "shift": 8},
    "naive-fresh": {"sample": 8},
    "naive-reuse": {"seed": 4},
}


@pytest.mark.parametrize(
    "kind,total,reuses",
    [
        ("main", 8, False),
        ("s0", 8, False),
        ("union", 4, True),
        ("saks-zhou", 12, True),
        ("naive-fresh", 8, False),
        ("naive-reuse", 4, True),
    ],
)
def test_baseline_budgets(kind, total, reuses):
    cfg = StewardConfig(
        n=4, k=2, d=1, epsilon=Fraction(1, 8), delta=Fraction(0), gamma=Fraction(1, 4), kind=kind
    )
    sess = Session(cfg, CounterSource(master=b"budget", index=1))
    sess.answer(const_query(0))
    sess.answer(const_query(0))
    assert sess.bits_used == total
    rounds = sess.transcript.rounds
    assert (rounds[0].x == rounds[1].x) == reuses
    assert sess.transcript.bits_used == total
    assert sess.transcript.bits_by_phase == BITS_BY_PHASE[kind]


def test_raw_kinds_answer_unrounded():
    cfg = StewardConfig(
        n=4, k=1, d=2, epsilon=Fraction(1, 8), delta=Fraction(0), gamma=Fraction(1, 4),
        kind="naive-fresh",
    )
    sess = Session(cfg, TapeSource("0110"))
    y = sess.answer(const_query(Fraction(1, 3), Fraction(-7, 5)))
    assert y == (Fraction(1, 3), Fraction(-7, 5))
    assert sess.transcript.rounds[0].deltas is None


def test_saks_zhou_session_golden():
    cfg = StewardConfig(
        n=4, k=2, d=1, epsilon=Fraction(1, 4), delta=Fraction(0), gamma=Fraction(1, 2),
        kind="saks-zhou",
    )
    sess = Session(cfg, TapeSource("0000" + "000" + "111"))
    assert sess.u == 8  # smallest power of two >= 2kd/gamma = 8
    assert sess.answer(const_query(0)) == (Fraction(1),)
    assert sess.answer(const_query(0)) == (Fraction(3),)
    assert sess.bits_used == 4 + 2 * 3
    # the coarse grid costs up to 1.5*u*eps + 3*eps against the true mean
    assert abs(Fraction(3)) <= Fraction(3, 2) * 8 * cfg.epsilon + 3 * cfg.epsilon


def test_session_budget_exhaustion():
    sess = Session(MAIN_CFG, CounterSource(master=b"x", index=0))
    sess.answer(const_query(0))
    sess.answer(const_query(0))
    with pytest.raises(StewardProtocolError):
        sess.answer(const_query(0))


def test_session_rejects_wrong_dimension():
    sess = Session(MAIN_CFG, CounterSource(master=b"x", index=1))
    with pytest.raises(StewardProtocolError):
        sess.answer(const_query(0, 0))


def test_main_session_needs_full_seed():
    sess = Session(MAIN_CFG, TapeSource("01" * 3))
    with pytest.raises(TapeExhausted):
        sess.answer(const_query(0))


def test_a_failed_first_round_does_not_redraw_the_seed():
    src = CounterSource(master=b"x", index=1)
    sess = Session(MAIN_CFG, src)
    with pytest.raises(StewardProtocolError):
        sess.answer(const_query(0, 0))  # wrong dimension, after the seed is drawn
    sess.answer(const_query(0))
    assert sess.bits_used == src.bits_drawn == 8
    assert sess.transcript.bits_by_phase == {"seed": 8}


def test_interleaved_sessions_on_one_source_count_their_own_bits():
    s0 = StewardConfig(
        n=4, k=2, d=1, epsilon=Fraction(1, 8), delta=Fraction(0), gamma=Fraction(1, 4),
        kind="s0",
    )
    src = CounterSource(b"y", 0)
    first, second = Session(s0, src), Session(s0, src)
    for _ in range(2):
        first.answer(const_query(0))
        second.answer(const_query(0))
    assert first.bits_used == second.bits_used == 8
    assert first.transcript.bits_by_phase == {"sample": 8}
    assert src.bits_drawn == 16


def test_main_sessions_opened_on_one_source_count_their_own_seeds():
    src = CounterSource(b"y", 0)
    first, second = Session(MAIN_CFG, src), Session(MAIN_CFG, src)
    for sess in (first, second):
        sess.answer(const_query(0))
    assert first.bits_used == second.bits_used == 8
    assert first.transcript.bits_by_phase == second.transcript.bits_by_phase == {"seed": 8}
    assert src.bits_drawn == 16


def test_concentrated_fn_wrap():
    # answer() takes a ConcentratedFn or its bare oracle, and treats them alike
    fn = ConcentratedFn(oracle=const_query(Fraction(1, 2)), epsilon=Fraction(1, 8))
    assert ConcentratedFn(oracle=fn.oracle).epsilon is None
    answers = []
    for query in (fn, fn.oracle):
        sess = Session(MAIN_CFG, CounterSource(master=b"wrap", index=0))
        answers.append(sess.answer(query))
        assert sess.transcript.rounds[0].w == (Fraction(1, 2),)
    assert answers[0] == answers[1]


def test_oracle_is_called_once_per_round():
    calls = []

    def oracle(x):
        calls.append(x)
        return [Fraction(0)]

    sess = Session(MAIN_CFG, CounterSource(master=b"x", index=2))
    sess.answer(oracle)
    sess.answer(ConcentratedFn(oracle=oracle))
    assert calls == [r.x for r in sess.transcript.rounds]


def test_grouped_rounds():
    cfg = StewardConfig(
        n=4, k=2, d=5, epsilon=Fraction(1, 16), delta=Fraction(0), gamma=Fraction(1, 4),
        kind="s0", d0=2,
    )
    sess = Session(cfg, CounterSource(master=b"grouped", index=0))
    y = sess.answer(const_query(0, 1, 2, 3, 4))
    assert len(y) == 5  # padding coordinate is stripped from the answer
    assert len(sess.transcript.rounds[0].deltas) == 3


@pytest.mark.parametrize("kind", ["main", "s0", "union"])
def test_rounds_keep_the_planned_alphabet(kind):
    # sigma = 5 + 1 symbols at d = d0 = 4; a d0 = 1 round would show the
    # owner 2^4 + 1 = 17, past what the generator was planned to fool
    cfg = StewardConfig(
        n=4, k=3, d=4, d0=4, epsilon=Fraction(1, 16), delta=Fraction(1, 16),
        gamma=Fraction(1, 4), kind=kind,
    )
    assert cfg.sigma == 6
    sess = Session(cfg, CounterSource(master=b"alphabet", index=0))
    if kind == "main":
        assert sess.schedule.sigma == cfg.sigma
    with pytest.raises(TypeError):
        sess.answer(const_query(0, 1, 2, 3), d0=1)
    assert sess.transcript.rounds == []
    assert list(inspect.signature(Session.answer).parameters) == ["self", "query"]
    for r in range(cfg.k):
        sess.answer(const_query(*(Fraction(r + j, 7) for j in range(4))))
    for record in sess.transcript.rounds:
        assert len(record.deltas) == cfg.groups
        assert all(1 <= delta <= cfg.d0 + 1 for delta in record.deltas)


# ---------------------------------------------------------------- runners


def test_run_steward_drives_adaptive_owner():
    seen = []

    def owner(i, responses):
        seen.append((i, list(responses)))
        return const_query(i)

    transcript = run_steward(MAIN_CFG, owner, CounterSource(master=b"drive", index=0))
    assert len(transcript.rounds) == 2
    # each round's owner sees the answers of the rounds before it
    assert seen == [(0, []), (1, [transcript.rounds[0].y])]


def test_runner_kind_overrides():
    owner = lambda i, responses: const_query(0)
    t = run_steward(replace(MAIN_CFG, kind="union"), owner, CounterSource(master=b"u", index=0))
    assert t.config.kind == "union"
    assert t.bits_used == MAIN_CFG.n
    t = run_steward(
        replace(MAIN_CFG, kind="saks-zhou"), owner, CounterSource(master=b"z", index=0)
    )
    assert t.config.kind == "saks-zhou"
    t = run_steward(
        replace(MAIN_CFG, kind="naive-reuse"), owner, CounterSource(master=b"r", index=0)
    )
    assert t.config.kind == "naive-reuse"
    with pytest.raises(ValueError):
        replace(MAIN_CFG, kind="naive-sideways")


# ---------------------------------------------------------------- certification


def test_certify_round_rejects_bad_shapes():
    with pytest.raises(ValueError):
        certify_round([Fraction(0)], [Fraction(0), Fraction(0)], MAIN_CFG)


def test_certify_round_abort_on_garbage():
    # an answer that is not any shifted rounding of mu certifies to None
    assert certify_round([Fraction(1, 3)], [Fraction(0)], MAIN_CFG) == [None]


def test_certification_check_requires_one_mu_per_round():
    sess = Session(MAIN_CFG, CounterSource(master=b"c", index=0))
    sess.answer(const_query(0))
    with pytest.raises(ValueError):
        certification_check(sess.transcript, [])


def test_transcript_json():
    import json

    sess = Session(MAIN_CFG, CounterSource(master=b"json", index=0))
    sess.answer(const_query(Fraction(1, 2)))
    doc = json.loads(sess.transcript.to_json())
    assert set(doc["config"]) == {"n", "k", "d", "d0", "epsilon", "delta", "gamma", "kind"}
    assert doc["config"]["kind"] == "main"
    assert doc["config"]["epsilon"] == "1/8"
    assert doc["bits_used"] == 8
    assert doc["bits_by_phase"] == {"seed": 8}
    (entry,) = doc["rounds"]
    assert set(entry) == {"round", "x", "w", "deltas", "y"}
    assert entry["w"] == ["1/2"]
