import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from randsteward.adversary import (
    _unit_fraction,
    boundary_owner,
    constant_owner,
    extracting_owner,
)
from randsteward.randomness import CounterSource, TapeSource, int_to_bits
from randsteward.steward import Session, StewardConfig, run_steward

from oracles import ref_expand


def test_constant_owner_cycles_point_masses():
    owner = constant_owner([Fraction(1, 3), Fraction(2, 3)])
    for i, want in [(0, Fraction(1, 3)), (1, Fraction(2, 3)), (2, Fraction(1, 3))]:
        fn = owner(i, [])
        assert fn.mu == (want,)
        assert fn.oracle(0b1010) == (want,)
        assert fn.oracle(0b1111) == (want,)
        assert fn.epsilon == 0 and fn.delta == 0


def test_constant_owner_vectors_and_validation():
    mus = [(1, 2), (3, 4), (Fraction(1, 3), Fraction(-7, 5))]
    owner = constant_owner(mus, d=2)
    for i, given in enumerate(mus):
        fn = owner(i, [])
        assert fn.mu == given and fn.oracle(0b101) == fn.mu
        assert all(type(v) is Fraction for v in fn.mu)
    scalar = constant_owner([5], d=3)
    assert scalar(0, []).mu == (Fraction(5), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        constant_owner([])
    with pytest.raises(ValueError):
        constant_owner([(1, 2, 3)], d=2)


def test_boundary_owner_values_are_the_plain_formula():
    # every 12-bit sample, against mu_j + e*(2*frac(x) - 1) in plain Fraction
    # arithmetic; those values depend on mu_j and x only, so each is made once
    xs = range(1 << 12)
    fracs = [_unit_fraction(x) for x in xs]
    assert fracs == [Fraction(int(format(x, "b")[::-1], 2), 1 << x.bit_length()) for x in xs]
    for epsilon in (Fraction(1, 16), Fraction(3, 128), Fraction(1, 10)):
        jitters = [epsilon * (2 * f - 1) for f in fracs]
        plain: dict[Fraction, list[Fraction]] = {}  # mu_j -> its value at every x
        for d in (1, 2, 32):
            owner = boundary_owner(epsilon, d=d)
            for i in range(4):
                fn = owner(i, [])
                assert fn.mu == tuple(
                    (i + j + 1) * 2 * (d + 1) * epsilon - epsilon for j in range(d)
                )
                for m in fn.mu:
                    if m not in plain:
                        plain[m] = [m + jitter for jitter in jitters]
                want = list(zip(*(plain[m] for m in fn.mu)))
                assert [fn.oracle(x) for x in xs] == want, (epsilon, d, i)


def test_boundary_owner_is_concentrated_with_zero_delta():
    epsilon = Fraction(1, 16)
    owner = boundary_owner(epsilon, d=2)
    for i in range(3):
        fn = owner(i, [])
        assert fn.delta == 0
        cell = 2 * 3 * epsilon
        assert fn.mu == tuple((i + j + 1) * cell - epsilon for j in range(2))
        for v in range(64):
            w = fn.oracle(v)
            for wj, mj in zip(w, fn.mu):
                assert abs(wj - mj) <= epsilon


def test_boundary_owner_splits_the_rounding_decision():
    # mu sits epsilon under a cell boundary, so the chosen shift depends on
    # the sample: the steward's per-round symbol is not constant
    epsilon = Fraction(1, 16)
    owner = boundary_owner(epsilon, d=1)
    cfg = StewardConfig(
        n=6, k=1, d=1, epsilon=epsilon, delta=Fraction(0), gamma=Fraction(1, 4), kind="union"
    )
    deltas = set()
    for v in range(64):
        session = Session(cfg, TapeSource(int_to_bits(v, 6)))
        session.answer(owner(0, []))
        deltas.add(session.transcript.rounds[0].deltas)
    assert len(deltas) > 1


def test_boundary_owner_validation():
    with pytest.raises(ValueError):
        boundary_owner(Fraction(0))


EXTRACT_CFG = StewardConfig(
    n=8, k=2, d=1, epsilon=Fraction(1, 128), delta=Fraction(1, 64), gamma=Fraction(1, 16)
)


def test_extracting_owner_validation():
    with pytest.raises(ValueError):
        extracting_owner(8, Fraction(3, 128))  # not a power of two
    with pytest.raises(ValueError):
        extracting_owner(0, Fraction(1, 4))


def test_extracting_owner_round_one_embeds_injectively():
    owner = extracting_owner(6, Fraction(1, 64))
    fn = owner(0, [])
    assert fn.delta == 0 and fn.mu == (Fraction(0),)
    values = {fn.oracle(v)[0] for v in range(64)}
    assert len(values) == 64
    assert max(values) < Fraction(1, 64)
    assert min(values) == 0


def test_extracting_owner_breaks_sample_reuse():
    bound = EXTRACT_CFG.error_bound
    for i in range(10):
        owner = extracting_owner(8, Fraction(1, 128))
        t = run_steward(
            replace(EXTRACT_CFG, kind="naive-reuse"), owner,
            CounterSource(master=b"reuse", index=i),
        )
        assert abs(t.rounds[1].y[0]) > bound  # decoded X, spiked it


def test_extracting_owner_rarely_touches_fresh_samples():
    bound = EXTRACT_CFG.error_bound
    fails = 0
    for i in range(30):
        owner = extracting_owner(8, Fraction(1, 128))
        t = run_steward(
            replace(EXTRACT_CFG, kind="naive-fresh"), owner,
            CounterSource(master=b"fresh", index=i),
        )
        fails += abs(t.rounds[1].y[0]) > bound
    # the spike lands only when two fresh samples collide: rate 2^-8
    assert fails <= 3


def test_extracting_owner_cannot_decode_rounded_answers():
    owner = extracting_owner(8, Fraction(1, 128))
    session = Session(EXTRACT_CFG, CounterSource(master=b"main", index=0))
    y1 = session.answer(owner(0, []))
    # a grid midpoint scales past 2^n, so decoding fails and round 2
    # degenerates to the zero query (declared failure probability 0)
    follow_up = owner(1, [y1])
    assert follow_up.delta == 0
    for v in range(0, 256, 17):
        assert follow_up.oracle(v) == (Fraction(0),)
    y2 = session.answer(follow_up)
    assert abs(y2[0]) <= EXTRACT_CFG.error_bound


def test_extracting_owner_goes_quiet_after_round_two():
    owner = extracting_owner(4, Fraction(1, 16))
    fn = owner(5, [(Fraction(0),), (Fraction(0),)])
    assert fn.oracle(0b0101) == (Fraction(0),)
    assert fn.delta == 0


# One main session per owner at a fixed key, pinned to the answers and the
# byte-exact transcript JSON: an oracle gets an n-bit int, and the transcript
# writes x as the bit string drawn.  The samples are the blocks of the
# package-free generator on the same seed; at n = 8, k = 3 the plan is capped
# at nk = 24 bits, so they are the seed's three bytes as drawn.
PIN_CFG = StewardConfig(
    n=8, k=3, d=2, epsilon=Fraction(1, 128), delta=Fraction(1, 128), gamma=Fraction(1, 16)
)
PIN_X = [0b10101011, 0b01100111, 0b10100011]  # drawn as "11010101", "11100110", "11000101"
PINS = {
    "constant": (
        lambda: constant_owner([(Fraction(1, 3), Fraction(-5, 16))], d=2),
        [("45/128", "-39/128")] * 3,
        "153c8a563ecd466fb327ee6cdf88a0bc17d198684da9b03c7b20a2ca4025c967",
    ),
    "boundary": (
        lambda: boundary_owner(PIN_CFG.epsilon, d=2),
        [("9/128", "15/128"), ("15/128", "21/128"), ("21/128", "27/128")],
        "d3c193725d55e6023e0669a94ac81094037e63a0acffda6c398d039385c44667",
    ),
    "extracting": (
        lambda: extracting_owner(PIN_CFG.n, PIN_CFG.epsilon, d=2),
        [("3/128", "3/128")] * 3,
        "6c674848941e60857aaf2ecdb268689778d3bdf84e2bc2c2eae4d647c8e5ce50",
    ),
}


@pytest.mark.parametrize("name", PINS)
def test_main_session_pins_the_owner_contract(name):
    make_owner, answers, digest = PINS[name]
    t = run_steward(PIN_CFG, make_owner(), CounterSource(master=b"owner-contract", index=0))
    assert [tuple(str(v) for v in r.y) for r in t.rounds] == answers
    assert [r.x for r in t.rounds] == PIN_X
    text = t.to_json()
    xs = [r["x"] for r in json.loads(text)["rounds"]]
    assert xs == ["11010101", "11100110", "11000101"]
    schedule = PIN_CFG.schedule
    seed = CounterSource(master=b"owner-contract", index=0).draw(schedule.seed_len)
    out = ref_expand(schedule, seed)
    assert xs == [out[i : i + 8] for i in (0, 8, 16)]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
