from dataclasses import replace
from fractions import Fraction

import pytest

from randsteward.adversary import boundary_owner, constant_owner, extracting_owner
from randsteward.randomness import CounterSource, TapeSource, int_to_bits
from randsteward.steward import Session, StewardConfig, run_steward


def test_constant_owner_cycles_point_masses():
    owner = constant_owner([Fraction(1, 3), Fraction(2, 3)])
    for i, want in [(0, Fraction(1, 3)), (1, Fraction(2, 3)), (2, Fraction(1, 3))]:
        fn = owner(i, [])
        assert fn.mu == (want,)
        assert fn.oracle("0101") == (want,)
        assert fn.oracle("1111") == (want,)
        assert fn.epsilon == 0 and fn.delta == 0


def test_constant_owner_vectors_and_validation():
    owner = constant_owner([(1, 2), (3, 4)], d=2)
    assert owner(1, []).mu == (Fraction(3), Fraction(4))
    scalar = constant_owner([5], d=3)
    assert scalar(0, []).mu == (Fraction(5), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        constant_owner([])
    with pytest.raises(ValueError):
        constant_owner([(1, 2, 3)], d=2)


def test_boundary_owner_is_concentrated_with_zero_delta():
    epsilon = Fraction(1, 16)
    owner = boundary_owner(epsilon, d=2)
    for i in range(3):
        fn = owner(i, [])
        assert fn.delta == 0
        cell = 2 * 3 * epsilon
        assert fn.mu == tuple((i + j + 1) * cell - epsilon for j in range(2))
        for v in range(64):
            w = fn.oracle(int_to_bits(v, 6))
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
    values = {fn.oracle(int_to_bits(v, 6))[0] for v in range(64)}
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
        assert follow_up.oracle(int_to_bits(v, 8)) == (Fraction(0),)
    y2 = session.answer(follow_up)
    assert abs(y2[0]) <= EXTRACT_CFG.error_bound


def test_extracting_owner_goes_quiet_after_round_two():
    owner = extracting_owner(4, Fraction(1, 16))
    fn = owner(5, [(Fraction(0),), (Fraction(0),)])
    assert fn.oracle("1010") == (Fraction(0),)
    assert fn.delta == 0
