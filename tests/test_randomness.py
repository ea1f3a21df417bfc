import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from randsteward.randomness import (
    CounterSource,
    SystemSource,
    TapeExhausted,
    TapeSource,
    bits_to_hex,
    bits_to_int,
    hex_to_bits,
    int_to_bits,
)
from randsteward.steward import Session, StewardConfig

bitstrings = st.text(alphabet="01", min_size=0, max_size=64)


def test_tape_replays_exactly():
    tape = TapeSource("1011001")
    assert tape.draw(3) == "101"
    assert tape.draw(2) == "10"
    assert len(tape.bits) - tape.position == 2


def test_tape_exhaustion_names_the_phase():
    tape = TapeSource("101")
    assert tape.draw(2, phase="warmup") == "10"
    with pytest.raises(TapeExhausted) as info:
        tape.draw(5, phase="seed")
    assert info.value.phase == "seed"
    assert info.value.requested == 5
    assert info.value.available == 1


def test_tape_rejects_non_bits():
    with pytest.raises(ValueError):
        TapeSource("10a1")


def test_bits_drawn_counts_every_draw():
    # a source keeps one total; per-phase books are a session's (test_steward)
    tape = TapeSource("0" * 32)
    tape.draw(5, phase="seed")
    tape.draw(0, phase="seed")
    tape.draw(3, phase="shift")
    assert tape.bits_drawn == 8
    with pytest.raises(TapeExhausted):
        tape.draw(25)
    assert tape.bits_drawn == 8  # a failed draw counts nothing


def test_negative_draw_rejected():
    with pytest.raises(ValueError):
        TapeSource("0").draw(-1)


def test_bits_to_int_is_little_endian():
    assert bits_to_int("101") == 5
    assert bits_to_int("10") == 1
    assert bits_to_int("011") == 6
    assert bits_to_int("") == 0


@given(value=st.integers(min_value=0, max_value=2**48 - 1))
def test_int_bits_round_trip(value):
    assert bits_to_int(int_to_bits(value, 48)) == value


@given(data=st.data(), width=st.integers(min_value=0, max_value=64))
def test_int_bits_round_trip_every_width(data, width):
    value = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    bits = int_to_bits(value, width)
    assert len(bits) == width
    assert bits_to_int(bits) == value
    assert int_to_bits(bits_to_int(bits), width) == bits


def test_width_zero_codecs():
    assert int_to_bits(0, 0) == ""
    assert bits_to_int("") == 0
    with pytest.raises(ValueError):
        int_to_bits(1, 0)


def test_bits_to_int_rejects_non_bits():
    for bad in ("012", "1 0", " 1", "+1", "1_0", "0b1", "x"):
        with pytest.raises(ValueError):
            bits_to_int(bad)


def test_int_to_bits_overflow():
    with pytest.raises(ValueError):
        int_to_bits(8, 3)
    with pytest.raises(ValueError):
        int_to_bits(-1, 3)


def _coarse_shift(shift_bits):
    """The saks-zhou shift one round draws from `shift_bits`, after a 4-bit seed.

    n=4, k=2, d=1, gamma=1/4 makes u = 16, so the shift is log2(u) = 4 bits.
    """
    cfg = StewardConfig(
        n=4, k=2, d=1, epsilon=Fraction(1, 4), delta=Fraction(0), gamma=Fraction(1, 4),
        kind="saks-zhou",
    )
    sess = Session(cfg, TapeSource("0000" + shift_bits))
    assert sess.u == 16
    sess.answer(lambda x: [Fraction(0)])
    return sess.transcript.rounds[0].deltas[0], sess.transcript.bits_by_phase


def test_uniform_power_of_two_decodes_plus_one():
    # little-endian decode of the drawn bits, then +1
    assert _coarse_shift("0111")[0] == 15
    assert _coarse_shift("0000")[0] == 1
    assert _coarse_shift("1111")[0] == 16


def test_uniform_power_of_two_is_uniform_and_exact_cost():
    seen = []
    for value in range(16):
        shift, books = _coarse_shift(int_to_bits(value, 4))
        seen.append(shift)
        assert books == {"seed": 4, "shift": 4}
    assert seen == list(range(1, 17))


def test_counter_source_is_reproducible():
    a = CounterSource(b"master", 3)
    b = CounterSource(b"master", 3)
    assert a.draw(500) == b.draw(500)
    c = CounterSource(b"master", 4)
    assert a.draw(500) != c.draw(500)  # astronomically unlikely to collide


def test_system_source_draws_count():
    src = SystemSource()
    bits = src.draw(37)
    assert len(bits) == 37
    assert not bits.strip("01")
    assert src.bits_drawn == 37


def test_hex_decoding_is_per_byte_lsb_first():
    assert hex_to_bits("01") == "10000000"
    assert hex_to_bits("80") == "00000001"
    assert hex_to_bits("ff00") == "1111111100000000"
    assert hex_to_bits("0e ff") == "0111000011111111"  # every bit of the bytes


@given(bits=bitstrings)
def test_hex_round_trip(bits):
    assert hex_to_bits(bits_to_hex(bits))[: len(bits)] == bits


CODECS = {"bits_to_int", "int_to_bits", "hex_to_bits", "bits_to_hex"}
# where a person reads or writes bits: the sources, the CLI, a transcript's
# JSON and GL's printed strings
CODEC_MODULES = {"randomness", "cli", "steward", "fourier"}


def test_only_the_edge_modules_use_the_bit_codecs():
    # past a draw, bits are ints; any other module naming a codec, by import
    # or as a module attribute, converts where it should not
    src = Path(__file__).resolve().parents[1] / "src" / "randsteward"
    users = {}
    for path in sorted(src.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        if names & CODECS:
            users[path.stem] = sorted(names & CODECS)
    assert "prg" in {p.stem for p in src.glob("*.py")}
    assert set(users) <= CODEC_MODULES, users
