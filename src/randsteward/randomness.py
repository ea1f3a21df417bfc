"""Bit sources that count every bit they hand out.

All randomness consumed anywhere in the library flows through a `BitSource`,
so "how many bits did this protocol really use" is a counted fact, not an
estimate.  A source keeps one count, `bits_drawn`; a steward session keeps
its own books, total and per phase, in its transcript, as sessions may share
a source.  A draw returns a string of '0'/'1', and each draw site decodes it
once with `bits_to_int`, little-endian: bit i of the int is the i-th bit
drawn.  From there on seeds, generator outputs, blocks and samples are ints
all the way to the oracle; bit strings come back only where a person reads or
writes bits (the CLI, a transcript's JSON, GL's printed strings).
The codecs here are the only conversions between the two, and `rat_to_str`
is the one text form of an exact rational in a plan, config or transcript.

Sources:

* `TapeSource` -- replays a fixed bit string; running off the end raises
  `TapeExhausted` naming the phase that overdrew and by how much.
* `SystemSource` -- OS entropy (os.urandom), unbounded.
* `CounterSource` -- deterministic SHA-256 counter stream derived from a
  master key and a stream index.  Used to give Monte-Carlo trial i its own
  reproducible tape: block j of stream (master, i) is
  SHA256(master || be64(i) || be64(j)).
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction


class TapeExhausted(RuntimeError):
    """A fixed tape ran out of bits mid-draw."""

    def __init__(self, phase: str, requested: int, available: int):
        self.phase = phase
        self.requested = requested
        self.available = available
        super().__init__(
            f"bit tape exhausted during phase {phase!r}: "
            f"requested {requested}, only {available} left"
        )


class BitSource:
    """Base class: draw bits and count them."""

    def __init__(self):
        self.bits_drawn = 0

    def draw(self, count: int, phase: str = "default") -> str:
        if count < 0:
            raise ValueError("cannot draw a negative number of bits")
        bits = self._pull(count, phase)
        self.bits_drawn += count
        return bits

    def _pull(self, count: int, phase: str) -> str:
        raise NotImplementedError


class TapeSource(BitSource):
    def __init__(self, bits: str):
        super().__init__()
        if bits.strip("01"):
            raise ValueError("tape must contain only '0' and '1'")
        self.bits = bits
        self.position = 0

    def _pull(self, count, phase):
        if self.position + count > len(self.bits):
            raise TapeExhausted(phase, count, len(self.bits) - self.position)
        out = self.bits[self.position : self.position + count]
        self.position += count
        return out


class SystemSource(BitSource):
    def __init__(self):
        super().__init__()
        self._buffer = ""

    def _pull(self, count, phase):
        while len(self._buffer) < count:
            self._buffer += _bytes_to_bits(os.urandom(64))
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out


class CounterSource(BitSource):
    def __init__(self, master: bytes, index: int = 0):
        super().__init__()
        self.master = master
        self.index = index
        self._block = 0
        self._buffer = ""

    def _pull(self, count, phase):
        while len(self._buffer) < count:
            digest = hashlib.sha256(
                self.master + self.index.to_bytes(8, "big") + self._block.to_bytes(8, "big")
            ).digest()
            self._block += 1
            self._buffer += _bytes_to_bits(digest)
        out, self._buffer = self._buffer[:count], self._buffer[count:]
        return out


def bits_to_int(bits: str) -> int:
    """Little-endian decode: bits[i] contributes 2**i."""
    if bits.strip("01"):
        raise ValueError("bits must contain only '0' and '1'")
    return int(bits[::-1] or "0", 2)


def int_to_bits(value: int, width: int) -> str:
    """Little-endian encode into exactly width bits; inverse of bits_to_int."""
    if value < 0 or value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    # a sentinel bit above the top keeps the leading zeros; then drop "0b1"
    return bin(value | 1 << width)[:2:-1]


def _bytes_to_bits(data: bytes) -> str:
    """Per-byte LSB first, which is little-endian over the whole byte string."""
    return int_to_bits(int.from_bytes(data, "little"), 8 * len(data))


def hex_to_bits(hex_string: str) -> str:
    """Every bit of a hex string's bytes, per-byte LSB first."""
    return _bytes_to_bits(bytes.fromhex(hex_string))


def bits_to_hex(bits: str) -> str:
    """Inverse of hex_to_bits up to the zero bits that pad the final byte."""
    return bits_to_int(bits).to_bytes((len(bits) + 7) // 8, "little").hex()


def rat_to_str(x: Fraction) -> str:
    """Serialize as 'p/q', always with an explicit denominator."""
    return f"{x.numerator}/{x.denominator}"
