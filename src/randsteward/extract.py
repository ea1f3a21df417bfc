"""Seeded average-case extractors: Ext(x, (u, v)) = x XOR S(u, v).

S is the powering small-bias set of Alon, Goldreich, Hastad and Peralta
(1992): u, v in GF(2^m) and bit i of S is <u^i, v> for i < s.  For a
nonzero a in {0,1}^s, <a, S> = <sum_i a_i u^i, v> is unbiased over v unless
u is one of the at most s - 1 roots of that polynomial, so every nonzero
Fourier coefficient of S is at most eps = (s - 1)/2^m.

Error.  Let H~(X | Z) >= s - t and X_z be X given Z = z.  Adding S multiplies
the coefficients, P_out^(a) = P_Xz^(a) * P_S^(a).  By Cauchy-Schwarz,
Parseval, CP(X_z) <= 2^-H_inf(X_z) and Jensen (the root is concave), with
E_z 2^-H_inf(X_z) = 2^-H~(X | Z):

    TV_z <= 1/2 * (sum_{a != 0} P_out^(a)^2)^(1/2) <= 1/2 * eps * (2^s * CP(X_z))^(1/2),
    E_z TV_z <= 1/2 * eps * (2^s * E_z 2^-H_inf(X_z))^(1/2) <= 1/2 * eps * 2^(t/2).

`plan_extractor` keeps a factor two, 1/2 * eps * 2^(t/2) <= beta/2: the
smallest m >= 1 with (s - 1)^2 * 2^t * den(beta)^2 <= num(beta)^2 * 4^m, in
integers.  The seed is 2m bits for any s: u its low m bits, v the next m.
Ints carry bit i as the i-th bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gf2

_CHAIN_BITS = 36  # where the chain and the jump of _small_bias cost the same at m = 17


@dataclass(frozen=True)
class ExtractorParams:
    """Small-bias extractor: s bits in, s bits out, 2m seed bits."""

    s: int
    t: int
    beta: Fraction
    m: int

    @property
    def seed_len(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class FreshExtractorParams:
    """Ext(x, y) = y: s fresh bits, error 0.

    A generator level takes it whenever its small-bias seed would cost at
    least s bits (see prg), and the "fresh" backend at every level, which
    makes it the exact baseline for differential tests."""

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("output length s must be >= 1")

    @property
    def seed_len(self) -> int:
        return self.s


def plan_extractor(s: int, t: int, beta: Fraction) -> ExtractorParams:
    """The smallest field whose small-bias extractor has deficit t and error beta."""
    if s < 1:
        raise ValueError("output length s must be >= 1")
    if t < 0:
        raise ValueError("entropy deficit t must be >= 0")
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ValueError(f"error beta must be in (0, 1], got {beta}")
    # 4^m >= q = ceil(lhs / rhs) exactly when 2m >= (q - 1).bit_length()
    q = -(-((s - 1) ** 2 * 2**t * beta.denominator**2) // beta.numerator**2)
    m = max(1, ((q - 1).bit_length() + 1) // 2)
    return ExtractorParams(s=s, t=t, beta=beta, m=m)


def extract_int(params, x: int, y: int) -> int:
    """Apply the planned extractor to ints x (params.s bits) and y (seed_len bits)."""
    if x < 0 or x >> params.s:
        raise ValueError(f"input x must fit in {params.s} bits")
    if y < 0 or y >> params.seed_len:
        raise ValueError(f"seed y must fit in {params.seed_len} bits")
    if isinstance(params, FreshExtractorParams):
        return y
    return x ^ _small_bias(params.s, params.m, y & ((1 << params.m) - 1), y >> params.m)


def _small_bias(s: int, m: int, u: int, v: int) -> int:
    """S(u, v) from the powers u^r, r < b, each the last times u.

    Up to _CHAIN_BITS, b = s and bit r is parity(u^r & v).  A longer S jumps
    b = isqrt(s) bits at a time: bit jb + r is <u^r, v_j>, v_j = (M^T)^j v for
    M the product by w = u^b, and one map of v_j gives v_(j+1) in its low m
    bits and those b bits above them (its rows are w * x^i for i < m, then
    u^r)."""
    b = s if s <= _CHAIN_BITS else math.isqrt(s)
    times_u = _linear_map(gf2.powers(u, m))
    us = [1]
    for _ in range(b - 1):
        us.append(_apply(times_u, us[-1]))
    if s <= _CHAIN_BITS:
        return sum(((power & v).bit_count() & 1) << r for r, power in enumerate(us))
    step = _linear_map(_columns(gf2.powers(_apply(times_u, us[-1]), m) + us, m))
    out = 0
    for j in range(0, s, b):
        state = _apply(step, v)
        out |= state >> m << j
        v = state & ((1 << m) - 1)
    return out & ((1 << s) - 1)


def _linear_map(columns: list[int]) -> list[tuple[int, list[int]]]:
    """g -> xor of columns[k] over the set bits k of g: a 16-entry table per nibble."""
    columns = columns + [0] * (-len(columns) % 4)
    tables = []
    for shift in range(0, len(columns), 4):
        a, b, c, d = columns[shift : shift + 4]
        ab, cd = a ^ b, c ^ d
        tables.append((shift, [0, a, b, ab, c, c ^ a, c ^ b, c ^ ab,
                               d, d ^ a, d ^ b, d ^ ab, cd, cd ^ a, cd ^ b, cd ^ ab]))
    return tables


def _apply(tables: list[tuple[int, list[int]]], g: int) -> int:
    out = 0
    for shift, table in tables:
        out ^= table[g >> shift & 15]
    return out


def _columns(rows: list[int], width: int) -> list[int]:
    """The columns of a bit matrix: bit r of column k is bit k of rows[r], k < width."""
    packed = 0
    for row in reversed(rows):
        packed = packed << width | row
    text = format(packed, f"0{width * len(rows)}b")  # rows[-1] first, high bit first
    return [int(text[width - 1 - k :: width], 2) for k in range(width)]
