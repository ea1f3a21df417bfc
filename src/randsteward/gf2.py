"""Binary-field arithmetic on Python ints (bit i = coefficient of x^i).

field_poly(m) is the GF(2^m) modulus: the smallest irreducible polynomial
of degree m, found by scanning upward from x^m with Rabin's test: f is
irreducible iff x^(2^m) = x (mod f) and gcd(x^(2^d) - x, f) = 1 for every
proper divisor d of m.

powers(a, m) is the one GF(2^m) multiplier: the images a * x^i of the unit
vectors, by shift and reduce, so that a*g is their xor over the bits of g.
The extractor calls it on its powers of u.  The sampler's g -> a*g + b
reads byte tables built once per plan for the unit multipliers x^k, from
g * x^k = powers(g, m)[k], since its columns a * x^i are linear in a too.
"""

from __future__ import annotations

from functools import lru_cache


def pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def pmod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a and a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def is_irreducible(f: int) -> bool:
    m = f.bit_length() - 1
    if m < 1:
        return False
    squares = [pmod(0b10, f)]  # x^(2^d) mod f
    for _ in range(m):
        squares.append(pmod(pmul(squares[-1], squares[-1]), f))
    if squares[m] != squares[0]:
        return False
    return all(pgcd(squares[d] ^ 0b10, f) == 1 for d in range(1, m) if m % d == 0)


@lru_cache(maxsize=None)
def field_poly(m: int) -> int:
    """Smallest irreducible polynomial of degree m over GF(2)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    for f in range(1 << m, 1 << (m + 1)):
        if is_irreducible(f):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")


def powers(a: int, m: int) -> list[int]:
    """a * x^i in GF(2^m) for i < m: g -> a*g on the unit vectors."""
    poly = field_poly(m)
    top = 1 << m
    out = []
    cur = a
    for _ in range(m):
        out.append(cur)
        cur <<= 1
        if cur & top:
            cur ^= poly
    return out
