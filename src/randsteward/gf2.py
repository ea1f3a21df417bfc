"""Binary-field arithmetic on Python ints (bit i = coefficient of x^i).

field_poly(m) is the GF(2^m) modulus behind the sampler's map g -> a*g + b,
which sampler._powers multiplies by shift and reduce: the smallest
irreducible polynomial of degree m, found by scanning upward from x^m with
Rabin's test: f is irreducible iff x^(2^m) = x (mod f) and
gcd(x^(2^(m/p)) - x, f) = 1 for every prime p | m.
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


def _x_to_power_of_two(e: int, f: int) -> int:
    """x^(2^e) mod f."""
    r = pmod(0b10, f)
    for _ in range(e):
        r = pmod(pmul(r, r), f)
    return r


def _prime_factors(m: int) -> list[int]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def is_irreducible(f: int) -> bool:
    m = f.bit_length() - 1
    if m < 1:
        return False
    if _x_to_power_of_two(m, f) != pmod(0b10, f):
        return False
    for p in _prime_factors(m):
        if pgcd(_x_to_power_of_two(m // p, f) ^ 0b10, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def field_poly(m: int) -> int:
    """Smallest irreducible polynomial of degree m over GF(2)."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    for f in range(1 << m, 1 << (m + 1)):
        if is_irreducible(f):
            return f
    raise AssertionError("unreachable: irreducibles of every degree exist")

