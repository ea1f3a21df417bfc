"""Adaptive owners that stress stewards.

An owner is a callable (round index, response history) -> ConcentratedFn.
Three stressors:

* `constant_owner` -- point masses, the friendly baseline: every steward
  answers within its error bound, and certification never aborts.

* `boundary_owner` -- concentration points sitting just below grid-cell
  boundaries, with an input-dependent jitter of at most epsilon.  The raw
  value W then lands on either side of a rounding decision depending on the
  sample, so the answer genuinely varies across tapes; the error bound still
  holds because W always stays epsilon-close to mu.

* `extracting_owner` -- the reuse-breaker.  Round 1 asks an injective
  function whose value is the sample's binary expansion scaled below
  epsilon, concentrated at 0 with no failure probability.  Any steward that
  returns raw values hands back f(X), which the owner decodes to recover X
  exactly; round 2 then asks a function that is zero everywhere except a
  single 2*epsilon'-spike at the recovered point -- concentrated at 0 up to
  probability 2^-n, yet guaranteed to blow the error bound when the steward
  reuses the same X.  Rounded answers are grid midpoints, which never decode,
  so the main steward shrugs it off.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .steward import ConcentratedFn

Owner = Callable[[int, list], ConcentratedFn]


def _as_vector(mu, d: int) -> tuple[Fraction, ...]:
    if isinstance(mu, (int, Fraction, float)):
        vec = (Fraction(mu),) + (Fraction(0),) * (d - 1)
    else:
        vec = tuple(Fraction(v) for v in mu)
    if len(vec) != d:
        raise ValueError(f"mu has {len(vec)} coordinates, expected {d}")
    return vec


def constant_owner(mus: Sequence, d: int = 1) -> Owner:
    """Round i asks the point mass at mus[i % len(mus)] (no adaptivity)."""
    if not mus:
        raise ValueError("need at least one mu")
    vectors = [_as_vector(mu, d) for mu in mus]

    def choose(round_index: int, history: list) -> ConcentratedFn:
        mu = vectors[round_index % len(vectors)]
        return ConcentratedFn(
            oracle=lambda bits, _mu=mu: _mu,
            epsilon=Fraction(0),
            delta=Fraction(0),
            mu=mu,
        )

    return choose


def _unit_fraction(bits: str) -> Fraction:
    """The sample read as a dyadic fraction in [0, 1)."""
    n = len(bits)
    value = sum(1 << (n - 1 - j) for j, b in enumerate(bits) if b == "1")
    return Fraction(value, 1 << n)


def boundary_owner(epsilon, d: int = 1) -> Owner:
    """Concentration points epsilon below cell boundaries, jittered by the sample.

    Cell length L = 2*(d+1)*epsilon matches a steward running with the same
    epsilon and d0 = d.  Coordinate j of round i concentrates at (i+j+1)*L -
    epsilon; the jitter epsilon*(2*frac(X) - 1) keeps every value within
    epsilon of mu, so the functions are (epsilon, 0)-concentrated while still
    forcing sample-dependent rounding decisions.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    cell = 2 * (d + 1) * epsilon

    def choose(round_index: int, history: list) -> ConcentratedFn:
        mu = tuple((round_index + j + 1) * cell - epsilon for j in range(d))

        def oracle(bits: str, _mu=mu):
            jitter = epsilon * (2 * _unit_fraction(bits) - 1)
            return tuple(m + jitter for m in _mu)

        return ConcentratedFn(oracle=oracle, epsilon=epsilon, delta=Fraction(0), mu=mu)

    return choose


def extracting_owner(n: int, epsilon, d: int = 1) -> Owner:
    """Decode-and-strike owner against stewards that leak their sample.

    epsilon must be a power of two (the embedding writes log2(1/epsilon)
    zeroes, then the sample's bits, into a binary expansion).
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0 or epsilon.numerator != 1 or epsilon.denominator & (epsilon.denominator - 1):
        raise ValueError("epsilon must be a power of two (1/2^e)")
    if n < 1:
        raise ValueError("n must be >= 1")
    e = epsilon.denominator.bit_length() - 1  # epsilon = 2^-e
    spike = 2 * (3 * d + 5) * epsilon  # twice the error bound of a d0 = d steward
    zero_vec = (Fraction(0),) * d

    def embed(bits: str) -> Fraction:
        # binary expansion: e zeroes, then the sample's bits; always < epsilon
        return sum(
            (Fraction(1, 1 << (e + 1 + j)) for j, b in enumerate(bits) if b == "1"),
            Fraction(0),
        )

    def decode(value: Fraction) -> str | None:
        scaled = value * (1 << (e + n))
        if scaled.denominator != 1 or not 0 <= scaled.numerator < (1 << n):
            return None
        m = scaled.numerator
        return "".join("1" if m >> (n - 1 - j) & 1 else "0" for j in range(n))

    def zero_query() -> ConcentratedFn:
        return ConcentratedFn(
            oracle=lambda bits: zero_vec,
            epsilon=Fraction(0),
            delta=Fraction(0),
            mu=zero_vec,
        )

    def choose(round_index: int, history: list) -> ConcentratedFn:
        if round_index == 0:

            def oracle(bits: str):
                return (embed(bits),) + (Fraction(0),) * (d - 1)

            return ConcentratedFn(
                oracle=oracle, epsilon=epsilon, delta=Fraction(0), mu=zero_vec
            )
        if round_index == 1:
            target = decode(Fraction(history[0][0]))
            if target is None:
                return zero_query()

            def oracle(bits: str, _t=target):
                hit = spike if bits == _t else Fraction(0)
                return (hit,) + (Fraction(0),) * (d - 1)

            return ConcentratedFn(
                oracle=oracle,
                epsilon=Fraction(0),
                delta=Fraction(1, 1 << n),
                mu=zero_vec,
            )
        return zero_query()

    return choose
