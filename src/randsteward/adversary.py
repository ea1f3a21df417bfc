"""Adaptive owners that stress stewards.

An owner is a callable (round index, response history) -> ConcentratedFn,
and each oracle it returns gets the round's sample as an n-bit int whose bit
j is the j-th bit drawn.  The boundary and extracting owners read that int
as the binary fraction sum_j bit_j * 2^-(j+1), first bit drawn first, which
needs no n.  Three stressors:

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

from .steward import ConcentratedFn, error_factor

Owner = Callable[[int, list], ConcentratedFn]


def _as_vector(mu, d: int) -> tuple[Fraction, ...]:
    if isinstance(mu, (int, Fraction, float)):
        vec = (Fraction(mu),) + (Fraction(0),) * (d - 1)
    else:
        vec = tuple(v if type(v) is Fraction else Fraction(v) for v in mu)
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
            oracle=lambda x, _mu=mu: _mu,
            epsilon=Fraction(0),
            delta=Fraction(0),
            mu=mu,
        )

    return choose


def _unit_parts(x: int) -> tuple[int, int]:
    """(v, width) with v / 2^width = sum_j bit_j(x) * 2^-(j+1): x's bits reversed."""
    width = x.bit_length()
    return sum(1 << (width - 1 - j) for j in range(width) if x >> j & 1), width


def _unit_fraction(x: int) -> Fraction:
    """The sample read as the dyadic fraction sum_j bit_j(x) * 2^-(j+1) in [0, 1)."""
    value, width = _unit_parts(x)
    return Fraction(value, 1 << width)


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
    p, q = epsilon.numerator, epsilon.denominator

    def choose(round_index: int, history: list) -> ConcentratedFn:
        # in units of epsilon, mu_j = (i+j+1)*2(d+1) - 1 and W_j = mu_j + 2*frac(X) - 1
        units = [(round_index + j + 1) * 2 * (d + 1) - 1 for j in range(d)]
        mu = tuple(Fraction(u * p, q) for u in units)

        def oracle(x: int):
            value, width = _unit_parts(x)
            one = 1 << width  # W_j = (u_j + 2*value/one - 1)*e, over the denominator q*one
            jitter, den = 2 * value - one, q * one
            return tuple(Fraction((u * one + jitter) * p, den) for u in units)

        return ConcentratedFn(oracle=oracle, epsilon=epsilon, delta=Fraction(0), mu=mu)

    return choose


def extracting_owner(n: int, epsilon, d: int = 1) -> Owner:
    """Decode-and-strike owner against stewards that leak their sample.

    epsilon must be a power of two (the embedding writes log2(1/epsilon)
    zeroes, then the sample's bits, first drawn first, into a binary
    expansion; decoding reads them back as an int bit-reversed over n bits
    and reverses that).
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0 or epsilon.numerator != 1 or epsilon.denominator & (epsilon.denominator - 1):
        raise ValueError("epsilon must be a power of two (1/2^e)")
    if n < 1:
        raise ValueError("n must be >= 1")
    e = epsilon.denominator.bit_length() - 1  # epsilon = 2^-e
    spike = 2 * error_factor(d) * epsilon  # twice the error bound of a d0 = d steward
    zero_vec = (Fraction(0),) * d

    def embed(x: int) -> Fraction:
        # binary expansion: e zeroes, then the sample's bits; always < epsilon
        return _unit_fraction(x) / (1 << e)

    def decode(value: Fraction) -> int | None:
        scaled = value * (1 << (e + n))
        if scaled.denominator != 1 or not 0 <= scaled.numerator < (1 << n):
            return None
        m = scaled.numerator
        return sum(1 << j for j in range(n) if m >> (n - 1 - j) & 1)

    def zero_query() -> ConcentratedFn:
        return ConcentratedFn(
            oracle=lambda x: zero_vec,
            epsilon=Fraction(0),
            delta=Fraction(0),
            mu=zero_vec,
        )

    def choose(round_index: int, history: list) -> ConcentratedFn:
        if round_index == 0:

            def oracle(x: int):
                return (embed(x),) + (Fraction(0),) * (d - 1)

            return ConcentratedFn(
                oracle=oracle, epsilon=epsilon, delta=Fraction(0), mu=zero_vec
            )
        if round_index == 1:
            target = decode(Fraction(history[0][0]))
            if target is None:
                return zero_query()

            def oracle(x: int, _t=target):
                hit = spike if x == _t else Fraction(0)
                return (hit,) + (Fraction(0),) * (d - 1)

            return ConcentratedFn(
                oracle=oracle,
                epsilon=Fraction(0),
                delta=Fraction(1, 1 << n),
                mu=zero_vec,
            )
        return zero_query()

    return choose
