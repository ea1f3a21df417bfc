"""Seeded extractors realized as expander walks.

`plan_extractor(s, t, beta)` sizes a walk extractor whose output on any
input distribution with entropy deficit at most t is beta-close to uniform
even on average over side information -- the "average-case" form needed when
an adversary conditions on what it has already seen.  The plan buys the
average-case property from the ordinary one: an ordinary extractor for
deficit t + log2(2/beta) with error beta/2 is automatically average-case for
deficit t with error beta, so the planner inflates the deficit accordingly
(plus one for the padding bit when s is odd) and halves the error target.

The walk length comes from the spectral mixing bound

    TV(endpoint, uniform) <= (1/2) * lam^len * 2^(t'/2)

for a deficit-t' start on a graph with singular-value bound lam.  We require
lam^len * 2^(t'/2) <= beta/4 (a factor-two margin under the beta/2 target),
i.e. the smallest len with

    len >= (t'/2 + log2(2/beta) + 1) / log2(1/lam).

That comparison is evaluated in exact integer arithmetic by squaring:
lam^(2*len) * 32 * 2^(t + pad) <= beta^3.  Each step consumes 3 seed bits
(degree 8), so the seed is 3 * walk_len bits.  test_extract checks this
planning rule against exhaustively computed TV distances at small s before
anything else relies on it.  The plan is pure and its loop multiplies
integers of about 1.5k bits, so it is memoized (a bounded cache: a session
plans one extractor per generator level).

`extract_int` is the walk on ints, whose bit i is the i-th bit of the
input or seed: x (s bits) is the start vertex and y (seed_len bits) the
labels, both in the expander's seed layout with half = ceil(s/2), and the
endpoint is written back the same way, masked to s bits.

`FreshExtractorParams(s)` is the `fresh` backend's degenerate extractor,
Ext(x, y) = y; like a planned walk it needs s >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import expander


@dataclass(frozen=True)
class ExtractorParams:
    """Walk extractor: s bits in, s bits out, 3*walk_len seed bits."""

    s: int
    t: int
    beta: Fraction
    walk_len: int

    @property
    def seed_len(self) -> int:
        return 3 * self.walk_len


@dataclass(frozen=True)
class FreshExtractorParams:
    """Degenerate extractor that outputs its seed: Ext(x, y) = y.

    Seed length equals the output length, so schedules built on it recycle
    nothing; it exists as the exact baseline for differential testing.
    """

    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("output length s must be >= 1")

    @property
    def seed_len(self) -> int:
        return self.s


@lru_cache(maxsize=256)
def plan_extractor(s: int, t: int, beta: Fraction) -> ExtractorParams:
    """Smallest conformant walk extractor for deficit t and error beta."""
    if s < 1:
        raise ValueError("output length s must be >= 1")
    if t < 0:
        raise ValueError("entropy deficit t must be >= 0")
    beta = Fraction(beta)
    if not 0 < beta <= 1:
        raise ValueError(f"error beta must be in (0, 1], got {beta}")
    pad = s % 2
    lam = expander.SECOND_EIGENVALUE_BOUND
    # lam^(2L) * 32 * 2^(t+pad) <= beta^3, cleared to integers.
    lhs_num = lam.numerator**2 * 32 * 2 ** (t + pad) * beta.denominator**3
    lhs_den = lam.denominator**2
    rhs = beta.numerator**3
    walk_len = 1
    while lhs_num > rhs * lhs_den:
        walk_len += 1
        lhs_num *= lam.numerator**2
        lhs_den *= lam.denominator**2
    return ExtractorParams(s=s, t=t, beta=beta, walk_len=walk_len)


def extract_int(params, x: int, y: int) -> int:
    """Apply the planned extractor to ints x (params.s bits) and y (seed_len bits)."""
    if isinstance(params, FreshExtractorParams):
        return y
    half = (params.s + 1) // 2
    g = expander.GabberGalilGraph(1 << half)
    start = expander.seed_start(x, half)
    a, b = expander.walk(g, start, expander.seed_labels(y, params.walk_len))
    return (a | b << half) & ((1 << params.s) - 1)

