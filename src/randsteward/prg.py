"""Seed-doubling generator fooling block decision trees.

The construction is recursive.  G_0 is the identity on n bits.  Level i+1
splits its seed into x (the level-i seed, s_i bits) and a short fresh part y,
and outputs

    G_{i+1}(x, y) = G_i(x) || G_i(Ext_i(x, y))

so each level doubles the number of n-bit blocks while only paying for an
extractor seed.  Ext_i is an average-case extractor whose entropy deficit
t_i = ceil(2^i * log2(sigma)) matches the number of symbols a depth-2^i tree
can have learned about x, and whose error beta = gamma / 2^levels makes the
per-level losses sum to the target gamma.  The final output is truncated to
n*k bits.  The "small-bias" backend plans Ext_i with extract.plan_extractor;
the "fresh" one takes Ext_i(x, y) = y.

`build_schedule` fixes every length up front, so expansion is deterministic
and the bit budget is auditable before any seed is drawn.

`expand` maps an int seed to an int output, bit i being the i-th bit
drawn: x is the low s_i bits of a level-(i+1) seed, y the rest, and G_i(x)
fills the low n*2^i output bits, so block j of the output is bits
j*n .. (j+1)*n - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .extract import ExtractorParams, FreshExtractorParams, extract_int, plan_extractor
from .randomness import rat_to_str

BACKENDS = ("small-bias", "fresh")


@dataclass(frozen=True)
class PrgSchedule:
    n: int
    k: int
    sigma: int
    gamma: Fraction
    backend: str
    levels: int
    beta: Fraction
    extractors: tuple[ExtractorParams | FreshExtractorParams, ...]
    s: tuple[int, ...]  # s[i] = seed length entering level i; s[levels] = total

    @property
    def seed_len(self) -> int:
        return self.s[self.levels]

    @property
    def output_len(self) -> int:
        return self.n * self.k

    def to_dict(self) -> dict:
        levels = []
        for i, params in enumerate(self.extractors):
            entry = {
                "level": i,
                "s_in": self.s[i],
                "deficit": getattr(params, "t", None),
                "seed_bits": params.seed_len,
                "s_out": self.s[i + 1],
            }
            if isinstance(params, ExtractorParams):
                entry["field_bits"] = params.m
            levels.append(entry)
        return {
            "n": self.n,
            "k": self.k,
            "sigma": self.sigma,
            "gamma": rat_to_str(self.gamma),
            "backend": self.backend,
            "levels": self.levels,
            "beta": rat_to_str(self.beta),
            "seed_len": self.seed_len,
            "output_len": self.output_len,
            "schedule": levels,
        }


def build_schedule(
    n: int,
    k: int,
    sigma: int,
    gamma: Fraction,
    backend: str = "small-bias",
) -> PrgSchedule:
    """Plan generator lengths for k blocks of n bits against sigma-ary trees."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if sigma < 2:
        raise ValueError("sigma must be at least 2")
    gamma = Fraction(gamma)
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")

    levels = (k - 1).bit_length()  # ceil(log2 k)
    beta = gamma / (1 << levels)
    extractors: list[ExtractorParams | FreshExtractorParams] = []
    s = [n]
    for i in range(levels):
        # t_i = ceil(2^i * log2 sigma) = ceil(log2 sigma^(2^i)), exactly.
        t_i = (sigma ** (1 << i) - 1).bit_length()
        if backend == "fresh":
            params: ExtractorParams | FreshExtractorParams = FreshExtractorParams(s=s[i])
        else:
            params = plan_extractor(s=s[i], t=t_i, beta=beta)
        extractors.append(params)
        s.append(s[i] + params.seed_len)
    return PrgSchedule(
        n=n, k=k, sigma=sigma, gamma=gamma, backend=backend,
        levels=levels, beta=beta,
        extractors=tuple(extractors), s=tuple(s),
    )


def expand(schedule: PrgSchedule, seed: int) -> int:
    """Run the recursion on a seed of seed_len bits and keep the low n*k output bits."""
    if seed < 0 or seed >> schedule.seed_len:
        raise ValueError(f"seed must fit in {schedule.seed_len} bits")
    out = _expand_level(schedule, schedule.levels, seed) if schedule.levels else seed
    return out & ((1 << schedule.output_len) - 1)


def _expand_level(schedule: PrgSchedule, level: int, seed: int) -> int:
    """G_level on an int seed, level >= 1; G_0 is the identity, so it is not called."""
    s_prev = schedule.s[level - 1]
    x = seed & ((1 << s_prev) - 1)
    right = extract_int(schedule.extractors[level - 1], x, seed >> s_prev)
    left = x
    if level > 1:
        left = _expand_level(schedule, level - 1, x)
        right = _expand_level(schedule, level - 1, right)
    return left | right << (schedule.n << (level - 1))
