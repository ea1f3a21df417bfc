"""Seed-doubling generator fooling block decision trees.

A block decision tree reads its input in k blocks of n bits and takes one of
sigma children per block; tests/trees.py holds the exact tree model that the
generator is tested against.

The construction is recursive.  G_0 is the identity on n bits.  Level i+1
splits its seed into x (the level-i seed, s_i bits) and a short fresh part y,
and outputs

    G_{i+1}(x, y) = G_i(x) || G_i(Ext_i(x, y))

so each level doubles the number of n-bit blocks.  The final output is
truncated to n*k bits.

Error.  Ext_i is an average-case extractor with entropy deficit
t_i = ceil(2^i * log2(sigma)), the number of bits that a depth-2^i tree over
sigma symbols can learn about x, and error beta_i.  Against such a tree the
left half G_i(x) loses err_i, swapping Ext_i(x, y) for uniform bits given
what the left half showed loses beta_i, and G_i on those uniform bits loses
err_i again, so err_{i+1} <= 2*err_i + beta_i with err_0 = 0, and the
generator's error is at most sum_i 2^(levels-1-i) * beta_i.

Planning.  `build_schedule` fixes every length up front, so expansion is
deterministic and the bit budget is auditable before any seed is drawn.
Every backend splits gamma by weight, beta_i = gamma / (levels *
2^(levels-1-i)): each level's term of the sum above is gamma/levels, and the
terms add up to exactly gamma.  The default "auto" backend then keeps a
level's seed as small as it can:

- A level is the cheaper of two extractors.  Ext_i(x, y) = y
  (FreshExtractorParams) costs s_i bits and adds error 0; the small-bias
  extractor that extract.plan_extractor plans for (s_i, t_i, beta_i) costs
  2m_i bits.  Level i takes fresh bits whenever s_i <= 2m_i.
- Fresh levels cost n bits per block, n*2^levels in all, which exceeds n*k
  when k is not a power of two.  A plan that still draws more than n*k bits
  becomes the identity on n*k uniform bits (levels = 0, error 0), so the
  seed never exceeds the naive n*k.

The "small-bias" backend takes the extractor at every level and "fresh"
takes y at every level; neither is capped.

`expand` maps an int seed to an int output, bit i being the i-th bit
drawn: x is the low s_i bits of a level-(i+1) seed, y the rest, and G_i(x)
fills the low n*2^i output bits, so block j of the output is bits
j*n .. (j+1)*n - 1; `split_blocks` cuts an output into its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .extract import ExtractorParams, FreshExtractorParams, extract_int, plan_extractor
from .randomness import rat_to_str

BACKENDS = ("auto", "small-bias", "fresh")


@dataclass(frozen=True)
class PrgSchedule:
    n: int
    k: int
    sigma: int
    gamma: Fraction
    backend: str
    levels: int
    betas: tuple[Fraction, ...]  # betas[i] = level i's share of gamma
    deficits: tuple[int, ...]  # deficits[i] = t_i, whichever extractor level i takes
    extractors: tuple[ExtractorParams | FreshExtractorParams, ...]
    s: tuple[int, ...]  # s[i] = seed length entering level i; s[levels] = total (n*k if capped)

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
                "extractor": "fresh" if isinstance(params, FreshExtractorParams) else "small-bias",
                "beta": rat_to_str(self.betas[i]),
                "s_in": self.s[i],
                "deficit": self.deficits[i],
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
            "seed_len": self.seed_len,
            "output_len": self.output_len,
            "schedule": levels,
        }


def build_schedule(
    n: int,
    k: int,
    sigma: int,
    gamma: Fraction,
    backend: str = "auto",
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
    betas = tuple(gamma / (levels << (levels - 1 - i)) for i in range(levels))
    # t_i = ceil(2^i * log2 sigma) = ceil(log2 sigma^(2^i)), exactly.
    deficits = tuple((sigma ** (1 << i) - 1).bit_length() for i in range(levels))
    extractors: list[ExtractorParams | FreshExtractorParams] = []
    s = [n]
    for i, (beta, t_i) in enumerate(zip(betas, deficits)):
        params: ExtractorParams | FreshExtractorParams = FreshExtractorParams(s=s[i])
        if backend != "fresh":
            small_bias = plan_extractor(s=s[i], t=t_i, beta=beta)
            if backend == "small-bias" or small_bias.seed_len < s[i]:
                params = small_bias
        extractors.append(params)
        s.append(s[i] + params.seed_len)
    if backend == "auto" and s[-1] > n * k:
        levels, betas, deficits, extractors, s = 0, (), (), [], [n * k]
    return PrgSchedule(
        n=n, k=k, sigma=sigma, gamma=gamma, backend=backend,
        levels=levels, betas=betas, deficits=deficits,
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


def split_blocks(value: int, n: int, k: int) -> list[int]:
    """The k n-bit blocks of an nk-bit int, block j in bits j*n .. (j+1)*n - 1."""
    if value < 0 or value >> (n * k):
        raise ValueError(f"{value} does not fit in {n * k} bits")
    mask = (1 << n) - 1
    return [value >> (i * n) & mask for i in range(k)]
