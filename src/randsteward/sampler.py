"""Randomness-efficient samplers for bounded oracles.

An estimator of E[f] for f: {0,1}^n -> [0, 1], and the planner of a median
of independent values:

* median-of-batches: r batches of t0 = ceil(10/eps^2) pairwise-independent
  points each; f has variance <= 1/4, so by Chebyshev a batch mean is off
  by eps or more with probability <= 1/40, and the (lower) median of r =
  ceil(8*log2(1/delta)) batches drives the failure below delta.  Points of
  one batch are g -> a*g + b over GF(2^n'), truncated to the low n bits;
  n' = max(n, ceil(log2 t0)) so the field has room for t0 distinct g's.
  The batch seeds (a, b) are either the r successive 2*n'-bit fields of the
  sampler's seed, a in the low n' bits of each (independent, 2*n'*r bits),
  or the vertices of the Gabber-Galil walk it encodes on the 2^n' x 2^n'
  torus (walk, 2*n' + 3*(r-1) bits): the start vertex in the low 2*n'
  bits, a first, then one 3-bit label per step, low end first.  Label bit
  1 picks the coordinate that moves, by 2 * (the other one) + (label bit
  0) mod 2^n', negated when label bit 2 is set: the maps (x + 2y, y),
  (x + 2y + 1, y), (x, y + 2x), (x, y + 2x + 1) and their inverses, each
  a permutation of the torus, so every vertex of a walk from a uniform
  start is uniform.  The tests bound the walk's second eigenvalue by
  221/250.  With r = 1 both layouts are the same.

  Every entry point takes its seed as an int of at most seed_bits bits, bit
  i being the i-th bit drawn; the caller draws and decodes it.  Points are
  n-bit ints, and so is each argument of an oracle.  Points travel as
  uint64 arrays, so a run needs n <= 64; planning does not.

  An oracle has n and coset_sums(cosets), the exact sum of f over each
  affine coset c + span(basis) of a list of (c, basis) pairs, in order,
  and nothing else.  Every basis handed over is in reduced row echelon
  form: distinct leading bits below n, none of them set in another vector
  (batch_cosets makes them so, and the cube's unit basis is so); an oracle
  may rely on it.  batch_split is the one split loop, under batch_sums
  here and under the GL matrix path (fourier._cube_matrix_sums), which
  sums a small cube's multiplicities times its value table instead of
  calling an oracle.  batch_cosets splits the map g -> a*g into a
  multiplicity of the whole cube and its cosets below full rank; the split
  depends on a alone, and the batch a*g + b is the same cosets with every
  offset moved by b.  So batch_split returns the split of each distinct a
  of the run, made once, and each batch's (a, b mod 2^n); batch_sums
  expands them into every batch's cosets.  The columns a * x^i and the
  block offsets that batch_cosets eliminates are linear in a, so it reads
  both from byte tables, one entry per byte of a.  The tables, with the
  rest of what the splits of a plan (t0, field_bits, n) share, make the
  plan's split layout: built at the plan's first split, kept in a bounded
  cache (_split_tables), and fetched once per run by batch_split, which
  hands it to every split of the run.  A run makes one coset_sums call, on
  every partial coset of the run and, where some batch has a whole-cube
  multiplicity, the cube (0, (1, 2, ..., 2^(n-1))) last, so the cube is
  summed once per run.  A sum may be an int, a Fraction or an int64 array
  of one sum per coordinate.  The base Oracle stacks the cosets of one
  rank into one point array (_stacked_chunks) and evaluates it through
  eval_ints in passes of at most 2^TEMP_BITS points.  Values are summed
  exactly (_exact_sums): an integer or bool array by numpy where no
  partial sum can leave int64, any other array value by value, each as its
  exact Fraction.  Two oracles sum cosets their own way:
  fourier._WeightOracle, by rank through a histogram or the Walsh dual,
  and circuits._CircuitOracle, from one evaluation of a small cube as a
  2^n-bit int or bit-sliced at 64 points to a uint64 word, never building
  a point array.  run_sampler returns the lower median of the exact sums
  divided once by t0.

* median_reps(delta): the fewest r independent values, each off with
  probability at most p = 1/3, whose lower median is off with probability
  at most delta.  The lower median (index (r-1)//2 of the sorted values) is
  off only if floor((r+1)/2) of the values are off, so r is the smallest
  with P[Bin(r, p) >= floor((r+1)/2)] <= delta, summed exactly in
  rationals.  The tail is not monotone in r (an even r is no better than
  r - 1), so every r is tried upward from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import gf2
from .randomness import rat_to_str

MODES = ("walk", "independent")

BATCH_POINTS_FACTOR = 10  # t0 = ceil(10 / eps^2): batch failure <= 1/40
MEDIAN_REPS_FACTOR = 8  # r = ceil(8 * log2(1/delta))
VALUE_MISS = Fraction(1, 3)  # median_reps: each value is off with at most this probability
TEMP_BITS = 16  # a coset pass builds at most 2^TEMP_BITS points or terms at once


def lower_median(values: Sequence):
    if not values:
        raise ValueError("median of empty sequence")
    return sorted(values)[(len(values) - 1) // 2]


def median_reps(delta: Fraction) -> int:
    """The smallest r with P[Bin(r, 1/3) >= floor((r+1)/2)] <= delta."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    p = VALUE_MISS
    r = 1
    while sum(
        math.comb(r, j) * p**j * (1 - p) ** (r - j) for j in range((r + 1) // 2, r + 1)
    ) > delta:
        r += 1
    return r


def _ceil_log2(q: Fraction) -> int:
    """The smallest L >= 0 with 2^L >= q (q > 0), so 0 for q <= 1:
    the bit length of ceil(q) - 1."""
    if q <= 0:
        raise ValueError("argument must be positive")
    return (-(-q.numerator // q.denominator) - 1).bit_length()


def _exact_sums(rows: np.ndarray) -> list:
    """The exact sum of each row of oracle values.  An integer or bool array
    is summed by numpy where no partial sum can leave int64 (row length
    times the largest |value| below 2^63); anything else value by value,
    numpy scalars as Python ones (so np.bool_ adds as 0/1) and a non-int as
    its exact Fraction."""
    if rows.dtype.kind in "biu" and rows.size:
        top = max(int(rows.max()), -int(rows.min()))
        if top * rows.shape[-1] < 1 << 63:
            return rows.sum(axis=-1, dtype=np.int64).tolist()
    return [
        sum(v if isinstance(v, int) else Fraction(v)
            for v in (x.item() if isinstance(x, np.generic) else x for x in row))
        for row in rows.tolist()
    ]


@dataclass(frozen=True)
class SamplerPlan:
    n: int
    epsilon: Fraction
    delta: Fraction
    mode: str
    t0: int
    r: int
    field_bits: int

    @property
    def seed_bits(self) -> int:
        if self.mode == "independent":
            return 2 * self.field_bits * self.r
        return 2 * self.field_bits + 3 * (self.r - 1)

    @property
    def queries(self) -> int:
        return self.t0 * self.r

    def to_dict(self) -> dict:
        return {
            "n": self.n, "epsilon": rat_to_str(self.epsilon), "delta": rat_to_str(self.delta),
            "mode": self.mode, "t0": self.t0, "r": self.r, "field_bits": self.field_bits,
            "seed_bits": self.seed_bits, "queries": self.queries,
            "cube_points": 1 << self.n,
        }


def plan_sampler(n: int, epsilon: Fraction, delta: Fraction, mode: str = "walk") -> SamplerPlan:
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    t0 = math.ceil(BATCH_POINTS_FACTOR / epsilon**2)
    r = max(1, _ceil_log2((1 / delta) ** MEDIAN_REPS_FACTOR))  # ceil(8 * log2(1/delta))
    field_bits = max(n, (t0 - 1).bit_length())
    return SamplerPlan(
        n=n, epsilon=epsilon, delta=delta, mode=mode, t0=t0, r=r, field_bits=field_bits
    )


class Oracle:
    """The pointwise base of the oracle protocol: coset_sums evaluates
    eval_ints on every point of every coset, stacked by rank."""

    def coset_sums(self, cosets: list[tuple[int, tuple[int, ...]]]) -> list:
        sums = [0] * len(cosets)
        for ks, points in _stacked_chunks(cosets, TEMP_BITS):
            values = self.eval_ints(points.ravel()).reshape(points.shape)
            for k, part in zip(ks.tolist(), _exact_sums(values)):
                sums[k] += part
        return sums


class FnOracle(Oracle):
    """Adapter running a callable on n-bit ints pointwise."""

    def __init__(self, n: int, fn: Callable[[int], object]):
        self.n = n
        self.fn = fn

    def eval_ints(self, xs: np.ndarray) -> np.ndarray:
        """fn at each point, in an object array."""
        return np.array([self.fn(int(x)) for x in xs], dtype=object)


@lru_cache(maxsize=32)
def _split_tables(t0: int, field_bits: int, n: int) -> tuple:
    """The plan's split layout, all that its splits share: (t0,
    field_bits, n, tables, steps, shift).  Entry v of byte table i packs,
    n bits each, the products (a * g) mod 2^n for a = v * 2^(8i) and each
    g of the split: the columns g = x^j for j < min(t0.bit_length(),
    field_bits), then one block offset per set bit j of t0, ascending, g =
    the bits of t0 above j.  A packing is linear in a, so the one of any a
    < 2^field_bits is the xor of one entry per byte of a, and each entry
    is the xor of the packings of the unit multipliers x^k, where g * x^k
    = powers(g)[k].  steps holds, for each bit j < t0.bit_length(),
    whether a block starts at j and column j's shift in a packing (None
    past the field); shift is the offsets'.  A field of fewer than t0
    points is refused."""
    if t0 > 1 << field_bits:
        raise ValueError("field too small for t0 distinct points")
    mask = (1 << n) - 1
    cols = min(t0.bit_length(), field_bits)
    gs = [1 << j for j in range(cols)]
    gs += [t0 >> j + 1 << j + 1 for j in range(t0.bit_length()) if t0 >> j & 1]
    images = [gf2.powers(g, field_bits) for g in gs]
    units = [sum((image[k] & mask) << i * n for i, image in enumerate(images))
             for k in range(field_bits)]
    tables = []
    for low in range(0, field_bits, 8):
        table = [0]
        for unit in units[low : low + 8]:
            table += [v ^ unit for v in table]
        tables.append(tuple(table))
    steps = tuple(
        (bool(t0 >> j & 1), j * n if j < cols else None) for j in range(t0.bit_length())
    )
    return t0, field_bits, n, tuple(tables), steps, cols * n


def batch_cosets(a: int, layout: tuple) -> tuple[int, list[tuple[int, int, tuple[int, ...]]]]:
    """The map a*g (g < t0, in GF(2^field_bits)), truncated to n bits, as a
    multiset of affine cosets: the pair (whole, partial), for the plan
    (t0, field_bits, n) whose layout (_split_tables) is given.  The batch
    a*g + b is the same multiset with every offset c xored by b mod 2^n.

    {g < t0} is one dyadic block per set bit j of t0: g = base + x with
    x < 2^j and base the bits of t0 above j.  g -> (a*g) mod 2^n is
    GF(2)-linear, so a block maps onto the coset c + V, c = (a*base) mod
    2^n and V spanned by the columns (a * x^i) mod 2^n for i < j, and
    hits each point of it 2^(j - dim V) times.  V grows with j.  From the
    first set bit j* at which V has rank n on, each block is the whole cube
    2^(j - n) times, whatever its offset c: whole = (t0 >> j*) << (j* - n),
    their sum, or 0 if there is no j*.  partial is the (multiplicity, c,
    basis) triples of the blocks below j*, ascending, each basis in reduced
    row echelon form, ascending: distinct leading bits, none of which is
    set in any other basis vector.  Elimination stops at rank n.

    The columns and the offsets are linear in a, so both are read at once
    from the layout's byte tables, one entry per byte of a; a must lie in
    the field.  batch_split fetches the layout once per run.
    """
    t0, field_bits, n, tables, steps, shift = layout
    if not 0 <= a < 1 << field_bits:
        raise ValueError(f"multiplier {a} is not in GF(2^{field_bits})")
    packed = 0
    for i, table in enumerate(tables):
        packed ^= table[a >> 8 * i & 255]
    mask = (1 << n) - 1
    pivots = [0] * (n + 1)  # pivots[k]: the eliminated column of bit length k, or 0
    rank = whole = 0
    blocks = []  # (multiplicity, basis) of each block below full rank, ascending
    for j, (block, column) in enumerate(steps):
        if block:
            if rank == n:
                whole = (t0 >> j) << (j - n)
                break
            blocks.append((1 << (j - rank), _reduced(pivots)))
        v = packed >> column & mask if rank < n and column is not None else 0  # column j
        while v:
            k = v.bit_length()
            if not pivots[k]:
                pivots[k] = v
                rank += 1
                break
            v ^= pivots[k]
    offsets = packed >> shift
    return whole, [
        (mult, offsets >> i * n & mask, basis) for i, (mult, basis) in enumerate(blocks)
    ]


def _reduced(pivots: list[int]) -> tuple[int, ...]:
    """The reduced row echelon form, ascending, of echelon vectors indexed
    by their bit lengths (0 where there is none)."""
    basis: list[int] = []
    for v in pivots:  # each lead is above those already reduced
        if v:
            for w in basis:
                if v >> (w.bit_length() - 1) & 1:
                    v ^= w
            basis.append(v)
    return tuple(basis)


def _by_rank(cosets: list[tuple[int, tuple[int, ...]]]) -> dict[int, list[int]]:
    """The positions of the cosets, grouped by the rank of their bases."""
    groups: dict[int, list[int]] = {}
    for k, (_, basis) in enumerate(cosets):
        groups.setdefault(len(basis), []).append(k)
    return groups


def _stacked_chunks(cosets: list[tuple[int, tuple[int, ...]]], chunk_bits: int):
    """The points of the affine cosets c + span(basis), stacked by rank.

    Yields (ks, points): points is a (R, 2^b) uint64 array, b = min(rank,
    chunk_bits), whose row i holds 2^b points of cosets[ks[i]], and R * 2^b
    <= 2^chunk_bits.  The cosets of one rank become one row each by b
    XOR-doublings with their low basis vectors; a coset of rank above
    chunk_bits is first split into 2^(rank - b) rows by its top ones.
    """
    for rank, group in _by_rank(cosets).items():
        b = min(rank, chunk_bits)
        bases = np.array([cosets[k][1] for k in group], dtype=np.uint64).reshape(len(group), rank)
        starts = np.array([cosets[k][0] for k in group], dtype=np.uint64)[:, None]
        for j in range(b, rank):
            starts = np.concatenate([starts, starts ^ bases[:, j, None]], axis=1)
        split = starts.shape[1]
        ks = np.repeat(np.array(group), split)
        starts = starts.reshape(-1, 1)
        low = np.repeat(bases[:, :b], split, axis=0)
        step = 1 << (chunk_bits - b)
        for i in range(0, ks.size, step):
            points = starts[i : i + step]
            for j in range(b):
                points = np.concatenate([points, points ^ low[i : i + step, j, None]], axis=1)
            yield ks[i : i + step], points


def check_runnable(n: int) -> None:
    """Refuse a run on more than 64 bits: sampler points are uint64."""
    if n > 64:
        raise ValueError(f"sampler points are uint64, so n={n} > 64 cannot be run")


def batch_split(
    plan: SamplerPlan, seed: int
) -> tuple[dict[int, tuple[int, list]], list[tuple[int, int]]]:
    """The run's batches as cosets: the (whole, partial) split of a*g for
    each distinct multiplier a of the run (batch_cosets, once per a), and
    each batch's (a, b mod 2^n), in batch order.  Batch a*g + b is the
    split of a with every partial offset xored by b mod 2^n.  The plan's
    split layout is fetched once, for every split of the run."""
    check_runnable(plan.n)
    seeds = _batch_seeds(plan, seed)
    layout = _split_tables(plan.t0, plan.field_bits, plan.n)
    mask = (1 << plan.n) - 1
    splits = {}
    batches = []
    for a, b in seeds:
        if a not in splits:
            splits[a] = batch_cosets(a, layout)
        batches.append((a, b & mask))
    return splits, batches


def batch_sums(plan: SamplerPlan, oracle, seed: int) -> list:
    """The r exact batch sums of an oracle on plan.n bits, from one seed."""
    if oracle.n != plan.n:
        raise ValueError(f"oracle has n={oracle.n}, the plan n={plan.n}")
    splits, batches = batch_split(plan, seed)
    cosets = [(c ^ b, basis) for a, b in batches for _, c, basis in splits[a][1]]
    cube = any(whole for whole, _ in splits.values())
    if cube:  # the cube, at any offset, as the call's last coset
        cosets.append((0, tuple(1 << i for i in range(plan.n))))
    part_sums = oracle.coset_sums(cosets)
    total = part_sums.pop() if cube else 0
    parts = iter(part_sums)
    sums = []
    for a, _ in batches:
        whole, partial = splits[a]
        batch = whole * total if whole else 0
        for mult, _, _ in partial:
            batch += mult * next(parts)
        sums.append(batch)
    return sums


def run_sampler(plan: SamplerPlan, oracle, seed: int) -> Fraction:
    """The estimate of E[f]: the lower median of the batch sums over t0."""
    return Fraction(lower_median(batch_sums(plan, oracle, seed)), plan.t0)


def _batch_seeds(plan: SamplerPlan, seed: int) -> list[tuple[int, int]]:
    """The r batch seeds (a, b) that the plan's seed encodes."""
    if seed < 0 or seed >> plan.seed_bits:
        raise ValueError(f"seed must fit in {plan.seed_bits} bits")
    nf = plan.field_bits
    if plan.mode == "independent":
        mask = (1 << nf) - 1
        return [(seed >> 2 * nf * i & mask, seed >> (2 * i + 1) * nf & mask)
                for i in range(plan.r)]
    return _walk_seeds(seed, nf, plan.r - 1)


def _walk_seeds(seed: int, half: int, steps: int) -> list[tuple[int, int]]:
    """The steps + 1 vertices of the walk that seed encodes on the side-2^half
    torus, in the layout and by the step rule of the module docstring."""
    mask = (1 << half) - 1
    x, y = seed & mask, seed >> half & mask
    vertices = [(x, y)]
    seed >>= 2 * half
    for _ in range(steps):
        label = seed & 7
        seed >>= 3
        if label & 2:
            step = 2 * x + (label & 1)
            y = (y - step if label & 4 else y + step) & mask
        else:
            step = 2 * y + (label & 1)
            x = (x - step if label & 4 else x + step) & mask
        vertices.append((x, y))
    return vertices
