"""Shared builders for randomized-but-exact test instances.

`ExplicitConcentrated` is a query function with a *provable* concentration
certificate: a known mu, a jitter of at most epsilon on good inputs, and an
explicit bad set of at most floor(delta * 2^n) inputs where the function
strays.  Because the bad set is constructed, concentration is a counted
fact, not a sampled estimate, which is what the zero-tolerance criteria
need.  `TruthTableOracle` and `dump_truth_table` give a function by its
table: as a sampler oracle, and as the truth-table file the CLI reads.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from randsteward.extract import extract_int
from randsteward.fourier import _sign_table
from randsteward.sampler import Oracle, _exact_sums, _walk_seeds
from randsteward.steward import ConcentratedFn, error_factor


def walk_step(m: int, v: tuple[int, int], label: int) -> tuple[int, int]:
    """One step of the sampler's walk from v under label on the side-m torus,
    m = 2^h: the second vertex of the walk seed label << 2h | y << h | x.
    Its signature is oracles.ref_gg_neighbor's."""
    h = m.bit_length() - 1
    x, y = v
    return _walk_seeds(label << 2 * h | y << h | x, h, 1)[1]


class KeepAllSession:
    """A stand-in for steward.Session that answers 1 in each of the config's
    d coordinates and draws no bits.  Patched into fourier, it keeps every
    Goldreich-Levin candidate alive, as a failed estimate could."""

    bits_used = 0

    def __init__(self, config, source):
        self.config = config

    def answer(self, query):
        return (Fraction(1),) * self.config.d


class ExplicitConcentrated:
    """A d-dimensional query with known mu and an explicit bad set."""

    def __init__(self, n: int, d: int, epsilon: Fraction, delta: Fraction,
                 rng: random.Random, wild: Fraction | None = None):
        self.n = n
        self.d = d
        self.epsilon = Fraction(epsilon)
        self.delta = Fraction(delta)
        # mu on a fine grid so boundary cases show up
        self.mu = tuple(
            Fraction(rng.randrange(-64, 65), 16) * self.epsilon for _ in range(d)
        )
        bad_count = int(self.delta * (1 << n))  # floor: tail provably <= delta
        self.bad = frozenset(rng.sample(range(1 << n), bad_count))
        # go far out on bad inputs; default well past any steward's bound
        self.wild = Fraction(wild) if wild is not None else 100 * self.epsilon * error_factor(d)
        self.salt = rng.randrange(1 << 30)

    def _jitter(self, index: int, j: int) -> Fraction:
        # deterministic per (input, coordinate), in [-epsilon, epsilon]
        h = (index * 2654435761 + j * 40503 + self.salt) % (1 << 16)
        return self.epsilon * Fraction(h - (1 << 15), 1 << 15)

    def values(self, index: int) -> tuple[Fraction, ...]:
        if index in self.bad:
            return tuple(m + self.wild for m in self.mu)
        return tuple(self.mu[j] + self._jitter(index, j) for j in range(self.d))

    def as_query(self) -> ConcentratedFn:
        return ConcentratedFn(
            oracle=self.values, epsilon=self.epsilon, delta=self.delta, mu=self.mu
        )


class TruthTableOracle(Oracle):
    """f given as a dense table of 2^n values, indexed by little-endian ints."""

    def __init__(self, table):
        table = np.asarray(table)
        if table.ndim != 1 or table.size == 0 or table.size & (table.size - 1):
            raise ValueError("table length must be a power of two")
        self.table = table
        self.n = table.size.bit_length() - 1

    def eval_ints(self, xs: np.ndarray) -> np.ndarray:
        return self.table[np.asarray(xs, dtype=np.int64)]

    def cube_total(self):
        """The exact sum of f over the whole cube."""
        return _exact_sums(self.table[None])[0]


def dump_truth_table(f) -> str:
    """The file fourier.load_truth_table reads for a checked +-1 table f."""
    table = _sign_table(f)
    n = table.size.bit_length() - 1
    return f"n={n}\n{np.packbits(table < 0, bitorder='little').tobytes().hex()}\n"


def random_circuit(rng: random.Random, n: int, depth: int = 3) -> str:
    """A random circuit expression over x0..x{n-1}, nested at most depth deep."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([f"x{rng.randrange(n)}"] * 4 + ["0", "1"])
    if rng.random() < 0.2:
        return f"~({random_circuit(rng, n, depth - 1)})"
    left, right = random_circuit(rng, n, depth - 1), random_circuit(rng, n, depth - 1)
    return f"({left}) {rng.choice('&^|')} ({right})"


def make_owner(instances) -> object:
    """A non-adaptive owner cycling through prepared instances."""
    queries = [inst.as_query() for inst in instances]

    def choose(round_index: int, history: list) -> ConcentratedFn:
        return queries[round_index % len(queries)]

    return choose


def session_failures(transcript, mus, bound) -> int:
    """How many rounds broke the error bound against their mu."""
    count = 0
    for record, mu in zip(transcript.rounds, mus):
        err = max(abs(y - m) for y, m in zip(record.y, mu))
        if err > bound:
            count += 1
    return count


def small_bias_counts(params) -> np.ndarray:
    """How many of the 2^seed_len seeds give each S(u, v) = Ext(0, (u, v))."""
    seeds = range(1 << params.seed_len)
    return np.bincount([extract_int(params, 0, y) for y in seeds], minlength=1 << params.s)


def random_coset(rng: random.Random, width: int, rank: int) -> tuple[int, tuple[int, ...]]:
    """A random affine coset (c, basis) on width bits whose basis has the given
    rank, in reduced row echelon form, ascending: distinct leading bits, none
    of which is set in any other basis vector."""
    leads = sorted(rng.sample(range(width), rank))
    free = [f for f in range(width) if f not in leads]
    basis = tuple(
        1 << lead | sum(1 << f for f in free if f < lead and rng.getrandbits(1))
        for lead in leads
    )
    return rng.randrange(1 << width), basis
