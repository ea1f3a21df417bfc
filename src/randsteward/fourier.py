"""Finding heavy Fourier coefficients with a steward-driven prefix search.

F: {0,1}^n -> {-1, +1} is given as its truth table, index x holding F(x)
with bit i of x as input bit i.  Every entry point checks it the same way
(_sign_table): 2^n values, each exactly +1 or -1.  The paper assumes query
access to F, but the exact batch sums below read the whole table, so a
query callback would be tabulated before its first query anyway; a caller
with one passes [f(x) for x in range(1 << n)].

For such an F and a threshold theta, the goal is every x with
|F_hat(x)| >= theta, where F_hat(x) = 2^-n * sum_y F(y) * (-1)^<x, y>.  The
search grows prefixes u bits at a time (u = floor(log2(1/theta)), at least
1) and keeps a prefix p alive while the subcube weight

    W_p = sum over x extending p of F_hat(x)^2
        = E_{y, y', z} [ F(y z) F(y' z) * (-1)^<p, y xor y'> ]

appears to be at least theta^2 / 2.  Parseval caps the number of survivors,
so each of the k = ceil(n/u) levels asks for at most d = floor(2^u * 4 /
theta^2) weights at once -- one adaptive d-dimensional query per level,
answered by the steward that steward.round_budget plans for accuracy
theta^2/4, which separates weights above theta^2 from weights below
theta^2/4.  Each level's sampler is planned for half the steward's epsilon
and a 1/d share of its per-level failure, so all d estimates of a level are
good together.

Each level's query is deterministic in the steward's tape block, an int
whose low bits seed a walk-mode median sampler over (y, y', z) points, and
all <= d coordinates reuse the same points (the product F(yz)F(y'z) is
shared; only the parity of p & (y xor y') differs per coordinate).  The
total coin cost is the steward seed, n_tape + O(k log d) bits, against
n_tape * k for freshly seeded levels.

A batch holds t0 points (10^8 at n=12, theta=1/2), but its sums are never
taken point by point: sampler.batch_split splits every batch of a run into
the whole cube and affine cosets.  On a small cube, where the r x 2^(n+ell)
point multiplicities and the 2^(n+ell) x C value table each fit in one pass
of 2^TEMP_BITS entries (both levels of n=2, theta=9/10), a level is one
integer matrix product, multiplicities times values (_cube_matrix_sums):
one multiplicity row per distinct multiplier a of the level, then one
gather of each batch's row at v xor b.
On a larger cube (criterion 10's levels) the candidates' h_p form one
vector-valued oracle, and sampler.batch_sums hands all partial cosets of
the run, and the whole cube last, to one coset_sums call.  The oracle
groups them by rank and sums each group in one stacked pass: a small rank
through one histogram over (coset, y xor y'), a large one through the
stacked spans of their duals, each from sampler.dual_basis, in the Walsh
domain (see _WeightOracle).  All of it is integer arithmetic, and the
sums equal the pointwise ones exactly.
Circuit estimates take the coset path (see _cube_matrix_sums).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import sampler
from .randomness import BitSource, bits_to_int, int_to_bits
from .sampler import (
    SamplerPlan, _by_rank, _stacked_chunks, batch_sums, lower_median, plan_sampler,
)
from .steward import Session, StewardConfig, round_budget


def _sign_table(f) -> np.ndarray:
    """F as its +-1 int8 truth table, index x holding F(x) (bit i of x is
    input bit i).  The length must be a power of two and every value exactly
    +1 or -1; both are checked before the cast, so no value wraps to -1."""
    table = np.asarray(f)
    size = table.size
    if table.ndim != 1 or size == 0 or size & (size - 1):
        raise ValueError(f"F must be a flat table of 2^n values, got shape {table.shape}")
    if not np.all((table == 1) | (table == -1)):
        raise ValueError("F's values must be exactly +1 or -1")
    return table.astype(np.int8)


def wht_ints(values) -> np.ndarray:
    """Exact Walsh sums along the last axis: out[..., x] = sum_y f[..., y] *
    (-1)^<x, y>, int64 butterfly."""
    a = np.array(values, dtype=np.int64, order="C")
    size = a.shape[-1] if a.ndim else a.size
    if size & (size - 1) or size == 0:
        raise ValueError("length must be a power of two")
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2, h)
        x = pairs[:, 0, :].copy()
        y = pairs[:, 1, :].copy()
        pairs[:, 0, :] = x + y
        pairs[:, 1, :] = x - y
        h *= 2
    return a


def heavy_set_exact(f, theta: Fraction) -> list[str]:
    """All x (as bit strings, sorted) with |F_hat(x)| >= theta, exactly;
    theta must lie in (0, 1]."""
    theta = Fraction(theta)
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    table = _sign_table(f)
    n = table.size.bit_length() - 1
    bound = theta * table.size  # |F_hat(x)| >= theta iff |sums[x]| >= bound
    return sorted(
        int_to_bits(x, n)
        for x, total in enumerate(wht_ints(table).tolist())
        if abs(total) * bound.denominator >= bound.numerator
    )


def load_truth_table(text: str) -> np.ndarray:
    """Parse 'n=<digits>', ASCII decimal digits only, then the 2^n bits
    packed into exactly ceil(2^n / 8) hex bytes, LSB first; bit 1 means
    F = -1, and the padding bits of the last byte (n <= 2) must be 0.
    Returns +-1 int8."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = re.fullmatch(r"n=(-?)([0-9]+)", lines[0]) if lines else None
    if header is None:
        raise ValueError("first line must be n=<digits>")
    if header[1]:
        raise ValueError(f"n must be >= 0, got {lines[0][2:]}")
    n = int(header[2])
    data = bytes.fromhex("".join(lines[1:]))
    size = 1 << n
    if len(data) != -(-size // 8):
        raise ValueError(f"n={n} needs {-(-size // 8)} table bytes, got {len(data)}")
    if size < 8 and data[0] >> size:  # a written table pads with zeros
        raise ValueError(f"n={n} sets padding bits at or above bit {size}: {data.hex()}")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")[:size]
    return 1 - 2 * bits.astype(np.int8)


@dataclass(frozen=True)
class GlParams:
    n: int
    theta: Fraction
    delta: Fraction
    u: int
    k: int
    d: int
    block_lens: tuple[int, ...]
    prefix_lens: tuple[int, ...]
    plans: tuple[SamplerPlan, ...]
    config: StewardConfig  # the steward whose blocks are the levels' sampler tapes

    @property
    def keep_threshold(self) -> Fraction:
        return self.theta**2 / 2


@lru_cache(maxsize=64)
def gl_params(n: int, theta: Fraction, delta: Fraction) -> GlParams:
    """The search's plan, cached: it is pure planning, and every search
    would otherwise redo it."""
    theta, delta = Fraction(theta), Fraction(delta)
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    if theta * (1 << (n - 1)) < 1:  # theta >= 2^(1-n): otherwise d blows past 2^n
        raise ValueError("theta must be at least 2^(1-n)")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    u = 0
    while (1 << (u + 1)) * theta.numerator <= theta.denominator:  # 2^(u+1) <= 1/theta
        u += 1
    u = max(1, u)
    k = math.ceil(n / u)
    d = ((1 << u) * 4 * theta.denominator**2) // theta.numerator**2
    eps, round_delta, gamma = round_budget(k, d, theta**2 / 4, delta)
    block_lens = tuple(min(u, n - i * u) for i in range(k))
    prefix_lens = tuple(sum(block_lens[: i + 1]) for i in range(k))
    plans = tuple(plan_sampler(n + ell, eps / 2, round_delta / d) for ell in prefix_lens)
    tape_bits = max(plan.seed_bits for plan in plans)  # one block feeds any level's sampler
    return GlParams(
        n=n, theta=theta, delta=delta, u=u, k=k, d=d,
        block_lens=block_lens, prefix_lens=prefix_lens, plans=plans,
        config=StewardConfig(tape_bits, k, d, eps, round_delta, gamma),
    )


def _parity_signs(x: np.ndarray) -> np.ndarray:
    """(-1)^popcount(x), as int64."""
    return 1 - 2 * (np.bitwise_count(x) & 1).astype(np.int64)


def _coset_histograms(signs, ell, cosets) -> np.ndarray:
    """hist[k, y xor y'] = sum of F(yz)F(y'z) over the points (y, y', z) of
    cosets[k], as a (K, 2^ell) int64 array.

    Each stacked pass of points is one bincount over the bins 2 * (k *
    2^ell + (y xor y')) + [F(yz) != F(y'z)] of the cosets it touches."""
    size = 1 << ell
    hist = np.zeros((len(cosets), size), dtype=np.int64)
    mask_l = np.uint64(size - 1)
    for ks, v in _stacked_chunks(cosets, sampler.TEMP_BITS):
        y = v & mask_l
        yp = (v >> np.uint64(ell)) & mask_l
        zl = (v >> np.uint64(2 * ell)) << np.uint64(ell)
        neg = signs[(y | zl).astype(np.intp)] != signs[(yp | zl).astype(np.intp)]
        lo, hi = ks[0], ks[-1] + 1  # ks ascends
        bins = ((ks[:, None] - lo) << ell | (y ^ yp).astype(np.intp)) << 1 | neg
        counts = np.bincount(bins.ravel(), minlength=(hi - lo) * size * 2)
        counts = counts.reshape(hi - lo, size, 2)
        hist[lo:hi] += counts[..., 0] - counts[..., 1]
    return hist


def _dual_coset_sums(rows, cands, ell, cosets, width) -> np.ndarray:
    """Sum of h_p over each coset c + V for each candidate p, through the
    Walsh dual, as a (K, len(cands)) int64 array.

    sum over c + V of h_p = |V|/2^width * sum over s in V-perp of
    h_hat_p(s) (-1)^<s, c>, with h_hat_p(s_y, s_y', s_z) = sum_z
    (-1)^<s_z, z> A[z, s_y xor p] A[z, s_y' xor p] and A = rows.  V-perp
    is spanned by sampler.dual_basis of V's basis, and the V-perp spans of
    all the cosets are enumerated stacked.  Each |h_hat_p(s)| is at most
    2^width, so a pass over 2^TEMP_BITS terms stays in int64; the totals
    are Python ints, and a total that |V-perp| does not divide raises
    ArithmeticError rather than flooring.
    """
    perps = [(0, sampler.dual_basis(basis, width)) for _, basis in cosets]
    temp_bits = sampler.TEMP_BITS
    z_bits = rows.shape[0].bit_length() - 1
    group = max(1, min(len(cands), 1 << max(0, temp_bits - z_bits)))
    chunk_bits = max(0, temp_bits - z_bits - (group - 1).bit_length())
    mask_l = np.uint64((1 << ell) - 1)
    zs = np.arange(rows.shape[0], dtype=np.uint64)[:, None]
    offsets = np.array([c for c, _ in cosets], dtype=np.uint64)
    totals = np.zeros((len(cosets), len(cands)), dtype=object)
    for ks, s in _stacked_chunks(perps, chunk_bits):
        span = s.shape[1]
        s = s.ravel()
        sy = s & mask_l
        syp = (s >> np.uint64(ell)) & mask_l
        zsign = _parity_signs(zs & (s >> np.uint64(2 * ell)))[:, None, :]
        csign = _parity_signs(s & np.repeat(offsets[ks], span))
        for g0 in range(0, len(cands), group):
            p = cands[g0 : g0 + group, None]
            terms = rows[:, (sy ^ p).astype(np.intp)] * rows[:, (syp ^ p).astype(np.intp)]
            h_hat = (terms * zsign).sum(axis=0)
            part = (h_hat * csign).reshape(len(p), -1, span).sum(axis=2)
            np.add.at(totals[:, g0 : g0 + group], ks, part.T.astype(object))
    sizes = np.array([1 << len(perp) for _, perp in perps], dtype=object)[:, None]
    if (totals % sizes).any():
        raise ArithmeticError("Walsh dual sum not divisible by |V-perp|")
    return (totals // sizes).astype(np.int64)


class _WeightOracle:
    """h_p(y, y', z) = F(yz)F(y'z)(-1)^<p, y xor y'> for every candidate p
    at once, as a sampler oracle on the n + ell bits (y, y', z), packed
    little-endian; each sum is an int64 array with one entry per candidate.

    coset_sums groups the cosets by rank and sums each group the way that
    is cheaper at that rank, in one stacked pass.  Enumerating a coset c + V
    costs |V| points: their products F(yz)F(y'z) go into a histogram over
    (coset, y xor y'), whose row-wise Walsh sums give every candidate at
    once.  The Walsh dual costs |V-perp| * 2^(n - ell) terms per candidate,
    on the row-wise Walsh sums rows[z, q] = sum_y F(yz)(-1)^<q, y>.  The
    whole cube has V-perp = {0}, so there the dual is the 2^(n - ell)
    terms rows[z, p]^2 per candidate, unless the histogram is cheaper.

    _weights_from_tape uses this oracle only on a level too large for one
    matrix pass (see _cube_matrix_sums), such as criterion 10's.
    """

    def __init__(self, table: np.ndarray, cand_ints: list[int], ell: int, n: int):
        self.signs = np.asarray(table, dtype=np.int64)
        self.cands = np.asarray(cand_ints, dtype=np.uint64)
        self.ell = ell
        self.n = n + ell
        self.rows = wht_ints(self.signs.reshape(-1, 1 << ell))

    def coset_sums(self, cosets: list[tuple[int, tuple[int, ...]]]) -> list[np.ndarray]:
        sums = [None] * len(cosets)
        for rank, group in _by_rank(cosets).items():
            stack = [cosets[k] for k in group]
            if 1 << rank <= len(self.cands) * self.rows.shape[0] << (self.n - rank):
                part = wht_ints(_coset_histograms(self.signs, self.ell, stack))[:, self.cands]
            else:
                part = _dual_coset_sums(self.rows, self.cands, self.ell, stack, self.n)
            for k, row in zip(group, part):
                sums[k] = row
        return sums


def _weights_from_tape(
    table: np.ndarray,
    cand_ints: list[int],
    ell: int,
    n: int,
    plan: SamplerPlan,
    tape: int,
) -> list[Fraction]:
    """Median-of-batches estimates of W_p for every candidate, one shared tape
    whose low plan.seed_bits bits are the sampler's seed.

    Each batch's mean of the Boolean variable C = 1/2 + h_p/2 is exact, so
    W = 2*median(C-means) - 1 comes out as Fraction(median of batch h_p
    sums, t0), equal to the pointwise sum."""
    seed = tape & ((1 << plan.seed_bits) - 1)
    one_pass = 1 << sampler.TEMP_BITS
    if plan.r << plan.n <= one_pass and len(cand_ints) << plan.n <= one_pass:
        sums = _cube_matrix_sums(table, cand_ints, ell, plan, seed)
    else:
        sums = np.array(batch_sums(plan, _WeightOracle(table, cand_ints, ell, n), seed))
    return [Fraction(lower_median(col), plan.t0) for col in sums.T.tolist()]


def _cube_matrix_sums(table, cand_ints, ell: int, plan: SamplerPlan, seed: int) -> np.ndarray:
    """The (r, C) batch sums of every candidate as one product M @ V over
    the 2^N points (y, y', z) of a small cube, N = plan.n = n + ell.

    M[i, v] is how often batch i hits point v.  sampler.batch_split gives
    the split of each distinct multiplier a and each batch's (a, b), so M
    starts as one row per distinct a: its whole-cube multiplicity
    everywhere, plus the multiplicity of each of its partial cosets at that
    coset's points.  The level's partial cosets are added in one padded
    pass: each basis is padded with zero vectors to the level's top rank R
    < N, a coset's first 2^rank combinations weigh its multiplicity and the
    rest 0, and one np.add.at per 2^TEMP_BITS entries adds them in.  Batch
    i's row is then row a at v xor b, one gather for the whole level.
    V[v, p] = F(yz)F(y'z)(-1)^<p, y xor y'> is the cube's value table.  A
    row of M sums to t0 and |V| = 1, so every product entry is at most t0
    in absolute value and int64 is exact.  _weights_from_tape takes this
    path when M and V each fit in one pass of 2^TEMP_BITS entries: there a
    coset holds a handful of points, and per-coset passes cost more than
    the points.  A larger level goes through batch_sums and _WeightOracle.
    Circuit estimates take the coset path instead: circuits._CircuitOracle
    sums a circuit 64 points to a word, bit-sliced, which a value table of
    one entry per point cannot.
    """
    if plan.t0 >> 63:
        raise OverflowError(f"t0 = {plan.t0} does not fit in int64")
    splits, batches = sampler.batch_split(plan, seed)
    size = 1 << plan.n
    wholes = np.array([whole for whole, _ in splits.values()], dtype=np.int64)
    rows = np.repeat(wholes[:, None], size, axis=1)
    parts = [(k, *part) for k, (_, partial) in enumerate(splits.values()) for part in partial]
    if parts:
        owners, mults, offsets, bases = zip(*parts)
        ranks = list(map(len, bases))
        top = max(ranks)
        points = np.array(offsets, dtype=np.intp)[:, None]
        padded = np.array([basis + (0,) * (top - len(basis)) for basis in bases], dtype=np.intp)
        for i in range(top):
            points = np.concatenate([points, points ^ padded[:, i, None]], axis=1)
        weights = np.array(mults, dtype=np.int64)[:, None] * (
            np.arange(1 << top) < np.left_shift(1, ranks)[:, None]
        )
        owners = np.array(owners, dtype=np.intp)[:, None]
        step = 1 << (sampler.TEMP_BITS - top)
        for i in range(0, len(parts), step):
            np.add.at(rows, (owners[i : i + step], points[i : i + step]), weights[i : i + step])
    multipliers, shifts = zip(*batches)
    index = {a: k for k, a in enumerate(splits)}
    owner = np.array([index[a] for a in multipliers], dtype=np.intp)[:, None]
    counts = rows[owner, np.arange(size) ^ np.array(shifts, dtype=np.intp)[:, None]]
    v = np.arange(size, dtype=np.uint64)
    mask_l = np.uint64((1 << ell) - 1)
    y, yp = v & mask_l, (v >> np.uint64(ell)) & mask_l
    zl = (v >> np.uint64(2 * ell)) << np.uint64(ell)
    signs = np.asarray(table, dtype=np.int64)
    prod = signs[(y | zl).astype(np.intp)] * signs[(yp | zl).astype(np.intp)]
    parity = (y ^ yp)[:, None] & np.asarray(cand_ints, dtype=np.uint64)
    return counts @ (prod[:, None] * _parity_signs(parity))


def estimate_W(
    f,
    prefix: str,
    epsilon: Fraction,
    delta: Fraction,
    source: BitSource,
) -> Fraction:
    """Standalone W_prefix estimate to accuracy epsilon, failure delta.

    The sampler plan over n + len(prefix) bits follows from epsilon and
    delta, so no other plan can be passed in and bias the estimate.
    """
    table = _sign_table(f)
    n = table.size.bit_length() - 1
    ell = len(prefix)
    if ell > n:
        raise ValueError("prefix longer than n")
    plan = plan_sampler(n + ell, Fraction(epsilon) / 2, Fraction(delta))
    tape = bits_to_int(source.draw(plan.seed_bits, phase="sampler"))
    return _weights_from_tape(table, [bits_to_int(prefix)], ell, n, plan, tape)[0]


@dataclass
class GlResult:
    params: GlParams
    strings: list[str]
    aborted: bool
    bits_used: int
    levels_run: int

    @property
    def masks(self) -> list[int]:
        return [bits_to_int(s) for s in self.strings]


def goldreich_levin(f, theta: Fraction, delta: Fraction, source: BitSource) -> GlResult:
    """Prefix search for {x : |F_hat(x)| >= theta} over F's +-1 truth table
    (a query callback is tabulated first; see the module docstring); misses
    nothing above theta and returns nothing below theta/2, except with
    probability delta."""
    table = _sign_table(f)
    n = table.size.bit_length() - 1
    params = gl_params(n, theta, delta)
    session = Session(params.config, source)
    survivors = [0]  # prefixes as ints: bit i is prefix bit i
    cap = Fraction(params.d, 1 << params.u)
    for level in range(params.k):
        if len(survivors) > cap:  # only reachable on estimation failure
            return GlResult(
                params=params, strings=[], aborted=True,
                bits_used=session.bits_used, levels_run=level,
            )
        ell = params.prefix_lens[level]
        blen = params.block_lens[level]
        cands = [p | e << (ell - blen) for p in survivors for e in range(1 << blen)]
        plan = params.plans[level]

        def evaluate(tape, _c=cands, _l=ell, _p=plan):
            w = _weights_from_tape(table, _c, _l, n, _p, tape)
            return w + [Fraction(0)] * (params.d - len(w))

        y = session.answer(evaluate)
        keep = params.keep_threshold
        survivors = [cands[j] for j in range(len(cands)) if y[j] >= keep]
    return GlResult(
        params=params, strings=sorted(int_to_bits(p, n) for p in survivors),
        aborted=False, bits_used=session.bits_used, levels_run=params.k,
    )


def gl_audit_dict(params: GlParams) -> dict:
    """Coin budget of one run, the steward seed split tape vs ladder, plus
    the steward's generator plan and each level's sampler plan."""
    schedule = params.config.schedule
    seed_len, tape_bits = schedule.seed_len, params.config.n
    return {
        "n": params.n,
        "levels": params.k,
        "d": params.d,
        "tape_bits": tape_bits,
        "steward_bits": seed_len,
        "fresh_bits": tape_bits * params.k,
        "per_phase": {"tape": tape_bits, "ladder": seed_len - tape_bits},
        "schedule": schedule.to_dict(),
        "sampler": [plan.to_dict() for plan in params.plans],
    }
