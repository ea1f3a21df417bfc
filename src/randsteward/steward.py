"""Randomness stewards: answer k adaptive estimation queries from one seed.

A query is a function f: {0,1}^n -> R^d that the owner promises is
(epsilon, delta)-concentrated: on a uniform input, f lands within epsilon of
some point mu in every coordinate except with probability delta.  The owner
picks each query after seeing the previous answer; the steward must keep
every answer within epsilon' = (3*d0 + 5)*epsilon of the corresponding mu
while spending far fewer than n*k random bits.

The base move is the shift-and-round S0: evaluate W = f(X) on one n-bit
sample, lay down a grid of cells of length L = 2*(d0+1)*epsilon, pick the
smallest shift D in {1..d0+1} such that every coordinate's uncertainty
window [W_j + (2D-1)e, W_j + (2D+1)e] sits inside a single cell, and answer
with the cell midpoint of W_j + 2*D*e.  Each coordinate rules out exactly
one shift, so a feasible D always exists; whenever W is epsilon-close to mu
the answer is a function of mu and D alone.  That collapses the owner's view
of a round to sigma = (d0+1)^g + 1 symbols (g = ceil(d/d0) groups, plus
one abort symbol), which is what lets the main steward feed S0 from the blocks
of a short-seed generator fooling sigma-ary block decision trees:
n + O(k log d) bits total, failure <= k*delta + gamma.

The code makes that argument the algorithm.  In units of 2e, coordinate j
rules out the one shift whose window holds the first cell boundary above
z_j = (W_j + e)/(2e); D is the smallest shift no coordinate rules out, and
each answer is a single exact rational.  One integer floor division per
coordinate gives both the shift it rules out and, once D is chosen, its
cell (see shift_round); the coarse and certified roundings take one floor
division per value (_midpoints).  Every cell midpoint in this module, main,
coarse or certified, is then built from its integer cell index by one helper
(_cell_midpoints), once per distinct cell in a call.

Every kind runs the same round: take a sample, evaluate the query on it
once, round the answer.  KINDS maps each kind to the pair (where its sample
comes from, how it rounds), and Session switches on those two members only.
A sample is one block of the generator's output ("blocks", the main
steward), n fresh bits drawn in the round ("fresh") or one n-bit sample
reused every round ("reused"); the generator's seed or the reused sample is
drawn once, at the first round.  Either way a sample is an n-bit int whose
bit i is its i-th bit, and that int is what the oracle gets; only the
transcript's JSON writes it back as a bit string.  Which generator makes the
blocks is planned in prg only: where fresh bits are the cheapest plan (at
most n*k of them), the blocks are the s0 kind's uniform blocks, drawn all at
once.  An answer is shift-and-rounded as above ("shift"), snapped to a
coarse grid u*epsilon after a fresh random shift of log2(u) bits ("coarse",
the Saks-Zhou baseline), or returned as is ("raw").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .prg import PrgSchedule, build_schedule, expand, split_blocks
from .randomness import BitSource, bits_to_int, int_to_bits, rat_to_str

KINDS = {  # kind -> (where a round's sample comes from, how its answer is rounded)
    "main": ("blocks", "shift"),
    "s0": ("fresh", "shift"),
    "union": ("reused", "shift"),
    "saks-zhou": ("reused", "coarse"),
    "naive-fresh": ("fresh", "raw"),
    "naive-reuse": ("reused", "raw"),
}


class StewardProtocolError(RuntimeError):
    pass


@dataclass(frozen=True)
class StewardConfig:
    n: int
    k: int
    d: int
    epsilon: Fraction
    delta: Fraction
    gamma: Fraction
    d0: int | None = None
    kind: str = "main"

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.d0 is None:
            object.__setattr__(self, "d0", self.d)
        if self.n < 1 or self.k < 1 or self.d < 1:
            raise ValueError("need n, k, d >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 <= self.delta < Fraction(1, 2):
            raise ValueError("delta must lie in [0, 1/2): the task is trivial otherwise")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not 1 <= self.d0 <= self.d:
            raise ValueError("d0 must lie in 1..d")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {tuple(KINDS)}")

    @property
    def groups(self) -> int:
        return -(-self.d // self.d0)

    @property
    def sigma(self) -> int:
        """Per-round symbol count of the owner's view; d + 2 when d0 = d."""
        return (self.d0 + 1) ** self.groups + 1

    @property
    def schedule(self) -> PrgSchedule:
        """The generator's default plan for k blocks of n bits against sigma-ary trees:
        each level the cheaper of fresh bits and the small-bias extractor, and
        never more than n*k bits."""
        return _planned_schedule(self.n, self.k, self.sigma, self.gamma)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "d": self.d, "d0": self.d0,
            "epsilon": rat_to_str(self.epsilon), "delta": rat_to_str(self.delta),
            "gamma": rat_to_str(self.gamma), "kind": self.kind,
        }

    @property
    def error_bound(self) -> Fraction:
        """Guaranteed accuracy epsilon' of every answer against mu."""
        return error_factor(self.d0) * self.epsilon


def error_factor(d0: int) -> int:
    """epsilon'/epsilon: a shift-rounded answer (groups of d0) lies within
    (3*d0 + 5)*epsilon of mu whenever its raw value was epsilon-close."""
    return 3 * d0 + 5


def round_budget(k: int, d: int, accuracy, delta) -> tuple[Fraction, Fraction, Fraction]:
    """(epsilon, per-round delta, gamma) of a k-round main steward with d0 = d
    whose answers must all lie within accuracy of their mu, except with
    probability delta: epsilon = accuracy/(3d+5), each round's estimate may
    fail with delta/(2k), and the generator gets gamma = delta/2, so the k
    rounds and the generator fail together with at most k*delta/(2k) +
    delta/2 = delta."""
    if k < 1:
        raise ValueError("need k >= 1")
    delta = Fraction(delta)
    return Fraction(accuracy) / error_factor(d), delta / (2 * k), delta / 2


# Planning is pure, so configs built more than once, or that differ only in
# kind or epsilon, share one plan.
@lru_cache(maxsize=64)
def _planned_schedule(n: int, k: int, sigma: int, gamma: Fraction) -> PrgSchedule:
    return build_schedule(n, k, sigma, gamma)


@dataclass
class ConcentratedFn:
    """An estimation query: oracle maps an n-bit int (bit i is the i-th bit of
    the sample) to d values.

    epsilon/delta document the declared concentration; mu is the
    concentration point.  The steward reads none of them -- they ride along
    for certification checks and accuracy audits in the harness.
    """

    oracle: Callable[[int], Sequence]
    epsilon: Fraction | None = None
    delta: Fraction | None = None
    mu: tuple[Fraction, ...] | None = None


def _cell_midpoints(cells: Sequence[int], length_num: int, q: int) -> list[Fraction]:
    """Per cell index m, the midpoint (m + 1/2)*L of the cell [m*L, (m+1)*L), L = length_num/q.

    Every rounding in this module ends here.  Each distinct m builds its
    Fraction once per call: rounded coordinates often share a cell.
    """
    memo: dict[int, Fraction] = {}
    out = []
    for m in cells:
        mid = memo.get(m)
        if mid is None:
            mid = memo[m] = Fraction((2 * m + 1) * length_num, 2 * q)
        out.append(mid)
    return out


def _midpoints(
    ws: Sequence[Fraction], shift: int, epsilon: Fraction, units: int
) -> list[Fraction]:
    """Per w, the midpoint of the cell [m*L, (m+1)*L) that holds w + shift*e, L = units*e.

    m = floor((w + shift*e) / L) is one integer floor division on the
    numerators and denominators, so a value on a cell line belongs to the
    cell to its right.
    """
    p, q = epsilon.numerator, epsilon.denominator
    length_num, sp = units * p, shift * p  # L = length_num/q, shift*e = sp/q
    ratios = [w.as_integer_ratio() for w in ws]
    cells = [(a * q + sp * b) // (length_num * b) for a, b in ratios]
    return _cell_midpoints(cells, length_num, q)


def shift_round(
    w: Sequence[Fraction], epsilon: Fraction, d0: int
) -> tuple[list[Fraction], list[int]]:
    """Grouped shift-and-round -> (len(w) answers, one shift per group of d0).

    In units of 2e a cell is d0+1 long, and coordinate j's window for shift
    D is [z_j + D - 1, z_j + D] with z_j = (w_j + e)/(2e).  It escapes its
    cell exactly when a cell line lies in (z_j + D - 1, z_j + D], and only
    the first line above z_j can, which rules out the single shift
    (d0+1) - (f_j mod (d0+1)), f_j = floor(z_j).  The d0 coordinates rule
    out at most d0 of the d0+1 shifts; D is the smallest one left, and y_j
    is the midpoint of the cell of length 2*(d0+1)*e that holds w_j + 2*D*e.
    In units of 2e, w_j + 2*D*e is z_j + D - 1/2, inside a window that lies
    in one cell, so that cell's index is floor((z_j + D - 1)/(d0+1)) =
    (f_j + D - 1) // (d0+1): the one floor f_j per coordinate serves both
    steps.  A short last group of g < d0 coordinates is rounded as if padded
    with zeros: a zero (f = 0) rules out only d0+1, and the g coordinates
    leave a shift D <= g+1 <= d0 free, so the padding never moves D.
    """
    cell = d0 + 1
    p, q = epsilon.numerator, epsilon.denominator
    ratios = [v.as_integer_ratio() for v in w]
    floors = [(a * q + p * b) // (2 * p * b) for a, b in ratios]
    cells: list[int] = []
    deltas: list[int] = []
    for start in range(0, len(floors), d0):
        group = floors[start : start + d0]
        ruled_out = {cell - f % cell for f in group}
        delta = 1
        while delta in ruled_out:
            delta += 1
        deltas.append(delta)
        cells.extend([(f + delta - 1) // cell for f in group])
    return _cell_midpoints(cells, 2 * cell * p, q), deltas


@dataclass
class RoundRecord:
    index: int
    x: int
    w: tuple[Fraction, ...]
    deltas: tuple[int, ...] | None
    y: tuple[Fraction, ...]


@dataclass
class Transcript:
    config: StewardConfig
    rounds: list[RoundRecord] = field(default_factory=list)
    bits_used: int = 0
    bits_by_phase: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "config": self.config.to_dict(),
            "bits_used": self.bits_used,
            "bits_by_phase": dict(self.bits_by_phase),
            "rounds": [
                {
                    "round": r.index,
                    "x": int_to_bits(r.x, self.config.n),
                    "w": [rat_to_str(v) for v in r.w],
                    "deltas": list(r.deltas) if r.deltas is not None else None,
                    "y": [rat_to_str(v) for v in r.y],
                }
                for r in self.rounds
            ],
        }
        return json.dumps(doc, indent=2)


class Session:
    """One steward run: up to k rounds of answer(query), one query per round."""

    def __init__(self, config: StewardConfig, source: BitSource):
        self.config = config
        self.source = source
        self.round = 0
        self.transcript = Transcript(config=config)
        self._sample, self._rounding = KINDS[config.kind]
        self.schedule = config.schedule if self._sample == "blocks" else None
        self._samples: list[int] | None = None  # a seed's k samples, once drawn
        if self._rounding == "coarse":  # the smallest power of two >= 2kd/gamma
            self.u = 1 << (math.ceil(2 * config.k * config.d / config.gamma) - 1).bit_length()

    @property
    def bits_used(self) -> int:
        return self.transcript.bits_used

    def _draw(self, count: int, phase: str) -> int:
        """The session's one draw site: count bits as an int, booked in its transcript."""
        value = bits_to_int(self.source.draw(count, phase))
        if count:
            books = self.transcript
            books.bits_used += count
            books.bits_by_phase[phase] = books.bits_by_phase.get(phase, 0) + count
        return value

    def _next_sample(self) -> int:
        cfg = self.config
        if self._sample == "fresh":
            return self._draw(cfg.n, "sample")
        if self._samples is None:
            if self._sample == "blocks":
                seed = self._draw(self.schedule.seed_len, "seed")
                self._samples = split_blocks(expand(self.schedule, seed), cfg.n, cfg.k)
            else:  # "reused"
                self._samples = [self._draw(cfg.n, "seed")] * cfg.k
        return self._samples[self.round]

    def answer(self, query) -> tuple[Fraction, ...]:
        """Answer one round, rounded with the config's d0.

        Every round therefore shows the owner at most config.sigma symbols,
        the alphabet the generator's schedule was planned for.
        """
        cfg = self.config
        if self.round >= cfg.k:
            raise StewardProtocolError(f"query budget of {cfg.k} rounds exhausted")
        oracle = query.oracle if isinstance(query, ConcentratedFn) else query
        x = self._next_sample()
        # Fractions are immutable: keep them, convert anything else
        w = tuple(v if type(v) is Fraction else Fraction(v) for v in oracle(x))
        if len(w) != cfg.d:
            raise StewardProtocolError(f"query returned {len(w)} values, expected {cfg.d}")

        deltas: tuple[int, ...] | None = None
        if self._rounding == "shift":
            y_list, delta_list = shift_round(w, cfg.epsilon, cfg.d0)
            y, deltas = tuple(y_list), tuple(delta_list)
        elif self._rounding == "coarse":
            delta = self._draw(self.u.bit_length() - 1, "shift") + 1  # uniform on 1..u
            y = tuple(_midpoints(w, delta, cfg.epsilon, self.u))
            deltas = (delta,)
        else:  # "raw"
            y = w

        self.transcript.rounds.append(RoundRecord(self.round, x, w, deltas, y))
        self.round += 1
        return y


Owner = Callable[[int, list], object]


def run_steward(config: StewardConfig, owner: Owner, source: BitSource) -> Transcript:
    """Drive a full session: owner(i, responses_so_far) supplies round i's query."""
    session = Session(config, source)
    responses: list[tuple[Fraction, ...]] = []
    for i in range(config.k):
        query = owner(i, responses)
        responses.append(session.answer(query))
    return session.transcript


def certify_round(
    y: Sequence[Fraction], mu: Sequence[Fraction], config: StewardConfig
) -> list[int | None]:
    """Per group, the smallest shift consistent with mu, or None for abort.

    When the raw value W was epsilon-close to mu, the chosen shift D gives
    Y_j = Round(mu_j + 2*D*e) in every coordinate, so the scan recovers some
    shift; an inconsistent answer has probability at most delta per round.
    Padding coordinates are invisible to the owner and are skipped.
    """
    if len(y) != config.d or len(mu) != config.d:
        raise ValueError("y and mu must have d coordinates")
    cell, eps = config.d0 + 1, config.epsilon
    out: list[int | None] = []
    for g in range(config.groups):
        start, stop = g * config.d0, min((g + 1) * config.d0, config.d)
        found = None
        for delta in range(1, cell + 1):
            if _midpoints(mu[start:stop], 2 * delta, eps, 2 * cell) == list(y[start:stop]):
                found = delta
                break
        out.append(found)
    return out


def certification_check(
    transcript: Transcript, mus: Sequence[Sequence[Fraction]]
) -> list[tuple[int, ...] | None]:
    """Per round: the tuple of per-group certified shifts, or None (abort)."""
    if len(mus) != len(transcript.rounds):
        raise ValueError("need one mu vector per round")
    out: list[tuple[int, ...] | None] = []
    for record, mu in zip(transcript.rounds, mus):
        mu = [v if type(v) is Fraction else Fraction(v) for v in mu]
        groups = certify_round(record.y, mu, transcript.config)
        out.append(None if any(g is None for g in groups) else tuple(groups))
    return out
