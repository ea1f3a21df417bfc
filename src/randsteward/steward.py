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
of a round to sigma = (d0+1)^g + 1 symbols (g = d_pad/d0 groups, plus one
abort symbol), which is what lets the main steward feed S0 from the blocks
of a short-seed generator fooling sigma-ary block decision trees:
n + O(k log d) bits total, failure <= k*delta + gamma.

The code makes that argument the algorithm.  In units of 2e, coordinate j
rules out the one shift whose window holds the first cell boundary above
z_j = (W_j + e)/(2e); D is the smallest shift no coordinate rules out, and
each answer is a single exact rational.  One pass over a group in integer
arithmetic does it (see choose_shift).

Every kind runs the same round: take a sample, evaluate the query on it
once, round the answer.  KINDS maps each kind to the pair (where its sample
comes from, how it rounds), and Session switches on those two members only.
A sample is one block of the generator's output ("blocks", the main steward),
n fresh bits drawn in the round ("fresh") or one n-bit sample drawn at open
and reused every round ("reused").  An answer is shift-and-rounded as above
("shift"), snapped to a coarse grid u*epsilon after a fresh random shift of
log2(u) bits ("coarse", the Saks-Zhou baseline), or returned as is ("raw").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .bdt import split_blocks
from .numeric import Grid, rat_to_str, round_to_midpoint
from .prg import BACKENDS, PrgSchedule, build_schedule, expand
from .randomness import BitSource, draw_uniform_power_of_two

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
    backend: str = "expander"

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
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")

    @property
    def d_pad(self) -> int:
        return math.ceil(self.d / self.d0) * self.d0

    @property
    def groups(self) -> int:
        return self.d_pad // self.d0

    @property
    def sigma(self) -> int:
        """Per-round symbol count of the owner's view; d + 2 when d0 = d."""
        return (self.d0 + 1) ** self.groups + 1

    @cached_property  # read every round; the config is frozen
    def grid(self) -> Grid:
        return Grid(interval_length=2 * (self.d0 + 1) * self.epsilon)

    @cached_property  # planned once per config, however many sessions open it
    def schedule(self) -> PrgSchedule:
        """The generator plan for k blocks of n bits against sigma-ary trees."""
        return build_schedule(self.n, self.k, self.sigma, self.gamma, backend=self.backend)

    @property
    def error_bound(self) -> Fraction:
        """Guaranteed accuracy epsilon' of every answer against mu."""
        return (3 * self.d0 + 5) * self.epsilon


@dataclass
class ConcentratedFn:
    """An estimation query: oracle maps an n-bit string to d values.

    epsilon/delta document the declared concentration; mu is the
    concentration point.  The steward reads none of them -- they ride along
    for certification checks and accuracy audits in the harness.
    """

    oracle: Callable[[str], Sequence]
    epsilon: Fraction | None = None
    delta: Fraction | None = None
    mu: tuple[Fraction, ...] | None = None

    @staticmethod
    def wrap(query) -> "ConcentratedFn":
        if isinstance(query, ConcentratedFn):
            return query
        return ConcentratedFn(oracle=query)


def _shift_group(
    w: Sequence[Fraction], epsilon: Fraction, grid: Grid
) -> tuple[int, list[Fraction]]:
    """One-pass shift-and-round of one group -> (D, answers); see choose_shift."""
    cell = len(w) + 1
    p, q = epsilon.numerator, epsilon.denominator
    length = grid.interval_length
    if length.numerator * q != 2 * cell * p * length.denominator:
        raise ValueError("grid interval length must be 2*(len(w)+1)*epsilon")
    # z_j = (w_j + e) / (2e) = num / den, measured in units of 2e
    zs = []
    ruled_out = set()
    for wj in w:
        a, b = wj.numerator, wj.denominator
        num, den = a * q + p * b, 2 * p * b
        zs.append((num, den))
        ruled_out.add(cell - num // den % cell)
    delta = 1
    while delta in ruled_out:
        delta += 1
    y = []
    for num, den in zs:
        m = (2 * num + (2 * delta - 1) * den) // (2 * den * cell)  # cell of z_j + D - 1/2
        y.append(Fraction((2 * m + 1) * cell * p, q))
    return delta, y


def choose_shift(w: Sequence[Fraction], epsilon: Fraction, grid: Grid) -> int:
    """Smallest shift D in {1..len(w)+1} whose windows all stay in one cell.

    The window for coordinate j is [w_j + (2D-1)e, w_j + (2D+1)e]; touching a
    cell's right boundary counts as escaping.  The grid must be the canonical
    one, cells of length 2*(d0+1)*e with d0 = len(w); anything else raises
    ValueError.  In units of 2e a cell is d0+1 long and the window is
    [z_j + D - 1, z_j + D] with z_j = (w_j + e)/(2e), so it escapes exactly
    when a cell boundary lies in (z_j + D - 1, z_j + D].  Only the first
    boundary above z_j can, which rules out the single shift
    D_bad = (d0+1) - (floor(z_j) mod (d0+1)) in 1..d0+1.  The d0 coordinates
    rule out at most d0 of the d0+1 shifts, and D is the smallest one left,
    found in one pass over w in integer arithmetic.
    """
    return _shift_group(w, epsilon, grid)[0]


def pad_vector(w: Sequence[Fraction], d0: int) -> list[Fraction]:
    padded = list(w)
    while len(padded) % d0:
        padded.append(Fraction(0))
    return padded


def shift_round(
    w: Sequence[Fraction], epsilon: Fraction, d0: int, grid: Grid | None = None
) -> tuple[list[Fraction], list[int]]:
    """Grouped shift-and-round of a padded vector -> (answers, shift per group).

    Each group of d0 coordinates gets its shift D from choose_shift's rule and
    answers y_j = (2m+1)*(d0+1)*e, the midpoint of the cell with index m that
    holds w_j + 2*D*e.  The grid, when given, must be the canonical one.
    """
    if len(w) % d0:
        raise ValueError("vector length must be a multiple of d0")
    if grid is None:
        grid = Grid(interval_length=2 * (d0 + 1) * epsilon)
    y: list[Fraction] = []
    deltas: list[int] = []
    for start in range(0, len(w), d0):
        delta, y_group = _shift_group(w[start : start + d0], epsilon, grid)
        deltas.append(delta)
        y.extend(y_group)
    return y, deltas


@dataclass
class RoundRecord:
    index: int
    x: str
    w: tuple[Fraction, ...]
    deltas: tuple[int, ...] | None
    y: tuple[Fraction, ...]
    oracle_calls: int = 1


@dataclass
class Transcript:
    config: StewardConfig
    rounds: list[RoundRecord] = field(default_factory=list)
    bits_used: int = 0
    bits_by_phase: dict[str, int] = field(default_factory=dict)

    def responses(self) -> list[tuple[Fraction, ...]]:
        return [r.y for r in self.rounds]

    def to_json(self) -> str:
        cfg = self.config
        doc = {
            "config": {
                "n": cfg.n, "k": cfg.k, "d": cfg.d, "d0": cfg.d0,
                "epsilon": rat_to_str(cfg.epsilon),
                "delta": rat_to_str(cfg.delta),
                "gamma": rat_to_str(cfg.gamma),
                "kind": cfg.kind, "backend": cfg.backend,
            },
            "bits_used": self.bits_used,
            "bits_by_phase": dict(self.bits_by_phase),
            "rounds": [
                {
                    "round": r.index,
                    "x": r.x,
                    "w": [rat_to_str(v) for v in r.w],
                    "deltas": list(r.deltas) if r.deltas is not None else None,
                    "y": [rat_to_str(v) for v in r.y],
                    "oracle_calls": r.oracle_calls,
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
        self._bits_at_open = source.report.bits_drawn
        self._phase_at_open = dict(source.report.per_phase)
        self.transcript = Transcript(config=config)
        self.schedule: PrgSchedule | None = None
        self._sample, self._rounding = KINDS[config.kind]
        if self._sample == "blocks":
            self.schedule = config.schedule
            seed = source.draw(self.schedule.seed_len, phase="seed")
            self._blocks = split_blocks(expand(self.schedule, seed), config.n, config.k)
        elif self._sample == "reused":
            self._x = source.draw(config.n, phase="seed")
        # "fresh" samples are drawn inside each round
        if self._rounding == "coarse":
            target = Fraction(2 * config.k * config.d) / config.gamma
            u = 1
            while u < target:
                u *= 2
            self.u = u
            self._coarse_grid = Grid(interval_length=u * config.epsilon)

    @property
    def bits_used(self) -> int:
        return self.source.report.bits_drawn - self._bits_at_open

    def _finish_budget(self):
        self.transcript.bits_used = self.bits_used
        per_phase = {}
        for phase, total in self.source.report.per_phase.items():
            diff = total - self._phase_at_open.get(phase, 0)
            if diff:
                per_phase[phase] = diff
        self.transcript.bits_by_phase = per_phase

    def _next_sample(self) -> str:
        if self._sample == "blocks":
            return self._blocks[self.round]
        if self._sample == "fresh":
            return self.source.draw(self.config.n, phase="sample")
        return self._x

    def answer(self, query) -> tuple[Fraction, ...]:
        """Answer one round, rounded with the config's d0 and grid.

        Every round therefore shows the owner at most config.sigma symbols,
        the alphabet the generator's schedule was planned for.
        """
        cfg = self.config
        if self.round >= cfg.k:
            raise StewardProtocolError(f"query budget of {cfg.k} rounds exhausted")
        fn = ConcentratedFn.wrap(query)
        x = self._next_sample()

        calls = 0

        def counted_oracle(bits: str):
            nonlocal calls
            calls += 1
            return fn.oracle(bits)

        # Fractions are immutable: keep them, convert anything else
        w = tuple(v if type(v) is Fraction else Fraction(v) for v in counted_oracle(x))
        if calls != 1:
            raise StewardProtocolError(f"one-query discipline violated: {calls} calls")
        if len(w) != cfg.d:
            raise StewardProtocolError(f"query returned {len(w)} values, expected {cfg.d}")

        deltas: tuple[int, ...] | None = None
        if self._rounding == "shift":
            y_full, delta_list = shift_round(
                pad_vector(w, cfg.d0), cfg.epsilon, cfg.d0, cfg.grid
            )
            y = tuple(y_full[: cfg.d])
            deltas = tuple(delta_list)
        elif self._rounding == "coarse":
            delta = draw_uniform_power_of_two(self.source, self.u, phase="shift")
            y = tuple(
                round_to_midpoint(wj + delta * cfg.epsilon, self._coarse_grid) for wj in w
            )
            deltas = (delta,)
        else:  # "raw"
            y = w

        self.transcript.rounds.append(
            RoundRecord(index=self.round, x=x, w=w, deltas=deltas, y=y, oracle_calls=calls)
        )
        self.round += 1
        self._finish_budget()
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
    grid = config.grid
    out: list[int | None] = []
    for g in range(config.groups):
        coords = [j for j in range(g * config.d0, (g + 1) * config.d0) if j < config.d]
        found = None
        for delta in range(1, config.d0 + 2):
            if all(
                y[j] == round_to_midpoint(mu[j] + 2 * delta * config.epsilon, grid)
                for j in coords
            ):
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
        groups = certify_round(record.y, [Fraction(v) for v in mu], transcript.config)
        out.append(None if any(g is None for g in groups) else tuple(groups))
    return out
