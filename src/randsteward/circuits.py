"""Boolean circuit expressions and steward-backed acceptance estimation.

The expression DSL covers variables x0..x{n-1}, constants 0/1, and ~ & ^ |
with precedence NOT > AND > XOR > OR (binary operators left-associative),
read from one table by one precedence-climbing loop.  Circuits here are
expression trees, not gate lists: enough structure to exercise the adaptive
protocol while keeping the parser small.

`AcceptanceSession` answers up to k adaptively chosen circuits with
estimates of their acceptance probability mu(C) = Pr_x[C(x) = 1].  Round i
wraps a median-of-batches sampler run for C_i into a scalar function of the
steward's block, an int that is the sampler's seed as it stands.
steward.round_budget turns (k, epsilon, delta) into the round's accuracy and
failure share, which plan the sampler, and into the d = 1 steward whose
rounding brings each answer back to within epsilon; the reported estimate is
clamped to [0,1].  So every Y_i is within epsilon of mu(C_i) except with
probability delta, at a coin cost of one steward seed, drawn at the
session's first estimate.  The sampler sums a circuit over affine cosets,
the whole cube among them, bit-sliced (Biham 1997): _CircuitOracle
evaluates the expression tree once per pass on uint64 words of 64 points
each, and one tree walker (_evaluate) serves it and the pointwise
eval_on_ints, which to_truth_table and exact_mean use.

Two oracle runners plan their stewards the same way:
`run_promise_bpp_oracle_algorithm` answers decision queries by thresholding
an acceptance estimate at 1/2 (fixed epsilon = 1/10, so promise margins of
1/3 survive), and `run_app_oracle_algorithm` serves approximate-probability
queries from an estimator that is within the round's accuracy on >= 2/3 of
its n-bit coin strings.  A round of the APP runner cuts the steward's
r*n-bit block into r coin strings and answers the lower median of the
estimator over them; r = sampler.median_reps(round failure share), the
fewest with P[Bin(r, 1/3) >= floor((r+1)/2)] at most that share, since the
lower median is off only if that many of the r independent values are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable

import numpy as np

from . import sampler
from .prg import split_blocks
from .randomness import BitSource
from .sampler import (
    FnOracle,
    Oracle,
    SamplerPlan,
    check_runnable,
    lower_median,
    median_reps,
    plan_sampler,
)
from .steward import Session, StewardConfig, round_budget

TRUTH_TABLE_CAP = 26  # refuse dense tables beyond 2^26 entries


class CircuitSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} at position {position}")


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of "&", "^", "|"
    left: object
    right: object


CircuitExpr = object

_TOKEN = re.compile(r"\s*(x[0-9]+|[01]|[&^|~()])")

_PRECEDENCE = {"|": 1, "^": 2, "&": 3}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = len(text) - len(text[pos:].lstrip())
            if stripped == len(text):
                break
            raise CircuitSyntaxError(f"unexpected character {text[stripped]!r}", stripped)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        if self.i < len(self.tokens):
            return self.tokens[self.i][1]
        return len(self.text)

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> CircuitExpr:
        if not self.tokens:
            raise CircuitSyntaxError("empty expression", 0)
        expr = self.binary()
        if self.i < len(self.tokens):
            raise CircuitSyntaxError(f"unexpected token {self.peek()!r}", self.pos())
        return expr

    def binary(self, min_prec: int = 1):
        """Precedence climbing: a left-associative chain of the operators
        binding at least as tightly as min_prec, each right operand one
        level tighter."""
        expr = self.unary()
        while _PRECEDENCE.get(self.peek(), 0) >= min_prec:
            op, _ = self.take()
            expr = BinOp(op, expr, self.binary(_PRECEDENCE[op] + 1))
        return expr

    def unary(self):
        tok = self.peek()
        if tok is None:
            raise CircuitSyntaxError("expression ends early", self.pos())
        if tok == "~":
            self.take()
            return Not(self.unary())
        if tok == "(":
            _, open_pos = self.take()
            expr = self.binary()
            if self.peek() != ")":
                raise CircuitSyntaxError("unclosed parenthesis", open_pos)
            self.take()
            return expr
        if tok in ("0", "1"):
            self.take()
            return Const(int(tok))
        if tok.startswith("x"):
            _, pos = self.take()
            index = int(tok[1:])
            if index >= self.n:
                raise CircuitSyntaxError(
                    f"variable {tok} out of range for n={self.n}", pos
                )
            return Var(index)
        raise CircuitSyntaxError(f"unexpected token {tok!r}", self.pos())


def parse_circuit(text: str, n: int) -> CircuitExpr:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _Parser(text, n).parse()


def _evaluate(expr: CircuitExpr, leaf: Callable[[int], np.ndarray], ones: np.ndarray):
    """The circuit on bit-parallel values: leaf(i) is the value of x_i and
    ones the all-ones value, whose shape and dtype every result takes."""
    if isinstance(expr, Var):
        return leaf(expr.index)
    if isinstance(expr, Const):
        return ones if expr.value else ones ^ ones
    if isinstance(expr, Not):
        return _evaluate(expr.child, leaf, ones) ^ ones
    if isinstance(expr, BinOp):
        a = _evaluate(expr.left, leaf, ones)
        b = _evaluate(expr.right, leaf, ones)
        if expr.op == "&":
            return a & b
        if expr.op == "^":
            return a ^ b
        return a | b
    raise TypeError(f"not a circuit node: {expr!r}")


def eval_on_ints(expr: CircuitExpr, xs: np.ndarray) -> np.ndarray:
    """Evaluate on an array of little-endian point indices -> uint8 0/1."""
    xs = np.asarray(xs, dtype=np.uint64)
    return _evaluate(
        expr,
        lambda i: ((xs >> np.uint64(i)) & np.uint64(1)).astype(np.uint8),
        np.ones(xs.shape, dtype=np.uint8),
    )


def to_truth_table(expr: CircuitExpr, n: int) -> np.ndarray:
    if n > TRUTH_TABLE_CAP:
        raise ValueError(f"dense table at n={n} > {TRUTH_TABLE_CAP} refused")
    return eval_on_ints(expr, np.arange(1 << n, dtype=np.uint64))


def exact_mean(expr: CircuitExpr, n: int) -> Fraction:
    """mu(C) = Pr_x[C(x) = 1] by full enumeration."""
    table = to_truth_table(expr, n)
    return Fraction(int(table.sum()), 1 << n)


def _char_words() -> np.ndarray:
    """CHAR[m], for each 6-bit mask m: the 64-bit word whose bit j is the
    parity of j & m, the xor of the words of bit k of j for each set bit k
    of m."""
    words = [0]
    for k in range(6):
        column = sum(1 << j for j in range(64) if j >> k & 1)
        words += [word ^ column for word in words]
    return np.array(words, dtype=np.uint64)


CHAR = _char_words()
_ALL = np.uint64((1 << 64) - 1)
_VALID = np.array([(1 << (1 << b)) - 1 for b in range(7)], dtype=np.uint64)  # by min(rank, 6)


class _CircuitOracle(Oracle):
    """A circuit as a sampler oracle, summed bit-sliced, 64 points to a word.

    Point t of a coset c + span(B) of rank b, t < 2^b, is c xor the B[s]
    of each set bit s of t, so its input bit i is c_i xor the parity of
    t & m_i, where bit s of m_i is bit i of B[s]: a linear map from coset
    coordinates to inputs.  Word w of the coset holds the points t = 64w +
    j, j < 64, and there input i is the word CHAR[m_i & 63], xored with
    all ones where c_i xor parity(w & (m_i >> 6)) is 1.  coset_sums lays
    the words of every coset end to end, 2^max(b - 6, 0) each, and
    evaluates the circuit once per pass of at most max(1, 2^TEMP_BITS / n)
    words, so that the pass's n input rows hold at most 2^TEMP_BITS words;
    ~ is xor with all ones.  A word counts its set bits under its coset's
    valid mask, the low 2^b bits where b < 6 (j then repeats the 2^b
    points), else all 64.  No point array is built.  The cube, the last
    coset of a run's call where some batch covers it, is 2^max(n - 6, 0)
    words."""

    def __init__(self, expr: CircuitExpr, n: int):
        self.expr = expr
        self.n = n

    def coset_sums(self, cosets: list[tuple[int, tuple[int, ...]]]) -> list:
        if not cosets:
            return []
        offsets, bases = zip(*cosets)
        ranks = np.fromiter(map(len, bases), dtype=np.int64, count=len(bases))
        top = int(ranks.max())
        padded = np.fromiter(
            chain.from_iterable(basis + (0,) * (top - len(basis)) for basis in bases),
            dtype=np.uint64, count=len(bases) * top,
        ).reshape(len(bases), top, 1)
        inputs = np.arange(self.n, dtype=np.uint64)
        bits = (padded >> inputs) & np.uint64(1)  # [k, s, i]: bit i of B[s] of coset k
        maps = (bits << np.arange(top, dtype=np.uint64)[:, None]).sum(axis=1, dtype=np.uint64).T
        low = CHAR[maps & np.uint64(63)]
        # c_i rides in bit 63 of high, above the at most 58 bits of m_i >> 6,
        # and every word index carries bit 63, so one parity gives
        # c_i xor parity(w & (m_i >> 6))
        c = np.fromiter(offsets, dtype=np.uint64, count=len(offsets))
        high = (maps >> np.uint64(6)) | ((c >> inputs[:, None]) & np.uint64(1)) << np.uint64(63)
        valid = _VALID[np.minimum(ranks, 6)]
        sizes = np.left_shift(1, np.maximum(ranks - 6, 0))
        ends = np.cumsum(sizes)
        total = int(ends[-1])
        step = max(1, (1 << sampler.TEMP_BITS) // self.n)
        sums = [0] * len(cosets)
        for first in range(0, total, step):
            words = np.arange(first, min(first + step, total))
            ks = np.searchsorted(ends, words, side="right")
            w = (words - ends[ks] + sizes[ks]).astype(np.uint64) | np.uint64(1 << 63)
            x = low[:, ks] ^ (np.bitwise_count(high[:, ks] & w) & np.uint8(1)) * _ALL
            value = _evaluate(self.expr, x.__getitem__, np.full(words.shape, _ALL))
            counts = np.bincount(ks, weights=np.bitwise_count(value & valid[ks]), minlength=len(sums))
            sums = [old + new for old, new in zip(sums, counts.astype(np.int64).tolist())]
        return sums


def _clamp_unit(y: Fraction) -> Fraction:
    return min(max(y, Fraction(0)), Fraction(1))


class AcceptanceSession:
    """Up to k rounds of: give a circuit, get Y = mu(C) +- epsilon in [0,1]."""

    def __init__(self, n: int, k: int, epsilon, delta, source: BitSource):
        check_runnable(n)
        self.n = n
        self.k = k
        self.epsilon = Fraction(epsilon)
        self.delta = Fraction(delta)
        eps, round_delta, gamma = round_budget(k, 1, self.epsilon, self.delta)
        self.plan: SamplerPlan = plan_sampler(n, eps, round_delta)
        self.config = StewardConfig(self.plan.seed_bits, k, 1, eps, round_delta, gamma)
        self.session = Session(self.config, source)

    @property
    def bits_used(self) -> int:
        return self.session.bits_used

    def estimate(self, query) -> Fraction:
        """Y = E[query] +- epsilon in [0,1]; the query is a circuit, as text or
        parsed, or any 0/1 sampler oracle on n bits."""
        if isinstance(query, str):
            query = parse_circuit(query, self.n)
        oracle = query if isinstance(query, Oracle) else _CircuitOracle(query, self.n)

        def f(tape: int):  # through the module, so a patched run_sampler is seen
            return [sampler.run_sampler(self.plan, oracle, tape)]

        return _clamp_unit(self.session.answer(f)[0])


def acceptance_session(n: int, k: int, epsilon, delta, source: BitSource) -> AcceptanceSession:
    """Only renames AcceptanceSession.  It stays because perfbench/workloads.py
    imports it, and it goes with ROADMAP item 1."""
    return AcceptanceSession(n, k, epsilon, delta, source)


def run_promise_bpp_oracle_algorithm(
    outer: Callable[[Callable[[object], int]], object],
    decision_oracle: Callable[[object, int], int],
    n: int,
    k: int,
    delta,
    source: BitSource,
):
    """Run outer(ask); each ask(query) thresholds an estimate of the oracle's
    acceptance probability at 1/2.

    decision_oracle(query, coins) uses n coin bits, given as an n-bit int,
    and errs on at most 1/3 of tapes for promise-satisfying queries, so with
    estimate error below epsilon = 1/10 every such answer is correct;
    overall failure <= delta.
    The seed is drawn at the first ask, if any; clamping estimates to [0,1]
    cannot change a comparison with 1/2.
    """
    session = AcceptanceSession(n, k, Fraction(1, 10), delta, source)

    def ask(query) -> int:
        oracle = FnOracle(n, lambda coins: decision_oracle(query, coins))
        return 1 if session.estimate(oracle) >= Fraction(1, 2) else 0

    return outer(ask)


def run_app_oracle_algorithm(
    outer: Callable[[Callable[[object], Fraction]], object],
    phi_estimator: Callable[[object, int], object],
    n: int,
    k: int,
    epsilon,
    delta,
    source: BitSource,
):
    """Run outer(ask); ask(w) estimates phi(w) to +-epsilon, all k answers
    good except with probability delta.

    phi_estimator(w, coins) uses n coin bits, given as an n-bit int, and
    lands within the round's accuracy, the epsilon of
    steward.round_budget(k, 1, epsilon, delta), of phi(w) on >= 2/3 of coin
    strings.  The lower median over r = median_reps(round failure share)
    independent coin strings, one r*n-bit block of the steward, pushes its
    failure to that share; the steward's rounding brings the answer to
    within epsilon.  Estimates are not clamped -- phi need not be a
    probability.  The seed is drawn at the first ask.
    """
    eps, round_delta, gamma = round_budget(k, 1, epsilon, delta)
    r = median_reps(round_delta)
    session = Session(StewardConfig(r * n, k, 1, eps, round_delta, gamma), source)

    def ask(w) -> Fraction:
        def f(tape: int):
            return [lower_median([phi_estimator(w, coins) for coins in split_blocks(tape, n, r)])]

        return session.answer(f)[0]

    return outer(ask)
