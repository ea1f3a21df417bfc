"""Boolean circuit expressions and steward-backed acceptance estimation.

The expression DSL covers variables x0..x{n-1}, constants 0/1, and ~ & ^ |
with precedence NOT > AND > XOR > OR (binary operators left-associative).
parse_circuit reads its tokens in one regular-expression scan, where any
other non-space character is an error at its own position, and builds the
tree by precedence climbing over one table.  Circuits here are expression
trees, not gate lists: enough structure to exercise the adaptive protocol
while keeping the parser small.

`AcceptanceSession` answers up to k adaptively chosen circuits with
estimates of their acceptance probability mu(C) = Pr_x[C(x) = 1].  A query
is a circuit, as text or as a parsed tree, or any object with the sampler's
oracle contract, n and coset_sums; estimate tells them apart by that
contract and refuses a tree that reads a variable past x{n-1}, or an oracle
on other than n bits, before the session draws a bit.  Round i
wraps a median-of-batches sampler run for C_i into a scalar function of the
steward's block, an int that is the sampler's seed as it stands.
steward.round_budget turns (k, epsilon, delta) into the round's accuracy and
failure share, which plan the sampler, and into the d = 1 steward whose
rounding brings each answer back to within epsilon; the reported estimate is
clamped to [0,1].  So every Y_i is within epsilon of mu(C_i) except with
probability delta, at a coin cost of one steward seed, drawn at the
session's first estimate.  The sampler sums a circuit over affine cosets,
the whole cube among them, and _CircuitOracle sums them in one of two
domains, chosen from n and the cosets' ranks alone.  Where n <= TEMP_BITS
and the cube's parity masks cost no more bits than the words' input rows,
it evaluates the expression tree once on the whole cube, as one 2^n-bit
int, and counts each coset under its masks; otherwise it evaluates the
tree once per pass on uint64 words of 64 points each, bit-sliced (Biham
1997).  One tree walker (_evaluate), with its own stack so that a deep
tree does not hit the recursion limit, serves both and the pointwise
eval_on_ints, which to_truth_table and exact_mean use.  parse_circuit
refuses nesting deeper than the recursion limit allows as a syntax error.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from . import sampler
from .prg import split_blocks
from .randomness import BitSource
from .sampler import (
    FnOracle,
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

_TOKEN = re.compile(r"(x[0-9]+|[01&^|~()])|\S")

_PRECEDENCE = {"|": 1, "^": 2, "&": 3}


def parse_circuit(text: str, n: int) -> CircuitExpr:
    """The tree of text over x0..x{n-1}; a CircuitSyntaxError carries the
    position of the character or token at fault, len(text) at its end."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1) is None:
            raise CircuitSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group(1), m.start()))
    if not tokens:
        raise CircuitSyntaxError("empty expression", 0)
    tokens.append((None, len(text)))
    i = 0

    def binary(min_prec: int = 1):
        """Precedence climbing: a left-associative chain of the operators
        binding at least as tightly as min_prec, each right operand one
        level tighter."""
        nonlocal i
        expr = unary()
        while _PRECEDENCE.get(tokens[i][0], 0) >= min_prec:
            op = tokens[i][0]
            i += 1
            expr = BinOp(op, expr, binary(_PRECEDENCE[op] + 1))
        return expr

    def unary():
        nonlocal i
        tok, pos = tokens[i]
        if tok is None:
            raise CircuitSyntaxError("expression ends early", pos)
        i += 1
        if tok == "~":
            return Not(unary())
        if tok == "(":
            expr = binary()
            if tokens[i][0] != ")":
                raise CircuitSyntaxError("unclosed parenthesis", pos)
            i += 1
            return expr
        if tok in ("0", "1"):
            return Const(int(tok))
        if tok.startswith("x"):
            index = int(tok[1:])
            if index >= n:
                raise CircuitSyntaxError(f"variable {tok} out of range for n={n}", pos)
            return Var(index)
        raise CircuitSyntaxError(f"unexpected token {tok!r}", pos)

    try:
        expr = binary()
    except RecursionError:
        raise CircuitSyntaxError("expression nests too deeply", tokens[i][1]) from None
    finally:
        del binary, unary  # each holds the other's cell: free the cycle here, not in the collector
    if tokens[i][0] is not None:
        raise CircuitSyntaxError(f"unexpected token {tokens[i][0]!r}", tokens[i][1])
    return expr


# pending operators on _evaluate's stack: private, so no tree holds them
_AND, _XOR, _OR, _NOT = (object() for _ in range(4))


def _evaluate(expr: CircuitExpr, leaf: Callable[[int], object], ones):
    """The circuit on bit-parallel values: leaf(i) is the value of x_i and
    ones the all-ones value, a uint64 or uint8 array whose shape and dtype
    every result takes, or a Python int.  The tree is walked with an
    explicit stack, so its depth is not bounded by Python's recursion
    limit: a gate pushes its operator under its operands, left on top, and
    the operator applies once both values are in, so leaves are read left
    to right."""
    values = []
    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            values.append(leaf(node.index))
        elif isinstance(node, BinOp):
            op = _AND if node.op == "&" else _XOR if node.op == "^" else _OR
            todo += (op, node.right, node.left)
        elif node is _AND:
            b = values.pop()
            values[-1] = values[-1] & b
        elif node is _XOR:
            b = values.pop()
            values[-1] = values[-1] ^ b
        elif node is _OR:
            b = values.pop()
            values[-1] = values[-1] | b
        elif node is _NOT:
            values[-1] = values[-1] ^ ones
        elif isinstance(node, Not):
            todo += (_NOT, node.child)
        elif isinstance(node, Const):
            values.append(ones if node.value else ones ^ ones)
        else:
            raise TypeError(f"not a circuit node: {node!r}")
    return values.pop()


def eval_on_ints(expr: CircuitExpr, xs: np.ndarray) -> np.ndarray:
    """Evaluate on an array of little-endian point indices -> uint8 0/1."""
    xs = np.asarray(xs, dtype=np.uint64)
    return _evaluate(
        expr,
        lambda i: ((xs >> np.uint64(i)) & np.uint64(1)).astype(np.uint8),
        np.ones(xs.shape, dtype=np.uint8),
    )


def _check_width(expr: CircuitExpr, n: int) -> None:
    """Refuse a tree that reads some x_i with i >= n, which n-bit points
    would read as 0, or that is no circuit: one walk on no points."""
    none = np.zeros(0, dtype=np.uint8)

    def leaf(i: int) -> np.ndarray:
        if not 0 <= i < n:
            raise ValueError(f"variable x{i} out of range for n={n}")
        return none

    _evaluate(expr, leaf, none)


def to_truth_table(expr: CircuitExpr, n: int) -> np.ndarray:
    if n > TRUTH_TABLE_CAP:
        raise ValueError(f"dense table at n={n} > {TRUTH_TABLE_CAP} refused")
    _check_width(expr, n)
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


@lru_cache(maxsize=sampler.TEMP_BITS + 1)
def _cube_inputs(n: int) -> tuple[int, tuple[int, ...]]:
    """The all-ones int of 2^n bits and, for each i < n, the int X_i whose
    bit x is bit i of x: 2^i zeros, then 2^i ones, repeated."""
    ones = (1 << (1 << n)) - 1
    return ones, tuple(
        ones // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1 << (1 << i)) for i in range(n)
    )


def _by_basis(cosets: list[tuple[int, tuple[int, ...]]], n: int) -> dict:
    """The cosets' positions by basis, each with the basis's dual: {basis:
    (sampler.dual_basis(basis, n), positions)}, refusing a basis not in
    echelon form on n bits."""
    groups: dict = {}
    for k, (_, basis) in enumerate(cosets):
        group = groups.get(basis)
        if group is None:
            group = groups[basis] = (sampler.dual_basis(basis, n), [])
        group[1].append(k)
    return groups


class _CircuitOracle:
    """A circuit as a sampler oracle, summed over one of two domains.

    Every basis must be in echelon form, as the sampler hands them over;
    coset_sums refuses any other (_by_basis).  It sums over the cube iff
    n <= TEMP_BITS and 2^n * sum_k (n - r_k) <= n * sum_k 2^(r_k) over
    the ranks r_k of its cosets: the mask bits the cube domain would build
    against the input-row bits the word domain would.

    The cube domain evaluates the circuit once on all 2^n points, as a
    2^n-bit int whose bit x is C(x): input i is _cube_inputs's X_i, and ~
    is xor with all ones.  A coset c + span(B) is the points x with
    parity(x & h) = parity(c & h) for each h of B's dual, from
    sampler.dual_basis.  The parity table of h, the xor of the X_i over its
    bits, and its complement are built once per distinct basis; a coset's
    sum is the popcount of the circuit's table ANDed, for each h, with the
    one that is 1 where the parity is that of c & h.  The cube needs none.

    The word domain, the only one past n = TEMP_BITS, sums bit-sliced, 64
    points to a uint64 word.  Point t of a coset c + span(B) of rank b,
    t < 2^b, is c xor the B[s] of each set bit s of t.  A word holds the
    points t = 64w + j, j < 64, whose start point p (j = 0) lies in
    c + span(B[6:]); there input i is the word CHAR[m_i], where bit s < 6
    of m_i is bit i of B[s], xored with all ones where bit i of p is set.
    _word_sums takes the start points from sampler._stacked_chunks, in
    passes of at most 2^max(0, TEMP_BITS - bit_length(n - 1)) words, so
    that a pass's n input rows hold at most max(n, 2^TEMP_BITS) words, and
    evaluates the circuit once per pass.  A word counts its set bits under
    its coset's valid mask, the low 2^b bits where b < 6 (j then repeats
    the 2^b points), else all 64.

    The cube, the last coset of a run's call where some batch covers it,
    is 2^max(n - 6, 0) words, or the whole table."""

    def __init__(self, expr: CircuitExpr, n: int):
        self.expr = expr
        self.n = n

    def coset_sums(self, cosets: list[tuple[int, tuple[int, ...]]]) -> list:
        if not cosets:
            return []
        n = self.n
        groups = _by_basis(cosets, n)
        ranks = [len(basis) for _, basis in cosets]
        if n <= sampler.TEMP_BITS and (1 << n) * sum(n - r for r in ranks) <= n * sum(
            1 << r for r in ranks
        ):
            return self._cube_sums(cosets, groups)
        return self._word_sums(cosets)

    def _cube_sums(self, cosets: list[tuple[int, tuple[int, ...]]], groups: dict) -> list:
        ones, inputs = _cube_inputs(self.n)
        table = _evaluate(self.expr, inputs.__getitem__, ones)
        sums = [0] * len(cosets)
        for dual, ks in groups.values():
            masks = []  # (h, parity(x & h) over the cube, its complement)
            for h in dual:
                odd = 0
                for i, x in enumerate(inputs):
                    if h >> i & 1:
                        odd ^= x
                masks.append((h, odd, odd ^ ones))
            for k in ks:
                c = cosets[k][0]
                inside = table
                for h, odd, even in masks:
                    inside &= odd if (c & h).bit_count() & 1 else even
                sums[k] = inside.bit_count()
        return sums

    def _word_sums(self, cosets: list[tuple[int, tuple[int, ...]]]) -> list:
        inputs = np.arange(self.n, dtype=np.uint64)
        six = np.array([(basis + (0,) * 6)[:6] for _, basis in cosets], dtype=np.uint64)
        bits = (six[:, :, None] >> inputs) & np.uint64(1)  # [k, s, i]: bit i of B[s] of coset k
        maps = (bits << np.arange(6, dtype=np.uint64)[:, None]).sum(axis=1, dtype=np.uint64)
        low = CHAR[maps.T]  # [i, k]: input i of coset k's words, start point 0
        valid = _VALID[[min(len(basis), 6) for _, basis in cosets]]
        chunk_bits = max(0, sampler.TEMP_BITS - (self.n - 1).bit_length())
        sums = [0] * len(cosets)
        high = [(c, basis[6:]) for c, basis in cosets]
        for ks, starts in sampler._stacked_chunks(high, chunk_bits):
            owners = np.repeat(ks, starts.shape[1])  # the coset of each word
            x = low[:, owners] ^ ((starts.ravel() >> inputs[:, None]) & np.uint64(1)) * _ALL
            value = _evaluate(self.expr, x.__getitem__, np.full(owners.shape, _ALL))
            counts = np.bitwise_count(value & valid[owners]).reshape(starts.shape)
            for k, part in zip(ks.tolist(), counts.sum(axis=1, dtype=np.int64).tolist()):
                sums[k] += part
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
        """Y = E[query] +- epsilon in [0,1]; the query is a circuit on x0..x{n-1},
        as text or parsed, or any object with n and coset_sums whose values
        are 0/1.  A query that does not fit n is refused before any draw."""
        if isinstance(query, str):
            oracle = _CircuitOracle(parse_circuit(query, self.n), self.n)
        elif hasattr(query, "n") and hasattr(query, "coset_sums"):
            if query.n != self.n:
                raise ValueError(f"oracle has n={query.n}, the session n={self.n}")
            oracle = query
        else:
            _check_width(query, self.n)
            oracle = _CircuitOracle(query, self.n)

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
