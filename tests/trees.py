"""Block decision trees: depth-k trees reading n fresh bits per step.

The class of distinguishers that prg's generator must fool, kept as an
exact model for the tests; no steward builds a tree.

A (k, n, sigma) tree probes its input in k blocks of n bits.  Every internal
node v computes a symbol v(X) in {0, .., sigma-1} from the current block, and
the child taken is indexed by that symbol.  A node is named by the path of
symbols leading to it, so the tree's output *is* its leaf path -- these trees
model everything an adaptive adversary can remember about a protocol, which
is why generator quality is measured as statistical distance between leaf
distributions.

A block is an n-bit int whose bit i is the block's i-th bit, and k blocks
are one nk-bit int, block j in bits j*n .. (j+1)*n - 1; prg.split_blocks
cuts it by shift and mask.  A tree is its tables: one row of 2^n symbols per
node, indexed by the block.  Nodes omitted from the tables default to
constant symbol 0, which keeps sparse fixtures small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from randsteward.prg import split_blocks

ENUMERATION_CAP = 24

Path = tuple[int, ...]


class CapExceeded(ValueError):
    """Exact enumeration was asked to cover more bits than the configured cap."""


@dataclass
class BlockDecisionTree:
    k: int
    n: int
    sigma: int
    tables: dict[Path, np.ndarray]
    # one symbol is read per block, which is cheaper from a list than from numpy
    _symbols: dict[Path, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1 or self.n < 1 or self.sigma < 1:
            raise ValueError("need k >= 1, n >= 1, sigma >= 1")
        rows = {}
        for path, row in self.tables.items():
            if len(path) >= self.k or not all(0 <= s < self.sigma for s in path):
                raise ValueError(f"node {path}: need a path of < k symbols in 0..sigma-1")
            row = np.asarray(row, dtype=np.int64)
            if row.shape != (1 << self.n,):
                raise ValueError(f"node {path}: table row must have 2^{self.n} entries")
            if row.min() < 0 or row.max() >= self.sigma:
                raise ValueError(f"node {path}: symbols out of range")
            rows[tuple(path)] = row
        self.tables = rows
        self._symbols = {path: row.tolist() for path, row in rows.items()}


def evaluate(tree: BlockDecisionTree, blocks: list[int]) -> Path:
    """Leaf path reached on the given k blocks of n bits."""
    if len(blocks) != tree.k:
        raise ValueError(f"expected {tree.k} blocks, got {len(blocks)}")
    path: Path = ()
    for block in blocks:
        if block < 0 or block >> tree.n:
            raise ValueError(f"block {block} does not fit in {tree.n} bits")
        row = tree._symbols.get(path)
        path = path + (0 if row is None else row[block],)
    return path


@dataclass
class NodeDistribution:
    """Exact leaf-path distribution; probabilities are dyadic rationals."""

    k: int
    sigma: int
    probs: dict[Path, Fraction] = field(default_factory=dict)

    def total(self) -> Fraction:
        return sum(self.probs.values(), Fraction(0))


def tv_distance(p: NodeDistribution, q: NodeDistribution) -> Fraction:
    if (p.k, p.sigma) != (q.k, q.sigma):
        raise ValueError("distributions live on different tree shapes")
    keys = set(p.probs) | set(q.probs)
    return sum(
        (abs(p.probs.get(key, Fraction(0)) - q.probs.get(key, Fraction(0))) for key in keys),
        Fraction(0),
    ) / 2


def exact_node_distribution(
    tree: BlockDecisionTree,
    generator=None,
    seed_len: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> NodeDistribution:
    """Exact leaf distribution, over uniform blocks or over a generator's seeds.

    With no generator the input is U_{nk}, handled by per-node symbol
    counting (no enumeration).  With `generator` (a callable from a
    seed_len-bit int to an nk-bit int) every seed is enumerated.  Either way
    the cap bounds the bits being enumerated.
    """
    if generator is None:
        bits = tree.n * tree.k
        if bits > cap:
            raise CapExceeded(f"uniform enumeration over {bits} bits exceeds cap {cap}")
        return _uniform_by_counting(tree)
    if seed_len is None:
        raise ValueError("seed_len is required when a generator is supplied")
    if seed_len > cap:
        raise CapExceeded(f"seed enumeration over {seed_len} bits exceeds cap {cap}")
    counts: dict[Path, int] = {}
    for seed in range(1 << seed_len):
        path = evaluate(tree, split_blocks(generator(seed), tree.n, tree.k))
        counts[path] = counts.get(path, 0) + 1
    denom = 1 << seed_len
    return NodeDistribution(
        k=tree.k, sigma=tree.sigma,
        probs={path: Fraction(c, denom) for path, c in counts.items()},
    )


def _uniform_by_counting(tree: BlockDecisionTree) -> NodeDistribution:
    # Blocks are independent, so P(path) factors into per-node symbol counts.
    denom_per_level = Fraction(1, 1 << tree.n)
    probs: dict[Path, Fraction] = {}
    zeros = np.zeros(1 << tree.n, dtype=np.int64)

    def descend(path: Path, prob: Fraction) -> None:
        if len(path) == tree.k:
            probs[path] = prob
            return
        row = tree.tables.get(path)
        if row is None:
            row = zeros
        counts = np.bincount(row, minlength=tree.sigma)
        for sym in range(tree.sigma):
            if counts[sym]:
                descend(path + (sym,), prob * counts[sym] * denom_per_level)

    descend((), Fraction(1))
    return NodeDistribution(k=tree.k, sigma=tree.sigma, probs=probs)

