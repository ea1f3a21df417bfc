import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from randsteward.randomness import int_to_bits

from oracles import ref_bits_to_int, ref_tree_distribution, ref_tv
from trees import (
    BlockDecisionTree,
    CapExceeded,
    NodeDistribution,
    evaluate,
    exact_node_distribution,
    tv_distance,
)

DEMO = BlockDecisionTree(
    k=2,
    n=1,
    sigma=2,
    tables={(): [0, 1], (0,): [1, 1], (1,): [0, 1]},
)


def random_table_tree(rng: random.Random, k: int, n: int, sigma: int) -> BlockDecisionTree:
    tables = {}
    frontier = [()]
    for _ in range(k):
        nxt = []
        for path in frontier:
            if rng.random() < 0.8:  # leave some nodes implicit (constant 0)
                tables[path] = [rng.randrange(sigma) for _ in range(1 << n)]
            nxt.extend(path + (sym,) for sym in range(sigma))
        frontier = nxt
    return BlockDecisionTree(k=k, n=n, sigma=sigma, tables=tables)


def test_shape_validation():
    with pytest.raises(ValueError):
        BlockDecisionTree(k=0, n=1, sigma=2, tables={})
    with pytest.raises(ValueError):
        BlockDecisionTree(k=1, n=2, sigma=2, tables={(): [0, 1]})  # row too short
    with pytest.raises(ValueError):
        BlockDecisionTree(k=1, n=1, sigma=2, tables={(): [0, 2]})  # symbol out of range


@pytest.mark.parametrize(
    "path",
    [(5,), (0, 0, 0), (0, 2), (-1,), (1, 1)],  # a bad symbol, or a node at depth >= k
)
def test_a_table_key_must_be_an_internal_node(path):
    with pytest.raises(ValueError, match="path"):
        BlockDecisionTree(k=2, n=1, sigma=2, tables={path: [0, 1]})
    BlockDecisionTree(k=2, n=1, sigma=2, tables={(): [0, 1], (1,): [1, 1]})


def test_evaluate_goldens():
    assert evaluate(DEMO, [1, 0]) == (1, 0)
    assert evaluate(DEMO, [0, 1]) == (0, 1)
    assert evaluate(DEMO, [0, 0]) == (0, 1)  # node (0,) maps everything to 1


def test_evaluate_defaults_missing_nodes_to_zero():
    tree = BlockDecisionTree(k=3, n=1, sigma=3, tables={(): [2, 1]})
    assert evaluate(tree, [0, 1, 1]) == (2, 0, 0)


def test_evaluate_validates_blocks():
    with pytest.raises(ValueError):
        evaluate(DEMO, [1])
    with pytest.raises(ValueError):
        evaluate(DEMO, [2, 0])  # a two-bit block in a one-bit tree
    with pytest.raises(ValueError):
        evaluate(DEMO, [-1, 0])


def test_uniform_distribution_matches_reference():
    rng = random.Random(20240817)
    for k, n, sigma in [(2, 1, 2), (3, 2, 2), (2, 2, 3), (4, 1, 2), (2, 3, 4)]:
        for _ in range(4):
            tree = random_table_tree(rng, k, n, sigma)
            got = exact_node_distribution(tree)
            want = ref_tree_distribution(
                lambda bits: _ref_path(tree.tables, n, k, bits), k, n
            )
            denom = 1 << (n * k)
            assert got.probs == {p: Fraction(c, denom) for p, c in want.items()}
            assert got.total() == 1


def _ref_path(tables, n: int, k: int, bits: str) -> tuple[int, ...]:
    """The leaf path on a bit string, read block by block from the tables."""
    path = ()
    for j in range(k):
        row = tables.get(path)
        path += (0 if row is None else int(row[ref_bits_to_int(bits[j * n : (j + 1) * n])]),)
    return path


def test_generator_distribution_matches_string_reference():
    # an int generator against the string tree walk over every seed; the
    # strings exist only here
    rng = random.Random(20_240_818)
    for k, n, sigma, seed_len in [(2, 1, 2, 3), (3, 2, 2, 5), (2, 3, 4, 8), (4, 2, 3, 6)]:
        for _ in range(3):
            tree = random_table_tree(rng, k, n, sigma)
            outputs = [rng.getrandbits(n * k) for _ in range(1 << seed_len)]
            got = exact_node_distribution(tree, generator=outputs.__getitem__, seed_len=seed_len)
            want = ref_tree_distribution(
                lambda bits: _ref_path(
                    tree.tables, n, k, int_to_bits(outputs[ref_bits_to_int(bits)], n * k)
                ),
                1, seed_len,
            )
            assert got.probs == {p: Fraction(c, 1 << seed_len) for p, c in want.items()}


def test_counting_agrees_with_enumeration():
    rng = random.Random(7)
    tree = random_table_tree(rng, 3, 2, 3)
    by_counting = exact_node_distribution(tree)
    by_enumeration = exact_node_distribution(
        tree, generator=lambda s: s, seed_len=tree.n * tree.k
    )
    assert by_counting.probs == by_enumeration.probs


def test_identity_generator_reproduces_uniform():
    tree = random_table_tree(random.Random(11), 2, 2, 2)
    uniform = exact_node_distribution(tree)
    seeded = exact_node_distribution(tree, generator=lambda s: s, seed_len=4)
    assert tv_distance(uniform, seeded) == 0


def test_constant_generator_is_a_point_mass():
    dist = exact_node_distribution(DEMO, generator=lambda s: 0b01, seed_len=3)
    assert dist.probs == {(1, 0): Fraction(1)}
    uniform = exact_node_distribution(DEMO)
    assert tv_distance(dist, uniform) == 1 - uniform.probs[(1, 0)]


def test_tv_distance_basics():
    p = NodeDistribution(k=1, sigma=2, probs={(0,): Fraction(1, 2), (1,): Fraction(1, 2)})
    q = NodeDistribution(k=1, sigma=2, probs={(0,): Fraction(1)})
    assert tv_distance(p, p) == 0
    assert tv_distance(p, q) == tv_distance(q, p) == Fraction(1, 2)
    with pytest.raises(ValueError):
        tv_distance(p, NodeDistribution(k=2, sigma=2, probs={}))


@st.composite
def dyadic_leaf_pairs(draw):
    """Two leaf distributions on one (k, sigma) shape, each 2^m units of mass
    dropped on drawn leaves, m drawn per distribution."""
    k, sigma = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    leaves = st.sampled_from(list(itertools.product(range(sigma), repeat=k)))
    pair = []
    for _ in range(2):
        units = 1 << draw(st.integers(0, 5))
        counts = Counter(draw(st.lists(leaves, min_size=units, max_size=units)))
        pair.append({path: Fraction(c, units) for path, c in counts.items()})
    return k, sigma, pair


@given(dyadic_leaf_pairs())
def test_tv_distance_matches_reference(case):
    k, sigma, (p, q) = case
    got = tv_distance(NodeDistribution(k, sigma, p), NodeDistribution(k, sigma, q))
    assert got == ref_tv(p, q)


def test_enumeration_caps():
    big = BlockDecisionTree(k=5, n=5, sigma=2, tables={})
    with pytest.raises(CapExceeded):
        exact_node_distribution(big)
    with pytest.raises(CapExceeded):
        exact_node_distribution(DEMO, generator=lambda s: 0, seed_len=30)
    with pytest.raises(ValueError):
        exact_node_distribution(DEMO, generator=lambda s: 0)  # seed_len missing
    # a permissive cap lets the same instance through
    small = BlockDecisionTree(k=2, n=1, sigma=2, tables={})
    assert exact_node_distribution(small, cap=2).total() == 1


def test_generator_output_length_checked():
    with pytest.raises(ValueError):
        exact_node_distribution(DEMO, generator=lambda s: 4, seed_len=2)  # 3 bits, nk = 2
