import random

import numpy as np
import pytest

from randsteward.expander import (
    DEGREE,
    GabberGalilGraph,
    seed_labels,
    seed_start,
    seed_walk,
    walk,
)
from randsteward.randomness import TapeSource, int_to_bits

from oracles import (
    adjacency_matrix, bits_from_vertex, permutation_array, ref_gg_neighbor, ref_torus_walk,
    ref_vertex_from_bits,
)


def neighbor(g, v, label):
    """One step of the walk: the vertex label's map sends v to."""
    return walk(g, v, (label,))


def test_neighbor_goldens():
    g = GabberGalilGraph(5)
    assert [neighbor(g, (1, 2), label) for label in range(8)] == [
        (0, 2), (1, 2), (1, 4), (1, 0), (2, 2), (1, 2), (1, 0), (1, 4),
    ]
    # with m = 4 the doubled y contributes nothing mod 4, so label 0 fixes (1, 2)
    g4 = GabberGalilGraph(4)
    assert neighbor(g4, (1, 2), 0) == (1, 2)
    assert neighbor(g4, (1, 2), 1) == (2, 2)
    assert neighbor(GabberGalilGraph(2), (0, 0), 1) == (1, 0)


def test_neighbor_matches_reference_exhaustively():
    for m in range(1, 7):
        g = GabberGalilGraph(m)
        for x in range(m):
            for y in range(m):
                for label in range(8):
                    assert neighbor(g, (x, y), label) == ref_gg_neighbor(m, (x, y), label)


def test_neighbor_rejects_bad_label():
    g = GabberGalilGraph(3)
    for label in (-1, 8):
        with pytest.raises(ValueError):
            neighbor(g, (0, 0), label)
        with pytest.raises(ValueError):
            permutation_array(walk, g, label)


def test_graph_rejects_bad_modulus():
    with pytest.raises(ValueError):
        GabberGalilGraph(0)


def test_labels_come_in_inverse_pairs():
    for m in range(1, 9):
        g = GabberGalilGraph(m)
        for x in range(m):
            for y in range(m):
                for label in range(4):
                    v = (x, y)
                    assert neighbor(g, neighbor(g, v, label), label + 4) == v
                    assert neighbor(g, neighbor(g, v, label + 4), label) == v


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 16])
def test_each_label_is_a_permutation(m):
    g = GabberGalilGraph(m)
    ids = np.arange(m * m)
    for label in range(DEGREE):
        perm = permutation_array(walk, g, label)
        assert np.array_equal(np.sort(perm), ids)


def test_permutation_array_agrees_with_neighbor():
    m = 6
    g = GabberGalilGraph(m)
    for label in range(DEGREE):
        perm = permutation_array(walk, g, label)
        for x in range(m):
            for y in range(m):
                nx, ny = neighbor(g, (x, y), label)
                assert perm[x + m * y] == nx + m * ny


@pytest.mark.parametrize("m", [1, 2, 5, 8, 13])
def test_permutation_array_matches_reference(m):
    for label in range(DEGREE):
        want = [
            nx + m * ny
            for y in range(m)
            for x in range(m)
            for nx, ny in [ref_gg_neighbor(m, (x, y), label)]
        ]
        assert permutation_array(walk, GabberGalilGraph(m), label).tolist() == want


def test_adjacency_matrix_is_symmetric_doubly_stochastic():
    a = adjacency_matrix(walk, GabberGalilGraph(6))
    assert np.allclose(a, a.T)
    assert np.allclose(a.sum(axis=0), 1.0)
    assert np.allclose(a.sum(axis=1), 1.0)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_second_eigenvalue_within_bound(m):
    g = GabberGalilGraph(m)
    a = adjacency_matrix(walk, g)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
    assert eigs[0] == pytest.approx(1.0)
    assert eigs[1] <= float(g.lambda_hat)


def test_walk_goldens():
    g = GabberGalilGraph(4)
    assert walk(g, (2, 1), []) == (2, 1)
    assert walk(g, (0, 0), [1, 3, 0]) == (3, 3)
    assert walk(g, (0, 0), [2, 2]) == (0, 0)
    assert walk(GabberGalilGraph(8), (2, 3), [7, 7, 2, 5]) == (7, 5)


def test_single_step_walk_is_neighbor():
    g = GabberGalilGraph(7)
    for label in range(8):
        assert walk(g, (3, 5), [label]) == ref_gg_neighbor(7, (3, 5), label)
    labels = [7, 0, 3, 3, 5]
    v = (3, 5)
    for label in labels:
        v = neighbor(g, v, label)
    assert walk(g, (3, 5), labels) == v


def test_torus_side_goldens():
    # s-bit strings embed on the side-2^ceil(s/2) torus: the all-ones
    # string reaches its largest coordinate
    for s, side in [(0, 1), (1, 2), (2, 2), (3, 4), (8, 16), (45, 1 << 23)]:
        assert max(seed_start((1 << s) - 1, (s + 1) // 2)) + 1 == side


def test_vertex_from_bits_goldens():
    assert seed_start(0b1101, 2) == (1, 3)  # the string "1011"
    # odd length: the high coordinate's top bit is zero
    assert seed_start(0b101, 2) == (1, 1)
    assert bits_from_vertex((1, 1), 3) == "101"
    assert bits_from_vertex((1, 3), 4) == "1011"
    # bits above the start vertex belong to the labels
    assert seed_start(0b111_1101, 2) == (1, 3)
    assert seed_start(12345, 0) == (0, 0)


def test_bits_round_trip_exhaustive():
    for s in range(1, 10):
        half = (s + 1) // 2
        for value in range(1 << s):
            bits = format(value, f"0{s}b")[::-1]
            v = seed_start(value, half)
            assert v == ref_vertex_from_bits(bits)
            assert 0 <= v[0] < 1 << half and 0 <= v[1] < 1 << half
            assert bits_from_vertex(v, s) == bits


def test_seed_labels_goldens():
    assert seed_labels(0o7650, 4) == bytes([0, 5, 6, 7])  # low field first
    assert seed_labels(0o5, 3) == bytes([5, 0, 0])  # missing high fields are 0
    assert seed_labels(0o7654, 2) == bytes([4, 5])  # fields past count are cut
    assert seed_labels(0o7, 0) == b""
    assert seed_labels(0, 0) == b""


def test_seed_walk_matches_reference():
    # the one-int decoder against the string walk that draws step by step
    rng = random.Random(8)
    assert seed_walk(0b1101, 2, 0) == [(1, 3)]
    for _ in range(300):
        half, steps = rng.randint(0, 12), rng.randint(0, 40)
        width = 2 * half + 3 * steps
        seed = rng.getrandbits(width)
        want = ref_torus_walk(2 * half, steps + 1, TapeSource(int_to_bits(seed, width)))
        assert seed_walk(seed, half, steps) == want
