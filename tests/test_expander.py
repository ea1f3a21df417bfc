"""The sampler's Gabber-Galil walk (sampler._walk_seeds) on the side-2^h
torus, the only moduli it walks, against the maps of oracles.ref_gg_neighbor."""

import random

import numpy as np
import pytest

from randsteward.randomness import TapeSource, int_to_bits
from randsteward.sampler import _walk_seeds

from harness import walk_step
from oracles import (
    GG_SECOND_EIGENVALUE_BOUND, adjacency_matrix, bits_from_vertex, permutation_array,
    ref_gg_neighbor, ref_torus_walk, ref_vertex_from_bits,
)

SIDES = [1 << h for h in range(1, 7)]


def walk(m, start, labels):
    """The last vertex of the sampler's walk from start under labels on the
    side-m torus: the labels packed above the start vertex, low end first."""
    h = m.bit_length() - 1
    seed = start[0] | start[1] << h
    for i, label in enumerate(labels):
        seed |= label << 2 * h + 3 * i
    return _walk_seeds(seed, h, len(labels))[-1]


def test_neighbor_goldens():
    assert [walk_step(8, (1, 2), label) for label in range(8)] == [
        (5, 2), (6, 2), (1, 4), (1, 5), (5, 2), (4, 2), (1, 0), (1, 7),
    ]
    # with m = 4 the doubled y contributes nothing mod 4, so label 0 fixes (1, 2)
    assert walk_step(4, (1, 2), 0) == (1, 2)
    assert walk_step(4, (1, 2), 1) == (2, 2)
    assert walk_step(2, (0, 0), 1) == (1, 0)


def test_neighbor_matches_reference_exhaustively():
    for m in SIDES:
        for x in range(m):
            for y in range(m):
                for label in range(8):
                    assert walk_step(m, (x, y), label) == ref_gg_neighbor(m, (x, y), label)


def test_labels_come_in_inverse_pairs():
    for m in SIDES:
        for x in range(m):
            for y in range(m):
                for label in range(4):
                    v = (x, y)
                    assert walk_step(m, walk_step(m, v, label), label + 4) == v
                    assert walk_step(m, walk_step(m, v, label + 4), label) == v


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16, 32, 64])
def test_each_label_is_a_permutation(m):
    ids = np.arange(m * m)
    for label in range(8):
        perm = permutation_array(walk_step, m, label)
        assert np.array_equal(np.sort(perm), ids)


def test_permutation_array_agrees_with_neighbor():
    m = 8
    for label in range(8):
        perm = permutation_array(walk_step, m, label)
        for x in range(m):
            for y in range(m):
                nx, ny = walk_step(m, (x, y), label)
                assert perm[x + m * y] == nx + m * ny


@pytest.mark.parametrize("m", [1, 2, 8, 32])
def test_permutation_array_matches_reference(m):
    for label in range(8):
        want = [
            nx + m * ny
            for y in range(m)
            for x in range(m)
            for nx, ny in [ref_gg_neighbor(m, (x, y), label)]
        ]
        assert permutation_array(walk_step, m, label).tolist() == want


def test_adjacency_matrix_is_symmetric_doubly_stochastic():
    a = adjacency_matrix(walk_step, 8)
    assert np.allclose(a, a.T)
    assert np.allclose(a.sum(axis=0), 1.0)
    assert np.allclose(a.sum(axis=1), 1.0)


@pytest.mark.parametrize("m", [4, 8, 16])
def test_second_eigenvalue_within_bound(m):
    a = adjacency_matrix(walk_step, m)
    eigs = np.sort(np.abs(np.linalg.eigvalsh(a)))[::-1]
    assert eigs[0] == pytest.approx(1.0)
    assert eigs[1] <= float(GG_SECOND_EIGENVALUE_BOUND)


def test_walk_goldens():
    assert walk(4, (2, 1), []) == (2, 1)
    assert walk(4, (0, 0), [1, 3, 0]) == (3, 3)
    assert walk(4, (0, 0), [2, 2]) == (0, 0)
    assert walk(8, (2, 3), [7, 7, 2, 5]) == (7, 5)


def test_single_step_walk_is_neighbor():
    for label in range(8):
        assert walk(8, (3, 5), [label]) == ref_gg_neighbor(8, (3, 5), label)
    labels = [7, 0, 3, 3, 5]
    v = (3, 5)
    for label in labels:
        v = walk_step(8, v, label)
    assert walk(8, (3, 5), labels) == v


def start(seed, half):
    """The start vertex of the walk that seed encodes."""
    return _walk_seeds(seed, half, 0)[0]


def test_torus_side_goldens():
    # s-bit strings embed on the side-2^ceil(s/2) torus: the all-ones
    # string reaches its largest coordinate
    for s, side in [(0, 1), (1, 2), (2, 2), (3, 4), (8, 16), (45, 1 << 23)]:
        assert max(start((1 << s) - 1, (s + 1) // 2)) + 1 == side


def test_vertex_from_bits_goldens():
    assert start(0b1101, 2) == (1, 3)  # the string "1011"
    # odd length: the high coordinate's top bit is zero
    assert start(0b101, 2) == (1, 1)
    assert bits_from_vertex((1, 1), 3) == "101"
    assert bits_from_vertex((1, 3), 4) == "1011"
    # bits above the start vertex belong to the labels
    assert start(0b111_1101, 2) == (1, 3)
    assert start(12345, 0) == (0, 0)


def test_bits_round_trip_exhaustive():
    for s in range(1, 10):
        half = (s + 1) // 2
        for value in range(1 << s):
            bits = format(value, f"0{s}b")[::-1]
            v = start(value, half)
            assert v == ref_vertex_from_bits(bits)
            assert 0 <= v[0] < 1 << half and 0 <= v[1] < 1 << half
            assert bits_from_vertex(v, s) == bits


def test_seed_walk_matches_reference():
    # the one-int decoder against the string walk that draws step by step,
    # which decodes each 3-bit label itself; halves 18 and 20 are the field
    # widths of the benchmark's sampler plans
    rng = random.Random(8)
    assert _walk_seeds(0b1101, 2, 0) == [(1, 3)]
    cases = [(rng.randint(0, 12), rng.randint(0, 40)) for _ in range(300)]
    cases += [(half, rng.randint(0, 110)) for half in (18, 20) for _ in range(20)]
    for half, steps in cases:
        width = 2 * half + 3 * steps
        seed = rng.getrandbits(width)
        want = ref_torus_walk(2 * half, steps + 1, TapeSource(int_to_bits(seed, width)))
        assert _walk_seeds(seed, half, steps) == want
