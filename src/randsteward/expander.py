"""Gabber-Galil expanders on the torus Z_m x Z_m.

Degree 8: labels 0..3 apply (x+2y, y), (x+2y+1, y), (x, y+2x), (x, y+2x+1)
mod m, labels 4..7 their inverses, so every label is a permutation of the
vertex set and a walk from the uniform distribution stays uniform.  This is
the affine family whose normalized second eigenvalue is at most
5*sqrt(2)/8 ~= 0.8839 for every modulus m; we carry the rational upper
bound 221/250 = 0.884 and the test suite checks it numerically for small m.
(The coefficient of 2 matters: the superficially similar maps (x+y, y) /
(x, y+x) blow past 0.884 already at m = 16.)

Bit embedding: an s-bit string splits little-endian into two s/2-bit torus
coordinates on the side-2^ceil(s/2) torus; odd s is zero-padded by one bit
(charged as +1 entropy deficit by the extractor planner).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable

import numpy as np

from .randomness import bits_to_int

Vertex = tuple[int, int]

DEGREE = 8
SECOND_EIGENVALUE_BOUND = Fraction(221, 250)


@dataclass(frozen=True)
class GabberGalilGraph:
    m: int
    degree: ClassVar[int] = DEGREE
    lambda_hat: ClassVar[Fraction] = SECOND_EIGENVALUE_BOUND

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("modulus m must be >= 1")


def neighbor(g: GabberGalilGraph, v: Vertex, label: int) -> Vertex:
    return walk(g, v, (label,))


def walk(g: GabberGalilGraph, start: Vertex, labels: Iterable[int]) -> Vertex:
    """Follow the labels from start; the eight maps are written out only here."""
    m = g.m
    x, y = start
    for label in labels:
        if label == 0:
            x = (x + 2 * y) % m
        elif label == 1:
            x = (x + 2 * y + 1) % m
        elif label == 2:
            y = (y + 2 * x) % m
        elif label == 3:
            y = (y + 2 * x + 1) % m
        elif label == 4:
            x = (x - 2 * y) % m
        elif label == 5:
            x = (x - 2 * y - 1) % m
        elif label == 6:
            y = (y - 2 * x) % m
        elif label == 7:
            y = (y - 2 * x - 1) % m
        else:
            raise ValueError(f"label must be 0..7, got {label}")
    return x, y


def permutation_array(g: GabberGalilGraph, label: int) -> np.ndarray:
    """perm[x + m*y] = image vertex id under the label's map (from `neighbor`)."""
    m = g.m
    images = (neighbor(g, (x, y), label) for y in range(m) for x in range(m))
    return np.fromiter((nx + m * ny for nx, ny in images), dtype=np.int64, count=m * m)


def adjacency_matrix(g: GabberGalilGraph) -> np.ndarray:
    """Dense normalized walk matrix (column-stochastic, double since regular)."""
    size = g.m * g.m
    a = np.zeros((size, size))
    ids = np.arange(size)
    for label in range(DEGREE):
        a[permutation_array(g, label), ids] += 1.0 / DEGREE
    return a


def torus_side_for_bits(s: int) -> int:
    """Side of the torus embedding s-bit strings: 2^ceil(s/2)."""
    return 1 << ((s + 1) // 2)


def vertex_from_bits(bits: str) -> Vertex:
    if len(bits) % 2:
        bits = bits + "0"
    half = len(bits) // 2
    return (bits_to_int(bits[:half]), bits_to_int(bits[half:]))
