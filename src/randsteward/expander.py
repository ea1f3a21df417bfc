"""Gabber-Galil expanders on the torus Z_m x Z_m.

Degree 8: labels 0..3 apply (x+2y, y), (x+2y+1, y), (x, y+2x), (x, y+2x+1)
mod m, labels 4..7 their inverses, so every label is a permutation of the
vertex set and a walk from the uniform distribution stays uniform.  This is
the affine family whose normalized second eigenvalue is at most
5*sqrt(2)/8 ~= 0.8839 for every modulus m; we carry the rational upper
bound 221/250 = 0.884 and the test suite checks it numerically for small m.
(The coefficient of 2 matters: the superficially similar maps (x+y, y) /
(x, y+x) blow past 0.884 already at m = 16.)

Seed layout.  The median sampler reads walks from seed bits only through
seed_start, seed_labels and seed_walk: an int seed starts at the vertex (low
half bits, next half bits) of the side-2^half torus and follows the 3-bit
fields above those 2*half bits, low end first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable

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


# octal digit characters -> label bytes 0..7
_OCTAL = bytes.maketrans(b"01234567", bytes(range(8)))


def seed_start(seed: int, half: int) -> Vertex:
    """The torus vertex in the low 2*half bits of seed: low half bits first."""
    mask = (1 << half) - 1
    return seed & mask, seed >> half & mask


def seed_labels(seed: int, count: int) -> bytes:
    """The count 3-bit fields of seed, low end first: octal digits reversed."""
    return format(seed, f"0{count}o")[::-1][:count].encode().translate(_OCTAL)


def seed_walk(seed: int, half: int, steps: int) -> list[Vertex]:
    """The steps + 1 vertices of the walk that seed encodes on the side-2^half
    torus: its start vertex, then one vertex per label above it."""
    g = GabberGalilGraph(1 << half)
    vertex = seed_start(seed, half)
    vertices = [vertex]
    for label in seed_labels(seed >> 2 * half, steps):
        vertex = walk(g, vertex, (label,))
        vertices.append(vertex)
    return vertices
