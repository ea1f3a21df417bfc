"""Randomness stewards: answer k adaptive estimation queries with ~n + O(k log d) bits.

The protocol stack, bottom to top: audited bit sources (`randomness`),
GF(2^m) arithmetic (`gf2`), extractors that xor in a small-bias string
(`extract`), the recursive generator fooling block decision trees, which
owns the block layout of its output (`prg`), the steward protocol with its
exact shift-and-round (`steward`), pairwise-independent samplers seeded by
expander walks that they decode themselves (`sampler`), and two
applications: heavy Fourier coefficient search (`fourier`) and adaptive
circuit acceptance estimation (`circuits`).  The block decision trees
themselves are a test model (tests/trees.py): no steward builds one.
`adversary` holds owners that break naive baselines.
"""

__version__ = "0.1.0"
