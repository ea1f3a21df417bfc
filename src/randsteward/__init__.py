"""Randomness stewards: answer k adaptive estimation queries with ~n + O(k log d) bits.

The protocol stack, bottom to top: audited bit sources (`randomness`),
GF(2^m) arithmetic (`gf2`), extractors that xor in a small-bias string
(`extract`), block decision trees (`bdt`) and the recursive generator fooling
them (`prg`), the steward protocol with its exact shift-and-round (`steward`),
pairwise-independent samplers (`sampler`) with the expander walks that seed
them (`expander`), and two applications: heavy Fourier coefficient search
(`fourier`) and adaptive circuit acceptance estimation (`circuits`).
`adversary` holds owners that break naive baselines.
"""

__version__ = "0.1.0"
