"""Randomness stewards: answer k adaptive estimation queries with ~n + O(k log d) bits.

The protocol stack, bottom to top: audited bit sources (`randomness`),
constant-degree expander walks (`expander`), walk-based extractors
(`extract`), block decision trees (`bdt`) and the recursive generator fooling
them (`prg`), the steward protocol with its exact shift-and-round (`steward`),
pairwise-independent and averaging samplers (`sampler`), and two
applications: heavy Fourier coefficient search (`fourier`) and adaptive
circuit acceptance estimation (`circuits`).  `adversary` holds owners that
break naive baselines.
"""

from .randomness import (
    BitSource,
    BudgetReport,
    CounterSource,
    SystemSource,
    TapeExhausted,
    TapeSource,
)
from .expander import GabberGalilGraph, neighbor, walk
# the extract *function* stays in its submodule: exporting it here would
# shadow randsteward.extract itself
from .extract import ExtractorParams, FreshExtractorParams, plan_extractor
from .bdt import BlockDecisionTree, exact_node_distribution, table_tree, tv_distance
from .prg import PrgSchedule, build_schedule, expand
from .steward import (
    ConcentratedFn,
    Session,
    StewardConfig,
    Transcript,
    certification_check,
    run_steward,
)
from .sampler import (
    AveragingSamplerPlan,
    SamplerPlan,
    averaging_sample,
    median_amplify,
    plan_averaging,
    plan_sampler,
    sample_mean,
)
from .fourier import (
    FourierSpectrum,
    estimate_W,
    gl_randomness_audit,
    goldreich_levin,
    wht,
)
from .circuits import (
    acceptance_session,
    parse_circuit,
    print_circuit,
    run_app_oracle_algorithm,
    run_promise_bpp_oracle_algorithm,
)
from .adversary import boundary_owner, constant_owner, extracting_owner

__version__ = "0.1.0"

__all__ = [
    "BitSource", "BudgetReport", "TapeSource", "SystemSource", "CounterSource",
    "TapeExhausted",
    "GabberGalilGraph", "neighbor", "walk",
    "ExtractorParams", "FreshExtractorParams", "plan_extractor",
    "BlockDecisionTree", "table_tree", "exact_node_distribution", "tv_distance",
    "PrgSchedule", "build_schedule", "expand",
    "StewardConfig", "ConcentratedFn", "Session", "Transcript",
    "run_steward", "certification_check",
    "SamplerPlan", "AveragingSamplerPlan", "plan_sampler", "plan_averaging",
    "sample_mean", "averaging_sample", "median_amplify",
    "FourierSpectrum", "wht", "estimate_W", "goldreich_levin", "gl_randomness_audit",
    "parse_circuit", "print_circuit", "acceptance_session",
    "run_promise_bpp_oracle_algorithm", "run_app_oracle_algorithm",
    "constant_owner", "boundary_owner", "extracting_owner",
]
