"""Local Glauber dynamics: simulator, exact verifier, coupling toolkit, bounds.

The dataclasses that functions only return (ContractionEstimate,
CouplingLayers, RoundStats, TVCurve, ...) are not exported here; they stay
importable from the modules that define them. So do the helpers that only
their own module calls: dynamics.draw_round_randomness and
exact.stationary_uniform. exact.analyze_chain, the whole exact pipeline
that the CLI and the acceptance suite run, is imported from exact too.
"""

from .analysis import combined_bound, delta_wrapup, mixing_bound, optimize_gamma, path_bound, v0_bound
from .coupling import AdjacentPair, check_flip_path_lemmas, contraction_experiment, coupled_step, hamming_distance
from .dynamics import (
    DEFAULT_SEED, ChainConfig, RoundRandomness, apply_proposals, greedy_coloring, is_proper,
    random_coloring, run_chain, run_chain_trace, sequential_glauber_step, zeros_coloring,
)
from .errors import InfeasibleError, ParameterError, ParseError, ResourceLimitError, ValidationError
from .exact import (
    StateSpace, build_transition_matrix, check_absorption, check_detailed_balance,
    check_irreducibility, check_row_stochastic, check_uniform_stationary,
    enumerate_proper_colorings, exact_mixing_time, symmetry_reduced_starts, tv_curve,
)
from .graph import Graph, cycle_automorphisms, generate, parse_edge_list

__version__ = "0.1.0"

__all__ = [
    # analysis
    "combined_bound", "delta_wrapup", "mixing_bound", "optimize_gamma", "path_bound", "v0_bound",
    # coupling
    "AdjacentPair", "check_flip_path_lemmas", "contraction_experiment", "coupled_step", "hamming_distance",
    # dynamics
    "DEFAULT_SEED", "ChainConfig", "RoundRandomness", "apply_proposals", "greedy_coloring",
    "is_proper", "random_coloring", "run_chain", "run_chain_trace", "sequential_glauber_step",
    "zeros_coloring",
    # errors
    "InfeasibleError", "ParameterError", "ParseError", "ResourceLimitError", "ValidationError",
    # exact
    "StateSpace", "build_transition_matrix", "check_absorption", "check_detailed_balance",
    "check_irreducibility", "check_row_stochastic", "check_uniform_stationary",
    "enumerate_proper_colorings", "exact_mixing_time", "symmetry_reduced_starts", "tv_curve",
    # graph
    "Graph", "cycle_automorphisms", "generate", "parse_edge_list",
]
