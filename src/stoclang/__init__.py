"""Learning multiplicity-automaton representations of stochastic languages.

The package covers the full pipeline: evaluating and analyzing
multiplicity automata, drawing i.i.d. word samples, learning an
automaton from a sample by residual linear feasibility, rounding the
learned floats into exact rationals, and normalizing a (possibly
signed) convergent series into a proper distribution.
"""

from .words import Alphabet, Word, EPSILON
from .errors import (
    StoclangError, InputError, ContractError, DivergenceError,
    UndefinedResidualError, CertificationError, FeasibilityError,
)
from .automata import (
    FLOAT, RATIONAL, MultiplicityAutomaton,
    word_weight, state_word_weight, prefix_weight, tail_sum,
    spectral_radius, power_norm_decay, is_pa, trim,
    absolute_convergence_certificate, build_a_alpha, equal_ma,
    load_ma, save_ma, dumps_ma, loads_ma,
)
from .sampling import (
    Sample, EmpiricalTrie, sample_word, draw_sample, build_trie,
    empirical_residual_prefix,
    load_sample, save_sample,
)
from .learner import (
    FeasibilityRow, FeasibilitySystem, FeasibilityOutcome, DeesTrace,
    build_system, solve_feasibility, dees, epsilon_schedule,
    structure_agrees, prefixial_reduced_representation,
)
from .rationalize import (
    convergents, best_rational_within, exactify_ma,
    ExactifyEntry, ExactifyReport,
)
from .normalize import (
    NormalizedSeries, in_support, node_neg_mass, lambda_at,
    pr_eval, pr_prefix_mass, pr_sample, neg_total_and_abs_mass,
)
from .fixtures import (
    fixture, fixture_names, unit_mass,
    random_pa, perturb_ma, random_certified_ma,
)
from .experiment import (ExperimentConfig, MetricReport, run_experiment,
                         l1_on_ball, resolve_target)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Word", "EPSILON",
    "StoclangError", "InputError", "ContractError", "DivergenceError",
    "UndefinedResidualError", "CertificationError", "FeasibilityError",
    "FLOAT", "RATIONAL", "MultiplicityAutomaton",
    "word_weight", "state_word_weight", "prefix_weight", "tail_sum",
    "spectral_radius", "power_norm_decay", "is_pa", "trim",
    "absolute_convergence_certificate", "build_a_alpha", "equal_ma",
    "load_ma", "save_ma", "dumps_ma", "loads_ma",
    "Sample", "EmpiricalTrie", "sample_word", "draw_sample", "build_trie",
    "empirical_residual_prefix",
    "load_sample", "save_sample",
    "FeasibilityRow", "FeasibilitySystem", "FeasibilityOutcome", "DeesTrace",
    "build_system", "solve_feasibility", "dees", "epsilon_schedule",
    "structure_agrees", "prefixial_reduced_representation",
    "convergents", "best_rational_within", "exactify_ma",
    "ExactifyEntry", "ExactifyReport",
    "NormalizedSeries", "in_support", "node_neg_mass", "lambda_at",
    "pr_eval", "pr_prefix_mass", "pr_sample", "neg_total_and_abs_mass",
    "fixture", "fixture_names", "unit_mass",
    "random_pa", "perturb_ma", "random_certified_ma",
    "ExperimentConfig", "MetricReport", "run_experiment", "l1_on_ball",
    "resolve_target",
]
