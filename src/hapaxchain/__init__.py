"""Rank-size analysis of hapax legomena.

The package extracts per-document hapaxes from a plain-text corpus,
fits the Zipf-Mandelbrot law to the ranked frequencies, tests whether
the time-ordered rank sequence behaves like a first-order Markov chain,
and generates rank sequences with a Metropolis-Hastings sampler whose
stationary distribution is the discretized rank-size law.
"""

from .corpus import (
    Corpus,
    Document,
    HapaxTable,
    build_hapax_table,
    build_rank_sequence,
    extract_document_hapaxes,
    load_documents,
    tokenize,
)
from .markov import (
    OrderTestReport,
    TransitionMatrix1,
    TransitionMatrix2,
    estimate_order1,
    estimate_order2,
    order_test,
    simulate_order1,
    simulate_order2,
)
from .mh_sampler import (
    ConvergenceReport,
    MHRunResult,
    convergence_study,
    iid_sample,
    run_chain,
)
from .ranksize import (
    FitResult,
    TargetDistribution,
    ZMParams,
    confidence_intervals,
    fit_zm,
    target_distribution,
    zm_eval,
)
from .stats import (
    DescriptiveStats,
    chi_square_gof,
    chi_square_threshold,
    descriptive_stats,
    ks_threshold,
    ks_two_sample,
    shannon_entropy,
    wmw_test,
)

__version__ = "0.1.0"
