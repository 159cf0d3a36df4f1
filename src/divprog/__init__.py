"""Divisor sums over arithmetic progressions, and the machinery around them.

Exact S(X; a, q) via sieves, the main-term polynomial and error terms,
Kloosterman sums (scalar, batched, bilinear), the Bessel-kernel transform
identity for the error term, complete-sum Poisson checks, multiplicative
character statistics, and sweep drivers that compare measured errors
against the analytic envelopes.
"""

from .arith import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    mod_inverse,
    primitive_root,
    ramanujan_sum,
    tau_of,
)
from .bessel import EULER_GAMMA, bessel_k0, bessel_k1, bessel_y0, bessel_y1
from .bilinear import (
    BilinearInstance,
    ExponentFit,
    Measurement,
    bilinear_bound_general,
    bilinear_bound_initial_interval,
    bilinear_sum,
    bilinear_sum_unweighted_a,
    exponent_fit,
    initial_interval_conditions,
)
from .characters import (
    CharacterTable,
    character_table,
    congruence_bound_report,
    eta_factor,
    fourth_moment,
    fourth_moment_brute,
    gauss_sum,
    multiplicative_congruence_count,
    multiplicative_congruence_count_brute,
)
from .cutoff import SmoothCutoff, smoothstep
from .errors import (
    ConfigInvalid,
    DivprogError,
    InsufficientSpread,
    IntervalOutOfRange,
    InvalidModulus,
    InvalidRange,
    NonReducedResidue,
    NotInvertible,
    NotPrimitive,
    NotPrime,
    SupportTooLarge,
    WindowTooLarge,
)
from .kloosterman import (
    KloostermanEvaluator,
    check_weil,
    kloosterman_batch_over_a,
    kloosterman_table,
)
from .mainterm import (
    ErrorTermRecord,
    ErrorVector,
    MainTermPolynomial,
    error_set,
    error_term,
    error_vector,
    exceptional_set,
    interval_residues,
    main_term,
    main_term_coprime,
    main_term_vector,
)
from .poisson import (
    BumpFunction,
    PoissonCheck,
    ProductTestFunction,
    TwistedPoissonCheck,
    poisson_tau,
    poisson_tau_twisted,
)
from .sweeps import (
    ExperimentConfig,
    SweepResult,
    emit_report,
    exceptional_count_bound,
    interval_abs_error_bound,
    interval_signed_error_bound,
    run_theorem_sweep,
    set_abs_error_bound,
)
from .tausieve import (
    ProgressionSumVector,
    TauTable,
    divisor_sum_progressions,
    progression_sum_single,
    progression_sums_set,
    sieve_tau,
    total_divisor_sum,
)
from .voronoi import (
    VoronoiErrorTerm,
    WeightValue,
    error_budget,
    truncation_thresholds,
    voronoi_error_terms,
    weight_u,
)

__version__ = "0.1.0"

__all__ = [
    # arith
    "divisors",
    "euler_phi",
    "factorize",
    "is_prime",
    "mobius",
    "mod_inverse",
    "primitive_root",
    "ramanujan_sum",
    "tau_of",
    # bessel
    "EULER_GAMMA",
    "bessel_k0",
    "bessel_k1",
    "bessel_y0",
    "bessel_y1",
    # bilinear
    "BilinearInstance",
    "ExponentFit",
    "Measurement",
    "bilinear_bound_general",
    "bilinear_bound_initial_interval",
    "bilinear_sum",
    "bilinear_sum_unweighted_a",
    "exponent_fit",
    "initial_interval_conditions",
    # characters
    "CharacterTable",
    "character_table",
    "congruence_bound_report",
    "eta_factor",
    "fourth_moment",
    "fourth_moment_brute",
    "gauss_sum",
    "multiplicative_congruence_count",
    "multiplicative_congruence_count_brute",
    # cutoff
    "SmoothCutoff",
    "smoothstep",
    # errors
    "ConfigInvalid",
    "DivprogError",
    "InsufficientSpread",
    "IntervalOutOfRange",
    "InvalidModulus",
    "InvalidRange",
    "NonReducedResidue",
    "NotInvertible",
    "NotPrimitive",
    "NotPrime",
    "SupportTooLarge",
    "WindowTooLarge",
    # kloosterman
    "KloostermanEvaluator",
    "check_weil",
    "kloosterman_batch_over_a",
    "kloosterman_table",
    # mainterm
    "ErrorTermRecord",
    "ErrorVector",
    "MainTermPolynomial",
    "error_set",
    "error_term",
    "error_vector",
    "exceptional_set",
    "interval_residues",
    "main_term",
    "main_term_coprime",
    "main_term_vector",
    # poisson
    "BumpFunction",
    "PoissonCheck",
    "ProductTestFunction",
    "TwistedPoissonCheck",
    "poisson_tau",
    "poisson_tau_twisted",
    # sweeps
    "ExperimentConfig",
    "SweepResult",
    "emit_report",
    "exceptional_count_bound",
    "interval_abs_error_bound",
    "interval_signed_error_bound",
    "run_theorem_sweep",
    "set_abs_error_bound",
    # tausieve
    "ProgressionSumVector",
    "TauTable",
    "divisor_sum_progressions",
    "progression_sum_single",
    "progression_sums_set",
    "sieve_tau",
    "total_divisor_sum",
    # voronoi
    "VoronoiErrorTerm",
    "WeightValue",
    "error_budget",
    "truncation_thresholds",
    "voronoi_error_terms",
    "weight_u",
]
