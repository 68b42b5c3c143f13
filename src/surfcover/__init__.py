"""Exact and Monte Carlo statistics of uniformly random permutation actions
of genus-g surface groups: fixed points, short cycles, their joint moments,
and the Poisson limit predictions they converge to."""

from .words import (
    DISTINCT,
    PRIMITIVE,
    UNKNOWN,
    IdentityWordError,
    Word,
    abelianize,
    dehn_reduce,
    distinct_in_p0_certificate,
    free_reduce,
    is_identity,
    power_word,
    primitivity_certificate,
    relator,
    word_from_text,
    word_to_text,
)
from .perms import (
    HomPoint,
    Permutation,
    commutator,
    compose,
    conjugate,
    cycle_type,
    cycles_str,
    d_cycle_count,
    evaluate_word,
    fix_count,
    identity,
    inverse,
    parse_cycles,
)
from .characters import (
    BudgetExceededError,
    CharacterTable,
    class_size,
    centralizer_size,
    commutator_count,
    dim_irrep,
    factorization_count,
    get_table,
    hom_count,
    partitions,
    witten_zeta,
)
from .observables import (
    ObservableGroup,
    ObservableSpec,
    cycle_count,
    cycles_from_fixed_points,
    d_count,
    divisors,
    fixed_points,
    joint_moment,
    mobius,
    power_identity_holds,
    spec_from_json,
    spec_from_text,
    spec_to_text,
)
from .homspace import (
    CommutatorBuckets,
    SampledStats,
    SamplerPlan,
    Seed,
    enumerate_homs,
    exact_expectation,
    exact_means,
    generator_fix_expectation,
    generator_spec_expectation,
    get_sampler,
    run_sampled_stats,
    sample_hom,
    stream_for,
)
from .limits import (
    LimitValue,
    bell_number,
    factorization_identity_holds,
    limit_cycle_moment,
    limit_product_moment,
    poisson_moment,
    stirling2,
)
from .verify import (
    ExperimentPlan,
    fit_inverse_n,
    run_convergence,
    run_cycle_convergence,
    run_independence,
)

__version__ = "0.1.0"
