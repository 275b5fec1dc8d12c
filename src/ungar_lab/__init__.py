"""Ungarian Markov chains on finite lattices.

Exact absorption-time solvers and seeded Monte Carlo for the weak order
on S_n, the Tamari lattice (as 312-avoiding permutations and as ordered
forests), and order-ideal lattices J(P); the last-passage-percolation
coupling with geometric weights and the multicorner growth process on
grids; and the skyline/summary diagnostics with the multi-stream
simulator.
"""

from .engine import (
    ChainLattice,
    ChainRun,
    IdealLattice,
    McResult,
    SnLattice,
    TamariAvLattice,
    TamariForestLattice,
    exact_expected_absorption,
    expected_absorption_time,
    first_passage_counts,
    geometric_tail_bound,
    monte_carlo_expectation,
    run_chain,
    sn_absorption_samples,
)
from .errors import (
    BoundViolation,
    CapExceeded,
    ConfigError,
    CouplingViolation,
    CycleDetected,
    DomainError,
    InvalidSelection,
    InvariantViolation,
    Not312Avoiding,
    NotReached,
    RedundantCover,
    SeriesTruncationError,
    SingularSystem,
    StateExplosion,
    UngarLabError,
)
from .percolation import (
    CoupledIdealRun,
    LppSample,
    coupled_ideal_run,
    lpp_grid_samples,
    lpp_poset_samples,
    lpp_sample,
    max_chain_weight,
    rescaling_constants,
    sn_linear_coefficient,
    tamari_linear_coefficient,
    tasep_absorption_samples,
    tracy_widom_tail,
    upsilon,
    zeta_estimate,
    zeta_exact,
    zeta_liminf_lower_bound,
    zeta_limsup_estimate,
)
from .perms import (
    Permutation,
    project_pi_k,
    sorted_prefix_time,
    ungar_move,
)
from .poset import (
    FinitePoset,
    build_poset,
    grid_poset,
)
from .rng import StreamBank, replica_generator, replica_random
from .skyline import (
    Algorithm1Result,
    TwoRowedArray,
    algorithm1_run,
    event_array,
    event_interval,
    good_array_length_bounds,
    good_frequency,
    is_childlike,
    is_good,
    lower_bound_f,
    skyline,
    summarize,
    summary_columns,
    summary_length_bounds,
)
from .tamari import (
    OrderedForest,
    SimForest,
    catalan,
    phi,
    phi_inverse,
    project_down,
)

__version__ = "0.1.0"
