"""depthlab: node-depth distributions in random binary search trees.

Exact laws, Poisson and mixed Poisson approximations with truncation
bookkeeping, probability metrics, quickselect equivalence and seeded
Monte Carlo cross-validation.
"""

from .distributions import (
    BoundReport,
    Distance,
    HarmonicTable,
    Pmf,
    convolve,
    harmonic_table,
    ks_to_standard_normal,
    mean_var,
    poisson_pmf,
    record_count_pmf,
    total_variation,
    wasserstein,
)
from .exact_depth import (
    BRUTE_FORCE_CAP,
    DEFAULT_N_CAP,
    CapExceededError,
    MoveJoint,
    PredecessorJoint,
    brute_force_depth_pmf,
    depth_mean,
    depth_variance,
    exact_depth_pmf,
    hypergeometric_log_bound_report,
    mixing_variance_report,
    mixpo_distance,
    move_joint_pmf,
    poisson_bound_report,
    predecessor_joint,
)
from .mixing import (
    DiscreteMeasure,
    MixingMeasure,
    ReflectedExponential,
    harmonic_mixing_measure,
    limit_mixing_measure,
    measure_mean,
    measure_variance,
    measure_wasserstein,
    mixed_poisson_pmf,
)
from .montecarlo import (
    EmpiricalPmf,
    RngStream,
    collect_samples,
    empirical_pmf,
    random_permutation,
    sample_depth_bst,
    sample_depth_representation,
    sample_find_recursions,
    sample_random_key_depth,
)
from .trees import (
    Bst,
    FindTrace,
    Permutation,
    RecordDecomposition,
    build_bst,
    depth_plot,
    find_select,
    node_depth,
    record_decomposition,
)

__version__ = "0.1.0"
