"""specmix: spectral recovery of mixtures of categorical measures.

Recovers the components and weights of a finite mixture of categorical
distributions from grouped samples (several iid draws per latent
component) by whitening and eigendecomposition of symmetrized moment
tensors, and constructs mixture pairs showing the required group sizes
are tight.  Hot sampling kernels run through plain C compiled with
``cc`` on first import and loaded with ctypes, with a pure numpy
fallback when that fails (set SPECMIX_FORCE_NUMPY=1 to force it).
"""

from .counterexamples import (
    build_pair,
    dependence_coefficients,
    verify_moment_equality,
)
from .estimation import (
    build_c_hat,
    build_e_hat,
    empirical_sym_moment,
    moment,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    matched_l1_error,
    random_baseline,
    run_experiment,
)
from .kernels import BACKEND
from .model import (
    DominatingMeasure,
    MixtureSpec,
    b_map,
    check_distinct_norms,
    make_mixture,
    probability_vector,
    resolve_dominating,
)
from .multinomial import (
    MultinomialSpec,
    enumerate_compositions,
    f_nq,
    multinomial_mixture_equal,
    multinomial_pmf,
    t_nq_apply,
    verify_lemma_mult,
)
from .recovery import (
    RecoveryConfig,
    RecoveryError,
    RecoveryResult,
    build_t_hat,
    estimate_num_components,
    li_recover,
    recover_full,
    recover_weights,
    whiten,
)
from .sampling import (
    GroupedDataset,
    GroupTallyHistogram,
    draw_groups,
    num_compositions,
    read_groups,
    tally,
    write_groups,
)
from .tensors import (
    RankDeficiencyError,
    fold,
    numerical_rank,
    outer_power,
    sym_eig,
    symmetrize,
    unfold,
)

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "DominatingMeasure",
    "ExperimentConfig",
    "ExperimentReport",
    "GroupTallyHistogram",
    "GroupedDataset",
    "MixtureSpec",
    "MultinomialSpec",
    "RankDeficiencyError",
    "RecoveryConfig",
    "RecoveryError",
    "RecoveryResult",
    "b_map",
    "build_c_hat",
    "build_e_hat",
    "build_pair",
    "build_t_hat",
    "check_distinct_norms",
    "dependence_coefficients",
    "draw_groups",
    "empirical_sym_moment",
    "enumerate_compositions",
    "estimate_num_components",
    "f_nq",
    "fold",
    "li_recover",
    "make_mixture",
    "matched_l1_error",
    "moment",
    "multinomial_mixture_equal",
    "multinomial_pmf",
    "numerical_rank",
    "outer_power",
    "probability_vector",
    "random_baseline",
    "num_compositions",
    "read_groups",
    "recover_full",
    "recover_weights",
    "resolve_dominating",
    "run_experiment",
    "sym_eig",
    "symmetrize",
    "t_nq_apply",
    "tally",
    "unfold",
    "verify_lemma_mult",
    "verify_moment_equality",
    "whiten",
    "write_groups",
]
