"""specmix: spectral recovery of mixtures of categorical measures.

Recovers the components and weights of a finite mixture of categorical
distributions from grouped samples (several iid draws per latent
component) by whitening and eigendecomposition of symmetrized moment
tensors, and constructs mixture pairs showing the required group sizes
are tight.  Hot sampling kernels run through plain C compiled with
``cc`` on first import and loaded with ctypes, with a pure numpy
fallback when that fails (set SPECMIX_FORCE_NUMPY=1 to force it).

The names imported here are the public API: what the README, the CLI,
the acceptance tests and the pipeline benchmark call, and the types and
errors those take, return or raise.  ``__all__`` is every one of them,
sorted, so an import below is all it takes to export a name.  Every
other name is imported from its module.
"""

from types import ModuleType as _ModuleType

from .counterexamples import (
    build_pair,
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
    make_mixture,
    resolve_dominating,
)
from .multinomial import (
    MultinomialSpec,
    multinomial_mixture_equal,
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
)
from .tensors import (
    RankDeficiencyError,
    fold,
    sym_eig,
    symmetrize,
    unfold,
)

__version__ = "1.0.0"

# the submodules those imports bind are not public names
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
