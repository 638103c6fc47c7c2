"""The benchmark's workloads: one replicate configuration each.

Each workload is one (d, m, k, n) point of the `specmix experiment` path,
chosen so that a different layer of the pipeline does most of the work:

* ``blend-1e7``: sampling (``draw_groups`` and the tally inside
  ``recover_full``) at the user-facing large-n scale;
* ``moment-d6m4``: the tally path of ``estimation``, which expands every
  distinct tally over d^r multi-indices;
* ``spectral-d12m3``: the 1728 x 1728 eigendecomposition of T T^T, with
  n below the tally threshold so ``estimation`` takes its raw path.

The run seed drives everything a replicate draws (groups, probes); the
mixtures themselves are fixed.  The tally-path cost grows with the number
of distinct tallies, which for Dirichlet(0.2) mixtures at d=6 varied from
232 to 413 over mixture seeds 0-2 (5.7-10.3 s per replicate), so drawing
the mixture from the run seed would make run-to-run spread a property of
the mixture, not of the code.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import specmix as sp
from specmix.estimation import TALLY_FACTOR
from specmix.experiments import ExperimentConfig
from specmix.recovery import RecoveryConfig

# Acceptance criterion 4's mixture: the third component is a 1/3-2/3
# blend of the first two, so the components are linearly dependent.
BLEND_WEIGHTS = [0.5, 0.3, 0.2]
BLEND_COMPONENTS = [
    [0.64, 0.32, 0.04],
    [0.04, 0.32, 0.64],
    [0.24, 0.32, 0.44],
]

# Seed of the Dirichlet(0.2) component draws; mixture 1 has about 230
# distinct tallies at d=6, k=7, n=2e5, the low end of the range above.
MIXTURE_SEED = 1
DIRICHLET_ALPHA = 0.2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a mixture, a data scale and a recovery setup.

    max_l1 is the correctness window: a run whose mean matched-L1 error
    over its replicates exceeds it fails.
    """

    name: str
    d: int
    m: int
    k: int
    n: int
    dominating: str
    max_l1: float
    blend: bool = False

    @property
    def path(self) -> str:
        """The moment path `estimation` takes for this (d, k, n)."""
        return "tally" if self.n > TALLY_FACTOR * sp.num_compositions(self.k, self.d) else "raw"

    def build_mixture(self) -> sp.MixtureSpec:
        if self.blend:
            return sp.make_mixture(BLEND_WEIGHTS, BLEND_COMPONENTS)
        gen = np.random.default_rng(MIXTURE_SEED)
        comps = gen.dirichlet(np.full(self.d, DIRICHLET_ALPHA), size=self.m)
        return sp.make_mixture(np.full(self.m, 1.0 / self.m), comps)

    def config(self, mixture: sp.MixtureSpec, seed: int) -> ExperimentConfig:
        """One replicate of `run_experiment`, run entirely from `seed`."""
        return ExperimentConfig(
            mixture=mixture,
            group_size=self.k,
            n_groups=self.n,
            reps=1,
            dominating=self.dominating,
            recovery=RecoveryConfig(m=self.m, probe="singular"),
            seed=seed,
        )

    def stamp(self) -> dict:
        return {"name": self.name, "d": self.d, "m": self.m, "k": self.k, "n": self.n, "path": self.path}


def _descending(d: int) -> str:
    return "fixed:" + ",".join(str(v) for v in range(d, 0, -1))


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 4 asks for mean error <= 0.02 at this scale.
        Workload("blend-1e7", 3, 3, 5, 10_000_000, "fixed:9,4,1", 0.02, blend=True),
        Workload("moment-d6m4", 6, 4, 7, 200_000, _descending(6), 0.02),
        Workload("spectral-d12m3", 12, 3, 5, 40_000, _descending(12), 0.06),
    )
}
