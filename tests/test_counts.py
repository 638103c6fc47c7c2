"""The count rule: every size, order and count argument is an integer >= a
floor and not a bool, checked by rng.check_count before any work."""
import re

import numpy as np
import pytest

import specmix as sp
from specmix import counterexamples, estimation, experiments, multinomial, recovery, rng, sampling, tensors
from specmix.counterexamples import build_pair, verify_moment_equality
from specmix.estimation import build_c_hat, build_e_hat
from specmix.experiments import ExperimentConfig, random_baseline
from specmix.multinomial import MultinomialSpec, t_nq_apply
from specmix.recovery import RecoveryConfig, estimate_num_components, whiten
from specmix.sampling import GroupedDataset, GroupTallyHistogram, draw_groups, draw_tally
from specmix.tensors import enumerate_compositions, outer_power

MIX = sp.make_mixture([0.5, 0.5], [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
HIST = draw_tally(MIX, 4, 50, seed=0)
CONFIG = RecoveryConfig(2)


class Reached(BaseException):
    """Raised by the first work an entry point does after its checks; a
    BaseException, so no stage wrapper turns it into another error."""


class _Work:
    """Stands in for a function or a module: any call or attribute read
    raises Reached."""

    def __call__(self, *args, **kwargs):
        raise Reached

    def __getattr__(self, name):
        raise Reached


# (argument, floor, call with the argument set to v, the first work after the checks)
CASES = {
    "RecoveryConfig.m": ("m", 1, lambda v: RecoveryConfig(v), (recovery, "resolve_dominating")),
    "whiten.m": ("m", 1, lambda v: whiten(np.eye(3), v), (recovery, "sym_eig")),
    "build_c_hat.m": ("m", 1, lambda v: build_c_hat(HIST, v, None), (estimation, "moment")),
    "build_e_hat.m": ("m", 2, lambda v: build_e_hat(HIST, v), (estimation, "moment")),
    "estimate_num_components.power": ("power", 1, lambda v: estimate_num_components(HIST, v), (recovery, "moment_source")),
    "ExperimentConfig.group_size": (
        "group_size", 1, lambda v: ExperimentConfig(MIX, v, 10, 1, None, CONFIG), (experiments, "resolve_dominating")
    ),
    "ExperimentConfig.n_groups": (
        "n_groups", 1, lambda v: ExperimentConfig(MIX, 3, v, 1, None, CONFIG), (experiments, "resolve_dominating")
    ),
    "ExperimentConfig.reps": (
        "reps", 1, lambda v: ExperimentConfig(MIX, 3, 10, v, None, CONFIG), (experiments, "resolve_dominating")
    ),
    "MultinomialSpec.n": ("n", 1, lambda v: MultinomialSpec(v, 2, [0.5, 0.5]), (multinomial, "probability_vector")),
    "MultinomialSpec.q": ("q", 2, lambda v: MultinomialSpec(2, v, [0.5, 0.5]), (multinomial, "probability_vector")),
    "t_nq_apply.n": ("n", 1, lambda v: t_nq_apply({(1, 0): 1.0}, v, 2), (multinomial, "_spread")),
    "t_nq_apply.q": ("q", 1, lambda v: t_nq_apply({(1, 0): 1.0}, 1, v), (multinomial, "_spread")),
    "enumerate_compositions.n": ("n", 0, lambda v: enumerate_compositions(v, 2), (tensors, "_words")),
    "enumerate_compositions.q": ("q", 1, lambda v: enumerate_compositions(2, v), (tensors, "_words")),
    "outer_power.k": ("k", 1, lambda v: outer_power([0.5, 0.5], v), (tensors, "np")),
    "verify_moment_equality.n": ("n", 1, lambda v: verify_moment_equality(MIX, MIX, v), (counterexamples, "_power_sum")),
    "random_baseline.trials": ("trials", 1, lambda v: random_baseline(MIX.components, v, 0), (experiments, "np")),
    "draw_groups.group_size": ("group_size", 1, lambda v: draw_groups(MIX, v, 10, 0), (sampling, "_thresholds")),
    "draw_groups.n_groups": ("n_groups", 1, lambda v: draw_groups(MIX, 3, v, 0), (sampling, "_thresholds")),
    "draw_tally.group_size": ("group_size", 1, lambda v: draw_tally(MIX, v, 10, 0), (sampling, "_thresholds")),
    "draw_tally.n_groups": ("n_groups", 1, lambda v: draw_tally(MIX, 3, v, 0), (sampling, "_thresholds")),
    "build_pair.m": ("m", 1, lambda v: build_pair(v, 2 * v + 1), (counterexamples, "probability_vector")),
    "GroupedDataset.d": ("d", 1, lambda v: GroupedDataset(v, np.zeros((2, 2), dtype=np.uint8)), (sampling, "np")),
    "GroupTallyHistogram.d": ("d", 1, lambda v: GroupTallyHistogram(v, 2, {(1, 1): 4}), (sampling, "np")),
    "GroupTallyHistogram.group_size": (
        "group_size", 1, lambda v: GroupTallyHistogram(2, v, {(1, 1): 4}), (sampling, "np")
    ),
}


@pytest.fixture(params=list(CASES))
def case(request, monkeypatch):
    """An entry point's count argument, with its first work replaced by _Work."""
    name, low, call, (module, attr) = CASES[request.param]
    monkeypatch.setattr(module, attr, _Work())
    return name, low, call


@pytest.mark.parametrize("value", [True, np.True_, 2.5, 2.0, "low - 1"])
def test_rejected_before_any_work(case, value):
    name, low, call = case
    if isinstance(value, str):
        value = low - 1
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {low}, got {re.escape(repr(value))}$"):
        call(value)


def test_numpy_integers_pass(case):
    _, low, call = case
    with pytest.raises(Reached):
        call(np.int64(low + 1))
