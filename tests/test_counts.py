"""The count rules: every size, order and count argument is an integer >= a
floor and not a bool, checked by rng.check_count before any work; every
count-vector key is checked by tensors.count_vector."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmix as sp
from specmix import counterexamples, estimation, experiments, multinomial, recovery, rng, sampling, tensors
from specmix.counterexamples import build_pair, verify_moment_equality
from specmix.estimation import build_c_hat, build_e_hat
from specmix.experiments import ExperimentConfig, random_baseline
from specmix.multinomial import MultinomialSpec, f_nq, multinomial_pmf, t_nq_apply
from specmix.recovery import RecoveryConfig, estimate_num_components, whiten
from specmix.sampling import GroupedDataset, GroupTallyHistogram, draw_groups, draw_tally
from specmix.tensors import count_vector, count_vectors, enumerate_compositions, outer_power

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
    "t_nq_apply.n": ("n", 1, lambda v: t_nq_apply({(1, 0): 1.0}, v, 2), (multinomial, "count_vectors")),
    "t_nq_apply.q": ("q", 1, lambda v: t_nq_apply({(1, 0): 1.0}, 1, v), (multinomial, "count_vectors")),
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


# How an entry of a count-vector key is written: each kind maps a count
# v >= 0 to an entry, and says whether the rule accepts it (as v).
ENTRY_KINDS = {
    "int": (lambda v: v, True),
    "np.int64": (np.int64, True),
    "integral float": (float, True),
    "np.float64": (np.float64, True),
    "fractional float": (lambda v: v + 0.5, False),
    "negative int": (lambda v: -v - 1, False),
    "bool": (bool, False),
    "np.bool_": (np.bool_, False),
    "str": (str, False),
    "None": (lambda v: None, False),
    "complex": (complex, False),
}


@st.composite
def keys(draw):
    """A key written with entries of any kind, of the right length and sum
    (n = 4 into d = 3 cells) or not, and whether its entries pass."""
    counts = list(draw(st.sampled_from(enumerate_compositions(4, 3))))
    change = draw(st.sampled_from(["none", "sum", "drop", "append"]))
    if change == "sum":
        counts[draw(st.integers(0, 2))] += draw(st.integers(1, 2))
    elif change == "drop":
        counts.pop(draw(st.integers(0, 2)))
    elif change == "append":
        counts.append(draw(st.integers(0, 2)))
    kinds = draw(st.lists(st.sampled_from(list(ENTRY_KINDS)), min_size=len(counts), max_size=len(counts)))
    key = tuple(ENTRY_KINDS[kind][0](v) for kind, v in zip(kinds, counts))
    return key, tuple(counts), all(ENTRY_KINDS[kind][1] for kind in kinds)


def outcome(call):
    """call()'s result, or the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:
        return exc


class TestCountVectorRule:
    """GroupTallyHistogram, t_nq_apply, multinomial_pmf and f_nq accept the
    same keys, read them as the same ints, and reject the rest alike."""

    SPEC = MultinomialSpec(4, 3, [0.2, 0.3, 0.5])

    @settings(max_examples=300, deadline=None)
    @given(keys())
    def test_one_rule_everywhere(self, case):
        key, counts, entries_pass = case
        sized = entries_pass and len(counts) == 3 and sum(counts) == 4
        results = {
            "GroupTallyHistogram": outcome(lambda: list(GroupTallyHistogram(3, 4, {key: 1}).counts)),
            "t_nq_apply": outcome(lambda: t_nq_apply({key: 1.0}, 4, 3)),
            "multinomial_pmf": outcome(lambda: multinomial_pmf(self.SPEC, key)),
            "count_vector": outcome(lambda: count_vector(key, 4, 3)),
        }
        if sized:
            assert results["GroupTallyHistogram"] == [counts]
            np.testing.assert_array_equal(results["t_nq_apply"], t_nq_apply({counts: 1.0}, 4, 3))
            assert results["multinomial_pmf"] == multinomial_pmf(self.SPEC, counts)
            assert results["count_vector"] == counts and all(type(v) is int for v in results["count_vector"])
        else:
            for name, result in results.items():
                assert isinstance(result, ValueError), name
                assert str(result) == f"key {key} is not a composition of 4 into 3 cells", name
        # f_nq fixes no length or sum, so only the entries decide
        word = outcome(lambda: f_nq(key))
        if entries_pass:
            assert word == f_nq(counts) == tuple(np.repeat(np.arange(1, len(counts) + 1), counts).tolist())
        else:
            assert isinstance(word, ValueError)
            assert str(word) == f"key {key} is not a composition of any n into any number of cells"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(keys(), min_size=1, max_size=4))
    def test_many_keys_read_as_each(self, cases):
        # count_vectors reads a list of keys as count_vector reads each in turn
        written = [key for key, _, _ in cases]
        rows = [outcome(lambda: count_vector(key, 4, 3)) for key in written]
        result = outcome(lambda: count_vectors(written, 4, 3))
        refused = [row for row in rows if isinstance(row, ValueError)]
        if refused:
            assert isinstance(result, ValueError) and str(result) == str(refused[0])
        else:
            assert result.dtype == np.int64 and result.tolist() == [list(row) for row in rows]

    @pytest.mark.parametrize("bad", [(True, 1, 2), (np.True_, 1, 2), (np.array(1), 1, 2), (2**63 - 1, 2**63 - 1, 6)])
    def test_int_array_keys_still_checked(self, bad):
        # numpy reads each of these beside int keys as an int row, the last
        # one's sum wrapping to 4; count_vectors still names it
        written = [(4, 0, 0), bad, (0, 0, 4)]
        assert np.array(written).dtype == np.int64
        with pytest.raises(ValueError, match=rf"^key {re.escape(str(bad))} is not a composition of 4 into 3 cells$"):
            count_vectors(written, 4, 3)

    @pytest.mark.parametrize("key", [5, None, "21", [2, 1], np.array([2, 1])])
    def test_keys_as_written(self, key):
        # a non-iterable is no count vector, a string is a sequence of strings;
        # any iterable of counts passes
        if isinstance(key, (list, np.ndarray)):
            assert count_vector(key, 3, 2) == (2, 1)
        else:
            with pytest.raises(ValueError, match=rf"^key {re.escape(str(key))} is not a composition of 3 into 2 cells$"):
                count_vector(key, 3, 2)

