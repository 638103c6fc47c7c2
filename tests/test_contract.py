"""The argument contract of the public API, and the API itself.

Every scalar setting (a count, order, seed, tolerance or floor) and every
model vector (weights, components, reference masses, the scale vector b)
that a public callable takes is fed good values, written each way a
caller may write them, and bad ones: bools, NaN, +-inf, negatives, wrong
shapes, strings and None.  On a good value the call returns finite
output, the same output as for the value written as a plain Python
number or list.  On a bad one it raises a ValueError, TypeError or
RecoveryError whose message names the argument.  Some values are
neither: a finite component entry that the fit cannot use, say.  Those
either return finite output or raise a named error.

Out of the contract: data tensors handed to reindexing or linear-algebra
helpers (fold's and unfold's tensor, symmetrize, sym_eig, build_t_hat's
q and whitener), and typed arguments (a mixture, a dataset, a config, a
measure), which are checked by their own types, whose constructors are
probed here.  recover_weights' e_hat is a moment estimate, so only its
finiteness and shape are probed.

PUBLIC is the public API: specmix.__all__ is exactly its names, and each
name lists the callers that need it (checked against their files where a
file can show it), so a name added without a caller fails here.
"""
import dataclasses
import io
import json
import math
import numbers
import re
import types
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmix as sp
from specmix.sampling import draw_tally
from specmix.tensors import eig_sqrt_pinv, numerical_rank, sym_eig

ROOT = Path(__file__).resolve().parents[1]

# What a bad value must raise; anything else escaping a call fails the test.
CONTRACT_ERRORS = (ValueError, TypeError, sp.RecoveryError)
INVALID = "invalid"  # the call must raise a contract error naming the argument
EITHER = "either"  # finite output or a contract error naming the argument


class Valid:
    """A good value's plain form: the output must be finite and equal to
    the output for plain."""

    def __init__(self, plain):
        self.plain = plain


def numbers_in(out) -> list:
    """Every number in a call's output, walked through its containers, in order."""
    if out is None or isinstance(out, (str, bytes)):
        return []
    if isinstance(out, (numbers.Number, np.generic)):
        return [out.item() if isinstance(out, np.generic) else out]
    if isinstance(out, np.ndarray):
        return numbers_in(out.ravel().tolist())
    if isinstance(out, Mapping):
        return [x for key, value in out.items() for x in numbers_in(key) + numbers_in(value)]
    if dataclasses.is_dataclass(out):
        return numbers_in([getattr(out, f.name) for f in dataclasses.fields(out)])
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in numbers_in(item)]
    raise TypeError(f"no rule for reading numbers from a {type(out).__name__}")


def check(call, value, expect, label: str) -> None:
    """Run call(value) and hold it to the contract for expect: Valid,
    INVALID or EITHER."""
    try:
        out = call(value)
    except CONTRACT_ERRORS as exc:
        assert not isinstance(expect, Valid), f"good value {value!r} refused: {exc!r}"
        assert re.search(label, str(exc)), f"{value!r}: {exc!r} does not name {label!r}"
        return
    assert expect is not INVALID, f"bad value {value!r} accepted, giving {out!r}"
    got = numbers_in(out)
    assert all(math.isfinite(x) for x in got), f"{value!r} gave non-finite output {out!r}"
    if hasattr(out, "to_json"):
        json.loads(out.to_json())
    if isinstance(expect, Valid) and expect.plain is not value:
        assert got == numbers_in(call(expect.plain)), f"{value!r} gave other output than {expect.plain!r}"


# -- scalar settings ----------------------------------------------------------

TYPED_BAD = [True, False, np.True_, None, "1", "abc", complex(1, 0), b"1"]


def int_forms(v: int) -> list:
    """v as written by a caller: a Python int and numpy integers of each width it fits."""
    forms = [v, np.uint64(v)] if v >= 0 else [v]
    return forms + [t(v) for t, top in ((np.int64, 2**63), (np.int32, 2**31)) if -top <= v < top]


class Count:
    """An integer setting >= low; good values are those in good.  bad
    lists further integers the call must refuse.  With floats, an
    integral float is a good value too (a tally histogram's group
    counts); with none, None is (an optional setting)."""

    def __init__(self, good, low=1, bad=(), floats=False, none=False):
        self.good, self.low, self.bad, self.floats, self.none = list(good), low, list(bad), floats, none

    def fixed(self) -> list:
        v = self.good[0]
        out = [(form, Valid(g)) for g in self.good for form in int_forms(g)]
        if self.floats:
            out += [(form, Valid(g)) for g in self.good for form in (float(g), np.float64(g))]
        else:
            out += [(float(v), INVALID), (np.float64(v), INVALID)]
        out += [(None, Valid(None))] if self.none else [(None, INVALID)]
        bad = [x for x in TYPED_BAD if x is not None] + [
            str(v), v + 0.5, np.float64(v + 0.5), math.nan, math.inf, -math.inf,
            self.low - 1, -1, np.array(v), np.array([v]), [v], *self.bad,
        ]
        return out + [(x, INVALID) for x in bad]

    def _float(self, x):
        if self.floats and x.is_integer() and self.low <= x < 2**63:
            return x, Valid(int(x))
        return x, INVALID

    def strategy(self):
        return st.one_of(
            st.sampled_from(self.good).flatmap(lambda g: st.sampled_from(int_forms(g)).map(lambda f: (f, Valid(g)))),
            st.integers(max_value=self.low - 1).map(lambda v: (v, INVALID)),
            st.integers(-(2**63), self.low - 1).map(lambda v: (np.int64(v), INVALID)),
            st.floats(allow_nan=True, allow_infinity=True).map(self._float),
            st.one_of(st.booleans(), st.text(max_size=3)).map(lambda v: (v, INVALID)),
        )


class Real:
    """A real setting in [low, high), or (low, high) when open_low;
    good values are those in good, each also written as numpy floats."""

    def __init__(self, good, low, high=math.inf, open_low=False):
        self.good, self.low, self.high, self.open_low = list(good), low, high, open_low

    def _classify(self, x):
        v = float(x)
        ok = math.isfinite(v) and self.low <= v < self.high and (v > self.low or not self.open_low)
        return x, Valid(int(x) if isinstance(x, int) else v) if ok else INVALID

    def fixed(self) -> list:
        v = self.good[0]
        forms = [f for g in self.good for f in (g, np.float64(g), np.float32(g))]
        bad = TYPED_BAD + [
            str(v), math.nan, np.float64(math.nan), math.inf, -math.inf, np.float64(-math.inf),
            np.array(v), np.array([v]), [v], self.low - 1, -1e300,
        ]
        bad += [self.high] if math.isfinite(self.high) else []
        bad += [self.low] if self.open_low else []
        return [self._classify(f) for f in forms] + [(x, INVALID) for x in bad]

    def strategy(self):
        return st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(self._classify),
            st.floats(allow_nan=True, allow_infinity=True).map(lambda x: self._classify(np.float64(x))),
            st.floats(width=32, allow_nan=True, allow_infinity=True).map(lambda x: self._classify(np.float32(x))),
            st.integers(-10, 10).map(self._classify),
            st.sampled_from(TYPED_BAD).map(lambda v: (v, INVALID)),
        )


class Choice:
    """A setting with listed good and bad values, and a strategy of
    (value, expectation) pairs drawn beyond them."""

    def __init__(self, good, bad, strategy):
        self.good, self.bad, self._strategy = good, bad, strategy

    def fixed(self) -> list:
        return [(v, Valid(v)) for v in self.good] + [(v, INVALID) for v in self.bad]

    def strategy(self):
        return st.one_of(st.sampled_from(self.fixed()), self._strategy)


def _fixed_descriptor(ys: list) -> tuple:
    """A "fixed:" descriptor of the masses ys, good when each is finite and > 0."""
    text = "fixed:" + ",".join(map(repr, ys))
    return text, Valid(text) if all(0.0 < y < math.inf for y in ys) else INVALID


def _sqgauss_descriptor(sigma: float) -> tuple:
    """A "sqgauss:" descriptor, good when sigma is finite and > 0; a sigma
    whose square overflows may be refused."""
    text = f"sqgauss:{sigma!r}"
    if not 0.0 < sigma < math.inf:
        return text, INVALID
    return text, Valid(text) if sigma < 1e100 else EITHER


DOMINATING = Choice(
    good=[None, "none", "uniform", "fixed:9,4,1", "sqgauss:0.5", sp.DominatingMeasure([1.0, 2.0, 0.5])],
    bad=[True, 1, 1.0, math.nan, [1.0, 2.0], np.array([1.0, 2.0]), "bogus", "fixed:", "fixed:nan,1,1",
         "fixed:-1,1,1", "fixed:1,inf", "fixed:0,1", "fixed:a,1", "fixed:True", "sqgauss:nan", "sqgauss:-1",
         "sqgauss:inf", "sqgauss:0", "sqgauss:abc", "sqgauss:1e300"],
    strategy=st.one_of(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4).map(_fixed_descriptor),
        st.floats(allow_nan=True, allow_infinity=True).map(_sqgauss_descriptor),
    ),
)


# -- model vectors --------------------------------------------------------------

SUM_TOL = 1e-9


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class Vector:
    """A 1-D model vector with good value base.

    kind says what an entry may be: "positive" (finite, > 0: masses and
    b), "probability" (>= 0, summing to 1), "weights" (> 0, summing to 1),
    "levels" (distinct, in [0, 1]) or "tensor" (any finite number; no
    typed entries are probed).  With none, None is a good value (an
    optional argument); unless sized, so is a vector one entry shorter
    or longer.  Drawn entries stay where every good value gives
    finite output: masses and b in [0.25, 4], as b_map gives them, and no
    other good levels, since levels close together are refused by the
    construction they feed.
    """

    DRAWN = {
        "positive": st.one_of(st.floats(0.25, 4.0), st.floats(max_value=0.0), NON_FINITE),
        "levels": st.one_of(st.floats(min_value=1.0, exclude_min=True), st.floats(max_value=0.0, exclude_max=True), NON_FINITE),
        "tensor": st.one_of(st.floats(-4.0, 4.0), NON_FINITE),
    }

    def __init__(self, base, kind, none=False, sized=True):
        self.base, self.kind, self.none, self.sized = list(base), kind, none, sized

    def _entry(self, i, x):
        """base with entry i replaced by x, and what the call must do."""
        v = self.base[:i] + [x] + self.base[i + 1 :]
        if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real) or not math.isfinite(x):
            return v, INVALID
        if self.kind == "positive":
            return v, (Valid(v) if 0.25 <= x <= 4.0 else EITHER) if x > 0 else INVALID
        if self.kind in ("probability", "weights"):
            ok = (x > 0 or (x == 0 and self.kind == "probability")) and abs(sum(v) - 1.0) <= 2 * SUM_TOL
            return v, EITHER if ok else INVALID
        if self.kind == "levels":
            return v, EITHER if 0.0 <= x <= 1.0 else INVALID
        return v, EITHER

    def fixed(self) -> list:
        b = self.base
        out = [(form, Valid(b)) for form in (tuple(b), np.array(b), [np.float64(x) for x in b])]
        typed = [] if self.kind == "tensor" else TYPED_BAD
        for i in (0, len(b) - 1):
            out += [self._entry(i, x) for x in typed + [math.nan, math.inf, -math.inf, -b[i] - 0.25]]
        resized = [b[:-1], b + [b[-1]]]
        out += [(s, INVALID if self.sized else Valid(s)) for s in resized]
        shapes = [[b], b[0], []]
        if self.kind != "tensor":
            shapes += ["abc", tuple(map(str, b))] + ([] if self.none else [None])
        return out + [(s, INVALID) for s in shapes] + ([(None, Valid(None))] if self.none else [])

    def strategy(self):
        n = len(self.base)
        entries = self.DRAWN.get(self.kind, st.floats(allow_nan=True, allow_infinity=True))
        if self.kind != "tensor":
            entries = st.one_of(entries, st.sampled_from(TYPED_BAD))
        return st.one_of(
            st.tuples(st.integers(0, n - 1), entries).map(lambda ix: self._entry(*ix)),
            st.sampled_from(self.fixed()),
        )


class Matrix:
    """An (m, d) array of components with good value base, one row per
    component; kind is "probability" (each row one) or "finite" (any
    finite numbers, drawn from [-4, 4])."""

    def __init__(self, base, kind):
        self.base, self.kind = [list(row) for row in base], kind

    def _entry(self, i, j, x):
        """base with entry (i, j) replaced by x, and what the call must do."""
        rows = [list(row) for row in self.base]
        rows[i][j] = x
        if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real) or not math.isfinite(x):
            return rows, INVALID
        if self.kind == "finite":
            return rows, EITHER
        return rows, EITHER if x >= 0 and abs(sum(rows[i]) - 1.0) <= 2 * SUM_TOL else INVALID

    def fixed(self) -> list:
        b = self.base
        forms = (tuple(map(tuple, b)), np.array(b), [np.array(row) for row in b], [[np.float64(x) for x in row] for row in b])
        out = [(form, Valid(b)) for form in forms]
        for i, j in ((0, 0), (len(b) - 1, len(b[0]) - 1)):
            out += [self._entry(i, j, x) for x in TYPED_BAD + [math.nan, math.inf, -math.inf, -0.25]]
        resized = [[row[:-1] for row in b], b[:-1]]
        out += [(s, EITHER if self.kind == "finite" else INVALID) for s in resized]
        bad = [b[0], [b], [], [[]], None, "abc", b[:-1] + [b[-1][:-1]], [[str(x) for x in row] for row in b]]
        return out + [(s, INVALID) for s in bad]

    def strategy(self):
        m, d = len(self.base), len(self.base[0])
        drawn = st.floats(-4.0, 4.0) if self.kind == "finite" else st.floats(allow_nan=True, allow_infinity=True)
        entries = st.one_of(drawn, NON_FINITE, st.sampled_from(TYPED_BAD))
        return st.one_of(
            st.tuples(st.integers(0, m - 1), st.integers(0, d - 1), entries).map(lambda ijx: self._entry(*ijx)),
            st.sampled_from(self.fixed()),
        )


# -- the probes -------------------------------------------------------------------

COMPS = [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]
MIX = sp.make_mixture([0.5, 0.5], COMPS)
OTHER = sp.make_mixture([0.25, 0.75], COMPS)
HIST = draw_tally(MIX, 4, 200, seed=0)
MEAN = sp.moment(MIX, 1).tolist()
B = [1.0, 2.0, 0.5]
SPEC = sp.MultinomialSpec(2, 2, [0.5, 0.5])
UNIFORM = sp.RecoveryConfig(2, dominating="uniform")
CONFIG = sp.RecoveryConfig(2)
FOLDED = np.zeros((9, 3))
SEEDS = dict(good=[0, 5, 2**64 - 1], low=0, bad=[2**64])
# make_mixture is MixtureSpec; both names are probed with these
MIX_WEIGHTS = ("weights", Vector([0.5, 0.5], "weights"))
MIX_COMPONENTS = ("components", Matrix(COMPS, "probability"))

# name -> (the word or pattern its errors must contain, its values, the call)
PROBES = {
    "DominatingMeasure.y": ("dominating measure", Vector(B, "positive", sized=False), lambda v: sp.DominatingMeasure(v)),
    "MixtureSpec.weights": (*MIX_WEIGHTS, lambda v: sp.MixtureSpec(v, COMPS)),
    "MixtureSpec.components": (*MIX_COMPONENTS, lambda v: sp.MixtureSpec([0.5, 0.5], v)),
    "make_mixture.weights": (*MIX_WEIGHTS, lambda v: sp.make_mixture(v, COMPS)),
    "make_mixture.components": (*MIX_COMPONENTS, lambda v: sp.make_mixture([0.5, 0.5], v)),
    "resolve_dominating.spec": ("dominating", DOMINATING, lambda v: sp.resolve_dominating(v, 3, 0)),
    "resolve_dominating.d": (r"\bd\b", Count([1, 3]), lambda v: sp.resolve_dominating("uniform", v, 0)),
    "resolve_dominating.seed": ("seed", Count(**SEEDS), lambda v: sp.resolve_dominating("uniform", 3, v)),
    "GroupedDataset.d": (r"\bd\b", Count([3, 4]), lambda v: sp.GroupedDataset(v, np.array([[0, 2], [1, 0]]))),
    "GroupTallyHistogram.d": (r"\bd\b", Count([3]), lambda v: sp.GroupTallyHistogram(v, 2, {(1, 1, 0): 4})),
    "GroupTallyHistogram.group_size": (
        "group_size", Count([2]), lambda v: sp.GroupTallyHistogram(3, v, {(1, 1, 0): 4})
    ),
    "GroupTallyHistogram.counts": (
        "tally record", Count([1, 4], bad=[2**63], floats=True), lambda v: sp.GroupTallyHistogram(3, 2, {(1, 1, 0): v})
    ),
    "read_groups.d": (r"\bd\b", Count([3, 4], none=True), lambda v: sp.read_groups(io.StringIO("1 2\n3 1\n"), v)),
    "draw_groups.group_size": ("group_size", Count([1, 4]), lambda v: sp.draw_groups(MIX, v, 10, 0)),
    "draw_groups.n_groups": ("n_groups", Count([1, 10]), lambda v: sp.draw_groups(MIX, 3, v, 0)),
    "draw_groups.seed": ("seed", Count(**SEEDS), lambda v: sp.draw_groups(MIX, 3, 10, v)),
    "num_compositions.k": (r"\bk\b", Count([0, 4], low=0), lambda v: sp.num_compositions(v, 3)),
    "num_compositions.d": (r"\bd\b", Count([1, 3]), lambda v: sp.num_compositions(4, v)),
    "moment.r": ("order", Count([1, 2, 4], bad=[5]), lambda v: sp.moment(HIST, v)),
    "moment.b": (r"\bb\b", Vector(B, "positive", none=True), lambda v: sp.moment(MIX, 2, v)),
    "build_c_hat.m": (r"\bm\b", Count([1, 2]), lambda v: sp.build_c_hat(HIST, v, None)),
    "build_c_hat.b": (r"\bb\b", Vector(B, "positive", none=True), lambda v: sp.build_c_hat(HIST, 2, v)),
    "build_e_hat.m": (r"\bm\b", Count([2, 5], low=2), lambda v: sp.build_e_hat(HIST, v)),
    "whiten.m": (r"\bm\b", Count([1, 3]), lambda v: sp.whiten(np.eye(3), v)),
    "whiten.eig_floor": ("eig_floor", Real([1e-8, 0.5], 0.0, 1.0, open_low=True), lambda v: sp.whiten(np.eye(3), 2, v)),
    "eig_sqrt_pinv.eig_floor": (
        "eig_floor", Real([1e-8, 0.5], 0.0, 1.0, open_low=True), lambda v: eig_sqrt_pinv(sym_eig(np.eye(3)), 2, v)
    ),
    "numerical_rank.rel_tol": ("rel_tol", Real([0, 1e-8, 0.5], 0.0, 1.0), lambda v: numerical_rank(np.eye(3), v)),
    "recover_weights.e_hat": ("e_hat", Vector(MEAN, "tensor"), lambda v: sp.recover_weights(v, COMPS)),
    "recover_weights.components": ("components", Matrix(COMPS, "finite"), lambda v: sp.recover_weights(MEAN, v)),
    "RecoveryConfig.m": (r"\bm\b", Count([1, 3]), lambda v: sp.RecoveryConfig(v)),
    "RecoveryConfig.eig_floor": (
        "eig_floor", Real([1e-8, 0.5], 0.0, 1.0, open_low=True), lambda v: sp.RecoveryConfig(2, eig_floor=v)
    ),
    "RecoveryConfig.dominating": ("dominating", DOMINATING, lambda v: sp.RecoveryConfig(2, dominating=v)),
    "recover_full.seed": ("seed", Count(**SEEDS), lambda v: sp.recover_full(HIST, UNIFORM, seed=v)),
    "li_recover.m": (r"\bm\b", Count([1, 2]), lambda v: sp.li_recover(MIX, v)),
    "estimate_num_components.n": ("power", Count([1, 2]), lambda v: sp.estimate_num_components(HIST, v)),
    "estimate_num_components.rel_tol": (
        "rel_tol", Real([0, 1e-8, 0.5], 0.0, 1.0), lambda v: sp.estimate_num_components(HIST, 1, v)
    ),
    "fold.dim": (r"\bdim\b", Count([3]), lambda v: sp.fold(FOLDED, v, 3, 1)),
    "fold.order": ("order", Count([3], low=2), lambda v: sp.fold(FOLDED, 3, v, 1)),
    "fold.split": ("split", Count([1], bad=[3]), lambda v: sp.fold(FOLDED, 3, 3, v)),
    "unfold.split": ("split", Count([1, 2], bad=[3]), lambda v: sp.unfold(np.zeros((3, 3, 3)), v)),
    "build_pair.m": (r"\bm\b", Count([2]), lambda v: sp.build_pair(v, 5)),
    "build_pair.t": (r"\bt\b", Count([4, 5], bad=[3, 6]), lambda v: sp.build_pair(2, v)),
    "build_pair.base": ("base", Vector([1.0, 0.0], "probability"), lambda v: sp.build_pair(2, 5, (v, [0.0, 1.0]))),
    "build_pair.epsilons": (
        "mixing levels", Vector([0.0, 0.25, 0.5, 0.75, 1.0], "levels", none=True), lambda v: sp.build_pair(2, 5, epsilons=v)
    ),
    "verify_moment_equality.n": (r"\bn\b", Count([1, 3]), lambda v: sp.verify_moment_equality(MIX, OTHER, v)),
    "verify_moment_equality.tol": ("tol", Real([0, 1e-9, 1.0], 0.0), lambda v: sp.verify_moment_equality(MIX, OTHER, 2, v)),
    "MultinomialSpec.n": (r"\bn\b", Count([1, 5]), lambda v: sp.MultinomialSpec(v, 2, [0.5, 0.5])),
    "MultinomialSpec.q": (r"\bq\b", Count([2], low=2), lambda v: sp.MultinomialSpec(2, v, [0.5, 0.5])),
    "MultinomialSpec.p": (r"probabilit|\bp\b", Vector([0.5, 0.5], "probability"), lambda v: sp.MultinomialSpec(2, 2, v)),
    "multinomial_mixture_equal.weights": (
        "weights",
        Choice(
            good=[1.0, 1, np.float64(1.0), np.int64(1)],
            bad=[True, np.True_, None, "1.0", math.nan, math.inf, -1.0, 0.5, 0.0, np.array([1.0]), [1.0], complex(1)],
            strategy=st.floats(allow_nan=True, allow_infinity=True).map(
                lambda w: (w, EITHER if abs(w - 1.0) <= 2 * SUM_TOL else INVALID)
            ),
        ),
        lambda v: sp.multinomial_mixture_equal([(v, SPEC)], [(1.0, SPEC)]),
    ),
    "multinomial_mixture_equal.tol": (
        "tol", Real([0, 1e-10, 1.0], 0.0), lambda v: sp.multinomial_mixture_equal([(1.0, SPEC)], [(1.0, SPEC)], v)
    ),
    "ExperimentConfig.group_size": ("group_size", Count([1, 3]), lambda v: sp.ExperimentConfig(MIX, v, 10, 1, None, CONFIG)),
    "ExperimentConfig.n_groups": ("n_groups", Count([1, 10]), lambda v: sp.ExperimentConfig(MIX, 3, v, 1, None, CONFIG)),
    "ExperimentConfig.reps": ("reps", Count([1, 2]), lambda v: sp.ExperimentConfig(MIX, 3, 10, v, None, CONFIG)),
    "ExperimentConfig.seed": ("seed", Count(**SEEDS), lambda v: sp.ExperimentConfig(MIX, 3, 10, 1, None, CONFIG, v)),
    "ExperimentConfig.dominating": ("dominating", DOMINATING, lambda v: sp.ExperimentConfig(MIX, 3, 10, 1, v, CONFIG)),
    "matched_l1_error.truth": ("truth", Matrix(COMPS, "finite"), lambda v: sp.matched_l1_error(v, COMPS)),
    "matched_l1_error.est": ("estimate", Matrix(COMPS, "finite"), lambda v: sp.matched_l1_error(COMPS, v)),
    "random_baseline.truth": ("truth", Matrix(COMPS, "finite"), lambda v: sp.random_baseline(v, 5, 0)),
    "random_baseline.trials": ("trials", Count([1, 5]), lambda v: sp.random_baseline(COMPS, v, 0)),
    "random_baseline.seed": ("seed", Count(**SEEDS), lambda v: sp.random_baseline(COMPS, 3, v)),
}

# Public callables with no scalar setting or model vector, and why.
EXEMPT = {
    "RecoveryResult": "a record recover_full returns",
    "ExperimentReport": "a record run_experiment returns",
    "RecoveryError": "an error",
    "RankDeficiencyError": "an error",
    "empirical_sym_moment": "the same function as moment",
    "b_map": "takes a DominatingMeasure, whose masses are probed",
    "build_t_hat": "takes data tensors only",
    "sym_eig": "takes a data tensor only",
    "symmetrize": "takes a data tensor only",
    "tally": "takes a GroupedDataset only",
    "run_experiment": "takes an ExperimentConfig, whose settings are probed",
    "verify_lemma_mult": "takes a MultinomialSpec, whose settings are probed",
}


@pytest.mark.parametrize("name", list(PROBES))
def test_fixed_values(name):
    label, values, call = PROBES[name]
    for value, expect in values.fixed():
        check(call, value, expect, label)


@pytest.mark.parametrize("name", list(PROBES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_drawn_values(name, data):
    label, values, call = PROBES[name]
    value, expect = data.draw(values.strategy(), label="value")
    check(call, value, expect, label)


def test_every_public_callable_is_probed_or_exempt():
    probed = {name.split(".")[0] for name in PROBES}
    callables = {name for name in sp.__all__ if callable(getattr(sp, name))}
    assert callables == (probed - {"eig_sqrt_pinv", "numerical_rank"}) | set(EXEMPT)
    assert sp.empirical_sym_moment is sp.moment
    assert sp.make_mixture is sp.MixtureSpec


# -- inputs each type checks itself ---------------------------------------------------


@pytest.mark.parametrize(
    "weights, components, message",
    [
        # each of these used to construct, and NaN gave all-NaN moments and fits
        ([math.nan], [[1.0, 0.0]], r"^weights entry 0 is nan, not finite$"),
        ([0.5, 0.6], COMPS, r"^weights sum to 1\.1, not 1$"),
        ([0.5, 0.5], [[0.5, 0.5, 0.5], COMPS[1]], r"^components: probabilities sum to 1\.5, not 1$"),
        ([0.5, 0.5], [COMPS[0], COMPS[0]], r"^components 0 and 1 coincide"),
    ],
)
def test_mixture_spec_checks_its_fields(weights, components, message):
    with pytest.raises(ValueError, match=message):
        sp.MixtureSpec(np.array(weights), np.array(components))


def test_mixture_spec_stores_read_only_copies():
    weights, components = np.array([0.5, 0.5]), np.array(COMPS)
    mix = sp.MixtureSpec(weights, components)
    assert weights.flags.writeable and components.flags.writeable
    assert not mix.weights.flags.writeable and not mix.components.flags.writeable
    assert mix.weights.tobytes() == MIX.weights.tobytes() and mix.components.tobytes() == MIX.components.tobytes()


@pytest.mark.parametrize(
    "groups",
    [[[0, 1]], np.zeros((2, 2)), np.zeros(2, dtype=np.int64), np.zeros((0, 2), dtype=np.int64), np.array([[0, -1]]), np.array([[0, 3]])],
)
def test_grouped_dataset_errors_name_groups(groups):
    with pytest.raises(ValueError, match=r"^groups "):
        sp.GroupedDataset(3, groups)


def test_read_groups_index_error_names_d():
    # the index 3 is past the d = 2 the caller gave, reported as the file holds it
    with pytest.raises(ValueError, match=r"^group 2: index 3 is out of range \[1, d\] for d = 2; the text format uses 1-based"):
        sp.read_groups(io.StringIO("1 2\n3 1\n"), 2)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8])
def test_grouped_dataset_leaves_the_callers_array(dtype):
    arr = np.array([[0, 2], [1, 0]], dtype=dtype)
    ds = sp.GroupedDataset(3, arr)
    assert arr.dtype == dtype and arr.flags.writeable
    assert arr.tolist() == [[0, 2], [1, 0]]
    assert ds.groups.dtype == np.uint8 and not ds.groups.flags.writeable
    assert ds.groups.tolist() == [[0, 2], [1, 0]]


@pytest.mark.parametrize("name, value", [("mixture", {"weights": [1.0], "components": [[1.0]]}), ("recovery", {"m": 1})])
def test_experiment_config_refuses_untyped_fields(name, value):
    # each used to construct, and run_experiment raised an AttributeError
    fields = dict(mixture=MIX, group_size=3, n_groups=10, reps=1, dominating=None, recovery=CONFIG)
    with pytest.raises(TypeError, match=rf"^{name} must be a \w+, got dict$"):
        sp.ExperimentConfig(**fields | {name: value})


# -- the public API ---------------------------------------------------------------

# Each public name, and the callers that need it: the README's code and API
# text, the CLI, the acceptance tests, the pipeline benchmark (its `sp.` names
# wait for the benchmark's next revision), or "type" for a type or error that
# those names take, return or raise.
PUBLIC = {
    "BACKEND": ("README",),
    "DominatingMeasure": ("acceptance", "type"),
    "ExperimentConfig": ("CLI", "acceptance"),
    "ExperimentReport": ("perfbench", "type"),
    "GroupTallyHistogram": ("type",),
    "GroupedDataset": ("type",),
    "MixtureSpec": ("README", "CLI", "perfbench", "type"),
    "MultinomialSpec": ("CLI", "acceptance"),
    "RankDeficiencyError": ("type",),
    "RecoveryConfig": ("README", "CLI", "acceptance"),
    "RecoveryError": ("CLI", "type"),
    "RecoveryResult": ("type",),
    "b_map": ("README", "acceptance", "perfbench"),
    "build_c_hat": ("acceptance", "perfbench"),
    "build_e_hat": ("perfbench",),
    "build_pair": ("README", "CLI", "acceptance"),
    "build_t_hat": ("acceptance", "perfbench"),
    "draw_groups": ("README", "acceptance", "perfbench"),
    "empirical_sym_moment": ("acceptance", "perfbench"),
    "estimate_num_components": ("README", "CLI", "acceptance"),
    "fold": ("acceptance",),
    "li_recover": ("README", "acceptance"),
    "make_mixture": ("README", "acceptance", "perfbench"),
    "matched_l1_error": ("README", "acceptance", "perfbench"),
    "moment": ("README", "acceptance"),
    "multinomial_mixture_equal": ("CLI",),
    "num_compositions": ("perfbench",),
    "random_baseline": ("CLI", "acceptance"),
    "read_groups": ("CLI",),
    "recover_full": ("README", "CLI", "acceptance", "perfbench"),
    "recover_weights": ("perfbench",),
    "resolve_dominating": ("README", "perfbench"),
    "run_experiment": ("CLI", "acceptance"),
    "sym_eig": ("README", "perfbench"),
    "symmetrize": ("acceptance",),
    "tally": ("README", "acceptance", "perfbench"),
    "unfold": ("acceptance",),
    "verify_lemma_mult": ("acceptance",),
    "verify_moment_equality": ("README", "acceptance"),
    "whiten": ("acceptance", "perfbench"),
}


def test_all_is_the_public_namespace():
    names = {name for name, value in vars(sp).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(sp.__all__) == sorted(names) == sorted(PUBLIC)
    assert len(sp.__all__) == len(set(sp.__all__))
    # the README's Layout section lists them after its file tree
    listed = (ROOT / "README.md").read_text().split("\n## Layout", 1)[1].split("```")[-1]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(PUBLIC)


def _caller_texts() -> dict:
    readme = (ROOT / "README.md").read_text()
    return {
        # the Layout section lists every public name, so it shows no caller
        "README": readme.split("\n## Layout", 1)[0],
        "CLI": (ROOT / "src" / "specmix" / "cli.py").read_text(),
        "acceptance": (ROOT / "tests" / "test_acceptance.py").read_text(),
        "perfbench": "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))),
    }


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_has_its_callers(name):
    texts = _caller_texts()
    for caller in PUBLIC[name]:
        if caller == "type":
            assert isinstance(getattr(sp, name), type), name
            continue
        pattern = rf"\bsp\.{name}\b" if caller == "perfbench" else rf"\b{name}\b"
        assert re.search(pattern, texts[caller]), f"{name} is not in the {caller} text"
