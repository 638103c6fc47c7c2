"""Deterministic random words and the sampling kernel backends."""
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import run_child
from specmix import _kernels_np, kernels, rng
from specmix._kernels_np import draw_thresholds
from specmix.sampling import DRAW_BLOCK


class TestMix64:
    def test_splitmix_sequence(self):
        # first three outputs of the splitmix64 reference generator seeded with 0
        assert rng.mix64(rng.GOLD) == 0xE220A8397B1DCDAF
        assert rng.mix64((2 * rng.GOLD) & rng.MASK) == 0x6E789E6AA1B965F4
        assert rng.mix64((3 * rng.GOLD) & rng.MASK) == 0x06C45D188009454F

    def test_wraps_to_64_bits(self):
        assert rng.mix64(1 << 64) == rng.mix64(0)
        assert 0 <= rng.mix64(12345) <= rng.MASK

    def test_array_matches_scalar(self):
        z = np.array([0, 1, 2**63, rng.MASK], dtype=np.uint64)
        expect = [rng.mix64(int(v)) for v in z]
        assert_array_equal(rng._mix64_array(z), np.array(expect, dtype=np.uint64))


class TestDeriveSeed:
    def test_deterministic(self):
        assert rng.derive_seed(42, 1) == rng.derive_seed(42, 1)

    def test_tags_separate(self):
        seen = {rng.derive_seed(42, tag) for tag in range(1, 6)}
        assert len(seen) == 5

    def test_seeds_separate(self):
        assert rng.derive_seed(0, 1) != rng.derive_seed(1, 1)

    def test_numpy_integer_seeds(self):
        # check_seed accepts them; an np.int64 masked with 2**64 - 1 overflowed
        for seed in (np.int64(7), np.uint64(7), np.uint64(2**64 - 1)):
            assert rng.derive_seed(seed, 1) == rng.derive_seed(int(seed), 1)

    def test_rejects_seed_outside_64_bits(self):
        # such a seed would otherwise alias its residue modulo 2**64
        rng.derive_seed(2**64 - 1, 1)
        for seed in (-1, 2**64, 2**70):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
                rng.derive_seed(seed, 1)
        for seed in (1.5, "3", None, True):
            with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
                rng.derive_seed(seed, 1)


class TestWords:
    def test_dtype_and_shape(self):
        w = rng.words(1, 2, np.arange(5))
        assert w.dtype == np.uint64
        assert w.shape == (5,)

    def test_counter_function(self):
        w = rng.words(1, 2, np.arange(5))
        assert_array_equal(rng.words(1, 2, np.arange(2, 4)), w[2:4])

    def test_streams_differ(self):
        a = rng.words(1, 0, np.arange(4))
        b = rng.words(1, 1, np.arange(4))
        assert not np.array_equal(a, b)

    def test_stream_partition_independence(self):
        # words on one stream do not depend on how another stream is consumed
        before = rng.words(9, 7, np.arange(6))
        rng.words(9, 3, np.arange(1000))
        assert_array_equal(rng.words(9, 7, np.arange(6)), before)


class TestUniforms:
    def test_range_and_determinism(self):
        u = rng.uniforms(7, 0, 1000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert_array_equal(u, rng.uniforms(7, 0, 1000))

    def test_moments(self):
        u = rng.uniforms(2024, 5, 100_000)
        assert abs(u.mean() - 0.5) < 0.005
        assert abs(u.var() - 1 / 12) < 0.005


class TestNormals:
    def test_moments_and_finiteness(self):
        z = rng.normals(11, 0, 100_000)
        assert np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_odd_length(self):
        assert rng.normals(11, 0, 7).shape == (7,)

    def test_streams_differ(self):
        assert not np.array_equal(rng.normals(11, 0, 8), rng.normals(11, 1, 8))


class TestExponentials:
    def test_moments(self):
        e = rng.exponentials(3, 0, 100_000)
        assert np.all(e >= 0.0)
        assert abs(e.mean() - 1.0) < 0.02


def drawn_uniforms(seed, n, k, start):
    """(n, k+1) uniforms of the groups on streams start, start+1, ...
    (modulo 2**64): column 0 picks the component, columns 1..k the
    categories."""
    streams = np.array([(start + g) & rng.MASK for g in range(n)], dtype=np.uint64)
    seed_mixed = np.uint64(rng.mix64((int(seed) + rng.GOLD) & rng.MASK))
    bases = rng._mix64_array(seed_mixed ^ (streams * np.uint64(rng.STREAM_MULT)))
    counters = np.arange(k + 1, dtype=np.uint64) * np.uint64(rng.COUNTER_MULT)
    return rng.to_unit(rng._mix64_array(bases[:, None] ^ counters[None, :]))


def reference_sample_groups(seed, n_groups, group_size, cum_weights, cum_components, start=0):
    """The numpy sampler written draw by draw: each of the group_size
    draws masks every component's groups afresh.  Same counter scheme and
    inverse-CDF search as the kernels, with none of their bookkeeping."""
    n_comp, d = cum_components.shape
    u = drawn_uniforms(seed, n_groups, group_size, start)
    comp = np.searchsorted(cum_weights, u[:, 0], side="right")
    np.minimum(comp, n_comp - 1, out=comp)
    out = np.empty((n_groups, group_size), dtype=np.uint8)
    for j in range(group_size):
        cats = np.empty(n_groups, dtype=np.int64)
        for c in range(n_comp):
            mask = comp == c
            if mask.any():
                cats[mask] = np.searchsorted(cum_components[c], u[mask, j + 1], side="right")
        np.minimum(cats, d - 1, out=cats)
        out[:, j] = cats
    return out


# (m, d, k, n, start, seed) cases for the sampler, with zero weights.
sampler_cases = given(
    m=st.integers(1, 5),
    d=st.integers(1, 60),
    k=st.integers(1, 8),
    n=st.integers(1, 3000),
    start=st.integers(0, 2**40),
    seed=st.integers(0, 2**64 - 1),
    zero_weight=st.booleans(),
    mix_seed=st.integers(0, 2**32 - 1),
)


def cumulative_mixture(m, d, zero_weight, mix_seed):
    """Cumulative weights and component rows of a random mixture."""
    rs = np.random.default_rng(mix_seed)
    w = rs.dirichlet(np.ones(m))
    if zero_weight and m > 1:
        w[rs.integers(m)] = 0.0
        w /= w.sum()
    return np.cumsum(w), np.cumsum(rs.dirichlet(np.full(d, 0.5), size=m), axis=1)


class TestNumpySampler:
    @settings(max_examples=60, deadline=None)
    @sampler_cases
    @example(m=3, d=4, k=5, n=2000, start=2**40, seed=1, zero_weight=True, mix_seed=0)
    def test_matches_reference(self, m, d, k, n, start, seed, zero_weight, mix_seed):
        cw, cc = cumulative_mixture(m, d, zero_weight, mix_seed)
        got = _kernels_np.sample_groups(seed, n, k, draw_thresholds(cw, cc), start=start)
        want = reference_sample_groups(seed, n, k, cw, cc, start=start)
        assert got.dtype == want.dtype == np.uint8
        assert_array_equal(got, want)


class TestCompiledSampler:
    @settings(max_examples=60, deadline=None)
    @sampler_cases
    @example(m=3, d=4, k=5, n=2000, start=2**40, seed=1, zero_weight=True, mix_seed=0)
    @example(m=2, d=1, k=3, n=500, start=0, seed=2**64 - 1, zero_weight=False, mix_seed=1)
    @example(m=4, d=255, k=8, n=2000, start=7, seed=3, zero_weight=True, mix_seed=2)
    @example(m=1, d=6, k=5, n=1000, start=2**40, seed=0, zero_weight=False, mix_seed=3)
    def test_matches_reference(self, m, d, k, n, start, seed, zero_weight, mix_seed):
        compiled = pytest.importorskip("specmix._kernels")
        cw, cc = cumulative_mixture(m, d, zero_weight, mix_seed)
        got = compiled.sample_groups(seed, n, k, draw_thresholds(cw, cc), start=start)
        want = reference_sample_groups(seed, n, k, cw, cc, start=start)
        assert got.dtype == want.dtype == np.uint8
        assert_array_equal(got, want)


def backend(name):
    """The kernel module of a backend; skips if the compiled one does not load."""
    return _kernels_np if name == "numpy" else pytest.importorskip("specmix._kernels")


@pytest.mark.parametrize("name", ["numpy", "compiled"])
class TestSampleKeys:
    @settings(max_examples=60, deadline=None)
    @sampler_cases
    @example(m=3, d=3, k=5, n=2000, start=2**40, seed=1, zero_weight=True, mix_seed=0)
    @example(m=2, d=1, k=3, n=500, start=0, seed=2**64 - 1, zero_weight=False, mix_seed=1)
    @example(m=4, d=5, k=8, n=2000, start=7, seed=3, zero_weight=True, mix_seed=2)
    @example(m=2, d=16, k=1, n=3000, start=5, seed=4, zero_weight=False, mix_seed=3)
    def test_matches_reference(self, name, m, d, k, n, start, seed, zero_weight, mix_seed):
        impl = backend(name)
        # fold d into 1..d_max, the sizes whose (k+1)^(d-1)-cell table is at most 2^16
        d_max = 1
        while (k + 1) ** d_max <= 2**16:
            d_max += 1
        d = 1 + (d - 1) % d_max
        cw, cc = cumulative_mixture(m, d, zero_weight, mix_seed)
        cells = (k + 1) ** (d - 1)
        want = np.bincount(
            _kernels_np.group_keys(reference_sample_groups(seed, n, k, cw, cc, start=start), d), minlength=cells
        )
        # every call returns a new int64 table of its own, and the tables
        # of two start= blocks sum to the one call's
        table = impl.sample_keys(seed, n, k, draw_thresholds(cw, cc), start=start)
        assert table.dtype == np.int64 and table.shape == (cells,)
        assert_array_equal(table, want)
        cut = n // 3
        head = impl.sample_keys(seed, cut, k, draw_thresholds(cw, cc), start=start)
        tail = impl.sample_keys(seed, n - cut, k, draw_thresholds(cw, cc), start=start + cut)
        assert not any(np.shares_memory(a, b) for a, b in [(table, head), (table, tail), (head, tail)])
        assert_array_equal(head + tail, want)

    def test_rejects_key_space_no_table_holds(self, name, monkeypatch):
        # d = 40, k = 5: 6**39 cells, past any array and past int64, where
        # key_weights would wrap; the table is refused before the weights,
        # which both kernels take before they draw a group, are computed
        impl = backend(name)

        def weights_computed(*args):
            raise AssertionError("key_weights ran")

        monkeypatch.setattr(impl, "key_weights", weights_computed)
        cw, cc = np.cumsum([1.0]), np.cumsum([np.full(40, 1 / 40)], axis=1)
        with pytest.raises((ValueError, MemoryError)):
            impl.sample_keys(0, 5, 5, draw_thresholds(cw, cc))

    def test_rejects_negative_sizes(self, name):
        # a group of -1 draws would key to 0, past a table of 0**(d-1) cells
        impl = backend(name)
        cw, cc = np.cumsum([1.0]), np.cumsum([[0.5, 0.5]], axis=1)
        with pytest.raises(ValueError):
            impl.sample_keys(0, 5, -1, draw_thresholds(cw, cc))
        with pytest.raises(ValueError):
            impl.sample_keys(0, -5, 2, draw_thresholds(cw, cc))

    def test_sample_groups_rejects_negative_sizes(self, name):
        # the numpy sampler raised numpy's "negative dimensions are not allowed"
        impl = backend(name)
        thresholds = draw_thresholds(np.cumsum([1.0]), np.cumsum([[0.5, 0.5]], axis=1))
        for n_groups, group_size in [(-1, 2), (5, -1)]:
            with pytest.raises(ValueError, match="^n_groups and group_size must be >= 0$"):
                impl.sample_groups(0, n_groups, group_size, thresholds)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_extra_weight_thresholds_are_ignored(self, name, seed):
        # more weight thresholds than n_comp - 1: the compiled kernels use the
        # first n_comp - 1, and the numpy ones left the groups picking a
        # component past the table unwritten in np.empty
        impl = backend(name)
        cw, cc = np.cumsum([0.25, 0.25, 0.25, 0.25]), np.cumsum([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]], axis=1)
        weight_t, comp_t = draw_thresholds(cw, np.vstack([cc, cc]))
        extra, kept = (weight_t, comp_t[:2]), (weight_t[:1], comp_t[:2])
        want = reference_sample_groups(seed, 500, 4, cw[:2], cc, start=7)
        assert_array_equal(impl.sample_groups(seed, 500, 4, extra, start=7), want)
        assert_array_equal(impl.sample_groups(seed, 500, 4, kept, start=7), want)
        table = impl.sample_keys(seed, 500, 4, extra, start=7)
        assert_array_equal(table, np.bincount(_kernels_np.group_keys(want, 3), minlength=5**2))


BLEND = np.cumsum([0.5, 0.3, 0.2]), np.cumsum([[0.64, 0.32, 0.04], [0.04, 0.32, 0.64], [0.24, 0.32, 0.44]], axis=1)


class TestOneSampleGroupsCall:
    """One sample_groups call over any number of groups; the numpy sampler
    draws it DRAW_BLOCK groups at a time into its rows of the output."""

    @pytest.mark.parametrize("name", ["numpy", "compiled"])
    @pytest.mark.parametrize("n", [DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 17])
    def test_equals_its_start_blocks(self, name, n):
        # byte for byte, cut at DRAW_BLOCK edges, as draw_tally's row path
        # draws, and in thirds, on streams that wrap past 2**64
        impl = backend(name)
        start, thresholds = 2**64 - 5, draw_thresholds(*BLEND)
        rows = impl.sample_groups(9, n, 5, thresholds, start=start)
        assert rows.shape == (n, 5) and rows.dtype == np.uint8
        for size in (DRAW_BLOCK, n // 3 + 1):
            blocks = [
                impl.sample_groups(9, min(size, n - lo), 5, thresholds, start=start + lo) for lo in range(0, n, size)
            ]
            assert np.concatenate(blocks).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("n", [3 * DRAW_BLOCK + 17, 40 * DRAW_BLOCK])
    def test_numpy_scratch_does_not_grow_with_groups(self, n):
        # beside its output, a call holds the buffers of one block, about 41
        # bytes a group; drawn whole, they took 7.7 MiB at 3 blocks and 102.5
        # MiB at 40
        tracemalloc.start()
        try:
            out = _kernels_np.sample_groups(9, n, 2, draw_thresholds(*BLEND))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 48 * DRAW_BLOCK


# How a cumulative mass sits against the uniforms the groups draw: on one
# (every uniform is a multiple of 2**-53), an ulp either side, on another
# multiple of 2**-53, at the edges of [0, 1], or not finite (np.sort puts
# NaN last, where searchsorted reads it as above every uniform).
EDGES = (
    "tie", "below", "above", "grid", "zero", "negzero", "subnormal", "one", "below_one", "above_one", "inf",
    "neginf", "nan",
)


def edge_mass(kind, u, grid):
    return {
        "tie": u,
        "below": np.nextafter(u, 0.0),
        "above": np.nextafter(u, 1.0),
        "grid": grid * 2.0**-53,
        "zero": 0.0,
        "negzero": -0.0,
        "subnormal": 5e-324,
        "one": 1.0,
        "below_one": np.nextafter(1.0, 0.0),
        "above_one": np.nextafter(1.0, 2.0),
        "inf": np.inf,
        "neginf": -np.inf,
        "nan": np.nan,
    }[kind]


@st.composite
def edge_cases(draw):
    """(seed, n, k, start, cum_weights, cum_components) whose masses sit
    on, or an ulp off, the uniforms the groups draw, with repeated masses
    (zero-weight components, zero-mass categories) and tails at 1."""
    seed = draw(st.integers(0, 2**64 - 1))
    n = draw(st.integers(1, 150))
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, 6))
    start = draw(st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64 - 200, 2**64 - 1)))
    u = drawn_uniforms(seed, n, k, start)

    def masses(count, column):
        out = []
        for _ in range(count):
            kind = draw(st.sampled_from(EDGES))
            col = column if column is not None else draw(st.integers(1, k))
            out.append(edge_mass(kind, u[draw(st.integers(0, n - 1)), col], draw(st.integers(0, 2**53))))
        return out

    # the last mass too: a row ending below a drawn uniform must still
    # pick its last category, as searchsorted clipped to d - 1 does
    cum_weights = np.sort(masses(m, 0))
    cum_components = np.sort([masses(d, None) for _ in range(m)], axis=1)
    return seed, n, k, start, cum_weights, cum_components


SPECIAL_MASSES = (0.0, -0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1.0, np.inf, -np.inf, np.nan)


@st.composite
def masses_and_words(draw):
    """Masses, the special ones among them, and words whose x = w >> 11
    sits on, or next to, some mass scaled by 2**53, besides random ones."""
    masses = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_MASSES), st.floats(-0.5, 1.5), st.floats()), min_size=1, max_size=12))
    words = draw(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    for c in masses:
        if 0.0 <= c < 1.0:
            x = int(c * 2.0**53)  # floor: the scaling is exact
            for near in (x - 1, x, x + 1):
                if 0 <= near < 2**53:
                    words.append(near << 11 | draw(st.integers(0, 2**11 - 1)))
    return np.array(masses), np.array(words, dtype=np.uint64)


class TestDrawThresholds:
    """draw_thresholds against the float rule it replaces: a word w
    reaches t(c) exactly when rng.to_unit(w) >= c."""

    @settings(max_examples=300, deadline=None)
    @given(case=masses_and_words())
    @example(case=(np.array(SPECIAL_MASSES), np.array([0, 1 << 11, 2**64 - 1, (2**53 - 1) << 11], dtype=np.uint64)))
    def test_matches_float_rule(self, case):
        c, w = case
        # every mass as a weight threshold, and as each component's category thresholds
        weight_t, comp_t = draw_thresholds(c, np.tile(np.append(c, 1.0), (len(c) + 1, 1)))
        assert weight_t.dtype == comp_t.dtype == np.int64
        assert_array_equal(weight_t, comp_t[0])
        reached = (w >> np.uint64(11)).astype(np.int64)[:, None] >= comp_t[0][None, :]
        assert_array_equal(reached, rng.to_unit(w)[:, None] >= c[None, :])

    def test_keeps_the_first_n_comp_minus_1_weights(self):
        weight_t, comp_t = draw_thresholds([0.5, 1.0, 1.0], [[0.25, 1.0], [1.0, 1.0]])
        assert weight_t.tolist() == [2**52]
        assert comp_t.tolist() == [[2**51], [2**53]]

    @pytest.mark.parametrize(
        "cum_weights, cum_components",
        [([[1.0]], [[1.0]]), ([1.0], [1.0]), ([1.0], np.zeros((0, 2))), ([1.0], np.zeros((1, 0)))],
        ids=["2-D weights", "1-D components", "no components", "no categories"],
    )
    def test_rejects_bad_shapes(self, cum_weights, cum_components):
        with pytest.raises(ValueError, match="cumulative"):
            draw_thresholds(cum_weights, cum_components)


def chunk():
    """Groups per pass of the compiled kernels, read from their source."""
    import re

    return int(re.search(r"^#define CHUNK (\d+)$", (Path(_kernels_np.__file__).with_name("_kernels.c")).read_text(), re.M)[1])


@pytest.mark.parametrize("name", ["numpy", "compiled"])
class TestExactThresholds:
    """Both backends against reference_sample_groups where a float
    comparison and its integer form could part: masses on a drawn
    uniform or an ulp either side of it."""

    @settings(max_examples=150, deadline=None)
    @given(case=edge_cases())
    def test_edge_masses_match_reference(self, name, case):
        impl = backend(name)
        seed, n, k, start, cw, cc = case
        want = reference_sample_groups(seed, n, k, cw, cc, start=start)
        assert_array_equal(impl.sample_groups(seed, n, k, draw_thresholds(cw, cc), start=start), want)
        d = cc.shape[1]
        cells = (k + 1) ** (d - 1)
        table = impl.sample_keys(seed, n, k, draw_thresholds(cw, cc), start=start)
        assert_array_equal(table, np.bincount(_kernels_np.group_keys(want, d), minlength=cells))

    def test_ties_and_neighbours_on_every_draw(self, name):
        # every category mass sits on a uniform some group draws, or one
        # ulp off it, so each comparison kind happens many times
        impl = backend(name)
        seed, n, k, start = 11, 4096, 3, 2**64 - 2000
        u = drawn_uniforms(seed, n, k, start)
        picks = np.sort(u[:, 1:].ravel())[:: 512]
        cc = np.sort(np.concatenate([picks, np.nextafter(picks, 0.0), np.nextafter(picks, 1.0), [1.0]]))[None, :]
        cw = np.array([1.0])
        want = reference_sample_groups(seed, n, k, cw, cc, start=start)
        got = impl.sample_groups(seed, n, k, draw_thresholds(cw, cc), start=start)
        assert_array_equal(got, want)
        # the draws land on both sides of the ties, so no test passes vacuously
        assert len(np.unique(want)) > 10

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_sizes_around_the_chunk(self, name, offset):
        # n in {1, chunk-1, chunk, chunk+1, DRAW_BLOCK} and a start whose
        # streams wrap past 2**64; the tables of calls of every size sum
        # to the counts of one call
        impl = backend(name)
        size = chunk()
        cw, cc = np.cumsum([0.5, 0.3, 0.2]), np.cumsum([[0.64, 0.32, 0.04], [0.04, 0.32, 0.64], [0.24, 0.32, 0.44]], axis=1)
        start = 2**64 - 3 * size + offset
        sizes = [1, size - 1, size, size + 1, DRAW_BLOCK]
        total = sum(sizes)
        want = reference_sample_groups(3, total, 5, cw, cc, start=start)
        lo, rows, table = 0, [], np.zeros(6**2, dtype=np.int64)
        for n in sizes:
            rows.append(impl.sample_groups(3, n, 5, draw_thresholds(cw, cc), start=start + lo))
            table += impl.sample_keys(3, n, 5, draw_thresholds(cw, cc), start=start + lo)
            lo += n
        assert_array_equal(np.concatenate(rows), want)
        assert_array_equal(table, np.bincount(_kernels_np.group_keys(want, 3), minlength=6**2))


class TestBackends:
    @staticmethod
    def _both():
        from specmix import _kernels_np

        compiled = pytest.importorskip("specmix._kernels")
        return compiled, _kernels_np

    def test_sample_groups_parity(self):
        compiled, fallback = self._both()
        rs = np.random.default_rng(0)
        for seed in (0, 1, 2024, 77):
            m, d = rs.integers(1, 4), rs.integers(2, 6)
            w = rs.dirichlet(np.ones(m))
            comp = rs.dirichlet(np.ones(d), size=m)
            cw, cc = np.cumsum(w), np.cumsum(comp, axis=1)
            a = compiled.sample_groups(seed, 50, 6, draw_thresholds(cw, cc))
            b = fallback.sample_groups(seed, 50, 6, draw_thresholds(cw, cc))
            assert a.dtype == np.uint8
            assert_array_equal(a, b)

    def test_start_offset_parity(self):
        compiled, fallback = self._both()
        cw = np.cumsum([0.5, 0.5])
        cc = np.cumsum([[0.9, 0.1], [0.1, 0.9]], axis=1)
        full = compiled.sample_groups(5, 10, 3, draw_thresholds(cw, cc))
        assert_array_equal(compiled.sample_groups(5, 4, 3, draw_thresholds(cw, cc), start=6), full[6:])
        assert_array_equal(fallback.sample_groups(5, 4, 3, draw_thresholds(cw, cc), start=6), full[6:])

    def test_sample_keys_chunks_across_blocks(self):
        # the fallback draws and keys DRAW_BLOCK groups at a time in
        # reused buffers; over two whole blocks and a ragged one, on
        # streams that wrap past 2**64, it counts what the compiled kernel
        # counts in one call, and on both backends the tables of one call
        # per block sum to that
        compiled, fallback = self._both()
        cw, cc = np.cumsum([0.5, 0.3, 0.2]), np.cumsum([[0.64, 0.32, 0.04], [0.04, 0.32, 0.64], [0.24, 0.32, 0.44]], axis=1)
        n, start, cells = 2 * DRAW_BLOCK + 17, 2**64 - 5, 6**2
        table = fallback.sample_keys(9, n, 5, draw_thresholds(cw, cc), start=start)
        want = compiled.sample_keys(9, n, 5, draw_thresholds(cw, cc), start=start)
        assert_array_equal(table, want)
        for impl in (compiled, fallback):
            blocks = [
                impl.sample_keys(9, min(DRAW_BLOCK, n - lo), 5, draw_thresholds(cw, cc), start=start + lo)
                for lo in range(0, n, DRAW_BLOCK)
            ]
            assert_array_equal(np.sum(blocks, axis=0), table)
        rows = fallback.sample_groups(9, n, 5, draw_thresholds(cw, cc), start=start)
        assert_array_equal(table, np.bincount(fallback.group_keys(rows, 3), minlength=cells))
        assert table.sum() == n

    # moment-d6m4's shape, the largest table, and d = 1, whose one key is 0
    @pytest.mark.parametrize("d, k", [(6, 7), (17, 1), (1, 4)])
    def test_sample_keys_table_has_no_category_zero_digit(self, d, k):
        # a table of (k+1)^(d-1) cells, indexed by the base-(k+1) digits of
        # the counts of categories 1 .. d-1, counted alike by both backends
        compiled, fallback = self._both()
        cw, cc = cumulative_mixture(3, d, False, d)
        cells = (k + 1) ** (d - 1)
        tables = [
            impl.sample_keys(4, 5000, k, draw_thresholds(cw, cc), start=99)
            for impl in (compiled, fallback)
        ]
        assert_array_equal(tables[0], tables[1])
        counts = np.zeros((5000, d), dtype=np.int64)
        np.add.at(counts, (np.arange(5000)[:, None], reference_sample_groups(4, 5000, k, cw, cc, start=99)), 1)
        keys = counts[:, 1:] @ (k + 1) ** np.arange(d - 1, dtype=np.int64)
        assert_array_equal(tables[0], np.bincount(keys, minlength=cells))
        assert_array_equal(kernels.decode_keys(keys, k, d), counts)

    def test_ties_go_right(self):
        # A uniform equal to a cumulative mass picks the next entry, as
        # searchsorted(side="right") does.  Random rows almost never tie,
        # so the thresholds here are group 0's own uniforms: counter 0
        # picks the component, counter 1 the category.
        u_comp, u_cat = rng.uniforms(9, 0, 2)
        cw = np.array([u_comp, 1.0])
        cc = np.array([[1.0, 1.0, 1.0], [u_cat, 1.0, 1.0]])
        for impl in self._both():
            assert impl.sample_groups(9, 1, 1, draw_thresholds(cw, cc)).tolist() == [[1]]

    def test_group_keys_encoding(self):
        groups = np.array([[0, 0, 1], [1, 0, 0], [2, 2, 2]], dtype=np.uint8)
        keys = kernels.group_keys(groups, 3)
        k = 3
        # key = sum over categories c >= 1 of (k+1)**(c-1) * count(c)
        expect = []
        for row in groups:
            counts = np.bincount(row, minlength=3)
            expect.append(sum(int(counts[c]) * (k + 1) ** (c - 1) for c in range(1, 3)))
        assert_array_equal(keys, expect)
        assert keys[0] == keys[1]  # same tally, different order

    def test_forced_numpy_backend(self):
        # A stub compiled module makes the compiled backend importable in the
        # child, so "numpy" can only come from SPECMIX_FORCE_NUMPY, not from
        # the fallback for a missing extension.
        code = (
            "import sys, types\n"
            "stub = types.ModuleType('specmix._kernels')\n"
            "stub.sample_groups = stub.sample_keys = None\n"
            "sys.modules['specmix._kernels'] = stub\n"
            "import specmix\n"
            "print(specmix.BACKEND)\n"
        )
        for force, expected in (("1", "numpy"), (None, "compiled")):
            assert run_child(code, force) == expected

    def test_group_keys_is_numpy_on_both_backends(self):
        assert kernels.group_keys is _kernels_np.group_keys
        code = "from specmix import _kernels_np, kernels\nprint(kernels.group_keys is _kernels_np.group_keys)\n"
        assert run_child(code, "1") == "True"

    def test_active_backend_exposed(self):
        import specmix

        assert specmix.BACKEND in ("compiled", "numpy")
        assert kernels.BACKEND == specmix.BACKEND

    def test_group_keys_rejects_out_of_range(self):
        # the encoder once read -1 as the last category
        with pytest.raises(ValueError, match="range"):
            kernels.group_keys(np.array([[0, 3]], dtype=np.uint8), 3)
        with pytest.raises(ValueError, match="range"):
            kernels.group_keys(np.array([[0, -1]]), 3)
        with pytest.raises(ValueError, match="range"):
            kernels.group_keys(np.array([[0, 3]]), 3)


class TestCompiledLoader:
    """_kernels._build against a cache directory of the test's own."""

    @pytest.fixture
    def compiled(self):
        return pytest.importorskip("specmix._kernels")

    def test_second_load_reuses_library(self, compiled, tmp_path):
        lib = compiled._build(compiled.SOURCE, tmp_path)
        mtime = lib.stat().st_mtime_ns
        assert compiled._build(compiled.SOURCE, tmp_path) == lib
        assert lib.stat().st_mtime_ns == mtime
        assert [p.name for p in tmp_path.iterdir()] == [lib.name]  # no temporary file left

    def test_edited_source_gets_new_file(self, compiled, tmp_path):
        edited = tmp_path / compiled.SOURCE.name
        edited.write_bytes(compiled.SOURCE.read_bytes() + b"/* edited */\n")
        cache = tmp_path / "cache"
        old, new = compiled._build(compiled.SOURCE, cache), compiled._build(edited, cache)
        assert old != new and old.exists() and new.exists()

    def test_no_compiler_raises_import_error(self, compiled, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path / "no-such-dir"))
        with pytest.raises(ImportError):
            compiled._build(compiled.SOURCE, tmp_path)

    def test_compile_error_raises_import_error(self, compiled, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int f(void) { return }\n")
        with pytest.raises(ImportError, match="cc failed"):
            compiled._build(broken, tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []

    def test_build_without_vector_clones_agrees(self, compiled, tmp_path, monkeypatch):
        # the plain x86-64 code, which a machine with AVX-512 never runs
        # from the cloned library, gives the same rows and tables
        source = compiled.SOURCE.read_text()
        clones = [line for line in source.splitlines() if "target_clones" in line]
        assert len(clones) == 1 and clones[0].startswith("#define VECTOR_CLONES ")
        plain = tmp_path / compiled.SOURCE.name
        plain.write_text(source.replace(clones[0], "#define VECTOR_CLONES"))
        cases = [
            (5, 2**64 - 100, 5, np.cumsum([0.5, 0.3, 0.2]),
             np.cumsum([[0.64, 0.32, 0.04], [0.04, 0.32, 0.64], [0.24, 0.32, 0.44]], axis=1)),
            (7, 3, 2, *cumulative_mixture(4, 7, True, 5)),
            (9, 0, 1, *cumulative_mixture(2, 16, False, 6)),
        ]
        got = []
        for lib in (compiled._lib, compiled._load(compiled._build(plain, tmp_path / "cache"))):
            monkeypatch.setattr(compiled, "_lib", lib)
            for seed, start, k, cw, cc in cases:
                for n in (1, chunk() + 1, 5000):
                    got.append(compiled.sample_groups(seed, n, k, draw_thresholds(cw, cc), start=start))
                    got.append(compiled.sample_keys(seed, n, k, draw_thresholds(cw, cc), start=start))
        cloned, stripped = got[: len(got) // 2], got[len(got) // 2 :]
        for a, b in zip(cloned, stripped):
            assert_array_equal(a, b)
        rows = cloned[4]
        assert_array_equal(rows, reference_sample_groups(5, 5000, 5, *cases[0][3:], start=2**64 - 100))

    def test_concurrent_first_builds_agree(self, compiled, tmp_path):
        # four builders (more than a 2-core machine has cores) on one empty
        # cache: each renames a whole library into place, so every one
        # returns the same loadable file and no temporary file is left
        root = str(Path(compiled.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
        code = (
            "import ctypes, sys\n"
            "from pathlib import Path\n"
            "from specmix import _kernels\n"
            "lib = _kernels._build(_kernels.SOURCE, Path(sys.argv[1]))\n"
            "ctypes.CDLL(str(lib))\n"
            "print(lib)\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(4)
        ]
        outs = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert all(p.returncode == 0 for p in procs)
        assert len(set(outs)) == 1
        assert [p.name for p in tmp_path.iterdir()] == [Path(outs[0]).name]


# (d, group size) of the four kernel benchmark runs in CI: a full threshold
# row, keys with a pad, the largest keyed table, and too many cells to key
CI_SHAPES = [(3, 5), (6, 5), (17, 1), (12, 5)]


@pytest.fixture(scope="module", params=["plain", "clones"])
def warning_free_build(request, tmp_path_factory):
    """_kernels.c compiled with -Wall -Wextra -Werror and loaded: "plain"
    with the target_clones define emptied, so the one copy built is the
    plain x86-64 code that compilers without clones and older CPUs run,
    and "clones" as it is."""
    compiled = pytest.importorskip("specmix._kernels")
    if shutil.which("cc") is None:
        pytest.skip("no cc")
    code = compiled.SOURCE.read_text()
    if request.param == "plain":
        code, count = re.subn(r"^#define VECTOR_CLONES __attribute__\(\(target_clones\(.*\)\)\)$",
                              "#define VECTOR_CLONES", code, flags=re.MULTILINE)
        assert count == 1
    lib = tmp_path_factory.mktemp(request.param) / "_kernels.so"
    subprocess.run(["cc", *compiled.CFLAGS, "-Wall", "-Wextra", "-Werror", "-x", "c", "-", "-o", str(lib)],
                   input=code, text=True, capture_output=True, check=True)
    return compiled, compiled._load(lib)


@pytest.mark.parametrize("d, k", CI_SHAPES)
def test_warning_free_build_matches_numpy(warning_free_build, monkeypatch, d, k):
    compiled, lib = warning_free_build
    monkeypatch.setattr(compiled, "_lib", lib)
    rs = np.random.default_rng(d * 10 + k)
    weights, components = rs.dirichlet(np.ones(3)), rs.dirichlet(np.ones(d), size=3)
    call = (7, 20_000, k, draw_thresholds(np.cumsum(weights), np.cumsum(components, axis=1)))
    assert_array_equal(compiled.sample_groups(*call, start=12_345), _kernels_np.sample_groups(*call, start=12_345))
    cells = (k + 1) ** (d - 1)
    if cells <= DRAW_BLOCK:  # the tables draw_tally keys into
        assert_array_equal(compiled.sample_keys(*call, start=12_345), _kernels_np.sample_keys(*call, start=12_345))
