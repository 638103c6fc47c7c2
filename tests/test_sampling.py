"""Grouped sampling, tally compression, and the text/JSON formats."""
import io
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from specmix import kernels, rng, sampling


class TestDrawGroups:
    def test_deterministic(self, blend_mix):
        a = sp.draw_groups(blend_mix, 3, 200, seed=5)
        b = sp.draw_groups(blend_mix, 3, 200, seed=5)
        assert_array_equal(a.groups, b.groups)
        assert a.d == 3 and a.n_groups == 200 and a.group_size == 3

    def test_seed_changes_draws(self, blend_mix):
        a = sp.draw_groups(blend_mix, 3, 200, seed=5)
        b = sp.draw_groups(blend_mix, 3, 200, seed=6)
        assert not np.array_equal(a.groups, b.groups)

    def test_point_mass(self):
        mix = sp.make_mixture([1.0], [[1.0, 0.0, 0.0]])
        ds = sp.draw_groups(mix, 4, 50, seed=0)
        assert_array_equal(ds.groups, np.zeros((50, 4), dtype=np.uint8))

    def test_marginal_frequencies(self, blend_mix):
        # population mean is (0.38, 0.32, 0.30)
        ds = sp.draw_groups(blend_mix, 5, 200_000, seed=1)
        freq = np.bincount(ds.groups.ravel(), minlength=3) / ds.groups.size
        assert_allclose(freq, [0.38, 0.32, 0.30], atol=0.002)

    def test_read_only(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 10, seed=0)
        with pytest.raises(ValueError):
            ds.groups[0, 0] = 1

    def test_validates_sizes(self, blend_mix):
        with pytest.raises(ValueError):
            sp.draw_groups(blend_mix, 0, 10, seed=0)
        with pytest.raises(ValueError):
            sp.draw_groups(blend_mix, 3, 0, seed=0)


class TestGroupedDataset:
    def test_rejects_negative_index(self):
        # -1 used to be read as the last category: this moment was [1/3, 1/3, 1/3]
        with pytest.raises(ValueError, match="range"):
            sp.empirical_sym_moment(sp.GroupedDataset(3, np.array([[-1, 0, 1]])), 1)

    def test_rejects_index_past_d(self):
        with pytest.raises(ValueError, match="range"):
            sp.GroupedDataset(3, np.array([[0, 5, 1]], dtype=np.uint8))

    @pytest.mark.parametrize(
        "groups", [np.zeros((0, 3), dtype=np.uint8), np.zeros(3, dtype=np.uint8), np.zeros((2, 3)), [[0, 1]]]
    )
    def test_rejects_malformed_arrays(self, groups):
        with pytest.raises(ValueError, match="nonempty n x k integer"):
            sp.GroupedDataset(3, groups)


class TestTally:
    def test_single_group(self):
        ds = sp.GroupedDataset(2, np.array([[0, 0, 1]], dtype=np.uint8))
        h = sp.tally(ds)
        assert h.counts == {(2, 1): 1}
        assert h.d == 2 and h.group_size == 3 and h.n_groups == 1

    def test_order_invariant_within_group(self):
        a = sp.GroupedDataset(2, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=np.uint8))
        h = sp.tally(a)
        assert h.counts == {(2, 1): 3}

    def test_all_same_category(self):
        ds = sp.GroupedDataset(3, np.full((7, 2), 2, dtype=np.uint8))
        assert sp.tally(ds).counts == {(0, 0, 2): 7}

    def test_group_shuffle_invariant(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 4, 500, seed=3)
        perm = np.random.default_rng(0).permutation(500)
        shuffled = sp.GroupedDataset(3, ds.groups[perm])
        assert sp.tally(ds).counts == sp.tally(shuffled).counts

    def test_total_mass(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 4, 500, seed=3)
        h = sp.tally(ds)
        assert h.n_groups == 500
        assert all(sum(key) == 4 and len(key) == 3 for key in h.counts)

    def test_key_overflow_guard(self):
        # 101^40 overflows a 63-bit tally key, so the rows are sorted instead
        rows = np.zeros((3, 100), dtype=np.uint8)
        rows[1, :30] = 39
        rows[2, 70:] = 39
        h = sp.tally(sp.GroupedDataset(40, rows))
        assert h.counts == {(100,) + (0,) * 39: 1, (70,) + (0,) * 38 + (30,): 2}
        assert h.n_groups == 3 and len(h.counts) == 2


B = sampling.DRAW_BLOCK


def assert_same_histogram(got, want):
    """Equal tally histograms, array for array and dtype for dtype."""
    assert (got.d, got.group_size) == (want.d, want.group_size)
    for name in ("cats", "draws", "held", "groups"):
        a, b = getattr(got.counts, name), getattr(want.counts, name)
        assert a.dtype == b.dtype, name
        assert_array_equal(a, b, err_msg=name)


class TestDrawTally:
    # Block edges: one group, a block short of full, full, one over, and a
    # ragged last block.
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
    @pytest.mark.parametrize(
        "weights, d, k",
        [
            ([0.5, 0.3, 0.2], 3, 5),  # 6^3 tallies: counted in a table
            ([0.6, 0.4], 30, 5),  # 6^30 overflows a key: sorted rows
            ([1.0], 4, 3),  # one component
            ([0.5, 0.5], 8, 4),  # 5^8 tallies, past a table: keyed rows
        ],
    )
    def test_equals_tally_of_draw_groups(self, n, weights, d, k):
        comps = np.random.default_rng(d).dirichlet(np.ones(d), size=len(weights))
        mix = sp.make_mixture(weights, comps)
        got = sampling.draw_tally(mix, k, n, seed=n)
        groups = sp.draw_groups(mix, k, n, seed=n).groups
        # draw_groups fills its rows block by block, as one kernel call would
        cum = np.cumsum(mix.weights), np.cumsum(mix.components, axis=1)
        unblocked = kernels.sample_groups(rng.derive_seed(n, rng.TAG_GROUPS), n, k, kernels.draw_thresholds(*cum))
        assert groups.dtype == unblocked.dtype
        assert_array_equal(groups, unblocked)
        assert_same_histogram(got, sp.tally(sp.GroupedDataset(d, groups)))
        # and both hold the tallies of the drawn rows, counted without blocks
        comps = np.zeros((n, d), dtype=np.uint8)
        np.add.at(comps, (np.arange(n)[:, None], groups), 1)
        rows, counts = np.unique(comps, axis=0, return_counts=True)
        assert dict(got.counts) == dict(zip(map(tuple, rows.tolist()), counts.tolist()))

    def test_validates_like_draw_groups(self, blend_mix):
        with pytest.raises(ValueError, match="^n_groups must be an integer >= 1, got 0$"):
            sampling.draw_tally(blend_mix, 3, 0, seed=0)
        with pytest.raises(ValueError, match="^group_size must be an integer >= 1, got -2$"):
            sampling.draw_tally(blend_mix, -2, 10, seed=0)  # (k+1)^d = -1 tallies
        wide = sp.make_mixture([1.0], np.full((1, 256), 1 / 256))
        with pytest.raises(ValueError, match="255 categories"):
            sampling.draw_tally(wide, 3, 10, seed=0)


class TestDrawTallyPaths:
    """draw_tally counts keys in a table while (k+1)^d <= DRAW_BLOCK and
    tallies drawn rows past it; both paths give tally(draw_groups(...))."""

    @staticmethod
    def mixture(m, d, zero_weight, mix_seed):
        # make_mixture needs positive weights: 1e-300 ties its cumulative
        # weight with the one before, so no uniform picks the component
        rs = np.random.default_rng(mix_seed)
        m = 1 if d == 1 else m  # components must differ
        w = rs.dirichlet(np.ones(m))
        if zero_weight and m > 1:
            w[rs.integers(m)] = 1e-300
        return sp.make_mixture(w / w.sum(), rs.dirichlet(np.full(d, 0.5), size=m))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 5),
        d=st.integers(1, 60),
        k=st.integers(1, 8),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**64 - 1),
        zero_weight=st.booleans(),
        mix_seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_tally_of_draw_groups(self, m, d, k, n, seed, zero_weight, mix_seed):
        mix = self.mixture(m, d, zero_weight, mix_seed)
        want = sp.tally(sp.draw_groups(mix, k, n, seed))
        assert_same_histogram(sampling.draw_tally(mix, k, n, seed), want)

    # (k, d) at the path edges: (k+1)^d = B, just past B (65,537 is prime,
    # so only d = 1 reaches B + 1), 2^62 and 2^63
    @pytest.mark.parametrize(
        "k, d, kernel",
        [
            (3, 8, "sample_keys"),
            (1, 16, "sample_keys"),
            (2, 10, "sample_keys"),
            (B, 1, "sample_groups"),
            (1, 17, "sample_groups"),
            (1, 62, "sample_groups"),
            (1, 63, "sample_groups"),
        ],
    )
    def test_path_edges(self, k, d, kernel, monkeypatch):
        calls = []

        def spy(name):
            wrapped = getattr(kernels, name)

            def call(*args, **kwargs):
                calls.append(name)
                return wrapped(*args, **kwargs)

            return call

        for name in ("sample_keys", "sample_groups"):
            monkeypatch.setattr(kernels, name, spy(name))
        mix = self.mixture(3, d, False, d)
        n = 2 if k == B else 2000
        got = sampling.draw_tally(mix, k, n, seed=k)
        monkeypatch.undo()
        assert set(calls) == {kernel}
        assert_same_histogram(got, sp.tally(sp.draw_groups(mix, k, n, seed=k)))

    # keyed blocks on two worker threads, rows tallied past a table, rows kept
    @pytest.mark.parametrize("d, k, draw", [(3, 5, "draw_tally"), (17, 1, "draw_tally"), (3, 5, "draw_groups")])
    def test_thresholds_computed_once_per_draw(self, d, k, draw, monkeypatch):
        calls, draw_thresholds = [], kernels.draw_thresholds

        def spy(*args):
            calls.append(args)
            return draw_thresholds(*args)

        monkeypatch.setattr(kernels, "draw_thresholds", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        getattr(sampling, draw)(self.mixture(3, d, False, d), k, 3 * B + 17, seed=d)
        assert len(calls) == 1

    # the benchmark's three workloads, mixtures built as its workloads.py
    # builds them, at 3 * 10^5 groups
    @pytest.mark.parametrize("d, m, k", [(3, 3, 5), (6, 4, 7), (12, 3, 5)])
    def test_workload_mixtures(self, d, m, k, blend_mix):
        if d == 3:
            mix = blend_mix
        else:
            comps = np.random.default_rng(1).dirichlet(np.full(d, 0.2), size=m)
            mix = sp.make_mixture(np.full(m, 1.0 / m), comps)
        for seed in (0, 1):
            got = sampling.draw_tally(mix, k, 300_000, seed)
            assert_same_histogram(got, sp.tally(sp.draw_groups(mix, k, 300_000, seed)))


class TestDrawTallyWorkers:
    """On the table path the blocks are split into one contiguous run per
    CPU in the affinity set, at most one per block; the histogram is the
    same for any split."""

    @staticmethod
    def spy_threads(monkeypatch):
        """The (thread, start) of each sample_keys call, recorded."""
        calls, sample_keys = [], kernels.sample_keys

        def spy(*args, start, **kwargs):
            calls.append((threading.current_thread(), start))
            return sample_keys(*args, start=start, **kwargs)

        monkeypatch.setattr(kernels, "sample_keys", spy)
        return calls

    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
    def test_worker_count_does_not_change_result(self, n, blend_mix, monkeypatch):
        want = sp.tally(sp.draw_groups(blend_mix, 5, n, seed=n))
        blocks = -(-n // B)
        calls, sample_keys = [], kernels.sample_keys

        def spy(seed, n_groups, *args, start, **kwargs):
            calls.append((threading.current_thread(), start, n_groups))
            return sample_keys(seed, n_groups, *args, start=start, **kwargs)

        monkeypatch.setattr(kernels, "sample_keys", spy)
        # 64 CPUs is more than there are blocks, and more than this machine has
        for cpus in (1, 2, 3, 64):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            calls.clear()
            assert_same_histogram(sampling.draw_tally(blend_mix, 5, n, seed=n), want)
            workers = min(cpus, blocks)
            # exactly one call per worker, each in its own thread, the first in the calling thread
            assert len(calls) == len({thread for thread, _, _ in calls}) == workers
            calls.sort(key=lambda call: call[1])
            assert calls[0][0] is threading.current_thread()
            # each starting at its run's first block, together covering the n groups
            starts = [blocks * i // workers * B for i in range(workers)]
            assert [start for _, start, _ in calls] == starts
            assert [start + size for _, start, size in calls] == starts[1:] + [n]
            assert sum(size for _, _, size in calls) == n

    def test_without_affinity_uses_cpu_count(self, blend_mix, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        calls = self.spy_threads(monkeypatch)
        got = sampling.draw_tally(blend_mix, 5, 3 * B, seed=4)
        assert len({thread for thread, _ in calls}) == 2
        assert_same_histogram(got, sp.tally(sp.draw_groups(blend_mix, 5, 3 * B, seed=4)))

    def test_worker_exception_reaches_caller(self, blend_mix, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        raised, sample_keys = {}, kernels.sample_keys

        def failing(*args, start, **kwargs):
            if start >= B:
                raised[start] = RuntimeError(f"block at {start}")
                raise raised[start]
            return sample_keys(*args, start=start, **kwargs)

        monkeypatch.setattr(kernels, "sample_keys", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            sampling.draw_tally(blend_mix, 5, 3 * B, seed=0)
        # the first failing run's own exception, after every worker ended
        assert info.value is raised[B]
        assert sorted(raised) == [B, 2 * B]
        assert threading.active_count() == before


class TestNumCompositions:
    def test_values(self):
        assert sp.num_compositions(3, 3) == 10
        assert sp.num_compositions(1, 5) == 5
        assert sp.num_compositions(0, 4) == 1
        # matches a direct enumeration
        count = sum(
            1 for a in range(5) for b in range(5) for c in range(5) if a + b + c == 4
        )
        assert sp.num_compositions(4, 3) == count


class TestHistogramMapping:
    @pytest.mark.parametrize(
        "counts, match",
        [
            # a key is checked by tensors.count_vector, the one count-vector rule
            ({(2, 1): 4, (3,): 1}, r"^key \(3,\) is not a composition of 3 into 2 cells$"),  # wrong length
            ({(2, 2): 5, (3, 0): 5}, r"^key \(2, 2\) is not a composition of 3 into 2 cells$"),
            ({(4, -1): 2}, r"^key \(4, -1\) is not a composition"),  # negative entry
            ({(2, 1): 0}, "invalid"),
            ({(2, 1): 3, (1, 2): -1}, "invalid"),
            ({(1.5, 1.5): 4}, r"^key \(1.5, 1.5\) is not a composition"),  # fractional entry
            ({(2, 1): 2.5}, "invalid"),
            ({}, "at least one group"),
            ({(2, 1): 2**63}, r"^invalid tally record \(2, 1\): 9223372036854775808 groups$"),
            # not numbers: a string key raised a TypeError from sum, a string or None count one from %
            ({("1", "2"): 3}, r"^key \('1', '2'\) is not a composition of 3 into 2 cells$"),
            ({(2, 1): "3"}, "^invalid tally record"),
            ({(2, 1): None}, "^invalid tally record"),
            ({(2, None): 3}, r"^key \(2, None\) is not a composition"),
            ({(2, 1.0j): 3}, r"^key \(2, 1j\) is not a composition"),
            ({("2", 1, 0): 3}, r"^key \('2', 1, 0\) is not a composition"),
        ],
    )
    def test_rejects_malformed_mapping(self, counts, match):
        with pytest.raises(ValueError, match=match):
            sp.GroupTallyHistogram(2, 3, counts)

    @pytest.mark.parametrize(
        "d, k, counts, message",
        [
            (2, 3.0, {(2, 1): 4}, "group_size must be an integer >= 1, got 3.0"),
            (2.0, 3, {(2, 1): 4}, "d must be an integer >= 1, got 2.0"),
            (True, 3, {(3,): 4}, "d must be an integer >= 1, got True"),
            (2, 0, {(0, 0): 4}, "group_size must be an integer >= 1, got 0"),
        ],
    )
    def test_rejects_bad_sizes(self, d, k, counts, message):
        # checked before the records, and for the array-backed counts tally() builds too
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sp.GroupTallyHistogram(d, k, counts)
        table = sampling.draw_tally(sp.make_mixture([1.0], [[0.5, 0.5]]), 3, 10, seed=0).counts
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sp.GroupTallyHistogram(d, k, table)

    @pytest.mark.parametrize("d, k", [(5, 7), (5, 3), (2, 7), (1, 3), (3, 2), (2, 2)])
    def test_rejects_table_of_other_sizes(self, d, k):
        # a draw_tally table of groups of 3 draws from 2 categories was accepted under any d and
        # group_size, and estimation.moment then normalized it by the wrong k
        mix = sp.make_mixture([0.5, 0.5], [[0.3, 0.7], [0.8, 0.2]])
        h = sampling.draw_tally(mix, 3, 10, seed=0)
        with pytest.raises(ValueError, match=rf"^tally table of groups of 3 draws from 2 categories, not {k} from {d}$"):
            sp.GroupTallyHistogram(d, k, h.counts)
        # wrapped again under its own sizes it is the same histogram
        again = sp.GroupTallyHistogram(2, 3, h.counts)
        assert again.counts is h.counts and list(again.counts.items()) == list(h.counts.items())
        assert_array_equal(sp.moment(again, 2), sp.moment(h, 2))

    @pytest.mark.parametrize(
        "k, counts",
        [(1, {(1, 0): True}), (1, {(True, False): 3}), (3, {(2, np.True_): 3}), (3, {(2, 1): np.True_})],
    )
    def test_rejects_bools(self, k, counts):
        # a bool passes every numeric test: {(1, 0): True} was one group
        ((key, n),) = counts.items()
        match = "^invalid tally record" if isinstance(n, (bool, np.bool_)) else rf"^key {re.escape(str(key))} is not a composition"
        with pytest.raises(ValueError, match=match):
            sp.GroupTallyHistogram(2, k, counts)

    def test_counts_are_int64(self):
        h = sp.GroupTallyHistogram(2, 3, {(2, 1): 4.0, (3, 0): 2**63 - 1})
        assert h.counts.groups.dtype == np.int64
        assert dict(h.counts) == {(2, 1): 4, (3, 0): 2**63 - 1}
        assert h.n_groups == 2**63 + 3


class TestTextFormat:
    def test_round_trip(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 50, seed=2)
        buf = io.StringIO()
        sp.write_groups(ds, buf)
        buf.seek(0)
        again = sp.read_groups(buf)
        assert again.d == 3
        assert_array_equal(again.groups, ds.groups)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        d = data.draw(st.integers(1, 300))
        shape = (data.draw(st.integers(1, 20)), data.draw(st.integers(1, 8)))
        groups = data.draw(arrays(np.int64, shape, elements=st.integers(0, d - 1)))
        ds = sp.GroupedDataset(d, groups.astype(np.uint8 if d <= 255 else np.int64))
        buf = io.StringIO()
        sp.write_groups(ds, buf)
        for given_d, want_d in [(d, d), (None, int(groups.max()) + 1)]:
            buf.seek(0)
            again = sp.read_groups(buf, given_d)
            assert again.d == want_d
            assert again.groups.dtype == (np.uint8 if want_d <= 255 else np.int64)
            assert_array_equal(again.groups, groups)

    def test_one_based_on_disk(self):
        ds = sp.GroupedDataset(2, np.array([[0, 1], [1, 1]], dtype=np.uint8))
        buf = io.StringIO()
        sp.write_groups(ds, buf)
        assert buf.getvalue().split() == ["1", "2", "2", "2"]

    def test_infers_d(self):
        ds = sp.read_groups(io.StringIO("1 2\n3 1\n"))
        assert ds.d == 3
        assert_array_equal(ds.groups, [[0, 1], [2, 0]])

    def test_explicit_d(self):
        ds = sp.read_groups(io.StringIO("1 2\n"), d=5)
        assert ds.d == 5
        # d=2.0 gave GroupedDataset(d=2.0, ...)
        with pytest.raises(ValueError, match=r"^d must be an integer >= 1, got 2\.0$"):
            sp.read_groups(io.StringIO("1 2\n"), d=2.0)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError, match="1-based"):
            sp.read_groups(io.StringIO("0 1\n"))

    @pytest.mark.parametrize(
        "text, group, index",
        [("0 1\n2 2\n", 1, 0), ("1 2\n2 2\n\n2 -3\n1 0\n", 3, -3)],
    )
    def test_low_index_names_its_group(self, text, group, index):
        # groups count from 1 over the non-blank lines
        with pytest.raises(ValueError, match=rf"^group {group}: index {index} is below 1; the text format"):
            sp.read_groups(io.StringIO(text))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            sp.read_groups(io.StringIO("1 4\n"), d=2)
        # 258 would wrap to 2 if narrowed to uint8 before the check
        with pytest.raises(ValueError, match="range"):
            sp.read_groups(io.StringIO("1 258\n"), d=3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sp.read_groups(io.StringIO(""))

    @pytest.mark.parametrize("text", ["1 2\n3\n", "1 x\n", "1.5 2\n"])
    def test_rejects_malformed_lines(self, text):
        with pytest.raises(ValueError):
            sp.read_groups(io.StringIO(text))
