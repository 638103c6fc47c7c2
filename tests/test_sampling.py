"""Grouped sampling, tally compression, and the text/JSON formats."""
import io
import json

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


class TestDrawTally:
    # Block edges: one group, a block short of full, full, one over, and a
    # ragged last block.
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 17])
    @pytest.mark.parametrize(
        "weights, d, k",
        [
            ([0.5, 0.3, 0.2], 3, 5),  # keyed by base-6 integers
            ([0.6, 0.4], 30, 5),  # 6^30 overflows a key: sorted rows
            ([1.0], 4, 3),  # one component
        ],
    )
    def test_equals_tally_of_draw_groups(self, n, weights, d, k):
        comps = np.random.default_rng(d).dirichlet(np.ones(d), size=len(weights))
        mix = sp.make_mixture(weights, comps)
        got = sampling.draw_tally(mix, k, n, seed=n)
        groups = sp.draw_groups(mix, k, n, seed=n).groups
        # draw_groups fills its rows block by block, as one kernel call would
        cum = np.cumsum(mix.weights), np.cumsum(mix.components, axis=1)
        unblocked = kernels.sample_groups(rng.derive_seed(n, rng.TAG_GROUPS), n, k, *cum)
        assert groups.dtype == unblocked.dtype
        assert_array_equal(groups, unblocked)
        want = sp.tally(sp.GroupedDataset(d, groups))
        assert (got.d, got.group_size) == (want.d, want.group_size)
        for name in ("cats", "draws", "held", "groups"):
            a, b = getattr(got.counts, name), getattr(want.counts, name)
            assert a.dtype == b.dtype, name
            assert_array_equal(a, b, err_msg=name)
        # and both hold the tallies of the drawn rows, counted without blocks
        comps = np.zeros((n, d), dtype=np.uint8)
        np.add.at(comps, (np.arange(n)[:, None], groups), 1)
        rows, counts = np.unique(comps, axis=0, return_counts=True)
        assert dict(got.counts) == dict(zip(map(tuple, rows.tolist()), counts.tolist()))

    def test_validates_like_draw_groups(self, blend_mix):
        with pytest.raises(ValueError, match="must be >= 1"):
            sampling.draw_tally(blend_mix, 3, 0, seed=0)
        wide = sp.make_mixture([1.0], np.full((1, 256), 1 / 256))
        with pytest.raises(ValueError, match="255 categories"):
            sampling.draw_tally(wide, 3, 10, seed=0)


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


class TestHistogramJson:
    def test_round_trip(self, blend_mix):
        h = sp.tally(sp.draw_groups(blend_mix, 3, 300, seed=8))
        again = sp.GroupTallyHistogram.from_json(h.to_json())
        assert again == h

    def test_schema(self):
        h = sp.GroupTallyHistogram(2, 3, {(2, 1): 4, (3, 0): 1})
        obj = json.loads(h.to_json())
        assert obj["k"] == 3 and obj["d"] == 2
        assert {"key": [2, 1], "n": 4} in obj["counts"]

    def test_rejects_bad_key_sum(self):
        bad = json.dumps({"k": 3, "d": 2, "counts": [{"key": [1, 1], "n": 2}]})
        with pytest.raises(ValueError, match="sum"):
            sp.GroupTallyHistogram.from_json(bad)

    def test_rejects_nonpositive_count(self):
        bad = json.dumps({"k": 2, "d": 2, "counts": [{"key": [1, 1], "n": 0}]})
        with pytest.raises(ValueError, match="invalid"):
            sp.GroupTallyHistogram.from_json(bad)

    @pytest.mark.parametrize(
        "counts, match",
        [
            ({(2, 1): 4, (3,): 1}, "does not sum"),  # key of the wrong length
            ({(2, 2): 5, (3, 0): 5}, "does not sum"),
            ({(4, -1): 2}, "invalid"),  # negative entry
            ({(2, 1): 0}, "invalid"),
            ({(2, 1): 3, (1, 2): -1}, "invalid"),
            ({(1.5, 1.5): 4}, "invalid"),  # fractional entry
            ({(2, 1): 2.5}, "invalid"),
            ({}, "at least one group"),
        ],
    )
    def test_rejects_malformed_mapping(self, counts, match):
        with pytest.raises(ValueError, match=match):
            sp.GroupTallyHistogram(2, 3, counts)

    def test_rejects_a_duplicate_of_no_groups(self):
        text = json.dumps(
            {"k": 2, "d": 2, "counts": [{"key": [1, 1], "n": 0}, {"key": [1, 1], "n": 3}]}
        )
        with pytest.raises(ValueError, match="invalid"):
            sp.GroupTallyHistogram.from_json(text)

    def test_merges_duplicate_keys(self):
        text = json.dumps(
            {"k": 2, "d": 2, "counts": [{"key": [1, 1], "n": 2}, {"key": [1, 1], "n": 3}]}
        )
        assert sp.GroupTallyHistogram.from_json(text).counts == {(1, 1): 5}


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

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError, match="1-based"):
            sp.read_groups(io.StringIO("0 1\n"))

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
