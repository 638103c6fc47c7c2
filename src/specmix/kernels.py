"""Backend selection for the sampling hot path.

sample_groups and sample_keys come from the compiled kernels of
_kernels.py (plain C, built with ``cc`` on first import and loaded with
ctypes) when they load, otherwise from the pure numpy fallback.  Set the
environment variable SPECMIX_FORCE_NUMPY=1 before import to force the
fallback (the forced-backend test does).  Both backends are
bit-identical, so the choice only affects speed.

draw_thresholds turns cumulative weights and component masses into the
integer thresholds both samplers take, so a draw computes them once and
hands them to every block.  A group of k draws from d categories has a
tally key below key_cells(k, d) = (k+1)**(d-1): the count of each
category c >= 1 is its base-(k+1) digit c - 1, and category 0, whose
count is k less the others', has none (see _kernels_np.key_weights).
sample_keys draws groups and counts each in a dense table of
key_cells(k, d) cells at its tally key, the key
group_keys(sample_groups(...)) would give it, for any number of groups
in one call: sampling.draw_tally makes one call per worker, over that
worker's run of whole DRAW_BLOCK blocks, so the longest call covers
ceil(ceil(n_groups / DRAW_BLOCK) / workers) blocks, all n_groups groups
with one CPU.  The compiled kernel does this in one pass per chunk of 64
groups, without the (n_groups, group_size) array, and
sums each key from the comparisons with its group's thresholds, with no
table read per draw (see the header of _kernels.c); the numpy fallback
runs the two kernels DRAW_BLOCK groups at a time, in buffers it reuses
for every block.  key_cells, group_keys, the one tally-key encoder,
and decode_keys, its inverse, are numpy on both backends, and
DRAW_BLOCK, the one block size, is defined beside them.
"""
from __future__ import annotations

import os

from . import _kernels_np

if os.environ.get("SPECMIX_FORCE_NUMPY"):
    _impl = _kernels_np
    BACKEND = "numpy"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        _impl = _kernels_np
        BACKEND = "numpy"

sample_groups = _impl.sample_groups
sample_keys = _impl.sample_keys
draw_thresholds = _kernels_np.draw_thresholds
DRAW_BLOCK = _kernels_np.DRAW_BLOCK
key_cells = _kernels_np.key_cells
group_keys = _kernels_np.group_keys
decode_keys = _kernels_np.decode_keys
