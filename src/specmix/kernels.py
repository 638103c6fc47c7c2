"""Backend selection for the sampling hot path.

sample_groups and sample_keys come from the compiled kernels of
_kernels.py (plain C, built with ``cc`` on first import and loaded with
ctypes) when they load, otherwise from the pure numpy fallback.  Set the
environment variable SPECMIX_FORCE_NUMPY=1 before import to force the
fallback (the forced-backend test does).  Both backends are
bit-identical, so the choice only affects speed.

draw_thresholds turns cumulative weights and component masses into the
integer thresholds both samplers take, so a draw computes them once and
hands them to every block.  sample_keys draws groups and counts each in
a dense table at its tally key, the key group_keys(sample_groups(...))
would give it, for any number of groups in one call: sampling.draw_tally
makes one call per worker, over that worker's run of whole DRAW_BLOCK
blocks, so the longest call covers ceil(ceil(n_groups / DRAW_BLOCK) /
workers) blocks, all n_groups groups with one CPU.  The compiled kernel does this in one pass
per chunk of 64 groups, without the (n_groups, group_size) array, and
sums each key from the comparisons with its group's thresholds, with no
table read per draw (see the header of _kernels.c); the numpy fallback
runs the two kernels DRAW_BLOCK groups at a time, in buffers it reuses
for every block.  group_keys, the one tally-key encoder, is numpy on
both backends, and DRAW_BLOCK, the one block size, is defined beside it.
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
group_keys = _kernels_np.group_keys
