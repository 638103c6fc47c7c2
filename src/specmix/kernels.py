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
would give it.  The compiled kernel does this in one pass per chunk of
64 groups, without the (n_groups, group_size) array, and sums each key
from the comparisons with its group's thresholds, with no table read per
draw (see the header of _kernels.c); the numpy fallback runs the two
kernels.  group_keys, the one tally-key encoder, is numpy on both
backends.
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
group_keys = _kernels_np.group_keys
