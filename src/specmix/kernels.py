"""Backend selection for the sampling hot path.

sample_groups and sample_keys come from the compiled kernels of
_kernels.py (plain C, built with ``cc`` on first import and loaded with
ctypes) when they load, otherwise from the pure numpy fallback.  Set the
environment variable SPECMIX_FORCE_NUMPY=1 before import to force the
fallback (the forced-backend test does).  Both backends are
bit-identical, so the choice only affects speed.

draw_thresholds turns cumulative weights and component masses into the
integer thresholds both samplers take.  sample_groups returns the
(n_groups, group_size) category codes of the groups on streams start,
start+1, ..; sample_keys draws the same groups and returns a new table
of key_cells(k, d) = (k+1)**(d-1) cells holding how many of them have
each tally key, the key group_keys(sample_groups(...)) would give.  The
count of each category c >= 1 is its base-(k+1) digit c - 1, and
category 0, whose count is k less the others', has none (see
_kernels_np.key_weights).  Tables of start= blocks sum to the table of
one call over them.  key_cells, group_keys, the one tally-key encoder,
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
