"""Backend selection for the sampling hot path.

sample_groups and sample_keys come from the compiled kernels of
_kernels.py (plain C, built with ``cc`` on first import and loaded with
ctypes) when they load, otherwise from the pure numpy fallback.  Set the
environment variable SPECMIX_FORCE_NUMPY=1 before import to force the
fallback (the forced-backend test does).  Both backends are
bit-identical, so the choice only affects speed.

sample_keys draws groups and counts each in a dense table at its tally
key, the key group_keys(sample_groups(...)) would give it.  The compiled
kernel does this in one pass per chunk of 64 groups, without the
(n_groups, group_size) array, and sums each key from the comparisons
with its group's thresholds, with no table read per draw (see the header
of _kernels.c); the numpy fallback runs the two kernels.

group_keys is the numpy encoder on both backends, because a compiled one
saved under 1% of any benchmark replicate.  Encoding the 2e5 groups
(d=6, k=7) of moment-d6m4 in 65,536-row blocks took 4.8-5.2 ms in numpy
against 1.8-1.9 ms compiled, of a 0.44 s replicate; the 4e4 groups
(d=12, k=5) of spectral-d12m3 took 0.59 against 0.32-0.39 ms, of 0.89 s
(best of 9, 2 cores).
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
group_keys = _kernels_np.group_keys
