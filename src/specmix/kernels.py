"""Backend selection for the sampling hot path.

Uses the compiled kernels of _kernels.py (plain C, built with ``cc`` on
first import and loaded with ctypes) when they load, otherwise the pure
numpy fallback.  Set the environment variable SPECMIX_FORCE_NUMPY=1
before import to force the fallback (the forced-backend test does).
Both backends are bit-identical, so the choice only affects speed.

sample_keys draws groups and counts each in a dense table at its tally
key, the key group_keys(sample_groups(...)) would give it.  The compiled
kernel does this in one pass per group, without the (n_groups,
group_size) array; the numpy fallback runs the two kernels.
"""
from __future__ import annotations

import os

if os.environ.get("SPECMIX_FORCE_NUMPY"):
    from . import _kernels_np as _impl

    BACKEND = "numpy"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:
        from . import _kernels_np as _impl

        BACKEND = "numpy"

sample_groups = _impl.sample_groups
sample_keys = _impl.sample_keys
group_keys = _impl.group_keys
