"""Backend selection for the sampling hot path.

Imports the compiled extension when present, otherwise the pure numpy
fallback.  Set the environment variable SPECMIX_FORCE_NUMPY=1 before
import to force the fallback (the forced-backend test does).  Both
backends are bit-identical, so the choice only affects speed.
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
group_keys = _impl.group_keys
