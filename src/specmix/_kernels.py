"""Compiled sampling kernels: _kernels.c loaded with ctypes.

The C source is compiled once, with the system C compiler, into
``__pycache__/_kernels-<key>.so`` next to it, where the key hashes the
source and the compiler flags, so an edited source gets a new file.  The
library is built into a temporary file and renamed into place, so
processes importing at the same time never load a partial file.  Any
failure (no ``cc``, a read-only directory, a compile error or a timeout)
raises ImportError, and kernels.py falls back to the numpy kernels.

sample_groups and sample_keys below keep the signatures and contract of
their _kernels_np.py namesakes, bit for bit.  A CDLL call releases the
GIL, and the C code keeps no state between calls, so threads may run
the kernels at once on separate outputs (sampling.draw_tally does).

The C code counts the integer thresholds of
_kernels_np.draw_thresholds that each word reaches, as the numpy
fallback does.

The flags leave out -march=native, so that a library in a shared cache
directory runs on every machine that loads it.  The vector code comes
from clones instead: GCC 12 and later compile an x86-64-v4 (AVX-512) and
an x86-64-v3 (AVX2) copy of each entry point beside the plain x86-64 one,
and the loader picks the one the CPU supports (see _kernels.c).
"""
from __future__ import annotations

import ctypes
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np
from numpy.ctypeslib import ndpointer

from ._kernels_np import check_sizes, check_table, key_weights
from .rng import MASK

SOURCE = Path(__file__).with_name("_kernels.c")
# No -march=native (see above).
CFLAGS = ("-O2", "-shared", "-fPIC")
CC_TIMEOUT_S = 60


def _build(source: Path, cache_dir: Path) -> Path:
    """The shared library compiled from source, built into cache_dir
    unless it is already there."""
    try:
        code = source.read_bytes()
        # zlib is already imported by numpy; the key only tells versions
        # of one file apart, it is no signature.
        key = zlib.crc32(code + " ".join(CFLAGS).encode())
        lib = cache_dir / f"{source.stem}-{key:08x}.so"
        if not lib.exists():
            cache_dir.mkdir(exist_ok=True)
            _compile(code, lib)
        return lib
    except OSError as exc:
        raise ImportError(f"cannot build {source}: {exc}") from exc


def _compile(code: bytes, lib: Path) -> None:
    """Compile C code into lib through a temporary file in its directory."""
    import subprocess  # only a build needs it

    fd, tmp = tempfile.mkstemp(prefix=f".{lib.stem}-", suffix=".so", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run(
            ["cc", *CFLAGS, "-x", "c", "-", "-o", tmp],
            input=code,
            capture_output=True,
            timeout=CC_TIMEOUT_S,
            check=True,
        )
        os.replace(tmp, lib)
    except subprocess.CalledProcessError as exc:
        raise ImportError(f"cc failed:\n{exc.stderr.decode(errors='replace')}") from exc
    except subprocess.TimeoutExpired as exc:
        raise ImportError(f"cc took over {CC_TIMEOUT_S} s") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(lib: Path) -> ctypes.CDLL:
    """The library at lib, with the argument types of its entry points."""
    try:
        cdll = ctypes.CDLL(str(lib))
    except OSError as exc:
        raise ImportError(f"cannot load {lib}: {exc}") from exc
    draw = [
        ctypes.c_uint64, ctypes.c_int64, ctypes.c_int64, ndpointer(np.int64, 1, flags="C_CONTIGUOUS"), ctypes.c_int64,
        ndpointer(np.int64, 2, flags="C_CONTIGUOUS"), ctypes.c_int64, ctypes.c_int64, ctypes.c_uint64,
    ]
    cdll.sample_groups.argtypes = draw + [ndpointer(np.uint8, flags="C_CONTIGUOUS,WRITEABLE")]
    cdll.sample_keys.argtypes = draw + [
        ndpointer(np.int64, flags="C_CONTIGUOUS"), ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE"),
    ]
    # 0, or -1 when the thresholds could not be allocated
    cdll.sample_groups.restype = cdll.sample_keys.restype = ctypes.c_int
    return cdll


_lib = _load(_build(SOURCE, SOURCE.parent / "__pycache__"))


def _draw_args(seed, n_groups, group_size, thresholds, start):
    """The leading arguments of the C samplers, checked, and d."""
    check_sizes(n_groups, group_size)
    weight_t, comp_t = thresholds
    n_comp, d = comp_t.shape[0], comp_t.shape[1] + 1
    # draw_thresholds keeps at most n_comp - 1 weights; more would let a pick reach a row past the table
    n_weights = min(len(weight_t), n_comp - 1)
    args = (
        int(seed) & MASK, int(n_groups), int(group_size), weight_t, n_weights, comp_t, n_comp, d, int(start) & MASK,
    )
    return args, d


def _check(status):
    """MemoryError for the C samplers' status -1."""
    if status:
        raise MemoryError("cannot allocate the sampling thresholds")


def sample_groups(seed, n_groups, group_size, thresholds, start=0):
    """See _kernels_np.sample_groups."""
    args, _ = _draw_args(seed, n_groups, group_size, thresholds, start)
    out = np.empty((n_groups, group_size), dtype=np.uint8)
    _check(_lib.sample_groups(*args, out))
    return out


def sample_keys(seed, n_groups, group_size, thresholds, table, start=0):
    """See _kernels_np.sample_keys: one pass that keys each group as it
    draws it, with no (n_groups, group_size) array."""
    args, d = _draw_args(seed, n_groups, group_size, thresholds, start)
    check_table(table, group_size, d)
    _check(_lib.sample_keys(*args, key_weights(group_size, d), table))
    return table

