"""Counter-based deterministic random words.

Every random quantity in this package is derived from an integer seed
through the fixed scheme below, so results are reproducible across
platforms, worker counts, and call orders.

A 64-bit word is a pure function of ``(seed, stream, counter)``:

    base(seed, stream)          = mix64(mix64(seed + GOLD) ^ stream * STREAM_MULT)
    word(seed, stream, counter) = mix64(base ^ counter * COUNTER_MULT)

with all arithmetic modulo 2**64 and ``mix64`` the splitmix64 output
finalizer.  Consumers are separated two ways: each subsystem runs under a
sub-seed from :func:`derive_seed` with a fixed tag, and within a subsystem
the stream index partitions further (grouped sampling uses the group index
as the stream, with counter 0 selecting the component and counters
1..group_size the category draws).

Uniform doubles on [0, 1) keep the top 53 bits of a word.  Standard
normals come in pairs from two words via the Box-Muller transform applied
to ``1 - u`` so the logarithm argument stays in (0, 1].

The compiled kernels in ``_kernels.c`` re-implement ``word`` with native
64-bit arithmetic; they must stay bit-identical to this module.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

MASK = (1 << 64) - 1
GOLD = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB
STREAM_MULT = 0xD1342543DE82EF95
COUNTER_MULT = 0xDABA0B6EB09322E3

# Subsystem tags for derive_seed.  Tag 3 (a retired probe stream) stays
# unused, so the other streams keep their bits.
TAG_GROUPS = 1
TAG_DOMINATING = 2
TAG_BASELINE = 4

_U64 = np.uint64
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on an integer, modulo 2**64; a numpy integer
    is read as the Python int of its value, so no mask can overflow it."""
    z = int(z) & MASK
    z ^= z >> 30
    z = (z * MIX_A) & MASK
    z ^= z >> 27
    z = (z * MIX_B) & MASK
    return z ^ (z >> 31)


def is_integer(value) -> bool:
    """Whether value is an integer and not a bool, so a JSON true is no count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value, low: int = 1) -> None:
    """ValueError naming name unless value is an integer >= low and not a
    bool: the one rule for every size, order and count argument."""
    if not is_integer(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def is_real(value, low: float, high: float = math.inf) -> bool:
    """Whether value is a real number and not a bool, at least low and
    below high, so finite: NaN fails every comparison.  The one rule for
    every tolerance and floor, and for a tally histogram's group counts;
    a string is no number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and low <= value < high


def check_seed(seed: int) -> None:
    """ValueError unless seed is an integer in [0, 2**64)."""
    if not is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= MASK:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def derive_seed(seed: int, tag: int) -> int:
    """Sub-seed for an independent subsystem (see module docstring); seed must be an integer in [0, 2**64)."""
    check_seed(seed)
    return mix64((mix64(seed) + tag * GOLD) & MASK)


def stream_base(seed: int, stream: int) -> int:
    return mix64(mix64((seed + GOLD) & MASK) ^ ((stream * STREAM_MULT) & MASK))


def mix64_into(z: np.ndarray, scratch: np.ndarray) -> None:
    """mix64 of every entry of the uint64 array z, computed in z, with
    scratch, a uint64 array of z's shape, as the one temporary."""
    for shift, mult in ((30, MIX_A), (27, MIX_B)):
        np.right_shift(z, _U64(shift), out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        np.multiply(z, _U64(mult), out=z)
    np.right_shift(z, _U64(31), out=scratch)
    np.bitwise_xor(z, scratch, out=z)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = np.array(z, dtype=np.uint64)
    mix64_into(z, np.empty_like(z))
    return z


def words(seed: int, stream: int, counters: np.ndarray) -> np.ndarray:
    """Vector of 64-bit words for the given counters (uint64 array)."""
    base = _U64(stream_base(seed, stream))
    c = np.atleast_1d(np.asarray(counters, dtype=np.uint64))
    return _mix64_array(base ^ (c * _U64(COUNTER_MULT)))


def to_unit(w: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1)."""
    return (np.asarray(w, dtype=np.uint64) >> _U64(11)).astype(np.float64) * _INV_2_53


def uniforms(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """n uniform doubles in [0, 1) from counters start..start+n-1."""
    c = np.arange(start, start + n, dtype=np.uint64)
    return to_unit(words(seed, stream, c))


def normals(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """n standard normal doubles; consumes two counters per pair."""
    pairs = (n + 1) // 2
    u = uniforms(seed, stream, 2 * pairs, start=start).reshape(pairs, 2)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return z[:n]


def exponentials(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """n standard exponential doubles by inverse transform."""
    return -np.log1p(-uniforms(seed, stream, n, start=start))
