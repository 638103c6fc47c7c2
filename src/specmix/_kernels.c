/* Compiled sampling kernels, loaded by _kernels.py with ctypes.
 *
 * Scalar implementation of the sample_groups and sample_keys contract in
 * _kernels_np.py; the two backends must stay bit-identical.  Both entry
 * points run one per-group draw loop, draw_group.  Words follow the
 * counter scheme in rng.py, a uniform keeps a word's top 53 bits times an
 * exact power of two, and an inverse-CDF pick counts the first n-1
 * cumulative masses at or below u.  On nondecreasing rows that count is
 * searchsorted(side="right") clipped to n-1, so no float path differs
 * from the fallback.  Unsigned 64-bit arithmetic wraps modulo 2**64 as
 * numpy's uint64 does.  Tally keys of drawn rows are encoded in numpy,
 * by _kernels_np.group_keys, on either backend.
 */
#include <stdint.h>

#define GOLD 0x9E3779B97F4A7C15ULL
#define MIX_A 0xBF58476D1CE4E5B9ULL
#define MIX_B 0x94D049BB133111EBULL
#define STREAM_MULT 0xD1342543DE82EF95ULL
#define COUNTER_MULT 0xDABA0B6EB09322E3ULL

static inline uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * MIX_A;
    z = (z ^ (z >> 27)) * MIX_B;
    return z ^ (z >> 31);
}

static inline double to_unit(uint64_t w) { return (double)(w >> 11) * 0x1p-53; }

/* Number of the first n entries of cum at or below u, without branches. */
static inline int64_t count_le(const double *cum, int64_t n, double u) {
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) count += u >= cum[i];
    return count;
}

/* One group, on stream `stream`: counter 0 picks its component among the
 * first n_weights + 1 rows of the (n_comp, d) cum_components, counters
 * 1..group_size its categories.  Returns the sum of pows[c] over the codes
 * c if keyed, and writes them to out otherwise.  Each caller passes keyed
 * as a constant, so the inlined loop has no branch on it. */
static inline uint64_t draw_group(uint64_t seed_mixed, uint64_t stream, int64_t group_size,
                                  const double *cum_weights, int64_t n_weights,
                                  const double *cum_components, int64_t d, const int64_t *pows,
                                  uint8_t *out, const int keyed) {
    const uint64_t base = mix64(seed_mixed ^ (stream * STREAM_MULT));
    const double *row = cum_components + count_le(cum_weights, n_weights, to_unit(mix64(base))) * d;
    uint64_t key = 0;
    for (int64_t j = 0; j < group_size; j++) {
        const double u = to_unit(mix64(base ^ ((uint64_t)(j + 1) * COUNTER_MULT)));
        const int64_t c = count_le(row, d - 1, u);
        if (keyed)
            key += (uint64_t)pows[c];
        else
            out[j] = (uint8_t)c;
    }
    return key;
}

/* Group g (0-based in out) uses stream start + g. */
void sample_groups(uint64_t seed, int64_t n_groups, int64_t group_size, const double *cum_weights,
                   int64_t n_weights, const double *cum_components, int64_t d, uint64_t start,
                   uint8_t *out) {
    const uint64_t seed_mixed = mix64(seed + GOLD);
    for (int64_t g = 0; g < n_groups; g++, out += group_size)
        draw_group(seed_mixed, start + (uint64_t)g, group_size, cum_weights, n_weights,
                   cum_components, d, 0, out, 0);
}

/* The groups of sample_groups, each keyed as _kernels_np.group_keys keys
 * it and counted: table[key] is incremented.  With pows[c] = (k+1)**c for
 * k = group_size, a key is below (k+1)**d: each of its k draws adds at
 * most (k+1)**(d-1). */
void sample_keys(uint64_t seed, int64_t n_groups, int64_t group_size, const double *cum_weights,
                 int64_t n_weights, const double *cum_components, int64_t d, uint64_t start,
                 const int64_t *pows, int64_t *table) {
    const uint64_t seed_mixed = mix64(seed + GOLD);
    for (int64_t g = 0; g < n_groups; g++)
        table[draw_group(seed_mixed, start + (uint64_t)g, group_size, cum_weights, n_weights,
                         cum_components, d, pows, 0, 1)]++;
}
