/* Compiled sampling kernels, loaded by _kernels.py with ctypes.
 *
 * Implementation of the sample_groups and sample_keys contract in
 * _kernels_np.py; the two backends must stay bit-identical.  Words follow
 * the counter scheme in rng.py.  A pick counts the integer thresholds
 * that x = w >> 11 of a word w reaches (x >= t): first those of the
 * cumulative weights, for the component, then those of that component's
 * row, for each category.  _kernels_np.draw_thresholds computes the
 * thresholds, once per draw, and proves the counts equal the float
 * inverse-CDF pick.
 *
 * Both entry points draw CHUNK groups per pass with draw_chunk, in
 * structure-of-arrays form: the stream base of every group, its
 * component, then its component's thresholds, gathered once into a
 * (width, CHUNK) buffer that shares the threshold table's malloc, then for
 * each draw the words of all groups and what they reach of those
 * contiguous thresholds, and last their codes or table counts.  Each
 * pass runs over all CHUNK lanes, a constant trip count that the
 * compiler vectorises without a remainder loop; lanes past the last
 * group draw streams that are never counted or written.  Unsigned
 * 64-bit arithmetic wraps modulo 2**64 as numpy's uint64 does.
 *
 * A keyed draw reads no table either: its key is summed from the
 * comparisons.  With pows[c] = (k+1)**c and steps s_i = pows[i+1] -
 * pows[i], a draw that reaches c thresholds has pows[c] = pows[0] +
 * s_0 + ... + s_{c-1}.  The sum of s_i over the reached thresholds
 * equals that only because they are the first c of the row: threshold
 * rows are nondecreasing (see draw_thresholds), so x >= t_i implies
 * x >= t_h for every h < i.  So a group's key starts at k * pows[0] and
 * each draw adds s_i & -(x >= t_i) over its row, with s_i = 0 on the
 * padding.
 *
 * GCC 12 and later, on x86-64 with glibc, also compile an AVX-512
 * (x86-64-v4) and an AVX2 (x86-64-v3) clone of each entry point, and the
 * loader picks one by what the CPU supports.  That is why the flags can
 * stay free of -march=native: one library in a shared cache directory
 * runs on every x86-64 machine that loads it, and still uses the widest
 * vectors each has.  The default clone is the plain x86-64 build, and
 * other compilers build only that.
 */
#include <stdint.h>
#include <stdlib.h>

#define GOLD 0x9E3779B97F4A7C15ULL
#define MIX_A 0xBF58476D1CE4E5B9ULL
#define MIX_B 0x94D049BB133111EBULL
#define STREAM_MULT 0xD1342543DE82EF95ULL
#define COUNTER_MULT 0xDABA0B6EB09322E3ULL

/* Groups per pass.  The per-group buffers of a pass live on the stack,
 * all but the gathered thresholds, whose size depends on d. */
#define CHUNK 64

/* glibc's loader resolves the clones (as GNU indirect functions). */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12 && defined(__x86_64__) && defined(__GLIBC__)
#define VECTOR_CLONES __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define VECTOR_CLONES
#endif

static inline uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * MIX_A;
    z = (z ^ (z >> 27)) * MIX_B;
    return z ^ (z >> 31);
}

/* Above every x = w >> 11: the padding of a threshold row. */
#define NEVER ((int64_t)1 << 53)

/* An (n_comp, width) table whose row c holds the d - 1 thresholds of
 * row c of comp_t, padded with NEVER to the even width >= 2 that
 * draw_chunk reads two at a time.  Then width key steps, pows[i+1] -
 * pows[i] below d - 1 and 0 on the padding (all 0 without pows), and
 * last the (width, CHUNK) buffer into which draw_chunk gathers each
 * group's row.  NULL if out of memory. */
static int64_t *thresholds(const int64_t *comp_t, int64_t n_comp, int64_t d, int64_t width, const int64_t *pows) {
    int64_t *const tc = malloc((size_t)((n_comp + 1 + CHUNK) * width) * sizeof *tc);
    if (!tc) return 0;
    int64_t *const steps = tc + n_comp * width;
    for (int64_t c = 0; c < n_comp; c++)
        for (int64_t i = 0; i < width; i++) tc[c * width + i] = i < d - 1 ? comp_t[c * (d - 1) + i] : NEVER;
    for (int64_t i = 0; i < width; i++) steps[i] = pows && i < d - 1 ? pows[i + 1] - pows[i] : 0;
    return tc;
}

/* What the thresholds t0 and t1, of steps s0 and s1, add for the word
 * x: in keyed mode the steps of those it reaches, else their number.
 * Masks, not branches: the plain x86-64 build runs this scalar. */
static inline __attribute__((always_inline)) int64_t
reached(int64_t x, int64_t t0, int64_t t1, int64_t s0, int64_t s1, const int keyed) {
    const int64_t a = -(int64_t)(x >= t0), b = -(int64_t)(x >= t1);
    return keyed ? (s0 & a) + (s1 & b) : -(a + b);
}

/* The n <= CHUNK groups on streams first, first+1, ...: counter 0 picks
 * a group's component, a row of the (components, width) threshold table
 * tc, by counting the n_weights weight thresholds tw its x reaches, and
 * that row is gathered once into lane, whose row i holds threshold i of
 * every group.  Counters 1..group_size each draw a word x per group and
 * read the lane rows contiguously, two at a time (width is even, padded
 * with 2**53).  Unkeyed, a draw counts the thresholds x reaches, its
 * category code, and writes it to the group's row of out.  Keyed, the
 * group's key starts at key0 = group_size * pows[0], each draw adds the
 * steps of the thresholds it reaches (see the header), and the group
 * then adds one to table[key].  Each caller passes keyed as a constant,
 * so the inlined passes have no branch on it. */
static inline __attribute__((always_inline)) void
draw_chunk(uint64_t seed_mixed, uint64_t first, int64_t n, int64_t group_size, const int64_t *restrict tw,
           int64_t n_weights, const int64_t *restrict tc, int64_t width, const int64_t *restrict steps,
           uint64_t key0, int64_t *restrict lane, int64_t *restrict table, uint8_t *restrict out,
           const int keyed) {
    uint64_t base[CHUNK], acc[CHUNK];
    int64_t x[CHUNK], row[CHUNK];
    for (int64_t g = 0; g < CHUNK; g++) {
        base[g] = mix64(seed_mixed ^ ((first + (uint64_t)g) * STREAM_MULT));
        x[g] = (int64_t)(mix64(base[g]) >> 11);
        row[g] = 0;
        acc[g] = key0;
    }
    for (int64_t i = 0; i < n_weights; i++)
        for (int64_t g = 0; g < CHUNK; g++) row[g] += (int64_t)(x[g] >= tw[i]);
    for (int64_t g = 0; g < CHUNK; g++) row[g] *= width;
    for (int64_t i = 0; i < width; i++)
        for (int64_t g = 0; g < CHUNK; g++) lane[i * CHUNK + g] = tc[row[g] + i];
    for (int64_t j = 0; j < group_size; j++) {
        const uint64_t counter = (uint64_t)(j + 1) * COUNTER_MULT;
        for (int64_t g = 0; g < CHUNK; g++) {
            x[g] = (int64_t)(mix64(base[g] ^ counter) >> 11);
            acc[g] = (keyed ? acc[g] : 0)
                     + (uint64_t)reached(x[g], lane[g], lane[CHUNK + g], steps[0], steps[1], keyed);
        }
        for (int64_t i = 2; i < width; i += 2) {
            const int64_t *restrict t0 = lane + i * CHUNK, *restrict t1 = t0 + CHUNK;
            for (int64_t g = 0; g < CHUNK; g++)
                acc[g] += (uint64_t)reached(x[g], t0[g], t1[g], steps[i], steps[i + 1], keyed);
        }
        if (!keyed)
            for (int64_t g = 0; g < n; g++) out[g * group_size + j] = (uint8_t)acc[g];
    }
    if (keyed)
        for (int64_t g = 0; g < n; g++) table[acc[g]]++;
}

/* The draws of both entry points, with the n_weights weight thresholds
 * weight_t and the (n_comp, d - 1) component thresholds comp_t; returns
 * -1 if out of memory and 0 otherwise. */
static inline __attribute__((always_inline)) int
draw(uint64_t seed, int64_t n_groups, int64_t group_size, const int64_t *weight_t, int64_t n_weights,
     const int64_t *comp_t, int64_t n_comp, int64_t d, uint64_t start, const int64_t *pows, int64_t *table,
     uint8_t *out, const int keyed) {
    const int64_t width = d / 2 > 1 ? 2 * (d / 2) : 2;
    int64_t *const tc = thresholds(comp_t, n_comp, d, width, pows);
    if (!tc) return -1;
    const int64_t *const steps = tc + n_comp * width;
    const uint64_t seed_mixed = mix64(seed + GOLD), key0 = keyed ? (uint64_t)group_size * (uint64_t)pows[0] : 0;
    for (int64_t lo = 0; lo < n_groups; lo += CHUNK)
        draw_chunk(seed_mixed, start + (uint64_t)lo, n_groups - lo < CHUNK ? n_groups - lo : CHUNK, group_size,
                   weight_t, n_weights, tc, width, steps, key0, tc + (n_comp + 1) * width, table,
                   keyed ? 0 : out + lo * group_size, keyed);
    free(tc);
    return 0;
}

/* Group g (0-based in out) uses stream start + g. */
VECTOR_CLONES
int sample_groups(uint64_t seed, int64_t n_groups, int64_t group_size, const int64_t *weight_t, int64_t n_weights,
                  const int64_t *comp_t, int64_t n_comp, int64_t d, uint64_t start, uint8_t *out) {
    return draw(seed, n_groups, group_size, weight_t, n_weights, comp_t, n_comp, d, start, 0, 0, out, 0);
}

/* The groups of sample_groups, each keyed as _kernels_np.group_keys keys
 * it and counted: table[key] is incremented.  With pows[c] = (k+1)**c for
 * k = group_size, a key is below (k+1)**d: each of its k draws adds at
 * most (k+1)**(d-1). */
VECTOR_CLONES
int sample_keys(uint64_t seed, int64_t n_groups, int64_t group_size, const int64_t *weight_t, int64_t n_weights,
                const int64_t *comp_t, int64_t n_comp, int64_t d, uint64_t start, const int64_t *pows,
                int64_t *table) {
    return draw(seed, n_groups, group_size, weight_t, n_weights, comp_t, n_comp, d, start, pows, table, 0, 1);
}
