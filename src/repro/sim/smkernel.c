/* One pass over the state per shared-memory kernel.
 *
 * sm_apply() walks a (rows, 2^n) complex128 buffer tile by tile: a tile is
 * the 2^T amplitudes that differ only in the kernel's tile bits (its active
 * positions, index bits 0-2 and the next-lowest free bits), gathered into a
 * thread-local split re/im buffer in physical bit order, run through every
 * item of the kernel there, and scattered back in place.  Everything
 * structural (tile bits, chunk offsets, index maps) arrives precomputed in
 * `prog` / `tabs` (repro.sim.apply.kernel_template); `payload` holds one
 * job's numbers (block phases, 2x2s, dense matrices) as complex128.
 *
 * Numerics: every complex product is (ar*br - ai*bi, ar*bi + ai*br), sums
 * run in index order, nothing is fused or reassociated (build with
 * -ffp-contract=off, never -ffast-math), so an amplitude's bits depend on
 * this source and the payload only - not on the tile shape, the vector
 * width or the lane it sat in.
 *
 * Plain C11 plus GCC/Clang vector extensions (scalar #else); no intrinsics
 * headers, no libm, no allocation.
 */
#include <stdint.h>

#define SM_MAX_TILE_BITS 13 /* 10 active positions + index bits 0-2 */
#define SM_MAX_DENSE 4      /* widest dense item applied here */
#define SM_ITEM_WORDS 10    /* kind, a0, a1, a2, tab, pay, bits[4] */

enum { SM_GATE1 = 0, SM_DIAG = 1, SM_MOVE = 2, SM_GATHER = 3, SM_DENSE = 4 };

#if (defined(__GNUC__) || defined(__clang__)) && !defined(SM_SCALAR)
#define LB 3 /* index bits inside one vector */
#define VL 8
typedef double vd __attribute__((vector_size(64)));
typedef double vd_tile __attribute__((vector_size(64), may_alias));
typedef double vd_state __attribute__((vector_size(64), aligned(8), may_alias));
#if defined(__clang__)
#define SHUF2(a, b, ...) __builtin_shufflevector(a, b, __VA_ARGS__)
#else
typedef int64_t vi __attribute__((vector_size(64)));
#define SHUF2(a, b, ...) __builtin_shuffle(a, b, (vi){__VA_ARGS__})
#endif
#define SPLAT(x) ((vd){(x), (x), (x), (x), (x), (x), (x), (x)})
static inline vd ld(const double *p) { return *(const vd_tile *)p; }
static inline void st(double *p, vd v) { *(vd_tile *)p = v; }
#else
#define LB 0
#define VL 1
typedef double vd;
#define SPLAT(x) (x)
static inline vd ld(const double *p) { return *p; }
static inline void st(double *p, vd v) { *p = v; }
#endif

static _Thread_local _Alignas(64) double tile_buf[2][2][1 << SM_MAX_TILE_BITS];

int64_t sm_lane_bits(void) { return LB; }

/* count interleaved amplitudes at src -> split planes, and back. */
static void load_chunk(const double *src, double *re, double *im, int64_t count)
{
#if LB
    for (int64_t i = 0; i < count; i += VL) {
        vd a = *(const vd_state *)(src + 2 * i), b = *(const vd_state *)(src + 2 * i + VL);
        st(re + i, SHUF2(a, b, 0, 2, 4, 6, 8, 10, 12, 14));
        st(im + i, SHUF2(a, b, 1, 3, 5, 7, 9, 11, 13, 15));
    }
#else
    for (int64_t i = 0; i < count; i++) { re[i] = src[2 * i]; im[i] = src[2 * i + 1]; }
#endif
}

static void store_chunk(double *dst, const double *re, const double *im, int64_t count)
{
#if LB
    for (int64_t i = 0; i < count; i += VL) {
        vd r = ld(re + i), m = ld(im + i);
        *(vd_state *)(dst + 2 * i) = SHUF2(r, m, 0, 8, 1, 9, 2, 10, 3, 11);
        *(vd_state *)(dst + 2 * i + VL) = SHUF2(r, m, 4, 12, 5, 13, 6, 14, 7, 15);
    }
#else
    for (int64_t i = 0; i < count; i++) { dst[2 * i] = re[i]; dst[2 * i + 1] = im[i]; }
#endif
}

/* A 1q gate m = (m00, m01, m10, m11 as re,im pairs) on tile bit b.  An
 * entry's exactly-zero half drops out of its products (x*0 adds nothing),
 * so an all-real matrix (h, ry) and one with a real diagonal and an
 * imaginary off-diagonal (rx) take 12 operations a pair for the general 28
 * at the same values. */
enum { GENERAL, ALL_REAL, REAL_IMAG };

static int gate1_form(const double *m)
{
    if (m[1] == 0.0 && m[7] == 0.0 && m[3] == 0.0 && m[5] == 0.0) return ALL_REAL;
    if (m[1] == 0.0 && m[7] == 0.0 && m[2] == 0.0 && m[4] == 0.0) return REAL_IMAG;
    return GENERAL;
}

/* b >= LB: the strided butterfly. */
#define STRIDE_LOOP(R0, I0, R1, I1)                                                  \
    for (int64_t i = 0; i < size; i += 2 * s)                                        \
        for (int64_t j = i; j < i + s; j += VL) {                                    \
            vd r0 = ld(re + j), i0 = ld(im + j), r1 = ld(re + j + s), i1 = ld(im + j + s); \
            st(re + j, R0); st(im + j, I0); st(re + j + s, R1); st(im + j + s, I1);  \
        }

static void gate1_stride(double *re, double *im, int64_t size, int b, const double *m)
{
    const int64_t s = (int64_t)1 << b;
    const vd ar = SPLAT(m[0]), ai = SPLAT(m[1]), br = SPLAT(m[2]), bi = SPLAT(m[3]);
    const vd cr = SPLAT(m[4]), ci = SPLAT(m[5]), dr = SPLAT(m[6]), di = SPLAT(m[7]);
    switch (gate1_form(m)) {
    case ALL_REAL:
        STRIDE_LOOP(ar * r0 + br * r1, ar * i0 + br * i1, cr * r0 + dr * r1, cr * i0 + dr * i1)
        break;
    case REAL_IMAG:
        STRIDE_LOOP(ar * r0 - bi * i1, ar * i0 + bi * r1, dr * r1 - ci * i0, dr * i1 + ci * r0)
        break;
    default:
        STRIDE_LOOP((ar * r0 - ai * i0) + (br * r1 - bi * i1), (ar * i0 + ai * r0) + (br * i1 + bi * r1),
                    (cr * r0 - ci * i0) + (dr * r1 - di * i1), (cr * i0 + ci * r0) + (dr * i1 + di * r1))
    }
}

#if LB
/* b < LB, inside the vector: the same products per amplitude, with per-lane
 * coefficients (own: m00 | m11, partner's: m01 | m10) and one lane permute
 * fetching the partner. */
#define LANE_LOOP(R, I, ...)                                              \
    for (int64_t j = 0; j < size; j += VL) {                              \
        vd r = ld(re + j), i = ld(im + j);                                \
        vd pr = SHUF2(r, r, __VA_ARGS__), pi = SHUF2(i, i, __VA_ARGS__);  \
        st(re + j, R); st(im + j, I);                                     \
    }
#define LANE_FORMS(...)                                                                   \
    switch (form) {                                                                       \
    case ALL_REAL: LANE_LOOP(ar * r + br * pr, ar * i + br * pi, __VA_ARGS__) break;      \
    case REAL_IMAG: LANE_LOOP(ar * r - bi * pi, ar * i + bi * pr, __VA_ARGS__) break;     \
    default: LANE_LOOP((ar * r - ai * i) + (br * pr - bi * pi),                           \
                       (ar * i + ai * r) + (br * pi + bi * pr), __VA_ARGS__)              \
    }

static void gate1_lane(double *re, double *im, int64_t size, int b, const double *m)
{
    const int form = gate1_form(m);
    vd ar, ai, br, bi;
    for (int lane = 0; lane < VL; lane++) {
        const int one = (lane >> b) & 1;
        ar[lane] = m[one ? 6 : 0]; ai[lane] = m[one ? 7 : 1];
        br[lane] = m[one ? 4 : 2]; bi[lane] = m[one ? 5 : 3];
    }
    if (b == 0) LANE_FORMS(1, 0, 3, 2, 5, 4, 7, 6)
    else if (b == 1) LANE_FORMS(2, 3, 0, 1, 6, 7, 4, 5)
    else LANE_FORMS(4, 5, 6, 7, 0, 1, 2, 3)
}
#endif

/* A block's phase for run r of 2^run_bits amplitudes: entry map[r] of the
 * phase table - one complex, or (lanes) VL of them for a block reaching
 * into the vector. */
static inline void phase_of(const double *table, int64_t entry, int lanes, vd *pr, vd *pi)
{
#if LB
    if (lanes) {
        const double *p = table + 2 * VL * entry;
        vd a = *(const vd_state *)p, b = *(const vd_state *)(p + VL);
        *pr = SHUF2(a, b, 0, 2, 4, 6, 8, 10, 12, 14);
        *pi = SHUF2(a, b, 1, 3, 5, 7, 9, 11, 13, 15);
        return;
    }
#endif
    (void)lanes;
    *pr = SPLAT(table[2 * entry]);
    *pi = SPLAT(table[2 * entry + 1]);
}

static void diag(double *re, double *im, int64_t size, int run_bits, int lanes,
                 const uint16_t *map, const double *table)
{
    const int64_t run = (int64_t)1 << run_bits;
    for (int64_t r = 0; r < size >> run_bits; r++) {
        vd pr, pi;
        phase_of(table, map[r], lanes, &pr, &pi);
        for (int64_t j = r * run; j < (r + 1) * run; j += VL) {
            vd x = ld(re + j), y = ld(im + j);
            st(re + j, pr * x - pi * y);
            st(im + j, pr * y + pi * x);
        }
    }
}

/* A permuting block clear of the vector: run r of the output is run src[r]
 * of the input, scaled (phased) by table[map[r]]. */
static void move_runs(const double *re, const double *im, double *ore, double *oim,
                      int64_t size, int run_bits, int phased, const uint16_t *src,
                      const uint16_t *map, const double *table)
{
    const int64_t run = (int64_t)1 << run_bits;
    for (int64_t r = 0; r < size >> run_bits; r++) {
        const double *xr = re + src[r] * run, *xi = im + src[r] * run;
        double *yr = ore + r * run, *yi = oim + r * run;
        if (phased) {
            const vd pr = SPLAT(table[2 * map[r]]), pi = SPLAT(table[2 * map[r] + 1]);
            for (int64_t j = 0; j < run; j += VL) {
                vd x = ld(xr + j), y = ld(xi + j);
                st(yr + j, pr * x - pi * y);
                st(yi + j, pr * y + pi * x);
            }
        } else
            for (int64_t j = 0; j < run; j += VL) { st(yr + j, ld(xr + j)); st(yi + j, ld(xi + j)); }
    }
}

/* A dense k-qubit matrix (row-major complex) on tile bits `bits`: per group
 * of 2^k amplitudes gather, multiply (exact zeros skipped, sums in column
 * order), scatter.  Instantiated over vectors (every bit clear of the
 * vector) and over single amplitudes. */
#define DENSE(NAME, T, UNIT, LOW, LOAD, STORE, BROADCAST)                               \
    static void NAME(double *re, double *im, int tile_bits, int k, const int64_t *bits, \
                     const double *m)                                                   \
    {                                                                                   \
        const int d = 1 << k;                                                           \
        int64_t off[1 << SM_MAX_DENSE], sorted[SM_MAX_DENSE];                           \
        for (int c = 0; c < d; c++) {                                                   \
            off[c] = 0;                                                                 \
            for (int j = 0; j < k; j++) off[c] |= (int64_t)((c >> j) & 1) << bits[j];   \
        }                                                                               \
        for (int j = 0; j < k; j++) {                                                   \
            int at = j;                                                                 \
            for (; at > 0 && sorted[at - 1] > bits[j] - LOW; at--) sorted[at] = sorted[at - 1]; \
            sorted[at] = bits[j] - LOW;                                                 \
        }                                                                               \
        for (int64_t g = 0; g < (int64_t)1 << (tile_bits - LOW - k); g++) {             \
            int64_t base = g;                                                           \
            for (int j = 0; j < k; j++)                                                 \
                base = ((base >> sorted[j]) << (sorted[j] + 1)) |                       \
                       (base & (((int64_t)1 << sorted[j]) - 1));                        \
            base *= UNIT;                                                               \
            T xr[1 << SM_MAX_DENSE], xi[1 << SM_MAX_DENSE];                             \
            for (int c = 0; c < d; c++) {                                               \
                xr[c] = LOAD(re + base + off[c]);                                       \
                xi[c] = LOAD(im + base + off[c]);                                       \
            }                                                                           \
            for (int r = 0; r < d; r++) {                                               \
                T yr = BROADCAST(0.0), yi = BROADCAST(0.0);                             \
                int started = 0;                                                        \
                for (int c = 0; c < d; c++) {                                           \
                    const double mr = m[2 * (r * d + c)], mi = m[2 * (r * d + c) + 1];  \
                    if (mr == 0.0 && mi == 0.0) continue;                               \
                    const T pr = BROADCAST(mr) * xr[c] - BROADCAST(mi) * xi[c];         \
                    const T pi = BROADCAST(mr) * xi[c] + BROADCAST(mi) * xr[c];         \
                    yr = started ? yr + pr : pr;                                        \
                    yi = started ? yi + pi : pi;                                        \
                    started = 1;                                                        \
                }                                                                       \
                STORE(re + base + off[r], yr);                                          \
                STORE(im + base + off[r], yi);                                          \
            }                                                                           \
        }                                                                               \
    }

#define LOAD1(p) (*(p))
#define STORE1(p, v) (*(p) = (v))
#define SAME(x) (x)
DENSE(dense_each, double, 1, 0, LOAD1, STORE1, SAME)
#if LB
DENSE(dense_wide, vd, VL, LB, ld, st, SPLAT)
#endif

/* Apply the kernel `prog` to every row of `state`; 0 on success. */
int64_t sm_apply(double *state, int64_t rows, int64_t row_amplitudes, const int64_t *prog,
                 const uint16_t *tabs, const double *payload)
{
    const int tile_bits = (int)prog[0], chunk_bits = (int)prog[1];
    const int outer_bits = (int)prog[2], num_items = (int)prog[3];
    if (tile_bits < LB || tile_bits > SM_MAX_TILE_BITS || chunk_bits < LB || chunk_bits > tile_bits)
        return 1;
    const int64_t *outer = prog + 4;
    const int64_t *chunk_at = outer + outer_bits;
    const int64_t *items = chunk_at + ((int64_t)1 << (tile_bits - chunk_bits));
    const int64_t size = (int64_t)1 << tile_bits, chunk = (int64_t)1 << chunk_bits;
    if (row_amplitudes != size << outer_bits)
        return 2;
    for (int i = 0; i < num_items; i++) {
        const int64_t *it = items + i * SM_ITEM_WORDS;
        if (it[0] < SM_GATE1 || it[0] > SM_DENSE || (it[0] == SM_DENSE && it[1] > SM_MAX_DENSE))
            return 3;
    }

    for (int64_t row = 0; row < rows; row++)
        for (int64_t tile = 0; tile < (int64_t)1 << outer_bits; tile++) {
            int64_t base = 0;
            for (int b = 0; b < outer_bits; b++) base |= ((tile >> b) & 1) << outer[b];
            double *at = state + 2 * (row * row_amplitudes + base);
            double *re = tile_buf[0][0], *im = tile_buf[0][1];
            double *ore = tile_buf[1][0], *oim = tile_buf[1][1], *swap;
            for (int64_t h = 0; h < size >> chunk_bits; h++)
                load_chunk(at + 2 * chunk_at[h], re + h * chunk, im + h * chunk, chunk);
            for (int i = 0; i < num_items; i++) {
                const int64_t *it = items + i * SM_ITEM_WORDS;
                const uint16_t *tab = tabs + it[4];
                const double *pay = payload + 2 * it[5];
                switch (it[0]) {
                case SM_GATE1:
#if LB
                    if (it[1] < LB) { gate1_lane(re, im, size, (int)it[1], pay); break; }
#endif
                    gate1_stride(re, im, size, (int)it[1], pay);
                    break;
                case SM_DIAG:
                    diag(re, im, size, (int)it[1], (int)it[2], tab, pay);
                    break;
                case SM_MOVE:
                case SM_GATHER: /* into the second buffer, which becomes the tile */
                    if (it[0] == SM_MOVE)
                        move_runs(re, im, ore, oim, size, (int)it[1], (int)it[2], tab,
                                  tab + (size >> it[1]), pay);
                    else
                        for (int64_t j = 0; j < size; j++) { ore[j] = re[tab[j]]; oim[j] = im[tab[j]]; }
                    swap = re; re = ore; ore = swap;
                    swap = im; im = oim; oim = swap;
                    break;
                default: /* SM_DENSE */
#if LB
                    if (it[3]) { dense_wide(re, im, tile_bits, (int)it[1], it + 6, pay); break; }
#endif
                    dense_each(re, im, tile_bits, (int)it[1], it + 6, pay);
                }
            }
            for (int64_t h = 0; h < size >> chunk_bits; h++)
                store_chunk(at + 2 * chunk_at[h], re + h * chunk, im + h * chunk, chunk);
        }
    return 0;
}
