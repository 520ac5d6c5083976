/* AVX-512 VNNI and AMX-INT8 kernels for the int8 execution plans.
 *
 * fc_fused_i8 computes the exact TFLite integer semantics of
 * FullyConnectedOp (see repro/tflite/ops.py), then a 256-entry lookup:
 *
 *   acc_j = sum_k x_k * W_kj + offset_j          (int32, never saturating)
 *   code  = clip(rint(acc * mult) + zp, qmin, qmax)
 *   out   = lut[code + 128]                      (tanh table or identity)
 *
 * The int8 x int8 product is reached through unsigned-signed dot
 * products (vpdpbusd, tdpbusd) by shifting activations into uint8
 * space: a = x + 128, and folding the constant back into the
 * accumulator init, offs'_j = offset_j - 128 * sum_k W_kj.  Both
 * instructions are NON-saturating: each of four u8*s8 products fits
 * int16 (255*127 = 32385, -255*128 = -32640) and their sum fits int32,
 * so as long as the caller proves |offs'| + 383 * sum_k |W_kj| < 2^31
 * (see repro/native/__init__.py) every intermediate is exact.
 *
 * Two engines run on the same packed weights and the same epilogue:
 *
 * VNNI (fc_fused_i8): 64-column weight panels outermost, row tiles
 * inside, so a panel's K4*256 bytes stay in L1/L2 while every row tile
 * reads them.  tile() is one routine whose row count (1-6) and
 * 16-column block count (1-4) are compile-time constants; the switch
 * instantiates all 24 shapes, so every tile keeps its accumulators in
 * zmm registers (at most 24 accumulators + 4 weight vectors + 1
 * broadcast activation = 29 of 32).
 *
 * AMX (fc_fused_i8_amx, built only with -mamx-tile -mamx-int8): the
 * same product on the tile unit.  A B tile is 16 k-quads x 64 bytes
 * read straight from a 16-column block of the packed weights (stride
 * 64); an A tile is 16 rows x 64 activation bytes (stride K4*4); C
 * tiles start from a stride-0 load of the 16 folded offsets.  Tiles
 * 0-3 hold a 2x2 block of C (32 rows x 32 columns), 4-5 the two A row
 * tiles and 6-7 the two B column tiles.  32-column panels are the outer
 * loop (a panel stays in L1, a call's rows in L2); a last row group of
 * fewer than 32 rows runs under a second tile configuration whose row
 * counts are exactly its rows.  K4 must be a multiple of 16: on AMX
 * stages the packing pads it with zero weight rows and the plan's
 * activation buffer with zero columns.  Each 32x32 group is stored to
 * one of two int32 buffers, and its epilogue runs in slices between
 * the next group's tile instructions, so it overlaps the tile work.
 * The caller must hold the tile-data permission (fc_amx_request, once
 * per process); the configuration is loaded per call and released at
 * its end, and tile state is per thread, so concurrent calls are safe.
 * A build without those flags (a CPU or compiler without AMX) holds the
 * VNNI engine alone; repro/native/__init__.py picks the build and, per
 * stage and batch, the engine.
 *
 * Epilogue: requant, the one function that TFLite's integer rounding
 * (ROADMAP item 11) will replace, converts 16 accumulators to float64,
 * multiplies, clamps to [qmin - zp, qmax - zp] and converts back with
 * round-half-to-even (== np.round), then adds the zero point -- the
 * numpy path's float64 rounding, exactly (rint is monotone and the
 * clamp bounds are integers, so clamping first changes nothing).
 * lookup_store then looks a row's 1-4 blocks of codes up at once: two
 * vpermi2b over the table's halves where the build has AVX-512 VBMI
 * (every AMX build), else one vpgatherdd per 16 codes from an int32
 * copy of the table built once per call (slower on CPUs with the
 * Gather Data Sampling mitigation, the same result).
 *
 * Data layout contract (prepared by repro/native/__init__.py):
 *   A    (M, K4*4) uint8  — activations + 128, K zero-padded to K4*4
 *   Wp   packed weights: per 16-column block nb, [k4][16 cols][4 k] int8
 *        (N padded to a multiple of 16 with zero columns)
 *   offs (N,) int32       — folded per-column accumulator init
 *   lut  (256,) int8      — indexed by code + 128 (tanh table or identity)
 *   out  (M, N) int8      — row stride N
 */
#include <immintrin.h>
#include <stdint.h>

#define INLINE static inline __attribute__((always_inline))

typedef struct {
    const uint8_t* A;
    const int8_t* Wp;
    const int32_t* offs;
    __m512i tables[4];     /* the int8 table in four 64-entry quarters */
    const int32_t* lut32;  /* int32 table indexed by code, -128..127 */
    int8_t* out;
    int64_t K4, N;
    double mult, zp, qmin, qmax;
    int32_t zp_i;
} Call;

/* Requantize 16 int32 accumulators to their 16 int8 codes.  Clamping
 * before the rounding conversion is exact: rint is monotone and the
 * clamp bounds qmin - zp, qmax - zp are integers. */
INLINE __m128i requant(const Call* c, __m512i acc) {
    __m512d vmult = _mm512_set1_pd(c->mult);
    __m512d lo = _mm512_set1_pd(c->qmin - c->zp);
    __m512d hi = _mm512_set1_pd(c->qmax - c->zp);
    __m512d v0 = _mm512_cvtepi32_pd(_mm512_castsi512_si256(acc));
    __m512d v1 = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 1));
    v0 = _mm512_min_pd(_mm512_max_pd(_mm512_mul_pd(v0, vmult), lo), hi);
    v1 = _mm512_min_pd(_mm512_max_pd(_mm512_mul_pd(v1, vmult), lo), hi);
    const int rn = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    __m512i code = _mm512_add_epi32(_mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvt_roundpd_epi32(v0, rn)),
        _mm512_cvt_roundpd_epi32(v1, rn), 1), _mm512_set1_epi32(c->zp_i));
    return _mm512_cvtepi32_epi8(code);
}

/* Look up NB (1-4, compile-time) adjacent groups of 16 codes and store
 * their table entries at o. */
INLINE void lookup_store(const Call* c, const __m128i* codes, int8_t* o,
                         const int NB) {
#ifdef __AVX512VBMI__
    /* A code's byte: its low 7 bits index a table half, its sign picks
     * the half (negative codes are lut[0..127]). */
    __m512i b = _mm512_castsi128_si512(codes[0]);
    if (NB > 1) b = _mm512_inserti32x4(b, codes[1], 1);
    if (NB > 2) b = _mm512_inserti32x4(b, codes[2], 2);
    if (NB > 3) b = _mm512_inserti32x4(b, codes[3], 3);
    __m512i neg = _mm512_permutex2var_epi8(c->tables[0], b, c->tables[1]);
    __m512i pos = _mm512_permutex2var_epi8(c->tables[2], b, c->tables[3]);
    __m512i val = _mm512_mask_blend_epi8(_mm512_movepi8_mask(b), pos, neg);
    if (NB == 4)
        _mm512_storeu_si512(o, val);
    else
        _mm512_mask_storeu_epi8(o, (__mmask64)((1ULL << (16 * NB)) - 1),
                                val);
#else
    for (int j = 0; j < NB; j++) {
        __m512i val = _mm512_i32gather_epi32(
            _mm512_cvtepi8_epi32(codes[j]), c->lut32, 4);
        _mm_storeu_si128((__m128i*)(o + 16 * j), _mm512_cvtepi32_epi8(val));
    }
#endif
}

/* One MR-row x NB-block tile at rows m0.., blocks nb..; MR and NB are
 * constants at every call site, so acc[][] lives in registers. */
INLINE void tile(const Call* c, int64_t m0, int64_t nb, const int MR,
                 const int NB) {
    const int64_t K4 = c->K4;
    const int32_t* a[6];
    __m512i acc[6][4], b[4];
    for (int i = 0; i < MR; i++) {
        a[i] = (const int32_t*)(c->A + (size_t)(m0 + i) * K4 * 4);
        for (int j = 0; j < NB; j++)
            acc[i][j] = _mm512_loadu_si512(c->offs + (nb + j) * 16);
    }
    const int8_t* w = c->Wp + (size_t)nb * K4 * 64;
    for (int64_t k = 0; k < K4; k++) {
        for (int j = 0; j < NB; j++)
            b[j] = _mm512_loadu_si512(w + (size_t)(j * K4 + k) * 64);
        for (int i = 0; i < MR; i++) {
            __m512i ai = _mm512_set1_epi32(a[i][k]);
            for (int j = 0; j < NB; j++)
                acc[i][j] = _mm512_dpbusd_epi32(acc[i][j], ai, b[j]);
        }
    }
#pragma GCC unroll 6
    for (int i = 0; i < MR; i++) {
        __m128i codes[4];
#pragma GCC unroll 4
        for (int j = 0; j < NB; j++)
            codes[j] = requant(c, acc[i][j]);
        lookup_store(c, codes, c->out + (size_t)(m0 + i) * c->N + nb * 16,
                     NB);
    }
}

/* The per-call state both engines share: the int32 table and the
 * arguments. */
#define CALL_SETUP                                                        \
    int32_t lut32[256];                                                   \
    for (int t = 0; t < 256; t += 16)                                     \
        _mm512_storeu_si512(lut32 + t, _mm512_cvtepi8_epi32(              \
            _mm_loadu_si128((const __m128i*)(lut + t))));                 \
    const Call c = {A, Wp, offs,                                          \
                    {_mm512_loadu_si512(lut), _mm512_loadu_si512(lut + 64), \
                     _mm512_loadu_si512(lut + 128),                       \
                     _mm512_loadu_si512(lut + 192)},                      \
                    lut32 + 128, out, K4, N, mult, zp, qmin, qmax,        \
                    (int32_t)zp};

/* Fused FC -> requantize -> LUT over all M rows. */
void fc_fused_i8(const uint8_t* A, const int8_t* Wp, const int32_t* offs,
                 double mult, double zp, double qmin, double qmax,
                 const int8_t* lut, int8_t* out,
                 int64_t M, int64_t K4, int64_t N) {
    CALL_SETUP
    int64_t nb_count = N / 16;
    for (int64_t nb = 0; nb < nb_count; nb += 4) {
        int nbr = nb_count - nb < 4 ? (int)(nb_count - nb) : 4;
        for (int64_t m0 = 0; m0 < M; m0 += 6) {
            int mr = M - m0 < 6 ? (int)(M - m0) : 6;
#define CASE(r, n) case (r) * 4 + (n) - 5: tile(&c, m0, nb, r, n); break;
#define ROWS(r) CASE(r, 1) CASE(r, 2) CASE(r, 3) CASE(r, 4)
            switch (mr * 4 + nbr - 5) {
                ROWS(1) ROWS(2) ROWS(3) ROWS(4) ROWS(5) ROWS(6)
            }
        }
    }
}

#if defined(__AMX_TILE__) && defined(__AMX_INT8__)
#include <sys/syscall.h>
#include <unistd.h>

#define ARCH_REQ_XCOMP_PERM 0x1023
#define XFEATURE_XTILEDATA 18

/* Ask the kernel for the tile-data state; 0 when granted. */
long fc_amx_request(void) {
    return syscall(SYS_arch_prctl, ARCH_REQ_XCOMP_PERM, XFEATURE_XTILEDATA);
}

typedef struct {
    uint8_t palette, start_row, reserved[14];
    uint16_t colsb[16];
    uint8_t rows[16];
} TileCfg;

/* Configure C tiles 0-3, A tiles 4-5 and B tiles 6-7 for a group whose
 * two row tiles hold r0 and r1 rows (r1 = 0 leaves tiles 2, 3 and 5
 * unconfigured). */
static void tile_config(int r0, int r1) {
    TileCfg cfg = {.palette = 1};
    const int rows[8] = {r0, r0, r1, r1, r0, r1, 16, 16};
    for (int t = 0; t < 8; t++) {
        cfg.rows[t] = (uint8_t)rows[t];
        cfg.colsb[t] = rows[t] ? 64 : 0;
    }
    _tile_loadconfig(&cfg);
}

/* A group's epilogue, in slices: requantize rows [*done, upto) of the
 * stored group at cbuf (row stride 32 int32) into rows m0.. of out. */
INLINE void group_epilogue(const Call* c, const int32_t* cbuf, int64_t m0,
                           int64_t nb, int* done, int upto, const int NB) {
    for (int i = *done; i < upto; i++) {
        __m128i codes[2];
        for (int j = 0; j < NB; j++)
            codes[j] = requant(c, _mm512_load_si512(cbuf + i * 32 + j * 16));
        lookup_store(c, codes, c->out + (size_t)(m0 + i) * c->N + nb * 16,
                     NB);
    }
    *done = upto;
}

/* The pending epilogue of the previous group. */
typedef struct {
    const int32_t* cbuf;
    int64_t m0;
    int rows, done;
} Pending;

/* One G x NB group of C tiles (G row tiles, NB column blocks, both
 * compile-time) at rows m0.., blocks nb..; stores it to cbuf and runs
 * the previous group's epilogue in slices between its k-steps. */
INLINE void amx_group(const Call* c, int32_t* cbuf, int64_t m0, int64_t nb,
                      Pending* prev, const int G, const int NB) {
    const int64_t K4 = c->K4, lda = K4 * 4;
    const uint8_t* a = c->A + (size_t)m0 * lda;
    const int8_t* w = c->Wp + (size_t)nb * K4 * 64;
    const int32_t* off = c->offs + nb * 16;
    _tile_loadd(0, off, 0);
    if (NB == 2) _tile_loadd(1, off + 16, 0);
    if (G == 2) {
        _tile_loadd(2, off, 0);
        if (NB == 2) _tile_loadd(3, off + 16, 0);
    }
    int steps = (int)(K4 / 16);
    int slice = (prev->rows + steps - 1) / steps;
    for (int64_t k = 0; k < K4; k += 16) {
        _tile_loadd(6, w + k * 64, 64);
        if (NB == 2) _tile_loadd(7, w + (K4 + k) * 64, 64);
        _tile_loadd(4, a + k * 4, lda);
        _tile_dpbusd(0, 4, 6);
        if (NB == 2) _tile_dpbusd(1, 4, 7);
        if (G == 2) {
            _tile_loadd(5, a + 16 * lda + k * 4, lda);
            _tile_dpbusd(2, 5, 6);
            if (NB == 2) _tile_dpbusd(3, 5, 7);
        }
        int upto = prev->done + slice;
        group_epilogue(c, prev->cbuf, prev->m0, nb, &prev->done,
                       upto < prev->rows ? upto : prev->rows, NB);
    }
    group_epilogue(c, prev->cbuf, prev->m0, nb, &prev->done, prev->rows,
                   NB);
    _tile_stored(0, cbuf, 128);
    if (NB == 2) _tile_stored(1, cbuf + 16, 128);
    if (G == 2) {
        _tile_stored(2, cbuf + 512, 128);
        if (NB == 2) _tile_stored(3, cbuf + 528, 128);
    }
}

/* One panel of NB column blocks: every full 32-row group, then the
 * remainder group under its own configuration; the last group's
 * epilogue runs before the panel ends. */
INLINE void amx_panel(const Call* c, int32_t (*cbuf)[1024], int64_t M,
                      int64_t nb, int* loaded, const int NB) {
    Pending prev = {cbuf[1], 0, 0, 0};
    int64_t full = M & ~(int64_t)31;
    int g = 0;
    for (int64_t m0 = 0; m0 < full; m0 += 32, g ^= 1) {
        if (*loaded != 32) {
            tile_config(16, 16);
            *loaded = 32;
        }
        amx_group(c, cbuf[g], m0, nb, &prev, 2, NB);
        prev = (Pending){cbuf[g], m0, 32, 0};
    }
    int tail = (int)(M - full);
    if (tail) {
        if (*loaded != tail) {
            tile_config(tail > 16 ? 16 : tail, tail > 16 ? tail - 16 : 0);
            *loaded = tail;
        }
        if (tail > 16)
            amx_group(c, cbuf[g], full, nb, &prev, 2, NB);
        else
            amx_group(c, cbuf[g], full, nb, &prev, 1, NB);
        prev = (Pending){cbuf[g], full, tail, 0};
    }
    group_epilogue(c, prev.cbuf, prev.m0, nb, &prev.done, prev.rows, NB);
}

/* fc_fused_i8 on the tile unit; K4 must be a multiple of 16. */
void fc_fused_i8_amx(const uint8_t* A, const int8_t* Wp,
                     const int32_t* offs, double mult, double zp,
                     double qmin, double qmax, const int8_t* lut,
                     int8_t* out, int64_t M, int64_t K4, int64_t N) {
    CALL_SETUP
    int32_t cbuf[2][1024] __attribute__((aligned(64)));
    /* Rows of the loaded configuration's groups (0: none loaded). */
    int loaded = 0;
    int64_t nb_count = N / 16;
    for (int64_t nb = 0; nb < nb_count; nb += 2) {
        if (nb_count - nb >= 2)
            amx_panel(&c, cbuf, M, nb, &loaded, 2);
        else
            amx_panel(&c, cbuf, M, nb, &loaded, 1);
    }
    _tile_release();
}
#endif
