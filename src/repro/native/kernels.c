/* AVX-512 VNNI kernel for the int8 serving-plan fast path.
 *
 * fc_fused_i8 computes the exact TFLite integer semantics of
 * FullyConnectedOp (see repro/tflite/ops.py), then a 256-entry lookup:
 *
 *   acc_j = sum_k x_k * W_kj + offset_j          (int32, never saturating)
 *   code  = clip(rint(acc * mult) + zp, qmin, qmax)
 *   out   = lut[code + 128]                      (tanh table or identity)
 *
 * The int8 x int8 product is reached through the unsigned-signed
 * vpdpbusd instruction by shifting activations into uint8 space:
 * a = x + 128, and folding the constant back into the accumulator
 * init, offs'_j = offset_j - 128 * sum_k W_kj.  vpdpbusd is the
 * NON-saturating variant: each of its four u8*s8 products fits int16
 * (255*127 = 32385, -255*128 = -32640) and their sum fits int32, so
 * as long as the caller proves |offs'| + 383 * sum_k |W_kj| < 2^31
 * (see repro/native/__init__.py) every intermediate is exact.
 *
 * Loop order: 64-column weight panels outermost, row tiles inside, so a
 * panel's K4*256 bytes stay in L1/L2 while every row tile reads them and
 * the matrix comes from L3 or memory once per call, not once per 6 rows.
 *
 * Register tiles: tile() is one routine whose row count (1-6) and
 * 16-column block count (1-4) are compile-time constants; the switch in
 * fc_fused_i8 instantiates it for all 24 shapes, so the full 6x4 tile,
 * the remainder rows and the narrow outputs (N = 16 or 32) all keep
 * their accumulators in zmm registers (at most 24 accumulators + 4
 * weight vectors + 1 broadcast activation = 29 of 32).
 *
 * Epilogue (requant_lut, the one function that TFLite's integer
 * rounding, ROADMAP item 11, will replace): int32 -> float64, multiply,
 * roundscale 0x08 (rint, ties to even == np.round), add zero point,
 * clamp, convert back to int32 (exact: already integral in [-128, 127])
 * -- the numpy path's float64 arithmetic instruction for instruction.
 * The lookup is one vpgatherdd per 16 outputs from an int32 copy of the
 * table built once per call.  Gathers are slower on CPUs that carry the
 * Gather Data Sampling (GDS) mitigation; the result is the same.
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
    const int32_t* lut;  /* int32 table indexed by code, -128..127 */
    int8_t* out;
    int64_t K4, N;
    double mult, zp, qmin, qmax;
} Call;

/* Requantize 16 int32 accumulators and store their 16 table entries. */
INLINE void requant_lut(const Call* c, __m512i acc, int8_t* o) {
    __m512d vmult = _mm512_set1_pd(c->mult), vzp = _mm512_set1_pd(c->zp);
    __m512d vmin = _mm512_set1_pd(c->qmin), vmax = _mm512_set1_pd(c->qmax);
    __m512d v0 = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 0));
    __m512d v1 = _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(acc, 1));
    v0 = _mm512_roundscale_pd(_mm512_mul_pd(v0, vmult), 0x08);
    v1 = _mm512_roundscale_pd(_mm512_mul_pd(v1, vmult), 0x08);
    v0 = _mm512_min_pd(_mm512_max_pd(_mm512_add_pd(v0, vzp), vmin), vmax);
    v1 = _mm512_min_pd(_mm512_max_pd(_mm512_add_pd(v1, vzp), vmin), vmax);
    __m512i code = _mm512_inserti64x4(
        _mm512_castsi256_si512(_mm512_cvtpd_epi32(v0)),
        _mm512_cvtpd_epi32(v1), 1);
    __m512i val = _mm512_i32gather_epi32(code, c->lut, 4);
    _mm_storeu_si128((__m128i*)o, _mm512_cvtepi32_epi8(val));
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
    for (int i = 0; i < MR; i++)
#pragma GCC unroll 4
        for (int j = 0; j < NB; j++)
            requant_lut(c, acc[i][j],
                        c->out + (size_t)(m0 + i) * c->N + (nb + j) * 16);
}

/* Fused FC -> requantize -> LUT over all M rows. */
void fc_fused_i8(const uint8_t* A, const int8_t* Wp, const int32_t* offs,
                 double mult, double zp, double qmin, double qmax,
                 const int8_t* lut, int8_t* out,
                 int64_t M, int64_t K4, int64_t N) {
    int32_t lut32[256];
    for (int t = 0; t < 256; t += 16)
        _mm512_storeu_si512(lut32 + t, _mm512_cvtepi8_epi32(
            _mm_loadu_si128((const __m128i*)(lut + t))));
    const Call c = {A, Wp, offs, lut32 + 128, out, K4, N,
                    mult, zp, qmin, qmax};
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
