/* AVX-512 VNNI kernels for the int8 serving-plan fast path.
 *
 * Both kernels compute the exact TFLite integer semantics of
 * FullyConnectedOp (see repro/tflite/ops.py):
 *
 *   acc_j = sum_k x_k * W_kj + offset_j          (int32, never saturating)
 *   code  = clip(rint(acc * mult) + zp, qmin, qmax)
 *   out   = lut[code + 128]                      (fc_fused_i8 only)
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
 * The requantization epilogue mirrors the numpy fast path bit for bit:
 * int32 -> float64, multiply, roundscale 0x08 (rint, ties to even ==
 * np.round), add zero point, clamp, convert.  The conversion back to
 * int32 is exact because the value is already integral in [-128, 127].
 *
 * Data layout contract (prepared by repro/native/__init__.py):
 *   A    (M, K4*4) uint8  — activations + 128, K zero-padded to K4*4
 *   Wp   packed weights: per 16-column block nb, [k4][16 cols][4 k] int8
 *        (N padded to a multiple of 16 with zero columns)
 *   offs (N,) int32       — folded per-column accumulator init
 *   lut  (256,) int8      — indexed by code + 128 (tanh table or identity)
 */
#include <immintrin.h>
#include <stdint.h>

/* Fused FC -> requantize -> LUT.  MR=6 x NR=64 (4 zmm) microkernel with
 * a fully unrolled inner loop; edge tiles fall back to the generic loop. */
void fc_fused_i8(const uint8_t* A, const int8_t* Wp, const int32_t* offs,
                 double mult, double zp, double qmin, double qmax,
                 const int8_t* lut, int8_t* out,
                 int64_t M, int64_t K4, int64_t N) {
    int64_t nb_count = N / 16;
    for (int64_t m0 = 0; m0 < M; m0 += 6) {
        int64_t mr = (M - m0) < 6 ? (M - m0) : 6;
        for (int64_t nb = 0; nb < nb_count; nb += 4) {
            int64_t nbr = (nb_count - nb) < 4 ? (nb_count - nb) : 4;
            __m512i acc[6][4];
            for (int64_t i = 0; i < mr; i++)
                for (int64_t j = 0; j < nbr; j++)
                    acc[i][j] = _mm512_loadu_si512(offs + (nb + j) * 16);
            const int8_t* wbase = Wp + (size_t)nb * K4 * 64;
            if (mr == 6 && nbr == 4) {
                const int32_t* a0 = (const int32_t*)(A + (size_t)(m0 + 0) * K4 * 4);
                const int32_t* a1 = (const int32_t*)(A + (size_t)(m0 + 1) * K4 * 4);
                const int32_t* a2 = (const int32_t*)(A + (size_t)(m0 + 2) * K4 * 4);
                const int32_t* a3 = (const int32_t*)(A + (size_t)(m0 + 3) * K4 * 4);
                const int32_t* a4 = (const int32_t*)(A + (size_t)(m0 + 4) * K4 * 4);
                const int32_t* a5 = (const int32_t*)(A + (size_t)(m0 + 5) * K4 * 4);
                for (int64_t k = 0; k < K4; k++) {
                    __m512i b0 = _mm512_loadu_si512(wbase + (size_t)k * 64);
                    __m512i b1 = _mm512_loadu_si512(wbase + (size_t)(K4 + k) * 64);
                    __m512i b2 = _mm512_loadu_si512(wbase + (size_t)(2 * K4 + k) * 64);
                    __m512i b3 = _mm512_loadu_si512(wbase + (size_t)(3 * K4 + k) * 64);
                    __m512i a;
                    a = _mm512_set1_epi32(a0[k]);
                    acc[0][0] = _mm512_dpbusd_epi32(acc[0][0], a, b0);
                    acc[0][1] = _mm512_dpbusd_epi32(acc[0][1], a, b1);
                    acc[0][2] = _mm512_dpbusd_epi32(acc[0][2], a, b2);
                    acc[0][3] = _mm512_dpbusd_epi32(acc[0][3], a, b3);
                    a = _mm512_set1_epi32(a1[k]);
                    acc[1][0] = _mm512_dpbusd_epi32(acc[1][0], a, b0);
                    acc[1][1] = _mm512_dpbusd_epi32(acc[1][1], a, b1);
                    acc[1][2] = _mm512_dpbusd_epi32(acc[1][2], a, b2);
                    acc[1][3] = _mm512_dpbusd_epi32(acc[1][3], a, b3);
                    a = _mm512_set1_epi32(a2[k]);
                    acc[2][0] = _mm512_dpbusd_epi32(acc[2][0], a, b0);
                    acc[2][1] = _mm512_dpbusd_epi32(acc[2][1], a, b1);
                    acc[2][2] = _mm512_dpbusd_epi32(acc[2][2], a, b2);
                    acc[2][3] = _mm512_dpbusd_epi32(acc[2][3], a, b3);
                    a = _mm512_set1_epi32(a3[k]);
                    acc[3][0] = _mm512_dpbusd_epi32(acc[3][0], a, b0);
                    acc[3][1] = _mm512_dpbusd_epi32(acc[3][1], a, b1);
                    acc[3][2] = _mm512_dpbusd_epi32(acc[3][2], a, b2);
                    acc[3][3] = _mm512_dpbusd_epi32(acc[3][3], a, b3);
                    a = _mm512_set1_epi32(a4[k]);
                    acc[4][0] = _mm512_dpbusd_epi32(acc[4][0], a, b0);
                    acc[4][1] = _mm512_dpbusd_epi32(acc[4][1], a, b1);
                    acc[4][2] = _mm512_dpbusd_epi32(acc[4][2], a, b2);
                    acc[4][3] = _mm512_dpbusd_epi32(acc[4][3], a, b3);
                    a = _mm512_set1_epi32(a5[k]);
                    acc[5][0] = _mm512_dpbusd_epi32(acc[5][0], a, b0);
                    acc[5][1] = _mm512_dpbusd_epi32(acc[5][1], a, b1);
                    acc[5][2] = _mm512_dpbusd_epi32(acc[5][2], a, b2);
                    acc[5][3] = _mm512_dpbusd_epi32(acc[5][3], a, b3);
                }
            } else {
                for (int64_t k = 0; k < K4; k++) {
                    __m512i b[4];
                    for (int64_t j = 0; j < nbr; j++)
                        b[j] = _mm512_loadu_si512(wbase + (size_t)(j * K4 + k) * 64);
                    for (int64_t i = 0; i < mr; i++) {
                        __m512i a = _mm512_set1_epi32(
                            ((const int32_t*)(A + (size_t)(m0 + i) * K4 * 4))[k]);
                        for (int64_t j = 0; j < nbr; j++)
                            acc[i][j] = _mm512_dpbusd_epi32(acc[i][j], a, b[j]);
                    }
                }
            }
            __m512d vmult = _mm512_set1_pd(mult);
            __m512d vzp = _mm512_set1_pd(zp);
            __m512d vmin = _mm512_set1_pd(qmin);
            __m512d vmax = _mm512_set1_pd(qmax);
            for (int64_t i = 0; i < mr; i++) {
                for (int64_t j = 0; j < nbr; j++) {
                    int8_t* o = out + (size_t)(m0 + i) * N + (nb + j) * 16;
                    __m256i lo = _mm512_extracti64x4_epi64(acc[i][j], 0);
                    __m256i hi = _mm512_extracti64x4_epi64(acc[i][j], 1);
                    __m512d v0 = _mm512_cvtepi32_pd(lo);
                    __m512d v1 = _mm512_cvtepi32_pd(hi);
                    v0 = _mm512_roundscale_pd(_mm512_mul_pd(v0, vmult), 0x08);
                    v1 = _mm512_roundscale_pd(_mm512_mul_pd(v1, vmult), 0x08);
                    v0 = _mm512_min_pd(_mm512_max_pd(_mm512_add_pd(v0, vzp), vmin), vmax);
                    v1 = _mm512_min_pd(_mm512_max_pd(_mm512_add_pd(v1, vzp), vmin), vmax);
                    __m256i i0 = _mm512_cvtpd_epi32(v0);
                    __m256i i1 = _mm512_cvtpd_epi32(v1);
                    int32_t idx[16];
                    _mm256_storeu_si256((__m256i*)idx, i0);
                    _mm256_storeu_si256((__m256i*)(idx + 8), i1);
                    for (int t = 0; t < 16; t++) o[t] = lut[idx[t] + 128];
                }
            }
        }
    }
}
