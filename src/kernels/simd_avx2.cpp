// pdceval -- AVX2 kernel variants (compiled with -mavx2 -ffp-contract=off).
//
// Bit-identity discipline: every __m256d lane carries ONE output
// coefficient's (or one sample's) value through the same multiply/add/divide
// sequence the scalar baseline uses. Multiplies and adds never mix lanes,
// partial sums are never re-associated, and no FMA is emitted (-mavx2 does
// not enable FMA and contraction is off), so each lane's result is the
// scalar result of that work item.
#include "kernels/simd_avx2.hpp"

#if defined(PDC_HAVE_AVX2)

#include <immintrin.h>

namespace pdc::kernels::detail {

void forward_dct_avx2(const double in[kDctBlock][kDctBlock],
                      double out[kDctBlock][kDctBlock]) noexcept {
  const DctTables& t = dct_tables();
  // acc[u][half]: 16 vectors = the 64 independent (u,v) accumulators.
  __m256d acc[kDctBlock][2];
  for (int u = 0; u < kDctBlock; ++u) {
    acc[u][0] = _mm256_setzero_pd();
    acc[u][1] = _mm256_setzero_pd();
  }
  for (int x = 0; x < kDctBlock; ++x) {
    for (int y = 0; y < kDctBlock; ++y) {
      const double s = in[x][y];
      const __m256d cy0 = _mm256_load_pd(&t.cos_xu[y][0]);
      const __m256d cy1 = _mm256_load_pd(&t.cos_xu[y][4]);
      for (int u = 0; u < kDctBlock; ++u) {
        // Scalar product first (same single multiply the scalar kernel
        // does), then broadcast into all four lanes.
        const __m256d txu = _mm256_set1_pd(s * t.cos_xu[x][u]);
        acc[u][0] = _mm256_add_pd(acc[u][0], _mm256_mul_pd(txu, cy0));
        acc[u][1] = _mm256_add_pd(acc[u][1], _mm256_mul_pd(txu, cy1));
      }
    }
  }
  for (int u = 0; u < kDctBlock; ++u) {
    _mm256_storeu_pd(&out[u][0],
                     _mm256_mul_pd(_mm256_load_pd(&t.scale[u][0]), acc[u][0]));
    _mm256_storeu_pd(&out[u][4],
                     _mm256_mul_pd(_mm256_load_pd(&t.scale[u][4]), acc[u][1]));
  }
}

void inverse_dct_avx2(const double in[kDctBlock][kDctBlock],
                      double out[kDctBlock][kDctBlock]) noexcept {
  const DctTables& t = dct_tables();
  // Hoisted per-(u,v) factor, as in the scalar kernel.
  alignas(32) double w[kDctBlock][kDctBlock];
  for (int u = 0; u < kDctBlock; ++u) {
    const __m256d a0 = _mm256_load_pd(&t.alpha2[u][0]);
    const __m256d a1 = _mm256_load_pd(&t.alpha2[u][4]);
    _mm256_store_pd(&w[u][0], _mm256_mul_pd(a0, _mm256_loadu_pd(&in[u][0])));
    _mm256_store_pd(&w[u][4], _mm256_mul_pd(a1, _mm256_loadu_pd(&in[u][4])));
  }
  __m256d acc[kDctBlock][2];
  for (int x = 0; x < kDctBlock; ++x) {
    acc[x][0] = _mm256_setzero_pd();
    acc[x][1] = _mm256_setzero_pd();
  }
  for (int u = 0; u < kDctBlock; ++u) {
    for (int v = 0; v < kDctBlock; ++v) {
      const double wuv = w[u][v];
      const __m256d cv0 = _mm256_load_pd(&t.cos_ux[v][0]);  // cos(y,v), y=0..3
      const __m256d cv1 = _mm256_load_pd(&t.cos_ux[v][4]);
      for (int x = 0; x < kDctBlock; ++x) {
        const __m256d txu = _mm256_set1_pd(wuv * t.cos_xu[x][u]);
        acc[x][0] = _mm256_add_pd(acc[x][0], _mm256_mul_pd(txu, cv0));
        acc[x][1] = _mm256_add_pd(acc[x][1], _mm256_mul_pd(txu, cv1));
      }
    }
  }
  const __m256d quarter = _mm256_set1_pd(0.25);
  for (int x = 0; x < kDctBlock; ++x) {
    _mm256_storeu_pd(&out[x][0], _mm256_mul_pd(quarter, acc[x][0]));
    _mm256_storeu_pd(&out[x][4], _mm256_mul_pd(quarter, acc[x][1]));
  }
}

}  // namespace pdc::kernels::detail

#endif  // PDC_HAVE_AVX2
