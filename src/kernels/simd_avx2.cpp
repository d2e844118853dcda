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

}  // namespace pdc::kernels::detail

#endif  // PDC_HAVE_AVX2
