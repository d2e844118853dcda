#include "kernels/dct.hpp"

#include <cmath>
#include <numbers>

#include "kernels/dispatch.hpp"
#include "kernels/simd_avx2.hpp"

namespace pdc::kernels {

namespace {

// The exact expressions the reference evaluates per element, run once here.
double ref_cos(int x, int u) {
  return std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
}
double ref_alpha(int u) { return u == 0 ? 1.0 / std::numbers::sqrt2 : 1.0; }

DctTables build_tables() {
  DctTables t;
  for (int x = 0; x < kDctBlock; ++x) {
    for (int u = 0; u < kDctBlock; ++u) {
      t.cos_xu[x][u] = ref_cos(x, u);
    }
  }
  for (int u = 0; u < kDctBlock; ++u) {
    for (int v = 0; v < kDctBlock; ++v) {
      t.scale[u][v] = (0.25 * ref_alpha(u)) * ref_alpha(v);
    }
  }
  return t;
}

}  // namespace

const DctTables& dct_tables() noexcept {
  static const DctTables t = build_tables();
  return t;
}

void forward_dct_scalar(const double in[kDctBlock][kDctBlock],
                        double out[kDctBlock][kDctBlock]) noexcept {
  const DctTables& t = dct_tables();
  // acc[u][v] accumulates the reference's per-(u,v) sum. The (x,y) scan is
  // the outer pair here, but each acc[u][v] still receives its addends in
  // the reference's (x asc, y asc) order, each addend computed as
  // (in[x][y] * cos(x,u)) * cos(y,v).
  double acc[kDctBlock][kDctBlock] = {};
  for (int x = 0; x < kDctBlock; ++x) {
    for (int y = 0; y < kDctBlock; ++y) {
      const double s = in[x][y];
      const double* cyv = t.cos_xu[y];
      for (int u = 0; u < kDctBlock; ++u) {
        const double txu = s * t.cos_xu[x][u];
        for (int v = 0; v < kDctBlock; ++v) {
          acc[u][v] += txu * cyv[v];
        }
      }
    }
  }
  for (int u = 0; u < kDctBlock; ++u) {
    for (int v = 0; v < kDctBlock; ++v) {
      out[u][v] = t.scale[u][v] * acc[u][v];
    }
  }
}

void forward_dct(const double in[kDctBlock][kDctBlock],
                 double out[kDctBlock][kDctBlock]) noexcept {
#if defined(PDC_HAVE_AVX2)
  if (active_isa() == Isa::Avx2) {
    detail::forward_dct_avx2(in, out);
    return;
  }
#endif
  forward_dct_scalar(in, out);
}

}  // namespace pdc::kernels
