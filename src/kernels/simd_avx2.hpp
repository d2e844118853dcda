// pdceval -- internal declarations of the AVX2 kernel variants.
//
// Only compiled/reachable when the build defines PDC_HAVE_AVX2 (PDC_SIMD=ON
// and the toolchain accepts -mavx2); callers must additionally gate on the
// runtime cpuid check via dispatch.hpp. Every function here is bit-identical
// to its scalar twin: lanes carry independent work items only.
#pragma once

#include "kernels/dct.hpp"

namespace pdc::kernels::detail {

#if defined(PDC_HAVE_AVX2)

void forward_dct_avx2(const double in[kDctBlock][kDctBlock],
                      double out[kDctBlock][kDctBlock]) noexcept;

#endif  // PDC_HAVE_AVX2

}  // namespace pdc::kernels::detail
