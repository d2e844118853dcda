// pdceval -- fast order-preserving 8x8 DCT-II kernel.
//
// The JPEG app's naive reference (kernels::ref) evaluates std::cos inside
// the innermost loop of an O(N^4)-per-block transform: 8192 libm calls per
// 8x8 block. These kernels reproduce the reference's floating-point result
// BIT-FOR-BIT while running ~10-50x faster, through exactly three
// order-preserving transformations:
//
//   1. Precomputation: the cosine and alpha factors are pure functions of
//      the loop indices; they are computed once (with the very same
//      std::cos expression) into DctTables.
//   2. Hoisting: per-(u,v) invariants move out of inner loops, keeping the
//      reference's left-to-right product association:
//        term  (in[x][y] * cos(x,u)) * cos(y,v)
//   3. Loop interchange over *independent accumulators*: the (x,y) / (u,v)
//      scan order swaps so the inner dimension is contiguous, but each
//      output coefficient still receives exactly the same addends in
//      exactly the same order -- only work for DIFFERENT outputs is
//      interleaved. The AVX2 variant widens this: each SIMD lane owns one
//      output coefficient's accumulator chain, so lane-wise results equal
//      the scalar chain by construction (no re-association anywhere).
//
// The kernels translation units are compiled with -ffp-contract=off so no
// toolchain can fuse a*b+c into an FMA and change rounding behind the
// contract's back.
#pragma once

namespace pdc::kernels {

inline constexpr int kDctBlock = 8;

/// Cosine/scale tables of the forward kernels. Built once per process on
/// first use.
struct DctTables {
  /// cos_xu[x][u] = cos((2x+1) * u * pi / 16) -- same value the reference's
  /// dct_cos(x, u) returns.
  alignas(64) double cos_xu[kDctBlock][kDctBlock];
  /// scale[u][v] = (0.25 * alpha(u)) * alpha(v) -- the reference's output
  /// factor with its exact association.
  alignas(64) double scale[kDctBlock][kDctBlock];
};

[[nodiscard]] const DctTables& dct_tables() noexcept;

/// Forward 8x8 DCT-II of a level-shifted block; bit-identical to
/// kernels::ref::forward_dct. Dispatched (scalar / AVX2).
void forward_dct(const double in[kDctBlock][kDctBlock],
                 double out[kDctBlock][kDctBlock]) noexcept;

/// Undispatched scalar baseline (exposed so tests can pin SIMD == scalar
/// regardless of what active_isa() resolves to).
void forward_dct_scalar(const double in[kDctBlock][kDctBlock],
                        double out[kDctBlock][kDctBlock]) noexcept;

}  // namespace pdc::kernels
