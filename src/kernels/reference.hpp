// pdceval -- naive reference implementations: the executable spec of the
// order-preserving contract.
//
// These are the exact pre-kernel-layer app loops (cos in the innermost DCT
// loop, per-stage incremental twiddles, straight triple-loop matmul, one
// divide per MC sample). Tests assert the fast kernels reproduce them
// bit-for-bit. They are deliberately NOT optimised -- do not "fix" them,
// they are the contract.
#pragma once

#include <complex>
#include <cstdint>
#include <span>

#include "sim/rng.hpp"

namespace pdc::kernels::ref {

void forward_dct(const double in[8][8], double out[8][8]);
void inverse_dct(const double in[8][8], double out[8][8]);

/// In-place radix-2 FFT with per-butterfly incremental twiddles.
void fft1d(std::span<std::complex<double>> data, bool inverse);

/// sum of 4/(1 + x_i^2) over `count` sequential draws from `rng`.
[[nodiscard]] double inv_quad_sum(sim::Rng& rng, std::int64_t count);

/// c[m x n] = a[m x n] * b[n x n], plain i-k-j loops.
void matmul_rows(const double* a, int m, const double* b, int n, double* c);

}  // namespace pdc::kernels::ref
