#include "kernels/reference.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace pdc::kernels::ref {

namespace {

double dct_cos(int x, int u) {
  return std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
}

double alpha(int u) { return u == 0 ? 1.0 / std::numbers::sqrt2 : 1.0; }

}  // namespace

void forward_dct(const double in[8][8], double out[8][8]) {
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double sum = 0.0;
      for (int x = 0; x < 8; ++x) {
        for (int y = 0; y < 8; ++y) {
          sum += in[x][y] * dct_cos(x, u) * dct_cos(y, v);
        }
      }
      out[u][v] = 0.25 * alpha(u) * alpha(v) * sum;
    }
  }
}

void inverse_dct(const double in[8][8], double out[8][8]) {
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double sum = 0.0;
      for (int u = 0; u < 8; ++u) {
        for (int v = 0; v < 8; ++v) {
          sum += alpha(u) * alpha(v) * in[u][v] * dct_cos(x, u) * dct_cos(y, v);
        }
      }
      out[x][y] = 0.25 * sum;
    }
  }
}

void fft1d(std::span<std::complex<double>> data, bool inverse) {
  using Complex = std::complex<double>;
  const std::size_t n = data.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("ref::fft1d: size must be a power of two");
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (inverse ? 1.0 : -1.0);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

double inv_quad_sum(sim::Rng& rng, std::int64_t count) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const double x = rng.next_double();
    sum += 4.0 / (1.0 + x * x);
  }
  return sum;
}

}  // namespace pdc::kernels::ref
