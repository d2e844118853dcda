// Test oracles for the JPEG app: decode a compress() symbol stream back to
// pixels and score it against the original. No evaluation decompresses, so
// these live with the tests; the decoder runs the naive reference inverse
// DCT (kernels::ref::inverse_dct).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "apps/jpeg/codec.hpp"
#include "kernels/reference.hpp"

namespace pdc::apps::jpeg::oracle {

/// Decompress a symbol stream produced by compress() back to an image.
/// Throws std::invalid_argument on a malformed stream.
inline Image decompress(std::span<const std::int16_t> stream, int width, int height,
                        int quality) {
  if (width % kBlock != 0 || height % kBlock != 0) {
    throw std::invalid_argument("decompress: bad dimensions");
  }
  const auto quant = quant_table(quality);
  Image img{width, height,
            std::vector<std::uint8_t>(static_cast<std::size_t>(width) *
                                      static_cast<std::size_t>(height))};
  double coeffs[kBlock][kBlock];
  double block[kBlock][kBlock];
  std::size_t pos = 0;
  for (int by = 0; by < height; by += kBlock) {
    for (int bx = 0; bx < width; bx += kBlock) {
      for (auto& row : coeffs) std::fill(row, row + kBlock, 0.0);
      int i = 0;
      while (true) {
        if (pos >= stream.size()) throw std::invalid_argument("decompress: truncated stream");
        const std::int16_t sym = stream[pos++];
        if (sym == kEndOfBlock) break;
        if (pos >= stream.size()) throw std::invalid_argument("decompress: truncated pair");
        i += sym;  // zero run
        if (i >= kBlock * kBlock) throw std::invalid_argument("decompress: run overflow");
        const int idx = kZigzag[i];
        coeffs[idx / kBlock][idx % kBlock] =
            static_cast<double>(stream[pos++]) *
            static_cast<double>(quant[static_cast<std::size_t>(idx)]);
        ++i;
      }
      kernels::ref::inverse_dct(coeffs, block);
      for (int x = 0; x < kBlock; ++x) {
        for (int y = 0; y < kBlock; ++y) {
          img.pixels[static_cast<std::size_t>(by + x) * static_cast<std::size_t>(width) +
                     static_cast<std::size_t>(bx + y)] =
              static_cast<std::uint8_t>(std::clamp(block[x][y] + 128.0, 0.0, 255.0));
        }
      }
    }
  }
  if (pos != stream.size()) throw std::invalid_argument("decompress: trailing data");
  return img;
}

/// Peak signal-to-noise ratio between two equal-sized images (dB).
inline double psnr(const Image& a, const Image& b) {
  if (a.width != b.width || a.height != b.height) {
    throw std::invalid_argument("psnr: size mismatch");
  }
  double mse = 0.0;
  for (std::size_t i = 0; i < a.pixels.size(); ++i) {
    const double d = static_cast<double>(a.pixels[i]) - static_cast<double>(b.pixels[i]);
    mse += d * d;
  }
  mse /= static_cast<double>(a.pixels.size());
  if (mse == 0.0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace pdc::apps::jpeg::oracle
