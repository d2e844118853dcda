#include "apps/jpeg/codec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kernels/dct.hpp"
#include "kernels/hostwork.hpp"
#include "sim/rng.hpp"

namespace pdc::apps::jpeg {

namespace {

// Standard JPEG Annex K luminance quantisation table.
constexpr int kBaseQuant[kBlock * kBlock] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

}  // namespace

Image make_test_image(int width, int height, std::uint64_t seed) {
  if (width <= 0 || height <= 0) throw std::invalid_argument("make_test_image: bad size");
  Image img{width, height, std::vector<std::uint8_t>(
                               static_cast<std::size_t>(width) * static_cast<std::size_t>(height))};
  sim::Rng rng(seed);
  // Smooth background + low-frequency blobs + a few hard edges + noise:
  // compresses like a photograph rather than like random bytes.
  const double cx = width * 0.4, cy = height * 0.6;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      double v = 96.0 + 48.0 * std::sin(x * 0.021) * std::cos(y * 0.017);
      const double d = std::hypot(x - cx, y - cy);
      v += 64.0 * std::exp(-d * d / (0.02 * width * width));
      if ((x / 32 + y / 32) % 7 == 0) v += 40.0;  // blocky structure
      v += (rng.next_double() - 0.5) * 12.0;      // sensor noise
      img.pixels[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                 static_cast<std::size_t>(x)] =
          static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
    }
  }
  return img;
}

void forward_dct(const double in[kBlock][kBlock], double out[kBlock][kBlock]) {
  kernels::forward_dct(in, out);
}

std::array<int, kBlock * kBlock> quant_table(int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, kBlock * kBlock> q{};
  for (int i = 0; i < kBlock * kBlock; ++i) {
    q[static_cast<std::size_t>(i)] = std::clamp((kBaseQuant[i] * scale + 50) / 100, 1, 255);
  }
  return q;
}

namespace {

/// Reusable per-strip scratch: the block pipeline (level-shift -> DCT ->
/// zigzag/quantise/RLE) runs every block through these two stack arrays and
/// the quantiser divisors precomputed once per strip. The divisor is the
/// same int-table entry converted to double once instead of per
/// coefficient -- bit-identical division, fewer int->fp conversions.
struct BlockScratch {
  double block[kBlock][kBlock];
  double coeffs[kBlock][kBlock];
  double quant[kBlock * kBlock];

  explicit BlockScratch(int quality) {
    const auto q = quant_table(quality);
    for (int i = 0; i < kBlock * kBlock; ++i) {
      quant[i] = static_cast<double>(q[static_cast<std::size_t>(i)]);
    }
  }
};

void encode_block(const Image& img, int bx, int by, BlockScratch& s,
                  std::vector<std::int16_t>& out) {
  for (int x = 0; x < kBlock; ++x) {
    for (int y = 0; y < kBlock; ++y) {
      s.block[x][y] = static_cast<double>(img.at(bx + y, by + x)) - 128.0;
    }
  }
  forward_dct(s.block, s.coeffs);
  // Zigzag + quantise + RLE: (zero-run, value) pairs, EOB sentinel.
  std::int16_t run = 0;
  for (int i = 0; i < kBlock * kBlock; ++i) {
    const int idx = kZigzag[i];
    const double c = s.coeffs[idx / kBlock][idx % kBlock];
    const auto quantised = static_cast<std::int16_t>(std::lround(c / s.quant[idx]));
    if (quantised == 0) {
      ++run;
      continue;
    }
    out.push_back(run);
    out.push_back(quantised);
    run = 0;
  }
  out.push_back(kEndOfBlock);
}

}  // namespace

std::vector<std::int16_t> compress_rows(const Image& img, int row_begin, int row_end,
                                        int quality) {
  if (img.width % kBlock != 0 || img.height % kBlock != 0) {
    throw std::invalid_argument("compress: image dimensions must be multiples of 8");
  }
  if (row_begin % kBlock != 0 || row_end % kBlock != 0 || row_begin < 0 ||
      row_end > img.height || row_begin > row_end) {
    throw std::invalid_argument("compress_rows: row range must align to 8-row strips");
  }
  kernels::ScopedHostWork probe;
  BlockScratch scratch(quality);
  std::vector<std::int16_t> out;
  out.reserve(static_cast<std::size_t>((row_end - row_begin)) *
              static_cast<std::size_t>(img.width) / 8);
  for (int by = row_begin; by < row_end; by += kBlock) {
    for (int bx = 0; bx < img.width; bx += kBlock) {
      encode_block(img, bx, by, scratch, out);
    }
  }
  return out;
}

std::vector<std::int16_t> compress(const Image& img, int quality) {
  return compress_rows(img, 0, img.height, quality);
}

}  // namespace pdc::apps::jpeg
