// pdceval -- JPEG-style image compression (SU PDABS, paper Section 3.3.1).
//
// A real DCT-based codec: 8x8 forward DCT, standard luminance quantisation,
// zigzag scan, zero run-length encoding. Grayscale, no Huffman stage (the
// RLE symbol stream is the "compressed" artefact) -- enough to exercise the
// same data movement and per-block computation structure as the paper's
// JPEG simulation. The stream is invertible up to quantisation error; the
// decoder is a test oracle (tests/jpeg_oracle.hpp), since no evaluation
// decompresses.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pdc::apps::jpeg {

inline constexpr int kBlock = 8;

struct Image {
  int width{0};
  int height{0};
  std::vector<std::uint8_t> pixels;  // row-major, width*height

  [[nodiscard]] std::uint8_t at(int x, int y) const {
    return pixels[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
                  static_cast<std::size_t>(x)];
  }
};

/// Deterministic synthetic photo-like test image (smooth gradients +
/// texture + edges), seeded.
[[nodiscard]] Image make_test_image(int width, int height, std::uint64_t seed);

/// Forward 8x8 DCT-II of a (level-shifted) block; bit-identical to the
/// naive O(n^4) kernels::ref::forward_dct.
void forward_dct(const double in[kBlock][kBlock], double out[kBlock][kBlock]);

/// Zigzag scan order of an 8x8 block's coefficients in the symbol stream.
inline constexpr int kZigzag[kBlock * kBlock] = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,   //
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,  //
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,  //
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

/// Symbol that ends a block; every other block symbol is a (zero-run,
/// quantised value) pair.
inline constexpr std::int16_t kEndOfBlock = std::int16_t{-32768};

/// Standard JPEG luminance quantisation table scaled by quality (1..100).
[[nodiscard]] std::array<int, kBlock * kBlock> quant_table(int quality);

/// Compress a whole image (dimensions must be multiples of 8).
[[nodiscard]] std::vector<std::int16_t> compress(const Image& img, int quality);

/// Compress only rows [row_begin, row_end) -- the unit of parallel work.
[[nodiscard]] std::vector<std::int16_t> compress_rows(const Image& img, int row_begin,
                                                      int row_end, int quality);

/// Modelled computational cost of one 8x8 block (DCT + quantisation +
/// entropy coding in unoptimised 1995 C), in flops. Calibrated so a serial
/// 512x512 compression takes ~4.2 s on the paper's 150 MHz Alpha.
inline constexpr double kFlopsPerBlock = 41000.0;

[[nodiscard]] inline double blocks_in(int width, int height) {
  return (static_cast<double>(width) / kBlock) * (static_cast<double>(height) / kBlock);
}

}  // namespace pdc::apps::jpeg
