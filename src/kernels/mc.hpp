// pdceval -- Monte Carlo sample evaluation kernel.
//
// The fused per-sample loop, same shape as the reference. sim::Rng is a
// splitmix-style generator whose state update is a single add, so
// consecutive draws carry no long dependency chain -- the out-of-order core
// already overlaps each sample's divide with its neighbours', leaving the
// (mandatory) serial sum chain as the only bound. Batching the divides
// (per 256-draw batch, 4-wide under AVX2) measured slower; see
// EXPERIMENTS.md.
//
// Per-sample values and accumulation order match the reference exactly, so
// results are bit-identical everywhere.
#pragma once

#include <cstdint>

#include "sim/rng.hpp"

namespace pdc::kernels {

/// sum of 4/(1 + x_i^2) over `count` sequential draws from `rng`;
/// bit-identical to kernels::ref::inv_quad_sum.
[[nodiscard]] double inv_quad_sum(sim::Rng& rng, std::int64_t count);

}  // namespace pdc::kernels
