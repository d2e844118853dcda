#include "kernels/mc.hpp"

#include "kernels/hostwork.hpp"

namespace pdc::kernels {

double inv_quad_sum(sim::Rng& rng, std::int64_t count) {
  const ScopedHostWork probe;
  // Fused per-sample loop, same shape as the reference -- measured fastest
  // (see mc.hpp and EXPERIMENTS.md). The independent work per
  // iteration (state mix, square, divide) pipelines across iterations in
  // the out-of-order core; only the sum chain is serial, and that chain is
  // mandatory under the order-preserving contract.
  double sum = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    const double x = rng.next_double();
    sum += 4.0 / (1.0 + x * x);
  }
  return sum;
}

}  // namespace pdc::kernels
