// pdceval -- runtime ISA dispatch for the compute-kernel layer.
//
// The kernels in pdc::kernels come in a scalar baseline plus (when the
// build enables PDC_SIMD and the compiler can target AVX2) a SIMD variant.
// Dispatch is resolved once per query from three gates:
//   1. compile time: was an AVX2 translation unit built at all?
//   2. run time:     does this CPU report AVX2 (cpuid)?
//   3. override:     force_scalar(true) or the PDC_FORCE_SCALAR env var.
// Every SIMD kernel is bit-identical to its scalar twin by construction --
// lanes only ever carry *independent* work items (distinct output
// coefficients, distinct samples), never re-associated partial sums -- so
// flipping the dispatch must not change a single output byte. Tests pin
// that on both paths.
#pragma once

namespace pdc::kernels {

enum class Isa { Scalar, Avx2 };

[[nodiscard]] const char* to_string(Isa isa) noexcept;

/// The ISA the dispatched kernels will use for the next call on this
/// thread (all three gates applied).
[[nodiscard]] Isa active_isa() noexcept;

/// True when a SIMD translation unit was compiled in (PDC_SIMD=ON and the
/// toolchain supports it); independent of the runtime cpuid check.
[[nodiscard]] bool simd_compiled() noexcept;

/// Test hook: pin dispatch to the scalar baseline (process-wide).
/// Also settable from the environment: PDC_FORCE_SCALAR=1.
void force_scalar(bool on) noexcept;

}  // namespace pdc::kernels
