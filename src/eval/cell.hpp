// pdceval -- first-class evaluation-cell schema with canonical binary
// serialization.
//
// Every result this repo produces comes from a *cell*: one deterministic
// simulation fully described by pure data -- (tool, platform,
// primitive/app, sizes, procs, fault plan, seed). PRs 1-8 pinned
// bit-identical replay for every cell at any thread count, which makes a
// cell's result a pure function of its spec: the perfect memoization key.
// This header gives cells one shared shape (`CellSpec` wraps the existing
// TplCell / AppCell / SchedCell grids) plus a canonical little-endian byte
// encoding, so the evaluation service (src/evald) can content-address
// results by hashing the encoded spec together with a model-version
// constant.
//
// Canonical means: two specs encode to the same bytes iff they describe
// the same cell, the encoding is identical across platforms (fixed-width
// little-endian integers, IEEE-754 doubles via bit_cast; see
// eval/byte_codec.hpp), and decoding is the exact inverse: it accepts only
// byte strings that re-encode to themselves. Results (`CellResult`) get
// the same treatment so the store's byte-compare IS the
// bit-identical-result guarantee.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "eval/apl.hpp"
#include "eval/sched_cell.hpp"
#include "eval/sweep.hpp"

namespace pdc::eval {

/// Version of the *semantics* behind cell results: the simulator kernel,
/// message-passing cost models, network models, kernels layer and
/// scheduler. Bump whenever a change makes any cell produce different
/// bytes -- the evaluation store hashes this constant into every content
/// address and discards a persisted store written under a different
/// version, so a stale cache can never serve old bytes. History: 9 == the
/// PR-9 tree (first versioned release of the schema).
inline constexpr std::uint64_t kModelVersion = 9;

enum class CellType : std::uint8_t { Tpl = 1, App = 2, Sched = 3 };

[[nodiscard]] const char* to_string(CellType t);

/// One evaluation cell of any kind. A tagged wrapper (not a variant) so
/// the three grids keep their existing types and call sites; only the
/// branch named by `type` is meaningful.
struct CellSpec {
  CellType type{CellType::Tpl};
  TplCell tpl{};
  AppCell app{};
  AplConfig apl{};  ///< app-cell workload sizes (part of the key)
  SchedCell sched{};

  [[nodiscard]] static CellSpec of(const TplCell& c) {
    CellSpec s;
    s.type = CellType::Tpl;
    s.tpl = c;
    return s;
  }
  [[nodiscard]] static CellSpec of(const AppCell& c, const AplConfig& cfg = {}) {
    CellSpec s;
    s.type = CellType::App;
    s.app = c;
    s.apl = cfg;
    return s;
  }
  [[nodiscard]] static CellSpec of(const SchedCell& c) {
    CellSpec s;
    s.type = CellType::Sched;
    s.sched = c;
    return s;
  }
};

/// Outcome of running one cell. `status` distinguishes a value, a
/// tool-unsupported hole (PVM's global sum: a real answer, not a failure)
/// and an execution error (infeasible spec); errors are cached too --
/// negative caching -- so known-failing specs never re-simulate.
enum class CellStatus : std::uint8_t { Ok = 0, Unsupported = 1, Error = 2 };

struct CellResult {
  CellType type{CellType::Tpl};
  CellStatus status{CellStatus::Ok};
  std::string error;        ///< what() of the failure (Status::Error only)
  double tpl_ms{0.0};       ///< Tpl cells, Status::Ok
  double app_s{0.0};        ///< App cells, Status::Ok
  SchedCellOutcome sched{};  ///< Sched cells, Status::Ok

  friend bool operator==(const CellResult& a, const CellResult& b) {
    return encode_equal(a, b);
  }

 private:
  static bool encode_equal(const CellResult& a, const CellResult& b);
};

// -- canonical byte codec ---------------------------------------------------

/// Encode `spec` to its canonical byte string.
[[nodiscard]] std::vector<std::byte> encode_spec(const CellSpec& spec);

/// Inverse of encode_spec; nullopt on malformed/truncated/trailing bytes.
[[nodiscard]] std::optional<CellSpec> decode_spec(std::span<const std::byte> bytes);

/// Encode `result` to its canonical byte string. Two results are
/// bit-identical iff their encodings are byte-equal.
[[nodiscard]] std::vector<std::byte> encode_result(const CellResult& result);

/// Inverse of encode_result; nullopt on malformed input.
[[nodiscard]] std::optional<CellResult> decode_result(std::span<const std::byte> bytes);

/// Content address of an encoded spec under `model_version`: 64-bit
/// FNV-1a over the version's little-endian bytes followed by the spec
/// bytes. Collisions are resolved by the store's spec byte-compare; the
/// version in the hash makes every address change on a model bump.
[[nodiscard]] std::uint64_t cell_key(std::span<const std::byte> spec_bytes,
                                     std::uint64_t model_version = kModelVersion);

// -- execution --------------------------------------------------------------

/// Run one cell of any kind. Never throws: an infeasible spec (more procs
/// than the platform has nodes, bad sizes) comes back as Status::Error
/// with the exception text, which the store caches negatively.
[[nodiscard]] CellResult run_cell(const CellSpec& spec);

/// Run every cell across `threads` workers (see sweep_threads), each
/// result at its cell's index, so the output is element-for-element
/// identical to a serial run_cell loop at any width. Never throws: a
/// failing cell is Status::Error in its own slot.
[[nodiscard]] std::vector<CellResult> sweep(std::span<const CellSpec> specs,
                                            unsigned threads = 0);

/// The paper's Table 3 send/receive grid as cell specs: every tool x
/// platform x paper message size. The canonical warm-up sweep for the
/// evaluation service (pdceval --warm table3).
[[nodiscard]] std::vector<CellSpec> table3_grid();

}  // namespace pdc::eval
