// pdcevald -- content-addressed memoized cell store.
//
// The hot path of the evaluation service: an open-addressing in-memory
// index (power-of-two capacity, linear probing, 64-bit cell keys) over an
// append-only record log. The log lives in a store file when a path is
// given -- read back via mmap on open, appended to on every insert, each
// record CRC32-framed so a torn tail from a crash is detected and
// truncated away -- or purely in memory when the path is empty.
//
// Content addressing: the index key is eval::cell_key(spec bytes, model
// version) and every entry carries its full canonical spec bytes, so a
// hash collision degrades to a spec byte-compare, never to a wrong
// answer. Negative entries memoize known-failing specs (encoded error
// results), so infeasible cells cost one probe instead of one simulation.
//
// Versioning: the store file header records the model version it was
// written under. Opening a store written under any other version discards
// the contents and starts fresh -- a bumped model can never serve stale
// bytes (tests pin this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

namespace pdc::evald {

struct StoreStats {
  std::uint64_t entries{0};           ///< live index entries
  std::uint64_t negative_entries{0};  ///< of which: memoized failures
  std::uint64_t hits{0};
  std::uint64_t negative_hits{0};     ///< hits that were negative entries
  std::uint64_t misses{0};
  std::uint64_t inserts{0};
  std::uint64_t invalidated{0};       ///< entries dropped by invalidation
  std::uint64_t probe_steps{0};       ///< index probes beyond the home slot
  std::uint64_t log_bytes{0};         ///< append-only log size (disk + tail)
  std::uint64_t recovered{0};         ///< entries replayed from disk at open
  std::uint64_t discarded_stale{0};   ///< entries dropped by a version bump
  /// Log bytes cut away at open: the first torn or corrupt record and every
  /// record after it. Nonzero means replay lost data (a crash tears only the
  /// tail; a bad byte mid-log also drops the intact records behind it).
  std::uint64_t truncated_bytes{0};
};

/// A served result: the canonical result bytes plus whether the entry was
/// a negative (memoized failure) record.
struct Cached {
  std::vector<std::byte> result;
  bool negative{false};
};

class Store {
 public:
  /// Open (or create) the store at `path`; an empty path keeps the store
  /// purely in memory. Throws std::runtime_error when the file cannot be
  /// opened or created.
  explicit Store(std::string path = {}, std::uint64_t model_version = 0);
  ~Store();
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Look up the entry for (key, spec bytes); nullopt on miss. Thread-safe
  /// against concurrent lookups and inserts.
  [[nodiscard]] std::optional<Cached> lookup(std::uint64_t key,
                                             std::span<const std::byte> spec) const;

  /// Insert a result for (key, spec bytes). Idempotent: if an entry for
  /// the spec already exists (a concurrent request computed it first), the
  /// existing entry wins -- results are deterministic, so the bytes match.
  void insert(std::uint64_t key, std::span<const std::byte> spec,
              std::span<const std::byte> result, bool negative);

  /// Drop one entry; true if it existed. Appends a tombstone record so the
  /// invalidation survives reopen.
  bool invalidate(std::uint64_t key, std::span<const std::byte> spec);

  /// Drop everything (model re-calibration, operator reset). Truncates the
  /// log file to a fresh header. Returns the number of entries dropped.
  std::uint64_t invalidate_all();

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::uint64_t model_version() const noexcept { return model_version_; }

 private:
  struct Slot {
    std::uint64_t key{0};
    std::uint32_t record{kEmpty};  ///< index into records_
    static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  };
  struct Record {
    std::vector<std::byte> spec;
    std::vector<std::byte> result;
    bool negative{false};
    bool dead{false};
  };

  void load_log_locked();
  void append_record_locked(std::uint8_t kind, std::uint64_t key,
                            std::span<const std::byte> spec,
                            std::span<const std::byte> result);
  void reset_log_locked();
  /// Rebuild the index at `capacity` slots (a power of two), dropping dead
  /// slots; afterwards occupied_ == live_.
  void rehash_index_locked(std::size_t capacity);
  /// Probe for `spec`; returns the slot index holding it, or the first
  /// free slot on its probe path (key absent). Requires capacity > size.
  [[nodiscard]] std::size_t probe_locked(std::uint64_t key,
                                         std::span<const std::byte> spec) const;
  void insert_locked(std::uint64_t key, std::span<const std::byte> spec,
                     std::span<const std::byte> result, bool negative, bool persist);
  bool erase_locked(std::uint64_t key, std::span<const std::byte> spec, bool persist);

  std::string path_;
  std::uint64_t model_version_{0};
  int fd_{-1};

  mutable std::shared_mutex mu_;
  std::vector<Slot> slots_;
  std::vector<Record> records_;
  std::size_t occupied_{0};  ///< slots holding any record, live or dead
  std::size_t live_{0};
  std::size_t negative_{0};
  std::uint64_t log_bytes_{0};

  mutable std::mutex stats_mu_;
  mutable StoreStats stats_;
};

}  // namespace pdc::evald
