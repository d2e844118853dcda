#include "evald/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "eval/byte_codec.hpp"
#include "evald/checksum.hpp"

namespace pdc::evald {

namespace {

constexpr std::uint32_t kMagic = 0x45434450u;  // "PDCE" little-endian
constexpr std::uint32_t kFormat = 1;
constexpr std::size_t kHeaderBytes = 16;
/// Header bytes that say "this is a store": magic and format. The version
/// that follows may be any.
constexpr std::size_t kIdentBytes = 8;

constexpr std::uint8_t kRecEntry = 1;
constexpr std::uint8_t kRecNegative = 2;
constexpr std::uint8_t kRecTombstone = 3;

constexpr std::uint32_t kMaxRecordPayload = 64u << 20;

struct LogHeader {
  std::uint32_t magic{0};
  std::uint32_t format{0};
  std::uint64_t version{0};
};

constexpr auto header_fields = [](auto& io, auto& h) {
  io.u32(h.magic);
  io.u32(h.format);
  io.u64(h.version);
};

/// One log record: the payload of one frame. Decoded records view the
/// mapped log; nothing is copied until the index takes the bytes.
struct LogRecord {
  std::uint8_t kind{0};
  std::uint64_t key{0};
  std::span<const std::byte> spec;
  std::span<const std::byte> result;
};

constexpr auto record_fields = [](auto& io, auto& rec) {
  auto spec_len = static_cast<std::uint32_t>(rec.spec.size());
  auto result_len = static_cast<std::uint32_t>(rec.result.size());
  io.u8(rec.kind);
  io.u64(rec.key);
  io.u32(spec_len);
  io.u32(result_len);
  io.raw(rec.spec, spec_len);
  io.raw(rec.result, result_len);
};

bool write_all(int fd, const std::byte* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Store::Store(std::string path, std::uint64_t model_version)
    : path_(std::move(path)), model_version_(model_version) {
  slots_.resize(64);
  if (path_.empty()) return;
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw std::runtime_error("evald::Store: cannot open " + path_);
  try {
    load_log_locked();
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

Store::~Store() {
  if (fd_ >= 0) ::close(fd_);
}

void Store::reset_log_locked() {
  if (fd_ < 0) return;
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) != 0) {
    throw std::runtime_error("evald::Store: cannot reset " + path_);
  }
  const auto header =
      eval::encode_with(LogHeader{kMagic, kFormat, model_version_}, header_fields);
  if (!write_all(fd_, header.data(), header.size())) {
    throw std::runtime_error("evald::Store: cannot write header to " + path_);
  }
  log_bytes_ = kHeaderBytes;
}

void Store::load_log_locked() {
  struct stat st{};
  if (::fstat(fd_, &st) != 0) throw std::runtime_error("evald::Store: fstat failed");
  const auto size = static_cast<std::size_t>(st.st_size);
  const auto foreign = [&] {
    return std::runtime_error("evald::Store: " + path_ +
                              " is not a store (bad magic or format); left untouched");
  };
  if (size < kHeaderBytes) {
    // Empty, or a creation cut short by a crash: its bytes must be a prefix
    // of a valid header. Anything else is someone else's file.
    const auto expected =
        eval::encode_with(LogHeader{kMagic, kFormat, model_version_}, header_fields);
    std::byte head[kHeaderBytes];
    if (::pread(fd_, head, size, 0) != static_cast<ssize_t>(size)) {
      throw std::runtime_error("evald::Store: cannot read " + path_);
    }
    if (std::memcmp(head, expected.data(), std::min(size, kIdentBytes)) != 0) throw foreign();
    reset_log_locked();
    return;
  }

  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (map == MAP_FAILED) throw std::runtime_error("evald::Store: mmap failed");
  const std::span<const std::byte> log(static_cast<const std::byte*>(map), size);

  const auto header = eval::decode_with<LogHeader>(log.first(kHeaderBytes), header_fields);
  if (!header || header->magic != kMagic || header->format != kFormat) {
    ::munmap(map, size);
    throw foreign();
  }
  const bool version_ok = header->version == model_version_;

  // Replay every intact record; stop at the first torn or corrupt one (a
  // crashed writer leaves at most a broken tail) and truncate it away.
  std::size_t valid_end = kHeaderBytes;
  std::uint64_t replayed = 0;
  for (;;) {
    const auto payload = unframe(log.subspan(valid_end), kMaxRecordPayload);
    if (!payload) break;
    const auto rec = eval::decode_with<LogRecord>(*payload, record_fields);
    if (!rec) break;
    valid_end += payload->size() + kFrameOverhead;
    ++replayed;
    if (!version_ok) continue;  // stale store: count and discard below

    if (rec->kind == kRecEntry || rec->kind == kRecNegative) {
      insert_locked(rec->key, rec->spec, rec->result, rec->kind == kRecNegative,
                    /*persist=*/false);
    } else if (rec->kind == kRecTombstone) {
      erase_locked(rec->key, rec->spec, /*persist=*/false);
    }
  }
  ::munmap(map, size);

  if (!version_ok) {
    // Different model version: never serve its bytes.
    stats_.discarded_stale += replayed;
    reset_log_locked();
    return;
  }
  stats_.recovered = live_;
  stats_.truncated_bytes = size - valid_end;
  if (valid_end != size) {
    if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0) {
      throw std::runtime_error("evald::Store: cannot truncate torn tail of " + path_);
    }
  }
  if (::lseek(fd_, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    throw std::runtime_error("evald::Store: lseek failed on " + path_);
  }
  log_bytes_ = valid_end;
}

void Store::append_record_locked(std::uint8_t kind, std::uint64_t key,
                                 std::span<const std::byte> spec,
                                 std::span<const std::byte> result) {
  if (fd_ < 0) return;
  const std::vector<std::byte> buf =
      frame(eval::encode_with(LogRecord{kind, key, spec, result}, record_fields));
  if (!write_all(fd_, buf.data(), buf.size())) {
    // A partial write (e.g. ENOSPC mid-record) leaves a torn record at the
    // tail; truncate back to the last good boundary so later appends stay
    // replayable instead of landing after the torn record and being
    // silently dropped at the next replay. If even the rollback fails,
    // stop persisting -- in-memory service continues.
    if (::ftruncate(fd_, static_cast<off_t>(log_bytes_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(log_bytes_), SEEK_SET) < 0) {
      ::close(fd_);
      fd_ = -1;
    }
    throw std::runtime_error("evald::Store: append failed on " + path_);
  }
  log_bytes_ += buf.size();
}

std::size_t Store::probe_locked(std::uint64_t key, std::span<const std::byte> spec) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(key) & mask;
  std::size_t steps = 0;
  for (;;) {
    const Slot& s = slots_[i];
    if (s.record == Slot::kEmpty) break;
    if (s.key == key) {
      const Record& r = records_[s.record];
      if (r.spec.size() == spec.size() &&
          std::memcmp(r.spec.data(), spec.data(), spec.size()) == 0) {
        break;
      }
    }
    i = (i + 1) & mask;
    ++steps;
  }
  if (steps > 0) {
    const std::scoped_lock lock(stats_mu_);
    stats_.probe_steps += steps;
  }
  return i;
}

void Store::rehash_index_locked(std::size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.record == Slot::kEmpty) continue;
    if (records_[s.record].dead) {
      // The dead record loses its last reference here; release its spec
      // bytes too (erase already released the result).
      records_[s.record].spec.clear();
      records_[s.record].spec.shrink_to_fit();
      continue;
    }
    std::size_t i = static_cast<std::size_t>(s.key) & mask;
    while (slots_[i].record != Slot::kEmpty) i = (i + 1) & mask;
    slots_[i] = s;
  }
  occupied_ = live_;
}

std::optional<Cached> Store::lookup(std::uint64_t key, std::span<const std::byte> spec) const {
  {
    const std::shared_lock lock(mu_);
    const std::size_t i = probe_locked(key, spec);
    const Slot& s = slots_[i];
    if (s.record != Slot::kEmpty && !records_[s.record].dead) {
      const Record& r = records_[s.record];
      Cached out{r.result, r.negative};
      const std::scoped_lock stats_lock(stats_mu_);
      ++stats_.hits;
      if (r.negative) ++stats_.negative_hits;
      return out;
    }
  }
  const std::scoped_lock stats_lock(stats_mu_);
  ++stats_.misses;
  return std::nullopt;
}

void Store::insert_locked(std::uint64_t key, std::span<const std::byte> spec,
                          std::span<const std::byte> result, bool negative, bool persist) {
  // The 70% threshold counts occupied slots (live + dead), not just live
  // entries: invalidated entries keep their slots until a rehash, so an
  // invalidate+insert churn could otherwise fill every slot while live_
  // stays low and leave probe_locked spinning on any absent key. When the
  // table is mostly dead, rehash at the same capacity -- that alone
  // reclaims the dead slots.
  if (occupied_ + 1 > slots_.size() * 7 / 10) {
    const bool need_more = live_ + 1 > slots_.size() * 7 / 10;
    rehash_index_locked(need_more ? slots_.size() * 2 : slots_.size());
  }
  const std::size_t i = probe_locked(key, spec);
  Slot& s = slots_[i];
  if (s.record != Slot::kEmpty) {
    Record& r = records_[s.record];
    if (!r.dead) return;  // first writer wins; results are deterministic
    // Revive an invalidated entry in place (keeps the probe chain intact;
    // erase already cleared its negative flag and count).
    r.result.assign(result.begin(), result.end());
    r.negative = negative;
    r.dead = false;
  } else {
    Record r;
    r.spec.assign(spec.begin(), spec.end());
    r.result.assign(result.begin(), result.end());
    r.negative = negative;
    s.key = key;
    s.record = static_cast<std::uint32_t>(records_.size());
    records_.push_back(std::move(r));
    ++occupied_;
  }
  ++live_;
  if (negative) ++negative_;
  if (persist) append_record_locked(negative ? kRecNegative : kRecEntry, key, spec, result);
}

void Store::insert(std::uint64_t key, std::span<const std::byte> spec,
                   std::span<const std::byte> result, bool negative) {
  const std::unique_lock lock(mu_);
  const std::size_t before = live_;
  insert_locked(key, spec, result, negative, /*persist=*/true);
  if (live_ != before) {
    const std::scoped_lock stats_lock(stats_mu_);
    ++stats_.inserts;
  }
}

bool Store::erase_locked(std::uint64_t key, std::span<const std::byte> spec, bool persist) {
  const std::size_t i = probe_locked(key, spec);
  const Slot& s = slots_[i];
  if (s.record == Slot::kEmpty || records_[s.record].dead) return false;
  Record& r = records_[s.record];
  r.dead = true;
  r.result.clear();
  r.result.shrink_to_fit();
  --live_;
  if (r.negative) {
    --negative_;
    r.negative = false;
  }
  if (persist) append_record_locked(kRecTombstone, key, spec, {});
  return true;
}

bool Store::invalidate(std::uint64_t key, std::span<const std::byte> spec) {
  const std::unique_lock lock(mu_);
  const bool erased = erase_locked(key, spec, /*persist=*/true);
  if (erased) {
    const std::scoped_lock stats_lock(stats_mu_);
    ++stats_.invalidated;
  }
  return erased;
}

std::uint64_t Store::invalidate_all() {
  const std::unique_lock lock(mu_);
  const std::uint64_t dropped = live_;
  slots_.assign(64, Slot{});
  records_.clear();
  occupied_ = 0;
  live_ = 0;
  negative_ = 0;
  reset_log_locked();
  const std::scoped_lock stats_lock(stats_mu_);
  stats_.invalidated += dropped;
  return dropped;
}

StoreStats Store::stats() const {
  const std::shared_lock lock(mu_);
  const std::scoped_lock stats_lock(stats_mu_);
  StoreStats out = stats_;
  out.entries = live_;
  out.negative_entries = negative_;
  out.log_bytes = log_bytes_;
  return out;
}

std::size_t Store::entries() const {
  const std::shared_lock lock(mu_);
  return live_;
}

}  // namespace pdc::evald
