// pdceval -- typed mailbox with predicate matching.
//
// The core blocking primitive for message passing: a process awaits
// `recv(matcher)` and is resumed when a matching item is pushed. Unmatched
// items queue in arrival order; waiters are served in arrival order. This
// mirrors tag/source matching in real message-passing systems (p4 type
// matching, PVM tag matching, Express types).
//
// Under many-to-one traffic at large P the unmatched queue can hold O(P)
// items, and a naive linear scan per recv makes matching O(P^2). A mailbox
// constructed with a bucket-key extractor keeps a per-key index over the
// queue (for messages: the source rank); matchers that declare a bucket
// hint (`bucket_key()`, see MatchPred) then scan only their own bucket.
// Arrival order is preserved exactly -- the bucket index stores queue
// sequence numbers, and the oldest matching item wins in both paths -- so
// bucketed and unbucketed matching produce identical results, bucketing
// only changes how many items a scan has to look at.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace pdc::sim {

/// Bucket hint meaning "no bucket": the matcher may accept items from any
/// bucket, so matching must scan the whole queue.
inline constexpr int kAnyBucket = std::numeric_limits<int>::min();

/// Matching telemetry for one mailbox (or summed over a runtime's
/// mailboxes). `items_scanned / matches` is the cost of a match: ~1 when
/// bucketed lookups hit, O(queue depth) when linear scans dominate.
struct MailboxStats {
  std::uint64_t pushes{0};         ///< items delivered into the mailbox
  std::uint64_t matches{0};        ///< items taken out of the unmatched queue
  std::uint64_t items_scanned{0};  ///< queue entries examined across those takes
  std::uint64_t max_depth{0};      ///< peak unmatched-queue depth
  std::uint64_t compactions{0};    ///< tombstone-compaction passes over the queue

  /// Sums the counters; peak depth merges as a max (it is a high-water
  /// mark, not a flow). Both operations are order-independent, so summed
  /// stats are identical for any sweep thread count.
  MailboxStats& operator+=(const MailboxStats& o) noexcept {
    pushes += o.pushes;
    matches += o.matches;
    items_scanned += o.items_scanned;
    max_depth = max_depth > o.max_depth ? max_depth : o.max_depth;
    compactions += o.compactions;
    return *this;
  }
  friend bool operator==(const MailboxStats&, const MailboxStats&) = default;
};

/// Non-allocating match predicate: a function pointer plus a small inline
/// context, copied by value. Constructible from any trivially-copyable
/// callable of at most kCtxBytes (a captureless lambda, a `[src, tag]`
/// capture, or a named POD like `mp::TagSourceMatch`). Replaces
/// `std::function<bool(const T&)>`, which heap-allocated per recv.
///
/// A callable exposing `int bucket_key() const` additionally carries a
/// bucket hint: the value every item it can match would map to under the
/// owning mailbox's bucket-key extractor (or kAnyBucket to opt out).
template <typename T>
class MatchPred {
 public:
  static constexpr std::size_t kCtxBytes = 16;

  MatchPred() noexcept = default;
  MatchPred(std::nullptr_t) noexcept {}  // match-any, like an empty std::function

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, MatchPred> &&
             std::is_invocable_r_v<bool, const std::remove_cvref_t<F>&, const T&>)
  MatchPred(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(sizeof(Fn) <= kCtxBytes && std::is_trivially_copyable_v<Fn>,
                  "matcher must be trivially copyable and at most kCtxBytes; "
                  "wrap bigger state in a named predicate struct");
    std::memcpy(ctx_, &f, sizeof(Fn));
    fn_ = [](const void* ctx, const T& v) {
      Fn fn;
      std::memcpy(&fn, ctx, sizeof(Fn));
      return static_cast<bool>(fn(v));
    };
    if constexpr (requires(const Fn& fr) {
                    { fr.bucket_key() } -> std::convertible_to<int>;
                  }) {
      bucket_ = f.bucket_key();
    }
  }

  /// An empty predicate matches everything.
  [[nodiscard]] bool operator()(const T& v) const { return fn_ == nullptr || fn_(ctx_, v); }
  [[nodiscard]] explicit operator bool() const noexcept { return fn_ != nullptr; }
  [[nodiscard]] int bucket() const noexcept { return bucket_; }

 private:
  using Fn = bool (*)(const void*, const T&);
  Fn fn_{nullptr};
  int bucket_{kAnyBucket};
  alignas(alignof(std::max_align_t)) unsigned char ctx_[kCtxBytes]{};
};

template <typename T>
class Mailbox {
 public:
  using Matcher = MatchPred<T>;
  /// Maps a queued item to its bucket (for messages: the source rank).
  using BucketKeyFn = int (*)(const T&);

  explicit Mailbox(Simulation& sim, BucketKeyFn bucket_key = nullptr)
      : sim_(sim), bucket_key_(bucket_key) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deliver an item. If a waiter's matcher accepts it, that waiter is
  /// resumed (via the scheduler) with the item; otherwise the item queues.
  void push(T item) {
    ++stats_.pushes;
    for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
      if (it->matcher(item)) {
        std::optional<T>* slot = it->slot;
        const std::coroutine_handle<> handle = it->handle;
        waiters_.erase(it);
        slot->emplace(std::move(item));
        sim_.schedule_resume(sim_.now(), handle);
        return;
      }
    }
    const std::uint64_t seq = next_seq_++;
    if (bucket_key_) buckets_[bucket_key_(item)].push_back(seq);
    entries_.push_back(Entry{std::move(item), true});
    ++live_;
    if (live_ > stats_.max_depth) stats_.max_depth = live_;
    // Tombstones between a stuck front entry and the tail are only swept by
    // this compaction (reclaim_front stops at the first live entry), so a
    // long-lived unmatched message must not pin a run's worth of dead
    // entries. Compacting here -- never inside take_matching, which may be
    // mid-iteration over a bucket deque -- keeps iterators out of harm's
    // way. Amortised O(1): a pass costs O(size) and only runs once the
    // queue has doubled its dead weight.
    if (entries_.size() >= kCompactMin && live_ * 2 <= entries_.size()) compact();
  }

  /// Awaitable receive. With no matcher, receives the oldest item.
  [[nodiscard]] auto recv(Matcher matcher = {}) {
    struct Awaiter {
      Mailbox& box;
      Matcher matcher;
      std::optional<T> slot;

      [[nodiscard]] bool await_ready() {
        auto found = box.take_matching(matcher);
        if (found) {
          slot = std::move(found);
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        box.waiters_.push_back(Waiter{matcher, &slot, h});
      }
      T await_resume() { return std::move(*slot); }
    };
    return Awaiter{*this, matcher, std::nullopt};
  }

  /// Non-blocking receive.
  [[nodiscard]] std::optional<T> try_recv(const Matcher& matcher = {}) {
    return take_matching(matcher);
  }

  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::size_t waiting() const noexcept { return waiters_.size(); }
  /// Physical queue depth: live entries plus not-yet-compacted tombstones.
  /// The gap to pending() is the dead weight compaction exists to bound.
  [[nodiscard]] std::size_t buffered() const noexcept { return entries_.size(); }
  [[nodiscard]] const MailboxStats& stats() const noexcept { return stats_; }

 private:
  /// A queued item plus its tombstone flag. Taken items are marked dead in
  /// place (so bucket indices stay valid) and reclaimed when they reach the
  /// deque front; `front_seq_ + entries_.size() == next_seq_` always holds,
  /// making seq -> index a subtraction.
  struct Entry {
    T item;
    bool alive;
  };

  struct Waiter {
    Matcher matcher;
    std::optional<T>* slot;
    std::coroutine_handle<> handle;
  };

  [[nodiscard]] const Entry* entry_for(std::uint64_t seq) const noexcept {
    if (seq < front_seq_) return nullptr;  // already reclaimed
    return &entries_[static_cast<std::size_t>(seq - front_seq_)];
  }

  void reclaim_front() {
    while (!entries_.empty() && !entries_.front().alive) {
      entries_.pop_front();
      ++front_seq_;
    }
  }

  /// Below this depth a full rebuild costs more than the tombstones it
  /// frees; small queues just ride on reclaim_front().
  static constexpr std::size_t kCompactMin = 64;

  /// Rebuild the queue with only live entries, renumbering them from
  /// next_seq_ upward in arrival order. Bucket deques are rebuilt to the new
  /// seqs, so every stale index disappears in the same pass. Renumbering
  /// keeps the `front_seq_ + entries_.size() == next_seq_` subtraction
  /// invariant without per-entry seq storage; relative arrival order (all
  /// matching tie-breaks) is untouched.
  void compact() {
    std::deque<Entry> alive;
    for (auto& e : entries_) {
      if (e.alive) alive.push_back(std::move(e));
    }
    entries_ = std::move(alive);
    buckets_.clear();
    front_seq_ = next_seq_;
    for (const auto& e : entries_) {
      if (bucket_key_) buckets_[bucket_key_(e.item)].push_back(next_seq_);
      ++next_seq_;
    }
    ++stats_.compactions;
  }

  std::optional<T> take(Entry& e) {
    std::optional<T> out(std::move(e.item));
    e.alive = false;
    --live_;
    ++stats_.matches;
    reclaim_front();
    return out;
  }

  std::optional<T> take_matching(const Matcher& matcher) {
    if (live_ == 0) {
      // Everything queued was taken; drop any stale bucket entries so an
      // idle mailbox holds no per-peer state.
      if (!buckets_.empty()) buckets_.clear();
      return std::nullopt;
    }
    if (bucket_key_ && matcher.bucket() != kAnyBucket) {
      const auto bit = buckets_.find(matcher.bucket());
      if (bit == buckets_.end()) return std::nullopt;
      auto& bq = bit->second;
      for (std::size_t i = 0; i < bq.size();) {
        const Entry* e = entry_for(bq[i]);
        if (e == nullptr || !e->alive) {
          // Stale: taken via an any-bucket scan or reclaimed; drop lazily.
          bq.erase(bq.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++stats_.items_scanned;
        if (matcher(e->item)) {
          auto out = take(entries_[static_cast<std::size_t>(bq[i] - front_seq_)]);
          bq.erase(bq.begin() + static_cast<std::ptrdiff_t>(i));
          if (bq.empty()) buckets_.erase(bit);
          return out;
        }
        ++i;
      }
      return std::nullopt;
    }
    for (auto& e : entries_) {
      if (!e.alive) continue;
      ++stats_.items_scanned;
      if (matcher(e.item)) return take(e);
      // The matching bucket (if any) keeps a stale seq; the next bucketed
      // scan of that bucket drops it.
    }
    return std::nullopt;
  }

  Simulation& sim_;
  BucketKeyFn bucket_key_{nullptr};
  std::deque<Entry> entries_;
  std::uint64_t front_seq_{0};  ///< seq of entries_.front()
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
  std::unordered_map<int, std::deque<std::uint64_t>> buckets_;
  std::vector<Waiter> waiters_;  // short; vector iteration beats deque here
  MailboxStats stats_;
};

}  // namespace pdc::sim
