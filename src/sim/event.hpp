// pdceval -- non-allocating scheduled event.
//
// The kernel's hot path is dominated by coroutine resumes (every
// `schedule_resume`, mailbox wake-up and delay is one), so `Event` stores a
// bare `std::coroutine_handle` for that case and dispatches it with a direct
// `resume()` -- no type erasure, no indirection, no allocation. Arbitrary
// callables are carried in a 16-byte inline buffer (relocated by memcpy when
// trivially copyable); only callables larger than the buffer spill to one
// heap block.
//
// The budget is two words because every event the kernel schedules needs no
// more: the mp runtime's message hops capture one `Parcel*` (plus at most
// one scalar), a send's or a mailbox wake's capture is one awaiter or
// waiter pointer, and a coroutine resume is one handle. An event is 24 bytes,
// so an event-queue entry (time, sequence, event) is 40.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace pdc::sim {

class Event {
 public:
  /// Inline capture budget: two pointers, 8-byte aligned. It holds every
  /// mp message hop (a `Parcel*` and at most one more word) and a lone
  /// `shared_ptr` without spilling.
  static constexpr std::size_t kInlineBytes = 16;
  static constexpr std::size_t kInlineAlign = 8;

  Event() noexcept : handle_(nullptr) {}

  /// Fast path: a coroutine resume.
  Event(std::coroutine_handle<> h) noexcept : handle_(h) {}

  /// Any other callable. Small trivially-copyable callables are stored
  /// inline and relocated with memcpy during heap sifts; small non-trivial
  /// ones are stored inline with a per-type relocate/destroy; larger ones
  /// take one heap allocation.
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Event> &&
             !std::is_convertible_v<F, std::coroutine_handle<>> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Event(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                  std::is_trivially_copyable_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kTrivialOps<Fn>;
    } else if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
                         std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  Event(Event&& o) noexcept { steal(o); }
  Event& operator=(Event&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  ~Event() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr || handle_ != nullptr;
  }

  /// Fire the event. A coroutine event resumes directly; a callable event
  /// dispatches through one function pointer.
  void operator()() {
    if (ops_ == nullptr) {
      handle_.resume();
    } else {
      ops_->invoke(storage_);
    }
  }

  /// True when this event is a bare coroutine resume (the fast kind).
  [[nodiscard]] bool is_resume() const noexcept { return ops_ == nullptr && handle_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct `dst` from `src` and destroy `src`. nullptr means the
    // payload is trivially relocatable: memcpy and forget the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;  // nullptr: trivially destructible
  };

  template <typename Fn>
  static constexpr Ops kTrivialOps{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      nullptr,
      nullptr,
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
      nullptr,  // the stored pointer relocates by memcpy
      [](void* s) noexcept { delete *std::launder(reinterpret_cast<Fn**>(s)); },
  };

  void steal(Event& o) noexcept {
    ops_ = o.ops_;
    if (ops_ == nullptr) {
      handle_ = o.handle_;
      o.handle_ = nullptr;
    } else {
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, o.storage_);
      } else {
        std::memcpy(storage_, o.storage_, kInlineBytes);
      }
      o.ops_ = nullptr;
      o.handle_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
    ops_ = nullptr;
    handle_ = nullptr;
  }

  union {
    std::coroutine_handle<> handle_;
    alignas(kInlineAlign) unsigned char storage_[kInlineBytes];
  };
  const Ops* ops_{nullptr};  // nullptr: coroutine resume (or empty)
};

// The inline budget fills the aligned union exactly: one more byte of budget
// would grow every queued event by a whole alignment step.
static_assert(sizeof(Event) == 24);

}  // namespace pdc::sim
