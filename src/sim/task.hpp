// pdceval -- coroutine task type for simulation processes.
//
// `Task<T>` is a lazy coroutine: creating it does not run any code; it runs
// when first resumed (by `co_await`ing it from another coroutine, or by the
// scheduler for a spawned root process). On completion it symmetrically
// transfers control back to its awaiter. Exceptions propagate to the awaiter
// through `co_await`; for root processes the `Simulation` collects them.
//
// Frames come from the global heap. The per-message operations (a send, a
// recv, a billed compute step) are awaiters rather than tasks, so they take
// no frame at all; what remains are program bodies and collectives.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace pdc::sim {

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;  // resumed when this task finishes
  std::exception_ptr exception;

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept { return {}; }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// Lazy coroutine task. Move-only; owns the coroutine frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() noexcept {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(handle_); }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const noexcept { return handle_; }

  /// Awaiting a task starts it and suspends the awaiter until it completes.
  auto operator co_await() const& noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      [[nodiscard]] bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        if (h.promise().exception) std::rethrow_exception(h.promise().exception);
        return std::move(*h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

  /// Rethrows the task's exception, if it finished with one.
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception) std::rethrow_exception(handle_.promise().exception);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
struct Task<void>::promise_type : detail::PromiseBase {
  Task get_return_object() noexcept {
    return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
  }
  void return_void() const noexcept {}
};

template <>
inline auto Task<void>::operator co_await() const& noexcept {
  struct Awaiter {
    std::coroutine_handle<promise_type> h;
    [[nodiscard]] bool await_ready() const noexcept { return !h || h.done(); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      h.promise().continuation = cont;
      return h;
    }
    void await_resume() {
      if (h.promise().exception) std::rethrow_exception(h.promise().exception);
    }
  };
  return Awaiter{handle_};
}

}  // namespace pdc::sim
