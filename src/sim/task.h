#ifndef REFLEX_SIM_TASK_H_
#define REFLEX_SIM_TASK_H_

#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "sim/logging.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "sim/time.h"

#ifdef REFLEX_CORO_DEBUG
#include <source_location>

#include "sim/coro_debug.h"
#endif

namespace reflex::sim {

/**
 * A detached simulation process implemented as a C++20 coroutine.
 *
 * Tasks start eagerly and own their own lifetime: the coroutine frame
 * is destroyed automatically when the body finishes. Simulation
 * processes communicate through Future/Promise pairs, Semaphores, or
 * explicit callbacks rather than by joining Task objects.
 *
 * Ownership rulebook (DESIGN.md section 18, enforced by corolint):
 * a Task that can outlive the code that spawned it -- any infinite
 * polling loop, or any await on an event that may never fire -- joins
 * its owner's FrameSet, so the owner destroys the parked frame at
 * teardown. Parameters are passed by value or pointer, never by
 * reference, and coroutine lambdas never capture: the frame suspends,
 * and referents/captures die under it.
 *
 * With -DREFLEX_CORO_DEBUG=ON every frame registers itself with the
 * coro_debug registry on creation (tagged with the coroutine's name)
 * and unregisters on destruction; ~Simulator() asserts that no frames
 * are left alive. See src/sim/coro_debug.h.
 *
 * Usage:
 *   Task Server::Loop() {
 *     auto self = co_await frames_.Join();
 *     for (;;) {
 *       co_await Delay(sim_, 5 * kMicrosecond);
 *       ...
 *     }
 *   }
 */
class Task {
 public:
  struct promise_type {
#ifdef REFLEX_CORO_DEBUG
    // The defaulted source_location resolves to the coroutine that
    // this promise is synthesized into, tagging the frame with its
    // creation site for the teardown report.
    explicit promise_type(
        std::source_location loc = std::source_location::current()) {
      internal::CoroDebugRegister(
          std::coroutine_handle<promise_type>::from_promise(*this).address(),
          loc.function_name(), loc.file_name(), loc.line());
    }
    ~promise_type() {
      internal::CoroDebugUnregister(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }
#endif
    // Frames come from the size-class pool (sim/pool.h), which passes
    // through to ::operator new under ASan and REFLEX_CORO_DEBUG.
    static void* operator new(std::size_t bytes) {
      return PoolAllocate(bytes);
    }
    static void operator delete(void* frame, std::size_t bytes) noexcept {
      PoolDeallocate(frame, bytes);
    }
    Task get_return_object() noexcept { return Task{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      REFLEX_PANIC("unhandled exception escaped a sim::Task");
    }
  };
};

/**
 * The parked coroutine frames that one object owns. A coroutine that
 * can park where no event will ever resume it (a polling loop, or an
 * await on an event that may never fire) joins its owner's set with
 * one statement at the top of its body:
 *
 *   auto self = co_await frames_.Join();
 *
 * The join neither suspends nor allocates: `self` is the frame's link,
 * it lives in the frame and unlinks itself when the frame ends --
 * whether the body returns or the frame is destroyed. Destroying the
 * set, or Clear(), destroys every frame still joined, newest first, so
 * a frame started by an older joined frame dies before the frame whose
 * locals it points at. The owner destroys its frames before anything
 * they reference (it declares the set after those members, or clears
 * it first in its destructor) and after anything that points into
 * them.
 */
class FrameSet {
 private:
  struct Link {
    Link* prev;
    Link* next;
  };

 public:
  /** A joined frame's link (the value of `co_await Join()`). */
  class Member : private Link {
   public:
    Member(const Member&) = delete;
    Member& operator=(const Member&) = delete;
    ~Member() {
      prev->next = next;
      next->prev = prev;
    }

   private:
    friend class FrameSet;
    Member(Link* head, std::coroutine_handle<> frame) noexcept
        : Link{head->prev, head}, frame_(frame) {
      prev->next = this;
      head->prev = this;
    }
    std::coroutine_handle<> frame_;
  };

  FrameSet() noexcept : head_{&head_, &head_} {}
  FrameSet(const FrameSet&) = delete;
  FrameSet& operator=(const FrameSet&) = delete;
  ~FrameSet() { Clear(); }

  /** Awaitable that links the awaiting frame into this set without
   * suspending it; its value is the frame's Member. */
  auto Join() noexcept {
    struct Awaiter {
      Link* head;
      std::coroutine_handle<> frame;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) noexcept {
        frame = h;
        return false;  // capture only; resume immediately
      }
      Member await_resume() const noexcept { return Member(head, frame); }
    };
    return Awaiter{&head_, nullptr};
  }

  bool empty() const noexcept { return head_.next == &head_; }

  /** Destroys every joined frame, newest first. Each frame's Member
   * unlinks itself as the frame dies. */
  void Clear() {
    while (!empty()) static_cast<Member*>(head_.prev)->frame_.destroy();
  }

 private:
  Link head_;
};

/**
 * Awaitable that suspends the current task for `delay` of simulated
 * time. A zero (or negative) delay still round-trips through the event
 * queue so that same-time events retain FIFO ordering.
 *
 * A frame destroyed while parked here cancels its wake-up event (the
 * awaiter dies with the frame), so the timer never resumes freed
 * memory.
 */
class Delay {
 public:
  Delay(Simulator& sim, TimeNs delay) : sim_(sim), delay_(delay) {}
  Delay(const Delay&) = delete;
  Delay& operator=(const Delay&) = delete;
  ~Delay() {
    if (timer_.issued()) sim_.Cancel(timer_);
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    timer_ = sim_.ScheduleAfter(delay_ > 0 ? delay_ : 0, [h] { h.resume(); });
  }
  void await_resume() noexcept { timer_ = TimerHandle(); }

 private:
  Simulator& sim_;
  TimeNs delay_;
  TimerHandle timer_;
};

namespace internal {

template <typename T>
struct FutureState {
  Simulator* sim = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  /** The delivered waiter's pending resume event. */
  TimerHandle resume;

  void Deliver() {
    if (waiter) {
      auto h = waiter;
      waiter = nullptr;
      // Resume through the event queue: keeps stack depth bounded and
      // event ordering deterministic.
      resume = sim->ScheduleAfter(0, [h] { h.resume(); });
    }
  }
};

}  // namespace internal

template <typename T>
class Promise;

/**
 * Single-shot value channel between simulation processes. A Future is
 * awaited (at most one waiter); its Promise is fulfilled exactly once.
 * Copies share the same underlying state.
 *
 * A default-constructed Future has no state (it allocates nothing; it
 * is a placeholder to be assigned from Promise::GetFuture()). It is
 * never Ready(); awaiting it or calling Get() on it fails a check.
 */
template <typename T>
class Future {
 public:
  Future() = default;

  bool Ready() const { return state_ != nullptr && state_->value.has_value(); }

  /** Returns the value. Requires Ready(). */
  const T& Get() const {
    REFLEX_CHECK(state_ != nullptr && state_->value.has_value());
    return *state_->value;
  }

  /**
   * Awaiting registers the frame as the single waiter. A frame
   * destroyed while parked here (the awaiter dies with the frame)
   * drops that registration, or cancels the resume event if the value
   * was already delivered, so nothing resumes the freed frame.
   */
  auto operator co_await() const noexcept {
    struct Awaiter {
      internal::FutureState<T>* state;
      std::coroutine_handle<> parked;

      explicit Awaiter(internal::FutureState<T>* s) : state(s) {}
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      ~Awaiter() {
        if (!parked) return;  // never suspended, or already resumed
        if (state->waiter == parked) {
          state->waiter = nullptr;
        } else {
          state->sim->Cancel(state->resume);
        }
      }
      bool await_ready() const {
        REFLEX_CHECK(state != nullptr);  // awaiting a default Future
        return state->value.has_value();
      }
      void await_suspend(std::coroutine_handle<> h) {
        REFLEX_CHECK(!state->waiter);  // single waiter
        state->waiter = h;
        parked = h;
      }
      T await_resume() {
        parked = nullptr;
        REFLEX_CHECK(state->value.has_value());
        return std::move(*state->value);
      }
    };
    return Awaiter(state_.get());
  }

 private:
  friend class Promise<T>;
  std::shared_ptr<internal::FutureState<T>> state_;
};

/** Producer side of a Future<T>. Creates the shared state (from the
 * size-class pool, sim/pool.h). */
template <typename T>
class Promise {
 public:
  explicit Promise(Simulator& sim) {
    future_.state_ = std::allocate_shared<internal::FutureState<T>>(
        PoolAllocator<internal::FutureState<T>>());
    future_.state_->sim = &sim;
  }

  Future<T> GetFuture() const { return future_; }

  /** Fulfills the future; any waiter resumes via the event queue. */
  void Set(T value) {
    auto& st = *future_.state_;
    REFLEX_CHECK(!st.value.has_value());
    st.value = std::move(value);
    st.Deliver();
  }

 private:
  Future<T> future_;
};

/** Tag type so Future<Unit>/Promise<Unit> model void completions. */
struct Unit {};

using VoidFuture = Future<Unit>;
using VoidPromise = Promise<Unit>;

/**
 * Counted resource with FIFO waiters. Models bounded resources such as
 * Flash write-buffer slots or client queue-depth limits.
 *
 * Ownership rule: a coroutine parked in Acquire() is owned by whoever
 * may destroy() its frame, and that owner must not destroy the frame
 * while it is still queued here -- Release() would resume freed
 * memory. Either drain the semaphore (release until Waiters()==0 and
 * let the waiters finish) before tearing frames down, or never
 * destroy a frame that is mid-Acquire. Under REFLEX_CORO_DEBUG the
 * resume path asserts the frame is still registered and panics with a
 * diagnosis instead of corrupting memory.
 */
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial)
      : sim_(sim), available_(initial) {}

  /** Awaitable acquire of one unit. */
  auto Acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept { return sem.TryAcquire(); }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /** Non-blocking acquire. */
  bool TryAcquire() {
    if (available_ > 0 && waiters_.empty()) {
      --available_;
      return true;
    }
    if (available_ > 0) {
      // Units available but waiters queued: preserve FIFO fairness.
      return false;
    }
    return false;
  }

  /** Releases one unit, waking the oldest waiter if any. */
  void Release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.ScheduleAfter(0, [h] {
#ifdef REFLEX_CORO_DEBUG
        if (!CoroDebugIsLive(h.address())) {
          REFLEX_PANIC(
              "sim::Semaphore::Release would resume a destroyed coroutine "
              "frame: the waiter was destroy()ed while still queued in the "
              "semaphore (see the ownership rule on sim::Semaphore)");
        }
#endif
        h.resume();
      });
    } else {
      ++available_;
    }
  }

  int64_t Available() const { return available_; }
  size_t Waiters() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  int64_t available_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Completion barrier: waits until Arrive() has been called `expected`
 * times. Useful for joining a fan-out of detached tasks.
 */
class Barrier {
 public:
  Barrier(Simulator& sim, int64_t expected)
      : promise_(sim), remaining_(expected) {
    REFLEX_CHECK(expected >= 0);
    if (expected == 0) promise_.Set(Unit{});
  }

  void Arrive() {
    REFLEX_CHECK(remaining_ > 0);
    if (--remaining_ == 0) promise_.Set(Unit{});
  }

  VoidFuture Done() const { return promise_.GetFuture(); }

 private:
  VoidPromise promise_;
  int64_t remaining_;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_TASK_H_
