// Stackful fibers for simulated processors.
//
// Every simulated thread of control (Chrysalis process, Uniform System
// manager, Ant Farm thread, ...) runs on a Fiber.  Fibers are cooperatively
// scheduled by the discrete-event engine on a single host thread, so the
// whole simulation is deterministic.  Code running on a fiber blocks by
// switching away: straight into the fiber whose resume is the next event
// (switch_to), or back to the engine context when that event is anything
// else (yield_to_engine).  Either way it continues when some context
// switches back into it.  This lets the ported Butterfly APIs (event_wait,
// dequeue, ...) look exactly like the originals: plain blocking calls.
//
// On x86-64 a switch is a few dozen instructions of hand-written assembly
// (fiber.cpp); other targets fall back to ucontext's swapcontext.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace bfly::sim {

/// Thrown inside a fiber whose node has been killed by a FaultPlan.  It is
/// raised from the machine's yield points (charge/park) so the fiber's stack
/// unwinds cleanly — destructors run, host resources are released — and is
/// swallowed by Fiber::run_body.  User code should never catch it (catching
/// by value or by `...` and continuing would keep a dead node's code alive).
struct FiberKill {};

/// A switched-out context.  On x86-64 it is the saved stack pointer: the
/// callee-saved registers and FP control words sit in the frame it points
/// at.
#if defined(__x86_64__)
using FiberContext = void*;
#else
using FiberContext = ucontext_t;
#endif

class Fiber {
 public:
  enum class State { kCreated, kRunnable, kRunning, kBlocked, kFinished };

  /// `body` runs on the fiber's own stack the first time it is resumed.
  /// `spawn_index` is the fiber's creation order within its machine.
  Fiber(std::function<void()> body, std::size_t stack_bytes,
        std::string name = {}, std::uint64_t spawn_index = 0);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the engine context into this fiber.  Returns when a fiber
  /// (this one, or one reached from it by switch_to) yields to the engine
  /// or finishes.  Must not be called from a fiber.
  void resume();

  /// Switch from the currently running fiber back to the engine.  The
  /// fiber's state becomes kBlocked until someone calls resume() again.
  static void yield_to_engine();

  /// Switch from the currently running fiber straight into `next`, without
  /// passing through the engine.  The caller becomes kBlocked and `next`
  /// kRunning; the call returns when some context switches back into the
  /// caller.  `next` must be runnable or blocked and not the caller.
  static void switch_to(Fiber* next);

  /// The fiber currently executing, or nullptr when the engine is running.
  static Fiber* current();

  State state() const { return state_; }
  bool finished() const { return state_ == State::kFinished; }
  const std::string& name() const { return name_; }
  /// Creation order within the machine (0, 1, 2, ...): a deterministic
  /// identity for a fiber without a name, unlike its address.
  std::uint64_t spawn_index() const { return spawn_index_; }

  /// One opaque word for the layer that runs its code on this fiber (the
  /// Chrysalis kernel keeps its Process* here).  sim never reads it.
  void* owner() const { return owner_; }
  void set_owner(void* o) { owner_ = o; }

  /// One opaque word for the Machine that runs this fiber: its control
  /// block, set at spawn and cleared when the machine lets go of it.
  void* ctl() const { return ctl_; }
  void set_ctl(void* c) { ctl_ = c; }

 private:
  [[noreturn]] static void entry(Fiber* self);
#if !defined(__x86_64__)
  static void trampoline(unsigned hi, unsigned lo);
#endif
  [[noreturn]] void run_body();

  std::function<void()> body_;
  // Mapped memory taken from, and given back to, a per-thread free list of
  // same-size stacks (see fiber.cpp): once the list holds the peak number
  // of live fibers, a new fiber costs no allocation.
  char* stack_;
  std::size_t stack_bytes_;
  void* owner_ = nullptr;
  void* ctl_ = nullptr;
  // ASan bookkeeping: the fake-stack handle saved while this fiber is
  // switched out (see the fiber-switch annotations in fiber.cpp).  Unused
  // (but harmless) in non-sanitized builds.
  void* asan_fake_stack_ = nullptr;
  FiberContext ctx_{};
  State state_ = State::kCreated;
  std::string name_;
  std::uint64_t spawn_index_;
};

}  // namespace bfly::sim
