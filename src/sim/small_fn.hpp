// Small-buffer-optimized move-only closure for the event engine.
//
// The discrete-event hot loop used to pay a std::function heap allocation
// per posted event.  Engine events are now typed (fiber resumes carry a raw
// pointer, see engine.hpp); the closures that remain — kernel timeouts,
// fault kills, test bodies — are small lambdas, so SmallFn stores anything
// up to kInlineBytes in place and only falls back to the heap for outsized
// captures.  Move-only, like the engine's ownership of its events.
//
// The engine keeps closures in a slot table outside its heap, so a closure
// is moved exactly twice (into its slot at post, out of it at dispatch).
// Moves therefore need no fast path: one indirect call relocates the
// callable, inline or heap-held alike.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bfly::sim {

class SmallFn {
 public:
  /// Covers every closure the runtime layers post today (the largest is
  /// Kernel's dual-queue timeout at three words, see kernel.cpp).
  /// Outsized captures fall back to the heap.
  static constexpr std::size_t kInlineBytes = 24;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): callsites pass lambdas.
  SmallFn(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      Fn* p = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  ~SmallFn() { reset(); }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* p);
    /// Move-construct the callable into `dst` and destroy it at `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* p);
  };

  template <typename Fn>
  static constexpr bool fits() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void relocate(void* dst, void* src) {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* p) {
      Fn* f;
      std::memcpy(&f, p, sizeof(f));
      return f;
    }
    static void invoke(void* p) { (*get(p))(); }
    static void relocate(void* dst, void* src) {
      std::memcpy(dst, src, sizeof(Fn*));
    }
    static void destroy(void* p) { delete get(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace bfly::sim
