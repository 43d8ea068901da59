#include "sim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <exception>

// AddressSanitizer must be told about every stack switch, or its shadow
// memory (and the unwinder's notion of the current stack) stays pointed at
// the previous context — throws and deep frames on fiber stacks then report
// bogus stack-buffer-overflows.  The annotations below follow the protocol
// from <sanitizer/common_interface_defs.h>: announce the destination stack
// before swapcontext, restore the arriving context's fake stack right after.
#if defined(__SANITIZE_ADDRESS__)
#define BFLY_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BFLY_ASAN_FIBERS 1
#endif
#endif
#if defined(BFLY_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace bfly::sim {

namespace {
// The running fiber and the engine context every fiber switches back to.
// Engines run on a single host thread, so one saved context serves them all.
Fiber* g_current = nullptr;
ucontext_t g_engine_ctx;
#if defined(BFLY_ASAN_FIBERS)
// The engine runs on the host thread's own stack; its bounds are learned
// from the first finish_switch_fiber on arrival in a fiber.
void* g_engine_fake_stack = nullptr;
const void* g_engine_stack_bottom = nullptr;
std::size_t g_engine_stack_size = 0;
#endif

// Called first thing on arrival in a fiber; the departed context is always
// the engine, so the out-params record the engine's stack bounds.
inline void asan_enter_fiber([[maybe_unused]] void* fake_stack) {
#if defined(BFLY_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(fake_stack, &g_engine_stack_bottom,
                                  &g_engine_stack_size);
#endif
}
}  // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes),
      name_(std::move(name)) {
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = stack_bytes;
  ctx_.uc_link = nullptr;  // fibers exit through run_body(), never fall off
  const auto ptr = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xffffffffu));
  state_ = State::kRunnable;
}

Fiber::~Fiber() {
  // Destroying a live fiber abandons its stack; that is fine for simulation
  // teardown (Machine deletes all fibers when a run is abandoned).
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | lo);
  asan_enter_fiber(nullptr);  // first entry: no fake stack to restore
  self->run_body();
}

void Fiber::run_body() {
  try {
    body_();
  } catch (const FiberKill&) {
    // The fiber's node died; the stack has already unwound to here.
  }
  state_ = State::kFinished;
  g_current = nullptr;
#if defined(BFLY_ASAN_FIBERS)
  // nullptr handle: the fiber is done, let ASan free its fake stack.
  __sanitizer_start_switch_fiber(nullptr, g_engine_stack_bottom,
                                 g_engine_stack_size);
#endif
  swapcontext(&ctx_, &g_engine_ctx);
  // Never reached.
  std::abort();
}

void Fiber::resume() {
  assert(g_current == nullptr && "resume() must be called from the engine");
  assert(state_ == State::kRunnable || state_ == State::kBlocked);
  state_ = State::kRunning;
  g_current = this;
#if defined(BFLY_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&g_engine_fake_stack, stack_.get(),
                                 stack_bytes_);
#endif
  swapcontext(&g_engine_ctx, &ctx_);
#if defined(BFLY_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(g_engine_fake_stack, nullptr, nullptr);
#endif
}

void Fiber::yield_to_engine() {
  Fiber* self = g_current;
  assert(self != nullptr && "yield_to_engine() must be called from a fiber");
  self->state_ = State::kBlocked;
  g_current = nullptr;
#if defined(BFLY_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_,
                                 g_engine_stack_bottom, g_engine_stack_size);
#endif
  swapcontext(&self->ctx_, &g_engine_ctx);
  asan_enter_fiber(self->asan_fake_stack_);
}

Fiber* Fiber::current() { return g_current; }

}  // namespace bfly::sim
