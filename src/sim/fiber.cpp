#include "sim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <exception>

// AddressSanitizer must be told about every stack switch, or its shadow
// memory (and the unwinder's notion of the current stack) stays pointed at
// the previous context — throws and deep frames on fiber stacks then report
// bogus stack-buffer-overflows.  The annotations below follow the protocol
// from <sanitizer/common_interface_defs.h>: announce the destination stack
// before switch_context, restore the arriving context's fake stack right
// after.
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

#if defined(__x86_64__)
// The x86-64 SysV switch.  swapcontext also saves and restores the signal
// mask, which costs a sigprocmask system call per switch; nothing in the
// simulator uses signal masks, so this switch keeps only what the ABI says
// a callee must preserve: rbp, rbx, r12-r15, the MXCSR control bits and the
// x87 control word.
//
// bfly_fiber_switch(save, load) pushes those onto the current stack, stores
// rsp in *save, loads rsp from `load`, pops the same frame from there and
// returns into the other context.  A new fiber's stack holds a hand-made
// frame whose return address is bfly_fiber_start; it calls r13(r12), i.e.
// Fiber::entry(this), on a 16-byte-aligned stack and marks the end of the
// call chain for unwinders.
extern "C" void bfly_fiber_switch(void** save, void* load);
extern "C" void bfly_fiber_start();

asm(R"(
  .pushsection .text
  .p2align 4
  .globl bfly_fiber_switch
  .hidden bfly_fiber_switch
  .type bfly_fiber_switch, @function
bfly_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size bfly_fiber_switch, .-bfly_fiber_switch

  .p2align 4
  .globl bfly_fiber_start
  .hidden bfly_fiber_start
  .type bfly_fiber_start, @function
bfly_fiber_start:
  .cfi_startproc
  .cfi_undefined %rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size bfly_fiber_start, .-bfly_fiber_start
  .popsection
)");
#endif

namespace bfly::sim {

namespace {
// The running fiber and the engine context every fiber switches back to.
// Engines run on a single host thread, so one saved context serves them all.
Fiber* g_current = nullptr;
FiberContext g_engine_ctx;
#if defined(BFLY_ASAN_FIBERS)
// The engine runs on the host thread's own stack; its bounds are learned
// from the first finish_switch_fiber on arrival in a fiber.
void* g_engine_fake_stack = nullptr;
const void* g_engine_stack_bottom = nullptr;
std::size_t g_engine_stack_size = 0;
#endif

// Save the running context in *save and continue in `load`.
inline void switch_context(FiberContext* save, FiberContext* load) {
#if defined(__x86_64__)
  bfly_fiber_switch(save, *load);
#else
  swapcontext(save, load);
#endif
}

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
#if defined(__x86_64__)
  // The frame bfly_fiber_switch pops on the first resume, lowest address
  // first.  The fiber inherits its creator's FP control settings, as a
  // getcontext-made context would.
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_.get()) + stack_bytes) &
      ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
  frame[0] = mxcsr | (std::uint64_t{x87_cw} << 32);
  frame[1] = 0;                                                  // r15
  frame[2] = 0;                                                  // r14
  frame[3] = reinterpret_cast<std::uintptr_t>(&Fiber::entry);   // r13
  frame[4] = reinterpret_cast<std::uintptr_t>(this);            // r12
  frame[5] = 0;                                                  // rbx
  frame[6] = 0;                                                  // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&bfly_fiber_start);
  ctx_ = frame;
#else
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = stack_bytes;
  ctx_.uc_link = nullptr;  // fibers exit through run_body(), never fall off
  const auto ptr = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(ptr >> 32),
              static_cast<unsigned>(ptr & 0xffffffffu));
#endif
  state_ = State::kRunnable;
}

Fiber::~Fiber() {
  // Destroying a live fiber abandons its stack; that is fine for simulation
  // teardown (Machine deletes all fibers when a run is abandoned).
}

#if !defined(__x86_64__)
void Fiber::trampoline(unsigned hi, unsigned lo) {
  entry(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                 lo));
}
#endif

void Fiber::entry(Fiber* self) {
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
  switch_context(&ctx_, &g_engine_ctx);
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
  switch_context(&g_engine_ctx, &ctx_);
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
  switch_context(&self->ctx_, &g_engine_ctx);
  asan_enter_fiber(self->asan_fake_stack_);
}

Fiber* Fiber::current() { return g_current; }

}  // namespace bfly::sim
