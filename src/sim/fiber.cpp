#include "sim/fiber.hpp"

#include <cassert>
#include <cstdlib>
#include <exception>
#include <new>
#include <vector>

#include <sys/mman.h>

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
#include <sanitizer/asan_interface.h>
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
// from finish_switch_fiber on arrival in a fiber from the engine.  An
// arrival from another fiber (switch_to) must not record them: the bounds
// it reports are that fiber's stack.
void* g_engine_fake_stack = nullptr;
const void* g_engine_stack_bottom = nullptr;
std::size_t g_engine_stack_size = 0;
bool g_from_engine = false;  // the switch in flight left the engine
#endif

// Save the running context in *save and continue in `load`.
inline void switch_context(FiberContext* save, FiberContext* load) {
#if defined(__x86_64__)
  bfly_fiber_switch(save, *load);
#else
  swapcontext(save, load);
#endif
}

// Fiber stacks are mapped straight from the kernel, outside the malloc
// heap, so the resident set counts only the pages fibers have touched and
// does not depend on where the allocator puts other data.  A destroyed
// fiber's stack goes onto a LIFO free list of same-size stacks, which new
// fibers take from before mapping more.  The lists are per thread rather
// than per Machine: a caller that builds a fresh Machine per run reuses the
// previous run's stacks (already faulted in, and warm when LIFO) instead of
// paying a map and page faults per fiber.  They hold at most the peak
// number of fibers that were live at once.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (const List& l : lists_)
      for (char* s : l.free) {
        unpoison(s, l.bytes);
        munmap(s, l.bytes);
      }
  }

  char* take(std::size_t bytes) {
    std::vector<char*>& free = list(bytes);
    if (free.empty()) {
      void* s = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (s == MAP_FAILED) throw std::bad_alloc();
      return static_cast<char*>(s);
    }
    char* s = free.back();
    free.pop_back();
    // A stack abandoned mid-call keeps its frames' redzones poisoned; the
    // next fiber's frames land on them.
    unpoison(s, bytes);
    return s;
  }

  void give(char* s, std::size_t bytes) { list(bytes).push_back(s); }

 private:
  struct List {
    std::size_t bytes;
    std::vector<char*> free;
  };

  static void unpoison([[maybe_unused]] char* s,
                       [[maybe_unused]] std::size_t bytes) {
#if defined(BFLY_ASAN_FIBERS)
    ASAN_UNPOISON_MEMORY_REGION(s, bytes);
#endif
  }

  std::vector<char*>& list(std::size_t bytes) {
    for (List& l : lists_)
      if (l.bytes == bytes) return l.free;
    lists_.push_back(List{bytes, {}});
    return lists_.back().free;
  }

  std::vector<List> lists_;
};
thread_local StackPool t_stacks;

// Called first thing on arrival in a fiber.  When the departed context is
// the engine, the out-params record the engine's stack bounds.
inline void asan_enter_fiber([[maybe_unused]] void* fake_stack) {
#if defined(BFLY_ASAN_FIBERS)
  if (g_from_engine) {
    __sanitizer_finish_switch_fiber(fake_stack, &g_engine_stack_bottom,
                                    &g_engine_stack_size);
  } else {
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
  }
#endif
}
}  // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes,
             std::string name, std::uint64_t spawn_index)
    : body_(std::move(body)),
      stack_(t_stacks.take(stack_bytes)),
      stack_bytes_(stack_bytes),
      name_(std::move(name)),
      spawn_index_(spawn_index) {
#if defined(__x86_64__)
  // The frame bfly_fiber_switch pops on the first resume, lowest address
  // first.  The fiber inherits its creator's FP control settings, as a
  // getcontext-made context would.
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_) + stack_bytes) &
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
  ctx_.uc_stack.ss_sp = stack_;
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
  // Destroying a live fiber abandons whatever its stack still holds; that
  // is fine for simulation teardown (Machine deletes all fibers when a run
  // is abandoned).  No fiber is ever destroyed while running on its own
  // stack, so the stack can go straight back on the free list.
  t_stacks.give(stack_, stack_bytes_);
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
  g_from_engine = true;
  __sanitizer_start_switch_fiber(&g_engine_fake_stack, stack_,
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

void Fiber::switch_to(Fiber* next) {
  Fiber* self = g_current;
  assert(self != nullptr && "switch_to() must be called from a fiber");
  assert(next != self);
  assert(next->state_ == State::kRunnable || next->state_ == State::kBlocked);
  self->state_ = State::kBlocked;
  next->state_ = State::kRunning;
  g_current = next;
#if defined(BFLY_ASAN_FIBERS)
  g_from_engine = false;
  __sanitizer_start_switch_fiber(&self->asan_fake_stack_, next->stack_,
                                 next->stack_bytes_);
#endif
  switch_context(&self->ctx_, &next->ctx_);
  asan_enter_fiber(self->asan_fake_stack_);
}

Fiber* Fiber::current() { return g_current; }

}  // namespace bfly::sim
