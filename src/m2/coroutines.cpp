#include "m2/coroutines.hpp"

namespace bfly::m2 {

namespace {
// A coroutine TRANSFER on the 68000: save/restore registers and stack
// pointer — a dozen microseconds.
constexpr sim::Time kTransferCost = 12 * sim::kMicrosecond;
}  // namespace

CoroutineSystem::CoroutineSystem(chrys::Kernel& k)
    : k_(k), m_(k.machine()), node_(k.self().node()) {
  main_.id_ = 0;
  main_.fiber_ = sim::Fiber::current();
  main_.started_ = true;  // main is already running
  current_ = &main_;
}

CoroutineSystem::~CoroutineSystem() {
  // Suspended coroutines die with the system (Modula-2 semantics: they are
  // just stacks inside the process).  Abandon their fibers so the machine
  // does not count them as deadlocked.  A finished coroutine's fiber is
  // already gone.
  for (auto& c : coros_)
    if (c->started_ && !c->finished_ && c->fiber_ != nullptr)
      m_.abandon(c->fiber_);
}

Coroutine* CoroutineSystem::new_coroutine(std::function<void()> body) {
  auto c = std::make_unique<Coroutine>();
  c->id_ = static_cast<std::uint32_t>(coros_.size() + 1);
  c->body = std::move(body);
  coros_.push_back(std::move(c));
  m_.charge(30 * sim::kMicrosecond);  // stack allocation
  return coros_.back().get();
}

void CoroutineSystem::transfer(Coroutine* to) {
  if (to == nullptr || to->finished_)
    throw chrys::ThrowSignal{chrys::kThrowBadObject,
                             to != nullptr ? to->id_ : 0};
  Coroutine* from = current_;
  if (to == from) return;
  m_.charge(kTransferCost);
  ++transfers_;
  current_ = to;
  if (!to->started_) {
    to->started_ = true;
    Coroutine* tp = to;
    to->fiber_ = m_.spawn_parked(node_, [this, tp] {
      // However the body ends (returning, or unwound by a node kill), the
      // machine frees the fiber with it: mark the coroutine finished so
      // that nothing wakes or abandons the fiber again.
      struct Finish {
        Coroutine* c;
        ~Finish() { c->finished_ = true; }
      } finish{tp};
      tp->body();
      // Falling off the end returns control to main (Modula-2 would crash
      // the program; returning to main is the friendlier convention).
      current_ = &main_;
      m_.wakeup(main_.fiber_);
    });
  }
  m_.wakeup(to->fiber_);
  m_.park();
  // Resumed: someone transferred back to `from`.
  current_ = from;
}

}  // namespace bfly::m2
